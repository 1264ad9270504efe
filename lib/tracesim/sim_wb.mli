(** Write-buffer model for the trace-driven simulator: deliberately
    simpler than the machine's — no overlap with floating-point latency,
    the gap behind liv's Figure 3 error. *)

(** The buffer against a caller-owned clock.  The memory simulator
    derives each configuration's reference clock from shared event
    counters instead of ticking it, so a buffer that sees no store costs
    nothing.
    [ring_store r ~clock] returns the stall the store suffers; the caller
    must advance its later clocks by it (a qcheck property in the test
    suite holds the ring to an eagerly-ticked list model). *)
type ring

val ring_create : depth:int -> drain_cycles:int -> ring
(** @raise Invalid_argument if [depth <= 0]. *)

val ring_store : ring -> clock:int -> int
