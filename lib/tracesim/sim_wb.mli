(** Write-buffer model for the trace-driven simulator: deliberately
    simpler than the machine's — no overlap with floating-point latency,
    the gap behind liv's Figure 3 error. *)

(** The buffer against a caller-owned clock.  The multi-configuration
    sweep derives each lane's reference clock from shared event counters
    instead of ticking it, so a buffer that sees no store costs nothing.
    [ring_store r ~clock] returns the stall the store suffers; the caller
    must advance its later clocks by it (a qcheck property in the test
    suite holds the ring to an eagerly-ticked list model). *)
type ring

val ring_create : depth:int -> drain_cycles:int -> ring
(** @raise Invalid_argument if [depth <= 0]. *)

val ring_store : ring -> clock:int -> int
val ring_reset : ring -> unit

(** The single-configuration simulator's buffer: a {!ring} with its own
    eagerly-ticked reference clock. *)
type t = {
  ring : ring;
  mutable clock : int;
  mutable stall_cycles : int;
  mutable stores : int;
}

val create : ?depth:int -> ?drain_cycles:int -> unit -> t
(** @raise Invalid_argument if [depth <= 0]. *)

val reset : t -> unit

val tick : t -> int -> unit
(** Advance the local reference clock. *)

val store : t -> int
(** Issue a store; returns the stall charged (0 if a slot was free) and
    advances the clock by it. *)
