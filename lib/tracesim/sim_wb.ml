(* Write-buffer model for the trace-driven simulator.

   Deliberately simpler than the machine's: it advances its own local
   clock by one cycle per reference and by the full penalty on every
   stall, with no notion of overlap with floating-point latency.  The
   missing overlap is exactly the modelling gap the paper identifies for
   liv: "the prediction error is caused by the overlapping of write buffer
   and floating point activity that is not modeled in the simulator". *)

(* The buffer proper, against a clock the caller owns: the
   multi-configuration sweep derives each lane's clock lazily from shared
   event counters instead of ticking it, so between stores the buffer
   costs nothing.  Entries live in a fixed ring of [depth] ascending
   retirement times; a store first retires every entry at or before
   [clock], stalls until the oldest retires if the buffer is still full,
   then queues its own retirement [drain] cycles after the later of the
   (stalled) clock and the previous entry's.  The stall is returned; the
   caller must fold it into later clocks, as [store] below does. *)
type ring = {
  rdepth : int;
  rdrain : int;
  rbuf : int array;           (* circular, ascending retirement times *)
  mutable rhead : int;
  mutable rcount : int;
}

let ring_create ~depth ~drain_cycles =
  if depth <= 0 then invalid_arg "Sim_wb.ring_create";
  { rdepth = depth; rdrain = drain_cycles; rbuf = Array.make depth 0;
    rhead = 0; rcount = 0 }

(* Ring indices stay in [0, 2*depth), so one compare-and-subtract wraps
   them: cheaper than [mod] by the run-time depth, as in the machine's
   [Write_buffer]. *)
let[@inline] ring_wrap r i = if i >= r.rdepth then i - r.rdepth else i

let ring_store r ~clock =
  (* entries at or before [clock] have retired *)
  while r.rcount > 0 && Array.unsafe_get r.rbuf r.rhead <= clock do
    r.rhead <- ring_wrap r (r.rhead + 1);
    r.rcount <- r.rcount - 1
  done;
  let stall =
    if r.rcount < r.rdepth then 0
    else begin
      let oldest = Array.unsafe_get r.rbuf r.rhead in
      r.rhead <- ring_wrap r (r.rhead + 1);
      r.rcount <- r.rcount - 1;
      oldest - clock
    end
  in
  let clock = clock + stall in
  let last =
    if r.rcount > 0 then
      Array.unsafe_get r.rbuf (ring_wrap r (r.rhead + r.rcount - 1))
    else clock
  in
  Array.unsafe_set r.rbuf
    (ring_wrap r (r.rhead + r.rcount))
    ((if clock > last then clock else last) + r.rdrain);
  r.rcount <- r.rcount + 1;
  stall

let ring_reset r =
  r.rhead <- 0;
  r.rcount <- 0

(* The single-configuration simulator's eagerly-ticked buffer: the ring
   plus its own reference clock. *)
type t = {
  ring : ring;
  mutable clock : int;            (* local reference clock *)
  mutable stall_cycles : int;
  mutable stores : int;
}

let create ?(depth = 4) ?(drain_cycles = 6) () =
  { ring = ring_create ~depth ~drain_cycles; clock = 0; stall_cycles = 0;
    stores = 0 }

let reset t =
  ring_reset t.ring;
  t.clock <- 0;
  t.stall_cycles <- 0;
  t.stores <- 0

(* Advance local time: every reference costs a cycle; read misses freeze
   the CPU (and drain time passes). *)
let tick t n = t.clock <- t.clock + n

(* a stall freezes the CPU until the oldest entry retires *)
let store t =
  t.stores <- t.stores + 1;
  let stall = ring_store t.ring ~clock:t.clock in
  t.clock <- t.clock + stall;
  t.stall_cycles <- t.stall_cycles + stall;
  stall
