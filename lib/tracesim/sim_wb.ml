(* Write-buffer model for the trace-driven simulator.

   Deliberately simpler than the machine's: its reference clock advances
   by one cycle per reference and by the full penalty on every stall,
   with no notion of overlap with floating-point latency.  The missing
   overlap is exactly the modelling gap the paper identifies for liv:
   "the prediction error is caused by the overlapping of write buffer
   and floating point activity that is not modeled in the simulator". *)

(* The buffer, against a clock the caller owns: the memory simulator
   derives each configuration's clock lazily from shared event counters
   instead of ticking it, so between stores the buffer costs nothing.
   Entries live in a fixed ring of [depth] ascending retirement times; a
   store first retires every entry at or before [clock], stalls until
   the oldest retires if the buffer is still full, then queues its own
   retirement [drain] cycles after the later of the (stalled) clock and
   the previous entry's.  The stall is returned; the caller must fold it
   into later clocks. *)
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
