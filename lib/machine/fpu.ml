(* Floating-point unit latency model (scoreboard).

   Each FP register has an absolute cycle at which its value becomes
   available; the single FP unit has a busy-until time.  An FP instruction
   whose operands or unit are not ready stalls the CPU — an "arithmetic
   stall" in the paper's terminology.  Because readiness is expressed in
   absolute cycles, FP latency naturally overlaps with cache-miss and
   write-buffer time in the machine model: if the CPU spends cycles stalled
   on memory, FP results ripen meanwhile.  The paper's trace-driven
   simulator treats arithmetic stalls as a separate additive term (estimated
   with pixie), which is exactly why liv's prediction is off in Figure 3. *)

open Systrace_isa

type t = {
  ready : int array;          (* per FP register, absolute cycle *)
  mutable unit_free : int;
  mutable arith_stalls : int; (* total stall cycles charged *)
  mutable ops : int;
}

let latency : Insn.fop -> int = function
  | FADD | FSUB -> 2
  | FMUL -> 5
  | FDIV -> 19
  | FABS | FNEG | FMOV -> 1
  | CVTDW | TRUNCWD -> 3

let compare_latency = 2

let create () =
  { ready = Array.make Reg.nfregs 0; unit_free = 0; arith_stalls = 0; ops = 0 }

let reset t =
  Array.fill t.ready 0 (Array.length t.ready) 0;
  t.unit_free <- 0;
  t.arith_stalls <- 0;
  t.ops <- 0

(* Wait (at absolute cycle [now]) until the source registers are ready;
   returns the stall.  Used for FP operands and for mfc1/stores of FP
   registers.  One function per arity keeps the interpreter's FP path
   free of lists. *)
let stall_until t ~now ready =
  if ready > now then begin
    let stall = ready - now in
    t.arith_stalls <- t.arith_stalls + stall;
    stall
  end
  else 0

let wait1 t ~now r = stall_until t ~now t.ready.(r)

let wait2 t ~now r1 r2 =
  let a = t.ready.(r1) and b = t.ready.(r2) in
  stall_until t ~now (if a > b then a else b)

(* Issue an FP operation at [now] (after operand stalls): waits for the
   unit, returns the additional stall, and marks the destination register
   busy until the op completes. *)
let issue t ~now ~op ~dst =
  t.ops <- t.ops + 1;
  let start = if t.unit_free > now then t.unit_free else now in
  let stall = start - now in
  t.arith_stalls <- t.arith_stalls + stall;
  let finish = start + latency op in
  t.unit_free <- start + 1 (* pipelined: one issue per cycle *);
  t.ready.(dst) <- finish;
  stall

let issue_compare t ~now =
  t.ops <- t.ops + 1;
  let start = if t.unit_free > now then t.unit_free else now in
  let stall = start - now in
  t.arith_stalls <- t.arith_stalls + stall;
  t.unit_free <- start + compare_latency;
  stall

(* A write to an FP register from the integer side (mtc1, l.d). *)
let set_ready t ~now r = t.ready.(r) <- now
