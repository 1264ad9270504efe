(* The uop IR of the execution engine: decode-to-uop lowering, block
   formation, superblock peephole fusion, the tier type, and the
   per-page store-generation invalidation contract.  See uop.mli for the
   contracts; Machine owns the architectural state and the replay loop. *)

open Systrace_isa

type tier = Step | Super

let all_tiers = [ Step; Super ]

let tier_name = function Step -> "step" | Super -> "super"

(* Pre-decoded instruction for the basic-block execution cache: operands
   are resolved to plain ints at block-build time (immediates applied,
   branch targets absolute) and dispatch is one flat match, so replaying
   a block does no decode-cache probing and allocates nothing.
   DESIGN.md §5e records the micro-bench against the closure-threaded
   alternative; §5h the fused constructors.  Anything without a
   specialised executor falls back to [U_other] and the full interpreter
   dispatch. *)
type t =
  | U_alu of Insn.alu * int * int * int    (* rd, rs, rt *)
  | U_alui of Insn.alui * int * int * int  (* rt, rs, imm *)
  | U_shift of Insn.shift * int * int * int
  | U_lui of int * int
  | U_lw of int * int * int                (* rt, base, off *)
  | U_lh of int * int * int
  | U_lhu of int * int * int
  | U_lb of int * int * int
  | U_lbu of int * int * int
  | U_sw of int * int * int
  | U_sh of int * int * int
  | U_sb of int * int * int
  | U_beq of int * int * int               (* rs, rt, absolute target *)
  | U_bne of int * int * int
  | U_blez of int * int
  | U_bgtz of int * int
  | U_bltz of int * int
  | U_bgez of int * int
  | U_bc1t of int
  | U_bc1f of int
  | U_j of int
  | U_jal of int
  | U_jr of int
  | U_jalr of int * int
  | U_fload of int * int * int             (* ft, base, off *)
  | U_fstore of int * int * int
  | U_fop of Insn.fop * int * int * int    (* fd, fs, ft *)
  | U_li of int * int
  | U_addiu2 of int * int * int * int * int * int
  | U_slt_b of bool * int * int * int * bool * int
  | U_lw_addiu of int * int * int * int * int * int
  | U_lmw of int * int * int * int * int * int * int * int * int
  | U_j_nop of int
  | U_other of Insn.t                      (* full interpreter dispatch *)

let of_insn (insn : Insn.t) : t =
  match insn with
  | Alu (op, rd, rs, rt) -> U_alu (op, rd, rs, rt)
  | Alui (op, rt, rs, Imm imm) -> U_alui (op, rt, rs, imm)
  | Shift (op, rd, rt, sa) -> U_shift (op, rd, rt, sa)
  | Lui (rt, Imm imm) -> U_lui (rt, imm)
  | Load (W, rt, base, Imm off) -> U_lw (rt, base, off)
  | Load (H, rt, base, Imm off) -> U_lh (rt, base, off)
  | Load (HU, rt, base, Imm off) -> U_lhu (rt, base, off)
  | Load (B, rt, base, Imm off) -> U_lb (rt, base, off)
  | Load (BU, rt, base, Imm off) -> U_lbu (rt, base, off)
  | Store (W, rt, base, Imm off) -> U_sw (rt, base, off)
  | Store ((H | HU), rt, base, Imm off) -> U_sh (rt, base, off)
  | Store ((B | BU), rt, base, Imm off) -> U_sb (rt, base, off)
  | Beq (rs, rt, Abs a) -> U_beq (rs, rt, a)
  | Bne (rs, rt, Abs a) -> U_bne (rs, rt, a)
  | Blez (rs, Abs a) -> U_blez (rs, a)
  | Bgtz (rs, Abs a) -> U_bgtz (rs, a)
  | Bltz (rs, Abs a) -> U_bltz (rs, a)
  | Bgez (rs, Abs a) -> U_bgez (rs, a)
  | Bc1t (Abs a) -> U_bc1t a
  | Bc1f (Abs a) -> U_bc1f a
  | J (Abs a) -> U_j a
  | Jal (Abs a) -> U_jal a
  | Jr rs -> U_jr rs
  | Jalr (rd, rs) -> U_jalr (rd, rs)
  | Fload (ft, base, Imm off) -> U_fload (ft, base, off)
  | Fstore (ft, base, Imm off) -> U_fstore (ft, base, off)
  | Fop (op, fd, fs, ft) -> U_fop (op, fd, fs, ft)
  | _ -> U_other insn

(* Instructions that can change fetch semantics for their successors
   (mode, ASID, TLB contents, arbitrary host effects) end a block, so the
   next instruction re-enters through a fresh translation.  [Tlbp] and
   [Mfc0] only write the index register / a GPR; [Cache] only changes
   timing, which is already charged per instruction. *)
let barrier (insn : Insn.t) =
  match insn with
  | Syscall | Break _ | Mtc0 _ | Tlbr | Tlbwi | Tlbwr | Rfe | Hcall _ -> true
  | _ -> false

let width = function
  | U_lmw _ -> 3
  | U_li _ | U_addiu2 _ | U_slt_b _ | U_lw_addiu _ | U_j_nop _ -> 2
  | _ -> 1

let is_fused u = width u > 1

(* Greedy left-to-right peephole pass, widest pattern first at each slot.
   A fused constructor replaces the slot of its first instruction; the
   covered slots keep their scalar originals so replay can resume there
   after executing only a prefix of a fused run.

   The structural invariants (qcheck-enforced in test_machine):
   - a store only appears as the final element ([U_lmw]), so no fused
     run crosses a store-generation bump;
   - a branch only as the final element ([U_slt_b]) or with its own
     empty delay slot ([U_j_nop]);
   - never a barrier or [U_other] (none of the patterns match one);
   - runs never overlap (the scan advances by the fused width).

   A delay slot can never be silently swallowed: a slot is a delay slot
   only when the previous slot is a control transfer, and no pattern has
   a control transfer in a non-final position except [U_j_nop], which
   exists to cover exactly its own nop delay slot. *)
let fuse (uops : t array) : t array =
  let n = Array.length uops in
  let out = Array.copy uops in
  let i = ref 0 in
  while !i + 1 < n do
    let w =
      match (uops.(!i), uops.(!i + 1)) with
      | U_lw (rt, base, off), U_alui (Insn.ADDIU, rt2, rs2, i2) ->
        (match if !i + 2 < n then uops.(!i + 2) else U_other Insn.nop with
        | U_sw (rt3, base3, off3) ->
          out.(!i) <- U_lmw (rt, base, off, rt2, rs2, i2, rt3, base3, off3);
          3
        | _ ->
          out.(!i) <- U_lw_addiu (rt, base, off, rt2, rs2, i2);
          2)
      | U_lui (rt, hi), U_alui (Insn.ORI, rt2, rs2, lo)
        when rt <> 0 && rt2 = rt && rs2 = rt ->
        out.(!i) <- U_li (rt, ((hi lsl 16) lor (lo land 0xFFFF)) land 0xFFFFFFFF);
        2
      | U_alui (Insn.ADDIU, rt1, rs1, i1), U_alui (Insn.ADDIU, rt2, rs2, i2) ->
        out.(!i) <- U_addiu2 (rt1, rs1, i1, rt2, rs2, i2);
        2
      | U_alu ((Insn.SLT | Insn.SLTU) as op, rd, rs, rt), U_bne (bs, 0, tgt)
        when rd <> 0 && bs = rd ->
        out.(!i) <- U_slt_b (op = Insn.SLTU, rd, rs, rt, true, tgt);
        2
      | U_alu ((Insn.SLT | Insn.SLTU) as op, rd, rs, rt), U_beq (bs, 0, tgt)
        when rd <> 0 && bs = rd ->
        out.(!i) <- U_slt_b (op = Insn.SLTU, rd, rs, rt, false, tgt);
        2
      | U_j tgt, U_shift (Insn.SLL, 0, 0, 0) ->
        out.(!i) <- U_j_nop tgt;
        2
      | _ -> 1
    in
    i := !i + w
  done;
  out

(* ------------------------------------------------------------------ *)
(* Blocks                                                              *)

type block = {
  bb_pa : int;
  bb_va : int;
  bb_cached : bool;
  bb_gen : int;
  bb_uops : t array;
  mutable bb_next : block;
}

let rec dummy_block =
  {
    bb_pa = -1;
    bb_va = -1;
    bb_cached = false;
    bb_gen = -1;
    bb_uops = [||];
    bb_next = dummy_block;
  }

let max_block_insns = 256

let build ~decode ~va ~pa ~cached ~gen =
  let max_words =
    let to_page_end = ((Addr.page_mask - (pa land Addr.page_mask)) lsr 2) + 1 in
    if to_page_end < max_block_insns then to_page_end else max_block_insns
  in
  let buf = Array.make max_words (U_other Insn.nop) in
  let n = ref 0 in
  let in_delay = ref false in
  let stop = ref false in
  while (not !stop) && !n < max_words do
    match decode ~va:(va + (!n * 4)) ~pa:(pa + (!n * 4)) with
    | insn ->
      buf.(!n) <- of_insn insn;
      incr n;
      if !in_delay then stop := true
      else if Insn.is_control insn then in_delay := true
      else if barrier insn then stop := true
    | exception e ->
      (* Decode failure past the entry word: end the block before it, so
         the bad word raises exactly when step-at-a-time would reach
         it.  At the entry word itself, raise now — [step] would too. *)
      if !n = 0 then raise e;
      stop := true
  done;
  let uops = if !n = max_words then buf else Array.sub buf 0 !n in
  (* Cacheability specialization: fused bodies assume a cached fetch
     mapping, so only cacheable text is ever fused. *)
  let uops = if cached then fuse uops else uops in
  {
    bb_pa = pa;
    bb_va = va;
    bb_cached = cached;
    bb_gen = gen;
    bb_uops = uops;
    bb_next = dummy_block;
  }

(* ------------------------------------------------------------------ *)
(* Store-generation invalidation (see the mli for the contract)        *)

module Gens = struct
  type t = int array

  let create ~mem_bytes =
    Array.make (max 1 ((mem_bytes + Addr.page_mask) lsr Addr.page_shift)) 0

  let bump (g : t) pa =
    let p = pa lsr Addr.page_shift in
    g.(p) <- g.(p) + 1

  let bump_range (g : t) pa len =
    if len > 0 then
      for p = pa lsr Addr.page_shift to (pa + len - 1) lsr Addr.page_shift do
        g.(p) <- g.(p) + 1
      done

  let get (g : t) pa = g.(pa lsr Addr.page_shift)
end
