(** The execution-engine uop IR: decode-to-uop lowering, basic-block
    formation, superblock peephole fusion, the tier type, and the
    per-page store-generation invalidation contract.

    This module owns everything about *what* a compiled block contains;
    {!Machine} owns the architectural state and *how* blocks replay.
    [Machine.step] remains the state-identical oracle for the fast tier. *)

open Systrace_isa

(** {2 Execution tiers}

    Simulated state, counters and console are bit-identical at both
    tiers (qcheck- and ablation-enforced):

    - [Step]: step-at-a-time oracle, full TLB walk on every access.
    - [Super]: the fast path — translation cache, decode-once basic-block
      cache with successor memo, and superblock peephole fusion over
      cached blocks. *)
type tier = Step | Super

val all_tiers : tier list
val tier_name : tier -> string

(** {2 The uop IR}

    One pre-decoded instruction (or fused run) of a cached basic block:
    operands resolved to plain ints at build time (immediates applied,
    branch targets absolute), dispatch pre-selected, so replay does no
    decode-cache probing and allocates nothing.  Anything without a
    specialised executor falls back to [U_other] and the full interpreter
    dispatch.

    The [U_li]..[U_j_nop] constructors are superblock fusions: one
    dispatch executes 2–3 instructions.  A fused uop sits in the slot of
    its first instruction; the covered slots keep their original scalar
    uops, so the executor can bail out mid-run (event horizon about to
    expire, block/budget boundary) after executing only a prefix and the
    generic loop resumes on the unfused tail.  Fusion rules
    (enforced by {!fuse}, qcheck-checked):

    - only cached blocks are fused, so fused bodies skip the per-uop
      cacheability test (they are specialised on [bb_cached = true]);
    - no covered instruction may be a store, except as the *final*
      element ([U_lmw]), so a fused run never crosses a
      store-generation bump — the post-store revalidation runs
      immediately after the dispatch;
    - no covered instruction may be a barrier or [U_other];
    - a branch may only be the final element ([U_slt_b]) or carry its
      own empty delay slot ([U_j_nop]);
    - at run time every inter-instruction seam inside the fused body
      re-checks the event horizon and falls back to the scalar tail if
      the next poll could be observable. *)
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
  | U_fload of int * int * int             (* ft, base, off: l.d *)
  | U_fstore of int * int * int            (* s.d *)
  | U_fop of Insn.fop * int * int * int    (* fd, fs, ft *)
  | U_li of int * int
      (** [lui rt; ori rt, rt, lo] — rt, full 32-bit immediate *)
  | U_addiu2 of int * int * int * int * int * int
      (** two consecutive addiu: rt1, rs1, imm1, rt2, rs2, imm2 *)
  | U_slt_b of bool * int * int * int * bool * int
      (** compare+branch: [slt(u) rd, rs, rt; bne/beq rd, $0, tgt] —
          unsigned, rd, rs, rt, branch-if-nonzero, target.  The compare
          result stays in an OCaml local for the branch decision. *)
  | U_lw_addiu of int * int * int * int * int * int
      (** load+use: [lw rt, off(base); addiu rt2, rs2, imm2] *)
  | U_lmw of int * int * int * int * int * int * int * int * int
      (** load-modify-store: [lw rt, off(base); addiu rt2, rs2, imm2;
          sw rt3, off3(base3)] — the store is the final element *)
  | U_j_nop of int
      (** [j tgt] with an empty (nop) delay slot *)
  | U_other of Insn.t                      (* full interpreter dispatch *)

val of_insn : Insn.t -> t
(** Scalar lowering: never produces a fused constructor. *)

val barrier : Insn.t -> bool
(** Instructions that can change fetch semantics for their successors
    (mode, ASID, TLB contents, arbitrary host effects) end a block, so
    the next instruction re-enters through a fresh translation. *)

val fuse : t array -> t array
(** Peephole superblock fusion over a lowered block body, under the
    rules above.  Same length as the input: fused constructors replace
    the slot of their first instruction and every covered slot keeps its
    original scalar uop. *)

val width : t -> int
(** Instructions covered by one dispatch: 3 for [U_lmw], 2 for the other
    fused constructors, 1 for scalar uops. *)

val is_fused : t -> bool

(** {2 Blocks} *)

(** One straight-line run of instructions: from a block-entry pc up to
    the first control transfer (plus its delay slot) or block barrier,
    never crossing a page boundary — so one fetch translation covers the
    whole block.  Blocks are immutable; staleness is detected, never
    patched. *)
type block = {
  bb_pa : int;       (* physical address of the first instruction *)
  bb_va : int;       (* pc it was decoded at: branch targets (and the
                        shared per-word decode cache) depend on the va,
                        so an aliased mapping must not reuse the block *)
  bb_cached : bool;  (* cacheability of the fetch mapping at build time *)
  bb_gen : int;      (* page generation at build: stale => rebuild *)
  bb_uops : t array;
  mutable bb_next : block;
      (* memoized chain successor (last block entered from this block's
         end): re-validated on every use against the fetch micro-cache
         and the successor's own page generation, so it is only ever a
         shortcut past the block-table probe, never a source of truth *)
}

val dummy_block : block

val max_block_insns : int
(** Straight-line runs longer than this are split; the tail re-enters
    through the block table, so nothing is lost but one lookup. *)

val build :
  decode:(va:int -> pa:int -> Insn.t) ->
  va:int -> pa:int -> cached:bool -> gen:int -> block
(** Form the block starting at [va]/[pa]: decode and lower until a
    control transfer (plus delay slot), barrier, page end or
    [max_block_insns].  A decode failure at the entry word re-raises; a
    later one ends the block before the bad word, so it raises exactly
    when step-at-a-time would reach it.  Cacheable text is run through
    {!fuse}; uncacheable text never is, which is what lets fused bodies
    skip the cacheability test. *)

(** {2 The store-generation invalidation contract}

    One generation counter per physical page.  Every physical write —
    stores (including the block replay's inlined fast path), DMA
    completions, host pokes — must bump the written page(s).  A block is
    valid only while [bb_gen] matches its text page's current
    generation: the block table probe, the successor memo and the
    post-store recheck inside replay all compare against it, which is
    what makes self-modifying code, newly-loaded text and DMA into text
    pages safe with no explicit flush anywhere.  TLB remaps and mode
    switches need no generation traffic either: every block entry
    re-runs the fetch translation and blocks are keyed on its
    (pa, va, cacheability) result. *)
module Gens : sig
  type t = int array

  val create : mem_bytes:int -> t
  val bump : t -> int -> unit          (* one written address *)
  val bump_range : t -> int -> int -> unit  (* [pa, pa+len) *)
  val get : t -> int -> int            (* current generation of pa's page *)
end
