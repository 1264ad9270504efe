(** The simulated machine: CPU interpreter with branch delay slots, CP0,
    TLB, caches, write buffer, FP latency model, and devices (console,
    line clock, disk).

    This is the "hardware" of the reproduction.  Its ground-truth event
    counters play the role of the paper's direct measurements of the
    uninstrumented DECstation.  Nothing here knows about tracing: traces
    are generated purely by instrumented code running on the machine. *)

open Systrace_isa

exception Halted

(** R3000 exception codes. *)
module Exc : sig
  val interrupt : int
  val tlb_mod : int
  val tlbl : int
  val tlbs : int
  val adel : int
  val ades : int
  val syscall : int
  val breakpoint : int
  val reserved : int
end

exception Trap of { code : int; badva : int; refill : bool }

type config = {
  mem_bytes : int;
  icache_bytes : int;
  icache_line : int;
  dcache_bytes : int;
  dcache_line : int;
  read_miss_penalty : int;
  uncached_penalty : int;
  wb_depth : int;
  wb_drain : int;
  disk_blocks : int;
  disk_seek : int;
  disk_per_block : int;
  count_exec : bool;  (** per-instruction-word execution counts (§4.3) *)
  tier : Uop.tier;
      (** Interpreter tier (default {!Uop.Super}): [Step] is the
          step-at-a-time oracle with a full TLB walk per access; [Super]
          is the fast path: the translation cache, plus the decode-once
          basic-block execution cache (one fetch translation + bounds
          check per block, keyed by (physical address, pc, cacheability),
          invalidated by per-page store generations, so self-modifying
          code, DMA, TLB remaps and mode switches behave exactly as in
          step-at-a-time execution) with superblock peephole fusion.
          {!step} remains the state-identical oracle (qcheck-enforced). *)
}

val default_config : config

type counters = {
  mutable instructions : int;
  mutable user_instructions : int;
  mutable kernel_instructions : int;
  mutable idle_instructions : int;
  mutable uncached_ifetches : int;
  mutable uncached_reads : int;
  mutable utlb_misses : int;
  mutable ktlb_misses : int;
  mutable tlb_invalid : int;
  mutable tlb_mod : int;
  mutable exceptions : int;
  mutable interrupts : int;
  mutable syscalls : int;
  mutable clock_ticks : int;
}

(** Translation cache: per access class (fetch / load / store) a
    direct-mapped table of {!tc_slots} successful translations, slot
    {!tc_slot} of the vpn.  Each slot packs vpn, pfn and an uncached bit
    into one int (-1 = empty).  A TLB write drops the slots of the two
    vpns it retargets; an ASID change or entering user mode flushes
    all. *)
type tcache = {
  tc_f : int array;
  tc_r : int array;
  tc_w : int array;
}

val tc_slots : int
val tc_slot : int -> int

type ram
(** Physical memory: a table of 4 KB pages in which every page never
    written is one shared zero page, so RAM costs only the pages a run
    writes.  Reach it through the [*_phys_*] accessors below. *)

type decodes
(** Decoded-instruction cache: one slot per physical word, in per-page
    slot arrays allocated by a page's first decode.  A page's slots are
    stamped with its {!Uop.Gens} generation when filled and are stale as
    a whole once that generation moves, so stores never touch them. *)

type t = {
  cfg : config;
  mem : ram;
  dec : decodes;
  bcache_tab : Uop.block array;
  bgen : Uop.Gens.t;
      (** Per-physical-page store generation: bumped by every store, DMA
          and host poke; cached blocks, and the page's decode slots, are
          valid only while their page's generation matches ({!Uop.Gens}
          owns the contract). *)
  regs : int array;
  fregs : float array;
  mutable fcc : bool;
  mutable pc : int;
  mutable npc : int;
  mutable next_is_delay : bool;
  mutable status : int;
  mutable cause : int;
  mutable epc : int;
  mutable badvaddr : int;
  mutable entryhi : int;
  mutable entrylo : int;
  mutable index_reg : int;
  mutable context_base : int;
  mutable context_badvpn : int;
  tlb : Tlb.t;
  tc : tcache;
  mutable tr_cached : bool;
      (** Cacheability of the last {!translate_i} / {!translate_walk}
          result — the allocation-free way of returning (pa, cached). *)
  mutable bb_k : int;
      (** Index of the uop currently replaying in block mode — lets the
          per-block trap handler recover the faulting pc. *)
  mutable bb_blk : Uop.block;
      (** The block currently replaying (replay chains across blocks, so
          the trap handler tracks it here). *)
  mutable bb_dev : bool;
      (** Set when a store reached a device register (or a watchpoint
          fired), forcing the full post-store device recheck in block
          replay. *)
  mutable bb_kf : int;
      (** First uop of the pending (not yet counted) replay span. *)
  mutable bb_um : bool;
      (** Mode the pending replay span executed in. *)
  icache : Cache.t;
  dcache : Cache.t;
  wb : Write_buffer.t;
  fpu : Fpu.t;
  disk : Disk.t;
  mutable clock_interval : int;
  mutable next_clock : int;
  mutable ip : int;
  mutable cycles : int;
  mutable halted : bool;
  console : Buffer.t;
  c : counters;
  mutable idle_lo : int;
  mutable idle_hi : int;
  mutable hcall_handler : (t -> int -> unit) option;
  exec_counts : int array;
  mutable watchpoint : (int -> int -> unit) option;
  mutable ref_tracer : (int -> int -> unit) option;
      (** Reference tracer: (kind, virtual address) for every instruction
          fetch (0), load (1), store (2) — the "independently developed
          CPU simulator" epoxie is validated against (§4.3). *)
}

val create : ?cfg:config -> unit -> t

val user_mode : t -> bool
val asid : t -> int

(** {2 Address translation} *)

val translate_i : t -> int -> write:bool -> fetch:bool -> int
(** [translate_i t va ~write ~fetch] is the physical address, with its
    cacheability left in [t.tr_cached]; raises {!Trap} on failure.  Goes
    through the translation cache unless the tier is [Step], and
    allocates nothing. *)

val translate_walk : t -> int -> write:bool -> fetch:bool -> int
(** The full segment-check + TLB walk, never consulting the translation
    cache (cacheability in [t.tr_cached], as above) — the oracle that
    {!translate_i} must agree with on every (pa, cached, exception, counter)
    result. *)

(** {2 Physical memory access (host side too)} *)

val read_phys_u32 : t -> int -> int
val write_phys_u32 : t -> int -> int -> unit
val read_phys_u16 : t -> int -> int
val write_phys_u16 : t -> int -> int -> unit
val read_phys_u8 : t -> int -> int
val write_phys_u8 : t -> int -> int -> unit
val write_phys_bytes : t -> int -> string -> unit
val read_phys_bytes : t -> int -> int -> string
(** [write_phys_bytes] and [read_phys_bytes] may cross page ends.
    @raise Invalid_argument if the span leaves RAM. *)

val ram_pages : t -> int
(** RAM pages with bytes of their own.  A page gets them on its first
    write; a host or DMA copy of zeros leaves a never-written page
    shared. *)

val decoded_pages : t -> int
(** Physical pages whose decode slots have been allocated. *)

(** {2 Execution} *)

val step : t -> unit
(** One instruction (or one exception entry).  Raises {!Halted} if the
    machine was already halted. *)

type stop_reason = Halt | Limit

val run : t -> max_insns:int -> stop_reason
val halt : t -> unit

(** {2 Loading and inspection} *)

val load_exe_phys : t -> Exe.t -> text_pa:int -> data_pa:int -> unit
val console_contents : t -> string

val cached_blocks : t -> Uop.block list
(** The live entries of the block table (bench introspection: fused-run
    statistics). *)

val arith_stalls : t -> int
val wb_stalls : t -> int
val icache_misses : t -> int
val dcache_misses : t -> int
