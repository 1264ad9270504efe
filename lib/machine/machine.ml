(* The simulated machine: CPU interpreter with branch delay slots, CP0
   system coprocessor, TLB, caches, write buffer, FP latency model, and the
   devices (console, line clock, disk).

   This is the "hardware" of the reproduction.  It keeps ground-truth event
   counters (cycles, cache misses, TLB misses, idle-loop instructions) that
   play the role of the paper's direct measurements of the uninstrumented
   DECstation: the validation harness compares these against predictions
   made from software-collected traces.

   Deliberately, nothing in this module knows about tracing: address traces
   are generated purely by instrumented code running on the machine. *)

open Systrace_isa
open Uop

exception Halted

(* R3000 exception codes. *)
module Exc = struct
  let interrupt = 0
  let tlb_mod = 1
  let tlbl = 2
  let tlbs = 3
  let adel = 4
  let ades = 5
  let syscall = 8
  let breakpoint = 9
  let reserved = 10
end

exception Trap of { code : int; badva : int; refill : bool }

let trap ?(badva = -1) ?(refill = false) code =
  raise (Trap { code; badva; refill })

type config = {
  mem_bytes : int;
  icache_bytes : int;
  icache_line : int;
  dcache_bytes : int;
  dcache_line : int;
  read_miss_penalty : int;     (* cycles per cached read miss *)
  uncached_penalty : int;      (* cycles per uncached access *)
  wb_depth : int;
  wb_drain : int;
  disk_blocks : int;
  disk_seek : int;
  disk_per_block : int;
  count_exec : bool;           (* per-instruction-word execution counts *)
  tier : Uop.tier;    (* interpreter tier: step|super *)
}

let default_config =
  {
    mem_bytes = 16 * 1024 * 1024;
    icache_bytes = 16384;
    icache_line = 16;
    dcache_bytes = 16384;
    dcache_line = 4;
    read_miss_penalty = 15;
    uncached_penalty = 15;
    wb_depth = 4;
    wb_drain = 6;
    disk_blocks = 2048;
    disk_seek = 20000;
    disk_per_block = 4000;
    count_exec = false;
    tier = Uop.Super;
  }

type counters = {
  mutable instructions : int;
  mutable user_instructions : int;
  mutable kernel_instructions : int;
  mutable idle_instructions : int;
  mutable uncached_ifetches : int;
  mutable uncached_reads : int;
  mutable utlb_misses : int;          (* refill misses on kuseg *)
  mutable ktlb_misses : int;          (* refill misses on kseg2 *)
  mutable tlb_invalid : int;
  mutable tlb_mod : int;
  mutable exceptions : int;
  mutable interrupts : int;
  mutable syscalls : int;
  mutable clock_ticks : int;
}

let fresh_counters () =
  {
    instructions = 0;
    user_instructions = 0;
    kernel_instructions = 0;
    idle_instructions = 0;
    uncached_ifetches = 0;
    uncached_reads = 0;
    utlb_misses = 0;
    ktlb_misses = 0;
    tlb_invalid = 0;
    tlb_mod = 0;
    exceptions = 0;
    interrupts = 0;
    syscalls = 0;
    clock_ticks = 0;
  }

(* Translation cache: per access class (fetch / load / store) a small
   direct-mapped table of successful translations.  One entry per class
   is not enough on instrumented code: epoxie's memtrace reads the
   instruction word from text, the stolen-register shadows from the
   bookkeeping area and the trace buffer around every original reference,
   so each class rotates over 3-4 pages per traced instruction.  Those
   pages (user text at vpn 0x400, data at 0x10000, stack and bookkeeping
   at 0x7e000, kernel at 0x80000) agree in their low vpn bits, so the slot
   index folds the higher vpn bytes in.  Only successful translations are
   cached, so the exception and counter behaviour of the full walk is
   preserved exactly.

   A slot packs one entry into an int, so a probe is one load and one
   compare: vpn in bits 21..40, pfn in bits 1..20 (TLB pfns are 20 bits,
   kseg0/kseg1 frames 17), and bit 0 set for an uncached mapping.  An
   empty slot holds -1, whose vpn field no 20-bit vpn equals.

   An entry stays valid until one of the translation's inputs changes:
   the TLB (a write drops the slots of the overwritten and the written
   vpn), the ASID (flushes everything) or the KUc mode bit.  Of the mode
   changes only entering user mode flushes: kernel-mode entries may hold
   kseg0/1/2 translations that must trap in user mode, while user-mode
   entries are all kuseg, whose translation does not depend on the mode
   — so an exception entry never flushes.  Nothing else reaches
   [translate_walk]: IE/IM-only status writes, same-ASID entryhi writes
   and context writes leave every cached translation exact. *)
type tcache = {
  tc_f : int array;
  tc_r : int array;
  tc_w : int array;
}

let tc_slots = 256

let[@inline] tc_slot vpn =
  (vpn lxor (vpn lsr 8) lxor (vpn lsr 16)) land (tc_slots - 1)
let[@inline] tc_hit e vpn = e lsr 21 = vpn
let[@inline] tc_cached e = e land 1 = 0
let[@inline] tc_pa e va = ((e land 0x1FFFFE) lsl 11) lor (va land Addr.page_mask)
let[@inline] tc_entry vpn pa cached =
  (vpn lsl 21) lor ((pa lsr Addr.page_shift) lsl 1) lor (if cached then 0 else 1)

(* The uop IR and block representation live in {!Uop} (opened above):
   decode-to-uop lowering, superblock fusion, and the store-generation
   invalidation contract are owned there; this module owns the
   architectural state and the replay loop. *)

(* Direct-mapped block table: 16K slots of one word each.  Indexed by the
   physical word address of the block entry; collisions just evict. *)
let bcache_slots = 1 lsl 14

(* Physical memory is a table of 4 KB pages.  Every page that was never
   written is the one shared, read-only [zero_page]; the first write to
   a page gives it its own bytes ([ram_page_w]).  A boot that writes a
   few hundred pages of its 16 MB RAM pays for those pages only. *)
type ram = Bytes.t array

let zero_page = Bytes.make Addr.page_size '\000'

(* Decode-cache pages: one slot array per 4 KB physical page, filled
   with [undecoded] and stamped with the page's store generation when it
   is (re)filled.  A page whose generation has moved since is stale as a
   whole, so stores need not touch the decode cache at all. *)
let dec_page_words = Addr.page_size / 4

type decodes = { pages : Insn.t array array; filled_at : int array }

(* A physically unique value no decode returns: the empty-slot mark. *)
let undecoded : Insn.t = Insn.Break (-1)

type t = {
  cfg : config;
  mem : ram;
  (* Decoded-instruction cache: one slot per physical word.  A page's
     slot array is allocated by the page's first decode (every page
     starts as the shared empty array), so a machine pays only for the
     text it runs; a slot is current while it is not [undecoded] and its
     page's [filled_at] stamp equals the page's [bgen]. *)
  dec : decodes;
  (* Basic-block execution cache (the Super tier): direct-mapped
     block table plus the per-physical-page store generations whose
     invalidation contract {!Uop.Gens} owns — every physical write
     (stores, DMA, host pokes) bumps the written page's generation, and
     a block is valid only while its text page's generation matches,
     which is what makes self-modifying and newly-loaded code safe.  TLB
     remaps and mode switches need no explicit flush: every block entry
     re-runs the fetch translation and the block is keyed on its
     (pa, va, cached) result. *)
  bcache_tab : Uop.block array;
  bgen : Uop.Gens.t;
  regs : int array;              (* 32-bit values as 0..2^32-1 *)
  fregs : float array;
  mutable fcc : bool;
  mutable pc : int;
  mutable npc : int;
  mutable next_is_delay : bool;
  (* CP0 *)
  mutable status : int;
  mutable cause : int;
  mutable epc : int;
  mutable badvaddr : int;
  mutable entryhi : int;
  mutable entrylo : int;
  mutable index_reg : int;
  mutable context_base : int;    (* PTEBase, bits 21.. *)
  mutable context_badvpn : int;
  tlb : Tlb.t;
  tc : tcache;
  (* Cacheability of the last [translate_i] result — a scratch return
     slot, so the hot translation path hands back (pa, cached) without
     allocating a tuple per access. *)
  mutable tr_cached : bool;
  (* Index of the uop currently replaying inside [exec_block] — written
     by every uop that can trap, so the block-level trap handler can
     recover the faulting pc and delay-slot flag instead of pushing an
     exception handler per instruction. *)
  mutable bb_k : int;
  (* The block currently replaying (valid together with [bb_k]): replay
     chains across blocks without returning, so the trap handler cannot
     rely on the block [exec_block] was entered with. *)
  mutable bb_blk : Uop.block;
  (* Set by [store_timed] when a store reached a device register (or a
     watchpoint fired): tells [exec_block] the interrupt lines and event
     horizon may have moved, so the post-store recheck must poll.  Plain
     RAM stores leave it clear and only re-validate the text page. *)
  mutable bb_dev : bool;
  (* Instruction-count batching for block replay: uops [bb_kf, k) of
     [bb_blk] have executed in mode [bb_um] but are not yet reflected in
     the counters.  Flushed ([bb_flush]) whenever the counters become
     observable: block exit, slow recheck paths, [U_other] entry, and
     the trap handler. *)
  mutable bb_kf : int;
  mutable bb_um : bool;
  icache : Cache.t;
  dcache : Cache.t;
  wb : Write_buffer.t;
  fpu : Fpu.t;
  disk : Disk.t;
  mutable clock_interval : int;  (* 0 = disabled *)
  mutable next_clock : int;
  mutable ip : int;              (* pending interrupt lines, bit positions *)
  mutable cycles : int;
  mutable halted : bool;
  console : Buffer.t;
  c : counters;
  mutable idle_lo : int;         (* kernel idle-loop pc range, for ground *)
  mutable idle_hi : int;         (* truth idle instruction counting *)
  mutable hcall_handler : (t -> int -> unit) option;
  exec_counts : int array;       (* per physical word; empty if disabled *)
  (* Set by the harness to observe stores (used by tests). *)
  mutable watchpoint : (int -> int -> unit) option;
  (* Reference tracer: called with (kind, virtual address) for every
     instruction fetch (0), load (1) and store (2).  This is the
     "independently developed CPU simulator" trace the paper validates
     epoxie against (§4.3). *)
  mutable ref_tracer : (int -> int -> unit) option;
}

let create ?(cfg = default_config) () =
  let words = cfg.mem_bytes / 4 in
  let npages = (cfg.mem_bytes + Addr.page_mask) lsr Addr.page_shift in
  {
    cfg;
    mem = Array.make npages zero_page;
    dec = { pages = Array.make npages [||]; filled_at = Array.make npages 0 };
    bcache_tab =
      (if cfg.tier = Uop.Step then [||]
       else Array.make bcache_slots Uop.dummy_block);
    bgen = Uop.Gens.create ~mem_bytes:cfg.mem_bytes;
    regs = Array.make 32 0;
    fregs = Array.make Reg.nfregs 0.0;
    fcc = false;
    pc = 0;
    npc = 4;
    next_is_delay = false;
    status = 0;
    cause = 0;
    epc = 0;
    badvaddr = 0;
    entryhi = 0;
    entrylo = 0;
    index_reg = 0;
    context_base = 0;
    context_badvpn = 0;
    tlb =
      (let tlb = Tlb.create () in
       Tlb.reset tlb;
       tlb);
    tc =
      {
        tc_f = Array.make tc_slots (-1);
        tc_r = Array.make tc_slots (-1);
        tc_w = Array.make tc_slots (-1);
      };
    tr_cached = false;
    bb_k = 0;
    bb_blk = Uop.dummy_block;
    bb_dev = false;
    bb_kf = 0;
    bb_um = false;
    icache = Cache.create ~size_bytes:cfg.icache_bytes ~line_bytes:cfg.icache_line;
    dcache = Cache.create ~size_bytes:cfg.dcache_bytes ~line_bytes:cfg.dcache_line;
    wb = Write_buffer.create ~depth:cfg.wb_depth ~drain_cycles:cfg.wb_drain ();
    fpu = Fpu.create ();
    disk =
      Disk.create ~blocks:cfg.disk_blocks ~seek_cycles:cfg.disk_seek
        ~per_block_cycles:cfg.disk_per_block ();
    clock_interval = 0;
    next_clock = max_int;
    ip = 0;
    cycles = 0;
    halted = false;
    console = Buffer.create 256;
    c = fresh_counters ();
    idle_lo = 0;
    idle_hi = 0;
    hcall_handler = None;
    exec_counts = (if cfg.count_exec then Array.make words 0 else [||]);
    watchpoint = None;
    ref_tracer = None;
  }

let ref_trace t kind addr =
  match t.ref_tracer with Some f -> f kind addr | None -> ()

let user_mode t = t.status land 0x2 <> 0
let asid t = (t.entryhi lsr 6) land 0x3F

(* ------------------------------------------------------------------ *)
(* Raw physical memory access (host-side too)                          *)

let phys_ok t pa len = pa >= 0 && pa + len <= t.cfg.mem_bytes

(* Every physical write advances the page's store generation
   ({!Uop.Gens} owns the contract), which invalidates the page's decode
   slots and any cached basic block decoded from it (unchecked: callers
   write the page first, and that access is bounds checked). *)
let bgen_bump t pa =
  let p = pa lsr Addr.page_shift in
  let g = t.bgen in
  Array.unsafe_set g p (Array.unsafe_get g p + 1)
let bgen_bump_range t pa len = Uop.Gens.bump_range t.bgen pa len

let ram_page_alloc t p =
  let pg = Bytes.make Addr.page_size '\000' in
  t.mem.(p) <- pg;
  pg

(* The page of [p] for writing: a never-written page gets its own bytes
   here, on its first write. *)
let[@inline] ram_page_w t p =
  let pg = t.mem.(p) in
  if pg != zero_page then pg else ram_page_alloc t p

let read_phys_u8 t pa =
  Bytes.get_uint8 t.mem.(pa lsr Addr.page_shift) (pa land Addr.page_mask)

let write_u8_raw t pa v =
  Bytes.set_uint8
    (ram_page_w t (pa lsr Addr.page_shift))
    (pa land Addr.page_mask) (v land 0xFF)

(* Multi-byte accesses within one page take one load or store; the rare
   unaligned host access that straddles a page end goes byte by byte. *)
let read_phys_u32 t pa =
  let o = pa land Addr.page_mask in
  if o <= Addr.page_size - 4 then
    Int32.to_int (Bytes.get_int32_le t.mem.(pa lsr Addr.page_shift) o)
    land 0xFFFFFFFF
  else
    read_phys_u8 t pa
    lor (read_phys_u8 t (pa + 1) lsl 8)
    lor (read_phys_u8 t (pa + 2) lsl 16)
    lor (read_phys_u8 t (pa + 3) lsl 24)

let read_phys_u16 t pa =
  let o = pa land Addr.page_mask in
  if o <= Addr.page_size - 2 then
    Bytes.get_uint16_le t.mem.(pa lsr Addr.page_shift) o
  else read_phys_u8 t pa lor (read_phys_u8 t (pa + 1) lsl 8)

let write_phys_u32 t pa v =
  let o = pa land Addr.page_mask in
  if o <= Addr.page_size - 4 then begin
    Bytes.set_int32_le
      (ram_page_w t (pa lsr Addr.page_shift))
      o
      (Int32.of_int (v land 0xFFFFFFFF));
    bgen_bump t pa
  end
  else begin
    for i = 0 to 3 do
      write_u8_raw t (pa + i) (v lsr (8 * i))
    done;
    bgen_bump_range t pa 4
  end

let write_phys_u16 t pa v =
  let o = pa land Addr.page_mask in
  if o <= Addr.page_size - 2 then begin
    Bytes.set_uint16_le (ram_page_w t (pa lsr Addr.page_shift)) o (v land 0xFFFF);
    bgen_bump t pa
  end
  else begin
    write_u8_raw t pa v;
    write_u8_raw t (pa + 1) (v lsr 8);
    bgen_bump_range t pa 2
  end

let write_phys_u8 t pa v =
  write_u8_raw t pa v;
  bgen_bump t pa

let check_span t what pa len =
  if pa < 0 || len < 0 || pa + len > t.cfg.mem_bytes then
    invalid_arg (Printf.sprintf "Machine.%s: [%#x, +%d) outside RAM" what pa len)

let is_zero b off len =
  let rec go i = i >= off + len || (Bytes.unsafe_get b i = '\000' && go (i + 1)) in
  go off

(* Split the RAM span [pa, pa+len) at page ends: [f p o pos n] for each
   piece, [n] bytes at offset [o] of page [p], [pos] bytes into the span. *)
let iter_ram_span t what pa len f =
  check_span t what pa len;
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let o = a land Addr.page_mask in
    let n = min (Addr.page_size - o) (len - !pos) in
    f (a lsr Addr.page_shift) o !pos n;
    pos := !pos + n
  done

(* Zeros landing on a never-written page leave it shared. *)
let blit_to_ram t what pa src len =
  iter_ram_span t what pa len (fun p o pos n ->
      if not (t.mem.(p) == zero_page && is_zero src pos n) then
        Bytes.blit src pos (ram_page_w t p) o n);
  bgen_bump_range t pa len

let blit_from_ram t what pa dst len =
  iter_ram_span t what pa len (fun p o pos n ->
      Bytes.blit t.mem.(p) o dst pos n)

let write_phys_bytes t pa s =
  blit_to_ram t "write_phys_bytes" pa (Bytes.unsafe_of_string s)
    (String.length s)

let read_phys_bytes t pa len =
  let b = Bytes.create (max len 0) in
  blit_from_ram t "read_phys_bytes" pa b len;
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* Address translation                                                 *)

(* Full translation walk: segment checks plus TLB lookup.  Returns the
   physical address and leaves cacheability in [t.tr_cached] (a scratch
   return slot, so no tuple is allocated); raises [Trap] on failure.  This
   is the translation-cache-free oracle [translate_i] must agree with. *)
let translate_walk t va ~write:w ~fetch =
  match Addr.segment va with
  | Addr.Kseg0 ->
    if user_mode t then
      trap ~badva:va (if w then Exc.ades else Exc.adel);
    t.tr_cached <- true;
    Addr.kseg0_pa va
  | Addr.Kseg1 ->
    if user_mode t then
      trap ~badva:va (if w then Exc.ades else Exc.adel);
    t.tr_cached <- false;
    Addr.kseg1_pa va
  | Addr.Kuseg | Addr.Kseg2 ->
    if va >= Addr.kseg2_base && user_mode t then
      trap ~badva:va (if w then Exc.ades else Exc.adel);
    let lo = Tlb.lookup t.tlb ~vpn:(Addr.vpn va) ~asid:(asid t) ~write:w in
    if lo >= 0 then begin
      t.tr_cached <- not (Tlb.lo_noncacheable lo);
      (Tlb.lo_pfn lo lsl Addr.page_shift) lor Addr.page_offset va
    end
    else if lo = Tlb.miss then begin
      if va < Addr.kuseg_limit then t.c.utlb_misses <- t.c.utlb_misses + 1
      else t.c.ktlb_misses <- t.c.ktlb_misses + 1;
      ignore fetch;
      trap ~badva:va ~refill:true (if w then Exc.tlbs else Exc.tlbl)
    end
    else if lo = Tlb.invalid then begin
      t.c.tlb_invalid <- t.c.tlb_invalid + 1;
      trap ~badva:va (if w then Exc.tlbs else Exc.tlbl)
    end
    else begin
      t.c.tlb_mod <- t.c.tlb_mod + 1;
      trap ~badva:va Exc.tlb_mod
    end

let tcache_flush t =
  let tc = t.tc in
  Array.fill tc.tc_f 0 tc_slots (-1);
  Array.fill tc.tc_r 0 tc_slots (-1);
  Array.fill tc.tc_w 0 tc_slots (-1)

(* A TLB write changes the translation of exactly two vpns: the one the
   overwritten entry held and the one written. *)
let tcache_forget t vpn =
  let s = tc_slot vpn in
  let tc = t.tc in
  Array.unsafe_set tc.tc_f s (-1);
  Array.unsafe_set tc.tc_r s (-1);
  Array.unsafe_set tc.tc_w s (-1)

let tlb_write t k ~hi ~lo =
  tcache_forget t (Tlb.hi_vpn t.tlb.Tlb.entries.(k).Tlb.hi);
  tcache_forget t (Tlb.hi_vpn hi);
  Tlb.write t.tlb k ~hi ~lo

(* Translation with the translation cache in front of the full walk: a
   hit reuses the cached page frame without re-checking segment
   permissions or walking the TLB.  Failed walks trap before the cache is
   filled, so misses, invalid entries and modified faults behave (and
   count) exactly as in [translate_walk].  Returns the physical address
   and leaves cacheability in [t.tr_cached], as the walk does. *)
let translate_i t va ~write:w ~fetch =
  let tc = t.tc in
  let tab = if fetch then tc.tc_f else if w then tc.tc_w else tc.tc_r in
  let vpn = va lsr Addr.page_shift in
  let s = tc_slot vpn in
  let e = Array.unsafe_get tab s in
  if tc_hit e vpn then begin
    t.tr_cached <- tc_cached e;
    tc_pa e va
  end
  else begin
    let pa = translate_walk t va ~write:w ~fetch in
    if t.cfg.tier <> Uop.Step then
      Array.unsafe_set tab s (tc_entry vpn pa t.tr_cached);
    pa
  end

(* ------------------------------------------------------------------ *)
(* Devices                                                             *)

let raise_irq t line = t.ip <- t.ip lor (1 lsl line)
let clear_irq t line = t.ip <- t.ip land lnot (1 lsl line)

let disk_refresh_irq t =
  if Disk.has_done t.disk then raise_irq t Addr.irq_disk
  else clear_irq t Addr.irq_disk

let poll_devices t =
  if t.cycles >= t.next_clock then begin
    t.c.clock_ticks <- t.c.clock_ticks + 1;
    raise_irq t Addr.irq_clock;
    t.next_clock <-
      (if t.clock_interval > 0 then t.cycles + t.clock_interval else max_int)
  end;
  if Disk.next_event t.disk <= t.cycles then begin
    let n =
      (* DMA'd memory may hold instructions: [blit_to_ram] bumps the
         generations that invalidate the decode cache and the blocks. *)
      Disk.poll t.disk ~now:t.cycles
        ~to_ram:(fun pa src -> blit_to_ram t "DMA" pa src Disk.block_bytes)
        ~from_ram:(fun pa dst ->
          blit_from_ram t "DMA" pa dst Disk.block_bytes)
    in
    if n > 0 then disk_refresh_irq t
  end

let device_read t pa =
  let off = pa - Addr.device_base_pa in
  if off = Addr.dev_clock_interval then t.clock_interval
  else if off = Addr.dev_disk_status then (if Disk.busy t.disk then 1 else 0)
  else if off = Addr.dev_disk_done_block then Disk.done_block t.disk land 0xFFFFFFFF
  else if off = Addr.dev_cycle_lo then t.cycles land 0xFFFFFFFF
  else if off = Addr.dev_cycle_hi then (t.cycles lsr 32) land 0xFFFFFFFF
  else 0

let device_write t pa v =
  let off = pa - Addr.device_base_pa in
  if off = Addr.dev_console_tx then Buffer.add_char t.console (Char.chr (v land 0xFF))
  else if off = Addr.dev_clock_interval then begin
    t.clock_interval <- v;
    t.next_clock <- (if v > 0 then t.cycles + v else max_int)
  end
  else if off = Addr.dev_clock_ack then clear_irq t Addr.irq_clock
  else if off = Addr.dev_disk_block then t.disk.Disk.reg_block <- v
  else if off = Addr.dev_disk_addr then t.disk.Disk.reg_addr <- v
  else if off = Addr.dev_disk_count then t.disk.Disk.reg_count <- v
  else if off = Addr.dev_disk_cmd then
    ignore (Disk.submit t.disk ~now:t.cycles ~is_write:(v = 2))
  else if off = Addr.dev_disk_ack then begin
    Disk.ack t.disk;
    disk_refresh_irq t
  end

let is_device_pa pa =
  pa >= Addr.device_base_pa && pa < Addr.device_base_pa + Addr.dev_limit

(* ------------------------------------------------------------------ *)
(* Timed memory access                                                 *)

let load_word_timed t va =
  if va land 3 <> 0 then trap ~badva:va Exc.adel;
  let pa = translate_i t va ~write:false ~fetch:false in
  let cached = t.tr_cached in
  if is_device_pa pa then begin
    t.cycles <- t.cycles + t.cfg.uncached_penalty;
    t.c.uncached_reads <- t.c.uncached_reads + 1;
    device_read t pa
  end
  else begin
    if not (phys_ok t pa 4) then trap ~badva:va Exc.adel;
    if cached then begin
      if not (Cache.read t.dcache pa) then
        t.cycles <- t.cycles + t.cfg.read_miss_penalty
    end
    else begin
      t.c.uncached_reads <- t.c.uncached_reads + 1;
      t.cycles <- t.cycles + t.cfg.uncached_penalty
    end;
    read_phys_u32 t pa
  end

let load_timed t va bytes =
  match bytes with
  | 4 -> load_word_timed t va
  | 2 ->
    if va land 1 <> 0 then trap ~badva:va Exc.adel;
    let pa = translate_i t va ~write:false ~fetch:false in
    let cached = t.tr_cached in
    if not (phys_ok t pa 2) then trap ~badva:va Exc.adel;
    if cached then begin
      if not (Cache.read t.dcache pa) then
        t.cycles <- t.cycles + t.cfg.read_miss_penalty
    end
    else begin
      t.c.uncached_reads <- t.c.uncached_reads + 1;
      t.cycles <- t.cycles + t.cfg.uncached_penalty
    end;
    read_phys_u16 t pa
  | 1 ->
    let pa = translate_i t va ~write:false ~fetch:false in
    let cached = t.tr_cached in
    if not (phys_ok t pa 1) then trap ~badva:va Exc.adel;
    if cached then begin
      if not (Cache.read t.dcache pa) then
        t.cycles <- t.cycles + t.cfg.read_miss_penalty
    end
    else begin
      t.c.uncached_reads <- t.c.uncached_reads + 1;
      t.cycles <- t.cycles + t.cfg.uncached_penalty
    end;
    read_phys_u8 t pa
  | _ -> assert false

let store_timed t va bytes v =
  (match bytes with
  | 4 -> if va land 3 <> 0 then trap ~badva:va Exc.ades
  | 2 -> if va land 1 <> 0 then trap ~badva:va Exc.ades
  | _ -> ());
  let pa = translate_i t va ~write:true ~fetch:false in
  let cached = t.tr_cached in
  if is_device_pa pa then begin
    t.bb_dev <- true;
    t.cycles <- t.cycles + t.cfg.uncached_penalty;
    device_write t pa v
  end
  else begin
    if not (phys_ok t pa bytes) then trap ~badva:va Exc.ades;
    if cached then ignore (Cache.write t.dcache pa);
    t.cycles <- t.cycles + Write_buffer.store t.wb ~now:t.cycles;
    (match bytes with
    | 4 -> write_phys_u32 t pa v
    | 2 -> write_phys_u16 t pa v
    | 1 -> write_phys_u8 t pa v
    | _ -> assert false);
    match t.watchpoint with
    | Some f ->
      t.bb_dev <- true;
      f va v
    | None -> ()
  end

(* The double-word accesses move the value between memory and [t.fregs]
   themselves (the load returns the physical address it read, the store
   takes the register), so no float crosses a call boxed. *)
let load_double_timed t va =
  if va land 7 <> 0 then trap ~badva:va Exc.adel;
  let pa = translate_i t va ~write:false ~fetch:false in
  let cached = t.tr_cached in
  if not (phys_ok t pa 8) then trap ~badva:va Exc.adel;
  if cached then begin
    if not (Cache.read t.dcache pa) then
      t.cycles <- t.cycles + t.cfg.read_miss_penalty
  end
  else begin
    t.c.uncached_reads <- t.c.uncached_reads + 1;
    t.cycles <- t.cycles + t.cfg.uncached_penalty
  end;
  pa

let store_double_timed t va ft =
  if va land 7 <> 0 then trap ~badva:va Exc.ades;
  let pa = translate_i t va ~write:true ~fetch:false in
  let cached = t.tr_cached in
  if not (phys_ok t pa 8) then trap ~badva:va Exc.ades;
  if cached then ignore (Cache.write t.dcache pa);
  (* A double store occupies two write-buffer slots. *)
  t.cycles <- t.cycles + Write_buffer.store t.wb ~now:t.cycles;
  t.cycles <- t.cycles + Write_buffer.store t.wb ~now:t.cycles;
  (* 8-byte aligned, so both words share one page *)
  Bytes.set_int64_le
    (ram_page_w t (pa lsr Addr.page_shift))
    (pa land Addr.page_mask)
    (Int64.bits_of_float t.fregs.(ft));
  bgen_bump t pa

(* The decode slots of physical page [p], allocated on the page's first
   decode and refilled with [undecoded] when a write has moved the page's
   generation since they were filled. *)
let dec_page t p =
  let d = t.dec in
  let page = d.pages.(p) in
  let g = t.bgen.(p) in
  if Array.length page > 0 && d.filled_at.(p) = g then page
  else begin
    let page =
      if Array.length page > 0 then begin
        Array.fill page 0 dec_page_words undecoded;
        page
      end
      else Array.make dec_page_words undecoded
    in
    d.pages.(p) <- page;
    d.filled_at.(p) <- g;
    page
  end

(* Read through the decode cache, decoding (at [va], which fixes the
   branch targets) on a miss. *)
let decode_at t ~va ~pa =
  let page = dec_page t (pa lsr Addr.page_shift) in
  let i = (pa lsr 2) land (dec_page_words - 1) in
  let insn = page.(i) in
  if insn != undecoded then insn
  else begin
    let insn = Encode.decode ~pc:va (read_phys_u32 t pa) in
    page.(i) <- insn;
    insn
  end

(* Instruction fetch with decode caching. *)
let fetch_timed t va =
  if va land 3 <> 0 then trap ~badva:va Exc.adel;
  let pa = translate_i t va ~write:false ~fetch:true in
  let cached = t.tr_cached in
  if not (phys_ok t pa 4) then trap ~badva:va Exc.adel;
  if cached then begin
    if not (Cache.read t.icache pa) then
      t.cycles <- t.cycles + t.cfg.read_miss_penalty
  end
  else begin
    t.c.uncached_ifetches <- t.c.uncached_ifetches + 1;
    t.cycles <- t.cycles + t.cfg.uncached_penalty
  end;
  decode_at t ~va ~pa

(* ------------------------------------------------------------------ *)
(* 32-bit arithmetic helpers                                           *)

let u32 v = v land 0xFFFFFFFF
let s32 v = let v = u32 v in if v >= 0x80000000 then v - 0x100000000 else v

(* ------------------------------------------------------------------ *)
(* Exception entry                                                     *)

let enter_exception t ~code ~badva ~refill ~cur ~in_delay =
  t.c.exceptions <- t.c.exceptions + 1;
  if code = Exc.interrupt then t.c.interrupts <- t.c.interrupts + 1;
  if code = Exc.syscall then t.c.syscalls <- t.c.syscalls + 1;
  t.epc <- (if in_delay then cur - 4 else cur);
  t.cause <-
    (code lsl 2)
    lor (if in_delay then 0x80000000 else 0)
    lor (t.ip lsl 8 land 0xFF00);
  if badva >= 0 then begin
    t.badvaddr <- badva;
    if code = Exc.tlbl || code = Exc.tlbs || code = Exc.tlb_mod then begin
      t.entryhi <-
        Tlb.make_entryhi ~vpn:(Addr.vpn badva) ~asid:(asid t);
      t.context_badvpn <- Addr.vpn badva
    end
  end;
  (* Push the KU/IE stack: old <- prev <- current <- (kernel, disabled). *)
  t.status <- (t.status land lnot 0x3F) lor ((t.status lsl 2) land 0x3C);
  let vector =
    if refill && badva >= 0 && badva < Addr.kuseg_limit then Addr.utlb_vector
    else Addr.general_vector
  in
  t.pc <- vector;
  t.npc <- vector + 4;
  t.next_is_delay <- false

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)

(* Register numbers come from 5-bit decode fields (or [Reg] constants),
   so they are always in [0, 31]. *)
let reg_get t r = Array.unsafe_get t.regs r
let reg_set t r v = if r <> 0 then Array.unsafe_set t.regs r (u32 v)

let exec_alu t op rd rs rt =
  let a = reg_get t rs and b = reg_get t rt in
  let v =
    match (op : Insn.alu) with
    | ADD | ADDU -> a + b
    | SUB | SUBU -> a - b
    | AND -> a land b
    | OR -> a lor b
    | XOR -> a lxor b
    | NOR -> lnot (a lor b)
    | SLT -> if s32 a < s32 b then 1 else 0
    | SLTU -> if a < b then 1 else 0
    | SLLV -> a lsl (b land 31)
    | SRLV -> a lsr (b land 31)
    | SRAV -> s32 a asr (b land 31)
    | MUL -> s32 a * s32 b
    | MULH ->
      Int64.to_int
        (Int64.shift_right
           (Int64.mul (Int64.of_int (s32 a)) (Int64.of_int (s32 b)))
           32)
    | DIV -> if s32 b = 0 then 0 else s32 a / s32 b
    | REM -> if s32 b = 0 then 0 else Stdlib.Int.rem (s32 a) (s32 b)
  in
  reg_set t rd v

let exec_alui t op rt rs imm =
  let a = reg_get t rs in
  let v =
    match (op : Insn.alui) with
    | ADDI | ADDIU -> a + imm
    | SLTI -> if s32 a < imm then 1 else 0
    | SLTIU -> if a < u32 imm then 1 else 0
    | ANDI -> a land imm
    | ORI -> a lor imm
    | XORI -> a lxor imm
  in
  reg_set t rt v

let cp0_read t (c : Insn.cp0) =
  match c with
  | C0_index -> t.index_reg
  | C0_random -> Tlb.random_index ~cycle:t.cycles lsl 8
  | C0_entrylo -> t.entrylo
  | C0_context ->
    (t.context_base land 0xFFE00000) lor ((t.context_badvpn lsl 2) land 0x1FFFFC)
  | C0_badvaddr -> t.badvaddr
  | C0_count -> t.cycles land 0xFFFFFFFF
  | C0_entryhi -> t.entryhi
  | C0_status -> t.status
  | C0_cause -> (t.cause land lnot 0xFF00) lor ((t.ip lsl 8) land 0xFF00)
  | C0_epc -> t.epc
  | C0_prid -> 0x0230 (* R3000-ish *)

let cp0_write t (c : Insn.cp0) v =
  match c with
  | C0_index -> t.index_reg <- v land 0x3F00
  | C0_random -> ()
  | C0_entrylo -> t.entrylo <- v
  | C0_context -> t.context_base <- v land 0xFFE00000
  | C0_badvaddr -> ()
  | C0_count -> ()
  | C0_entryhi ->
    (* ASID lives here: a change retargets every mapped translation. *)
    if (t.entryhi lxor v) land 0xFC0 <> 0 then tcache_flush t;
    t.entryhi <- v
  | C0_status ->
    (* KUc gates segment permissions; the IE/IM bits translate nothing. *)
    if v land lnot t.status land 0x2 <> 0 then tcache_flush t;
    t.status <- v
  | C0_cause -> t.cause <- v
  | C0_epc -> t.epc <- v
  | C0_prid -> ()

let privileged t =
  if user_mode t then trap Exc.reserved

let target = function
  | Insn.Abs a -> a
  | Insn.Sym s -> failwith ("unresolved symbol at runtime: " ^ s)

let imm_value = function
  | Insn.Imm n -> n
  | Insn.Lo s | Insn.Hi s ->
    failwith ("unresolved immediate at runtime: " ^ s)

let branch t cond tgt =
  t.next_is_delay <- true;
  if cond then t.npc <- target tgt

(* The FP arms of [exec], shared with the block executor's FP uops. *)
let exec_fload t ft va =
  let pa = load_double_timed t va in
  ref_trace t 1 va;
  t.fregs.(ft) <-
    Int64.float_of_bits
      (Bytes.get_int64_le t.mem.(pa lsr Addr.page_shift) (pa land Addr.page_mask));
  Fpu.set_ready t.fpu ~now:t.cycles ft

let exec_fstore t ft va =
  t.cycles <- t.cycles + Fpu.wait1 t.fpu ~now:t.cycles ft;
  store_double_timed t va ft;
  ref_trace t 2 va

let exec_fop t (op : Insn.fop) fd fs ft =
  t.cycles <-
    t.cycles
    + (match op with
      | FADD | FSUB | FMUL | FDIV -> Fpu.wait2 t.fpu ~now:t.cycles fs ft
      | _ -> Fpu.wait1 t.fpu ~now:t.cycles fs);
  t.cycles <- t.cycles + Fpu.issue t.fpu ~now:t.cycles ~op ~dst:fd;
  let a = t.fregs.(fs) and b = t.fregs.(ft) in
  t.fregs.(fd) <-
    (match op with
    | FADD -> a +. b
    | FSUB -> a -. b
    | FMUL -> a *. b
    | FDIV -> a /. b
    | FABS -> abs_float a
    | FNEG -> -.a
    | FMOV -> a
    | CVTDW -> a
    | TRUNCWD -> Float.of_int (int_of_float a))

let exec t cur insn =
  match (insn : Insn.t) with
  | Alu (op, rd, rs, rt) -> exec_alu t op rd rs rt
  | Alui (op, rt, rs, imm) -> exec_alui t op rt rs (imm_value imm)
  | Shift (op, rd, rt, sa) ->
    let v = reg_get t rt in
    reg_set t rd
      (match op with
      | SLL -> v lsl sa
      | SRL -> v lsr sa
      | SRA -> s32 v asr sa)
  | Lui (rt, imm) -> reg_set t rt (imm_value imm lsl 16)
  | Load (w, rt, base, off) ->
    let va = u32 (reg_get t base + imm_value off) in
    let v =
      match w with
      | W -> load_timed t va 4
      | H ->
        let v = load_timed t va 2 in
        if v >= 0x8000 then v - 0x10000 else v
      | HU -> load_timed t va 2
      | B ->
        let v = load_timed t va 1 in
        if v >= 0x80 then v - 0x100 else v
      | BU -> load_timed t va 1
    in
    ref_trace t 1 va;
    reg_set t rt v
  | Store (w, rt, base, off) ->
    let va = u32 (reg_get t base + imm_value off) in
    let bytes = match w with W -> 4 | H | HU -> 2 | B | BU -> 1 in
    store_timed t va bytes (reg_get t rt);
    ref_trace t 2 va
  | Fload (ft, base, off) ->
    exec_fload t ft (u32 (reg_get t base + imm_value off))
  | Fstore (ft, base, off) ->
    exec_fstore t ft (u32 (reg_get t base + imm_value off))
  | Beq (rs, rt, tg) -> branch t (reg_get t rs = reg_get t rt) tg
  | Bne (rs, rt, tg) -> branch t (reg_get t rs <> reg_get t rt) tg
  | Blez (rs, tg) -> branch t (s32 (reg_get t rs) <= 0) tg
  | Bgtz (rs, tg) -> branch t (s32 (reg_get t rs) > 0) tg
  | Bltz (rs, tg) -> branch t (s32 (reg_get t rs) < 0) tg
  | Bgez (rs, tg) -> branch t (s32 (reg_get t rs) >= 0) tg
  | J tg -> branch t true tg
  | Jal tg ->
    reg_set t Reg.ra (cur + 8);
    branch t true tg
  | Jr rs ->
    t.next_is_delay <- true;
    t.npc <- reg_get t rs
  | Jalr (rd, rs) ->
    let dest = reg_get t rs in
    reg_set t rd (cur + 8);
    t.next_is_delay <- true;
    t.npc <- dest
  | Syscall -> trap Exc.syscall
  | Break _ -> trap Exc.breakpoint
  | Mfc0 (rt, c) ->
    privileged t;
    reg_set t rt (cp0_read t c)
  | Mtc0 (rt, c) ->
    privileged t;
    cp0_write t c (reg_get t rt)
  | Tlbr ->
    privileged t;
    let hi, lo = Tlb.read t.tlb ((t.index_reg lsr 8) land 0x3F) in
    t.entryhi <- hi;
    t.entrylo <- lo
  | Tlbwi ->
    privileged t;
    tlb_write t ((t.index_reg lsr 8) land 0x3F) ~hi:t.entryhi ~lo:t.entrylo
  | Tlbwr ->
    privileged t;
    tlb_write t (Tlb.random_index ~cycle:t.cycles) ~hi:t.entryhi ~lo:t.entrylo
  | Tlbp ->
    privileged t;
    let k =
      Tlb.probe t.tlb ~vpn:(t.entryhi lsr 12) ~asid:((t.entryhi lsr 6) land 0x3F)
    in
    t.index_reg <- (if k >= 0 then k lsl 8 else 0x80000000)
  | Rfe ->
    privileged t;
    let s = (t.status land lnot 0xF) lor ((t.status lsr 2) land 0xF) in
    if s land lnot t.status land 0x2 <> 0 then tcache_flush t;
    t.status <- s
  | Mfc1 (rt, fs) ->
    t.cycles <- t.cycles + Fpu.wait1 t.fpu ~now:t.cycles fs;
    reg_set t rt (int_of_float t.fregs.(fs))
  | Mtc1 (rt, fs) ->
    t.fregs.(fs) <- float_of_int (s32 (reg_get t rt));
    Fpu.set_ready t.fpu ~now:t.cycles fs
  | Fop (op, fd, fs, ft) -> exec_fop t op fd fs ft
  | Fcmp (c, fs, ft) ->
    t.cycles <- t.cycles + Fpu.wait2 t.fpu ~now:t.cycles fs ft;
    t.cycles <- t.cycles + Fpu.issue_compare t.fpu ~now:t.cycles;
    let a = t.fregs.(fs) and b = t.fregs.(ft) in
    t.fcc <- (match c with FEQ -> a = b | FLT -> a < b | FLE -> a <= b)
  | Bc1t tg -> branch t t.fcc tg
  | Bc1f tg -> branch t (not t.fcc) tg
  | Cache (op, base, off) ->
    privileged t;
    let va = u32 (reg_get t base + imm_value off) in
    let pa = translate_i t va ~write:false ~fetch:false in
    if op = 0 then Cache.invalidate t.icache pa
    else Cache.invalidate t.dcache pa
  | Hcall code -> (
    privileged t;
    match t.hcall_handler with
    | Some f -> f t code
    | None -> failwith (Printf.sprintf "hcall %d with no handler" code))

(* ------------------------------------------------------------------ *)
(* Stepping                                                            *)

let interrupt_pending t =
  t.status land 1 <> 0 && t.ip land ((t.status lsr 8) land 0xFF) <> 0

let step t =
  if t.halted then raise Halted;
  poll_devices t;
  if (not t.next_is_delay) && interrupt_pending t then
    enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false ~cur:t.pc
      ~in_delay:false
  else begin
    let cur = t.pc in
    let in_delay = t.next_is_delay in
    match fetch_timed t cur with
    | insn ->
      ref_trace t 0 cur;
      t.next_is_delay <- false;
      t.pc <- t.npc;
      t.npc <- t.npc + 4;
      (try
         exec t cur insn;
         t.cycles <- t.cycles + 1;
         t.c.instructions <- t.c.instructions + 1;
         if user_mode t then
           t.c.user_instructions <- t.c.user_instructions + 1
         else begin
           t.c.kernel_instructions <- t.c.kernel_instructions + 1;
           if cur >= t.idle_lo && cur < t.idle_hi then
             t.c.idle_instructions <- t.c.idle_instructions + 1
         end;
         if t.cfg.count_exec then begin
           (* Count by physical word so kernel and user text both work. *)
           match translate_i t cur ~write:false ~fetch:true with
           | pa when pa lsr 2 < Array.length t.exec_counts ->
             t.exec_counts.(pa lsr 2) <- t.exec_counts.(pa lsr 2) + 1
           | _ -> ()
           | exception Trap _ -> ()
         end
       with Trap { code; badva; refill } ->
         (* The faulting instruction consumed a cycle. *)
         t.cycles <- t.cycles + 1;
         enter_exception t ~code ~badva ~refill ~cur ~in_delay)
    | exception Trap { code; badva; refill } ->
      t.cycles <- t.cycles + 1;
      enter_exception t ~code ~badva ~refill ~cur ~in_delay
  end

(* ------------------------------------------------------------------ *)
(* Basic-block execution cache (the Super tier)                       *)

(* The block executor must be state-identical to [step] — [step] stays in
   as the qcheck oracle — so everything observable is kept per
   instruction: device polling, interrupt sampling, icache fetch timing,
   the reference-tracer callbacks, cycle/instruction counters (several
   device and stall models consult [t.cycles] mid-block), and trap entry.
   What a block amortises is only the work with no observable effect:
   the per-fetch alignment check, translation, bounds check, decode-cache
   probe, and the interpreter's per-[exec] closure allocations. *)

(* Blocks decode through the same per-word cache [fetch_timed] uses —
   the shared cache is what keeps block-mode and step-mode byte-identical
   even in the aliased-mapping corner where a cached entry was decoded at
   a different va. *)
let bb_lookup t ~va ~pa ~cached =
  let slot = (pa lsr 2) land (bcache_slots - 1) in
  let b = Array.unsafe_get t.bcache_tab slot in
  if
    b.bb_pa = pa && b.bb_va = va && b.bb_cached = cached
    && b.bb_gen = t.bgen.(pa lsr Addr.page_shift)
  then b
  else begin
    let b =
      Uop.build
        ~decode:(fun ~va ~pa -> decode_at t ~va ~pa)
        ~va ~pa ~cached
        ~gen:(t.bgen.(pa lsr Addr.page_shift))
    in
    Array.unsafe_set t.bcache_tab slot b;
    b
  end

(* Event horizon: the earliest cycle at which [poll_devices] could do
   anything (clock tick or disk completion).  While [t.cycles] stays
   below it the per-instruction poll is a provable no-op, and neither
   the interrupt lines nor any page generation can have moved either —
   inside a block only stores and [U_other] reach devices or memory, and
   those take the full recheck (see the [bb_fin_*] classes). *)
let bb_horizon t =
  let d = Disk.next_event t.disk in
  if t.next_clock < d then t.next_clock else d

(* Credit uops [t.bb_kf, k) of block [b] — all executed in mode [um] —
   to the instruction counters.  The span is contiguous in va, so the
   idle-range attribution is the interval overlap instead of a per-
   instruction compare. *)
let bb_flush t b k =
  let kf = t.bb_kf in
  let n = k - kf in
  if n > 0 then begin
    let c = t.c in
    c.instructions <- c.instructions + n;
    if t.bb_um then c.user_instructions <- c.user_instructions + n
    else begin
      c.kernel_instructions <- c.kernel_instructions + n;
      let lo0 = b.bb_va + (kf * 4) and hi0 = b.bb_va + (k * 4) in
      let lo = if lo0 > t.idle_lo then lo0 else t.idle_lo in
      let hi = if hi0 < t.idle_hi then hi0 else t.idle_hi in
      if hi > lo then
        c.idle_instructions <- c.idle_instructions + ((hi - lo) lsr 2)
    end
  end;
  t.bb_kf <- k

(* Per-word execution counting (cfg.count_exec), as [step] does it. *)
let bb_count t cur =
  match translate_i t cur ~write:false ~fetch:true with
  | cpa when cpa lsr 2 < Array.length t.exec_counts ->
    t.exec_counts.(cpa lsr 2) <- t.exec_counts.(cpa lsr 2) + 1
  | _ -> ()
  | exception Trap _ -> ()

(* Icache probe for a sequential fetch that left the memoized line. *)
let bb_fetch_probe t tg =
  let ic = t.icache in
  let idx = tg land (ic.Cache.nlines - 1) in
  if Array.unsafe_get ic.Cache.tags idx = tg then
    ic.Cache.hits <- ic.Cache.hits + 1
  else begin
    ic.Cache.misses <- ic.Cache.misses + 1;
    Array.unsafe_set ic.Cache.tags idx tg;
    t.cycles <- t.cycles + t.cfg.read_miss_penalty
  end

(* Seam prologue for the second/third element of a fused run: the fetch
   timing, tracer callback and pc advance of the generic dispatch,
   specialised on a cached fetch mapping (only cacheable text is ever
   fused).  Returns the new resident line tag. *)
let[@inline always] bb_seam t pa cur ptag =
  let tg = pa lsr t.icache.Cache.line_shift in
  if tg = ptag then t.icache.Cache.hits <- t.icache.Cache.hits + 1
  else bb_fetch_probe t tg;
  (match t.ref_tracer with Some f -> f 0 cur | None -> ());
  t.pc <- t.npc;
  t.npc <- t.npc + 4;
  tg

(* The word-access fast-path test shared by every inline load/store: the
   physical address of an aligned word whose translation-cache entry
   ([tab] is the load or the store class) is a cached in-RAM mapping, or
   -1 when the access must take the timed helper (unaligned, cache miss,
   uncached, device, out of range). *)
let[@inline always] tc_word_pa t tab va =
  let vpn = va lsr Addr.page_shift in
  let e = Array.unsafe_get tab (tc_slot vpn) in
  if va land 3 = 0 && tc_hit e vpn && tc_cached e then begin
    let pa = tc_pa e va in
    if pa + 4 <= t.cfg.mem_bytes && not (is_device_pa pa) then pa else -1
  end
  else -1

(* Cached, in-RAM word load/store bodies shared by the scalar
   [U_lw]/[U_sw] arms and the fused uops: translation-cache hit +
   direct-mapped d-cache probe + raw access (write-through no-allocate
   on the store side, so only the write buffer, memory, decode cache and
   page generation are touched), falling back to the timed helpers for
   every other case. *)
let[@inline always] bb_load_word t rt va =
  let pa = tc_word_pa t t.tc.tc_r va in
  if pa >= 0 then begin
    let dc = t.dcache in
    let tg = pa lsr dc.Cache.line_shift in
    let idx = tg land (dc.Cache.nlines - 1) in
    if Array.unsafe_get dc.Cache.tags idx = tg then
      dc.Cache.hits <- dc.Cache.hits + 1
    else begin
      dc.Cache.misses <- dc.Cache.misses + 1;
      Array.unsafe_set dc.Cache.tags idx tg;
      t.cycles <- t.cycles + t.cfg.read_miss_penalty
    end;
    let v =
      Int32.to_int
        (Bytes.get_int32_le
           (Array.unsafe_get t.mem (pa lsr Addr.page_shift))
           (pa land Addr.page_mask))
      land 0xFFFFFFFF
    in
    (match t.ref_tracer with Some f -> f 1 va | None -> ());
    reg_set t rt v
  end
  else begin
    let v = load_word_timed t va in
    (match t.ref_tracer with Some f -> f 1 va | None -> ());
    reg_set t rt v
  end

let[@inline always] bb_store_word t v va =
  let pa = tc_word_pa t t.tc.tc_w va in
  if pa >= 0 then begin
    t.cycles <- t.cycles + Write_buffer.store t.wb ~now:t.cycles;
    Bytes.set_int32_le
      (ram_page_w t (pa lsr Addr.page_shift))
      (pa land Addr.page_mask)
      (Int32.of_int (v land 0xFFFFFFFF));
    bgen_bump t pa;
    (match t.watchpoint with
    | Some f ->
      t.bb_dev <- true;
      f va v
    | None -> ());
    (match t.ref_tracer with Some f -> f 2 va | None -> ())
  end
  else begin
    store_timed t va 4 v;
    (match t.ref_tracer with Some f -> f 2 va | None -> ())
  end

(* The replay loop, as a self-tail-recursive toplevel function: it
   compiles to a loop with the state in registers and allocates nothing
   (a closure inside [exec_block] would be rebuilt per block entry).
   Traps are caught once per [exec_block] call: [t.bb_blk]/[t.bb_k]
   track the executing uop (written only by uops that can trap) so the
   handler can reconstruct the faulting pc and delay-slot flag.  [ptag]
   is the icache line tag of the previous fetch (or -1): sequential
   fetches from a line just probed are hits by construction, so a tag
   compare replaces the probe.  [budget]/[lim]: instructions the caller
   still allows / how many fall in this block; a block completing on a
   sequential pc with budget left chains straight into its successor. *)
let rec bb_go t b lim budget k pa cur ce next_ev ptag =
    (* per-instruction fetch timing, as [fetch_timed] charges it *)
    let ptag =
      if b.bb_cached then begin
        let ic = t.icache in
        let tg = pa lsr ic.Cache.line_shift in
        if tg = ptag then ic.Cache.hits <- ic.Cache.hits + 1
        else begin
          let idx = tg land (ic.Cache.nlines - 1) in
          if Array.unsafe_get ic.Cache.tags idx = tg then
            ic.Cache.hits <- ic.Cache.hits + 1
          else begin
            ic.Cache.misses <- ic.Cache.misses + 1;
            Array.unsafe_set ic.Cache.tags idx tg;
            t.cycles <- t.cycles + t.cfg.read_miss_penalty
          end
        end;
        tg
      end
      else begin
        t.c.uncached_ifetches <- t.c.uncached_ifetches + 1;
        t.cycles <- t.cycles + t.cfg.uncached_penalty;
        -1
      end
    in
    (match t.ref_tracer with Some f -> f 0 cur | None -> ());
    (* [t.next_is_delay] is false here: branch uops set it and the
       between-instruction paths below clear it when they consume it, so
       no per-instruction clear is needed. *)
    t.pc <- t.npc;
    t.npc <- t.npc + 4;
    let u = Array.unsafe_get b.bb_uops k in
    (* Execute the pre-decoded instruction, then tail into the epilogue
       of its between-check class ([bb_fin] / [bb_fin_store] /
       [bb_fin_other]; [_nc] when the base cycle was already charged).
       Bodies mirror [exec] exactly; register indices come from the
       5-bit fields of [Encode.decode], hence the unsafe reads.  The
       fused arms ([U_li] and friends) execute 2–3 elements per
       dispatch, re-checking budget and event horizon at each seam and
       bailing out to the scalar tail (covered slots keep their original
       uops) whenever the next seam could be observable. *)
    match u with
       | U_alu (op, rd, rs, rt) ->
         let a = Array.unsafe_get t.regs rs
         and bv = Array.unsafe_get t.regs rt in
         let v =
           match (op : Insn.alu) with
           | ADD | ADDU -> a + bv
           | SUB | SUBU -> a - bv
           | AND -> a land bv
           | OR -> a lor bv
           | XOR -> a lxor bv
           | NOR -> lnot (a lor bv)
           | SLT -> if s32 a < s32 bv then 1 else 0
           | SLTU -> if a < bv then 1 else 0
           | SLLV -> a lsl (bv land 31)
           | SRLV -> a lsr (bv land 31)
           | SRAV -> s32 a asr (bv land 31)
           | MUL -> s32 a * s32 bv
           | MULH ->
             Int64.to_int
               (Int64.shift_right
                  (Int64.mul (Int64.of_int (s32 a)) (Int64.of_int (s32 bv)))
                  32)
           | DIV -> if s32 bv = 0 then 0 else s32 a / s32 bv
           | REM -> if s32 bv = 0 then 0 else Stdlib.Int.rem (s32 a) (s32 bv)
         in
         reg_set t rd v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_alui (op, rt, rs, imm) ->
         let a = Array.unsafe_get t.regs rs in
         let v =
           match (op : Insn.alui) with
           | ADDI | ADDIU -> a + imm
           | SLTI -> if s32 a < imm then 1 else 0
           | SLTIU -> if a < u32 imm then 1 else 0
           | ANDI -> a land imm
           | ORI -> a lor imm
           | XORI -> a lxor imm
         in
         reg_set t rt v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_shift (op, rd, rt, sa) ->
         let v = Array.unsafe_get t.regs rt in
         reg_set t rd
           (match op with
           | SLL -> v lsl sa
           | SRL -> v lsr sa
           | SRA -> s32 v asr sa);
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lui (rt, imm) ->
         reg_set t rt (imm lsl 16);
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lw (rt, base, off) ->
         t.bb_k <- k;
         bb_load_word t rt (u32 (Array.unsafe_get t.regs base + off));
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lh (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         let v = load_timed t va 2 in
         let v = if v >= 0x8000 then v - 0x10000 else v in
         ref_trace t 1 va;
         reg_set t rt v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lhu (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         let v = load_timed t va 2 in
         ref_trace t 1 va;
         reg_set t rt v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lb (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         let v = load_timed t va 1 in
         let v = if v >= 0x80 then v - 0x100 else v in
         ref_trace t 1 va;
         reg_set t rt v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lbu (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         let v = load_timed t va 1 in
         ref_trace t 1 va;
         reg_set t rt v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_sw (rt, base, off) ->
         t.bb_k <- k;
         bb_store_word t
           (Array.unsafe_get t.regs rt)
           (u32 (Array.unsafe_get t.regs base + off));
         bb_fin_store t b lim budget k pa cur ce next_ev ptag
       | U_sh (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         store_timed t va 2 (Array.unsafe_get t.regs rt);
         ref_trace t 2 va;
         bb_fin_store t b lim budget k pa cur ce next_ev ptag
       | U_sb (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         store_timed t va 1 (Array.unsafe_get t.regs rt);
         ref_trace t 2 va;
         bb_fin_store t b lim budget k pa cur ce next_ev ptag
       | U_beq (rs, rt, a) ->
         t.next_is_delay <- true;
         if Array.unsafe_get t.regs rs = Array.unsafe_get t.regs rt then
           t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bne (rs, rt, a) ->
         t.next_is_delay <- true;
         if Array.unsafe_get t.regs rs <> Array.unsafe_get t.regs rt then
           t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_blez (rs, a) ->
         t.next_is_delay <- true;
         if s32 (Array.unsafe_get t.regs rs) <= 0 then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bgtz (rs, a) ->
         t.next_is_delay <- true;
         if s32 (Array.unsafe_get t.regs rs) > 0 then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bltz (rs, a) ->
         t.next_is_delay <- true;
         if s32 (Array.unsafe_get t.regs rs) < 0 then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bgez (rs, a) ->
         t.next_is_delay <- true;
         if s32 (Array.unsafe_get t.regs rs) >= 0 then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bc1t a ->
         t.next_is_delay <- true;
         if t.fcc then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bc1f a ->
         t.next_is_delay <- true;
         if not t.fcc then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_j a ->
         t.next_is_delay <- true;
         t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_jal a ->
         reg_set t Reg.ra (cur + 8);
         t.next_is_delay <- true;
         t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_jr rs ->
         t.next_is_delay <- true;
         t.npc <- Array.unsafe_get t.regs rs;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_jalr (rd, rs) ->
         let dest = Array.unsafe_get t.regs rs in
         reg_set t rd (cur + 8);
         t.next_is_delay <- true;
         t.npc <- dest;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_fload (ft, base, off) ->
         t.bb_k <- k;
         exec_fload t ft (u32 (Array.unsafe_get t.regs base + off));
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_fstore (ft, base, off) ->
         t.bb_k <- k;
         exec_fstore t ft (u32 (Array.unsafe_get t.regs base + off));
         bb_fin_store t b lim budget k pa cur ce next_ev ptag
       | U_fop (op, fd, fs, ft) ->
         exec_fop t op fd fs ft;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_li (rt, imm) ->
         (* lui+ori collapsed to one write; the bail-out path
            materialises the architectural intermediate (high half) and
            lets the scalar ori at the covered slot run. *)
         t.cycles <- t.cycles + 1;
         if ce then bb_count t cur;
         if k + 2 <= lim && t.cycles < next_ev then begin
           let cur = cur + 4 and pa = pa + 4 in
           let ptag = bb_seam t pa cur ptag in
           reg_set t rt imm;
           bb_fin t b lim budget (k + 1) pa cur ce next_ev ptag
         end
         else begin
           reg_set t rt (imm land 0xFFFF0000);
           bb_fin_nc t b lim budget k pa cur ce next_ev ptag
         end
       | U_addiu2 (rt1, rs1, i1, rt2, rs2, i2) ->
         reg_set t rt1 (Array.unsafe_get t.regs rs1 + i1);
         t.cycles <- t.cycles + 1;
         if ce then bb_count t cur;
         if k + 2 <= lim && t.cycles < next_ev then begin
           let cur = cur + 4 and pa = pa + 4 in
           let ptag = bb_seam t pa cur ptag in
           reg_set t rt2 (Array.unsafe_get t.regs rs2 + i2);
           bb_fin t b lim budget (k + 1) pa cur ce next_ev ptag
         end
         else bb_fin_nc t b lim budget k pa cur ce next_ev ptag
       | U_slt_b (unsigned, rd, rs, rt, on_ne, a) ->
         (* compare+branch: the compare result stays in an OCaml local
            for the branch decision, so the branch never reloads it. *)
         let x = Array.unsafe_get t.regs rs
         and y = Array.unsafe_get t.regs rt in
         let v =
           if unsigned then (if x < y then 1 else 0)
           else if s32 x < s32 y then 1
           else 0
         in
         reg_set t rd v;
         t.cycles <- t.cycles + 1;
         if ce then bb_count t cur;
         if k + 2 <= lim && t.cycles < next_ev then begin
           let cur = cur + 4 and pa = pa + 4 in
           let ptag = bb_seam t pa cur ptag in
           t.next_is_delay <- true;
           if (v <> 0) = on_ne then t.npc <- a;
           bb_fin t b lim budget (k + 1) pa cur ce next_ev ptag
         end
         else bb_fin_nc t b lim budget k pa cur ce next_ev ptag
       | U_lw_addiu (rt, base, off, rt2, rs2, i2) ->
         (* load+use: the dependent addiu issues in the same dispatch *)
         t.bb_k <- k;
         bb_load_word t rt (u32 (Array.unsafe_get t.regs base + off));
         t.cycles <- t.cycles + 1;
         if ce then bb_count t cur;
         if k + 2 <= lim && t.cycles < next_ev then begin
           let cur = cur + 4 and pa = pa + 4 in
           let ptag = bb_seam t pa cur ptag in
           reg_set t rt2 (Array.unsafe_get t.regs rs2 + i2);
           bb_fin t b lim budget (k + 1) pa cur ce next_ev ptag
         end
         else bb_fin_nc t b lim budget k pa cur ce next_ev ptag
       | U_lmw (rt, base, off, rt2, rs2, i2, rt3, base3, off3) ->
         (* load-modify-store; the store is final, so [bb_fin_store]'s
            generation recheck runs right after the dispatch — a fused
            run never crosses a generation bump. *)
         t.bb_k <- k;
         bb_load_word t rt (u32 (Array.unsafe_get t.regs base + off));
         t.cycles <- t.cycles + 1;
         if ce then bb_count t cur;
         if k + 2 <= lim && t.cycles < next_ev then begin
           let cur = cur + 4 and pa = pa + 4 in
           let ptag = bb_seam t pa cur ptag in
           reg_set t rt2 (Array.unsafe_get t.regs rs2 + i2);
           t.cycles <- t.cycles + 1;
           if ce then bb_count t cur;
           if k + 3 <= lim && t.cycles < next_ev then begin
             let cur = cur + 4 and pa = pa + 4 in
             let ptag = bb_seam t pa cur ptag in
             t.bb_k <- k + 2;
             bb_store_word t
               (Array.unsafe_get t.regs rt3)
               (u32 (Array.unsafe_get t.regs base3 + off3));
             bb_fin_store t b lim budget (k + 2) pa cur ce next_ev ptag
           end
           else bb_fin_nc t b lim budget (k + 1) pa cur ce next_ev ptag
         end
         else bb_fin_nc t b lim budget k pa cur ce next_ev ptag
       | U_j_nop a ->
         (* j + empty delay slot: under the seam precondition the
            delay-slot bookkeeping is unobservable, so the fast path
            never materialises [next_is_delay]. *)
         t.npc <- a;
         t.cycles <- t.cycles + 1;
         if ce then bb_count t cur;
         if k + 2 <= lim && t.cycles < next_ev then begin
           let cur = cur + 4 and pa = pa + 4 in
           let ptag = bb_seam t pa cur ptag in
           (* the delay slot is a nop: no body *)
           bb_fin t b lim budget (k + 1) pa cur ce next_ev ptag
         end
         else begin
           t.next_is_delay <- true;
           bb_fin_nc t b lim budget k pa cur ce next_ev ptag
         end
       | U_other insn ->
         t.bb_k <- k;
         (* [exec] (an hcall handler in particular) may observe the
            counters: close the pending span first *)
         bb_flush t b k;
         exec t cur insn;
         (* the mode may have flipped; [exec] flushed up to this uop, so
            the new span (starting with this uop) carries the new mode *)
         t.bb_um <- t.status land 0x2 <> 0;
         bb_fin_other t b lim budget k pa cur ce

(* Per-uop epilogue, split by between-check class: charge the base
   cycle, count, then exactly the between-instruction checks of the
   [run]+[step] loop for that class (halt, budget, device poll,
   interrupt sample, text-page staleness).  The [_nc] variant skips the
   charge — the fused arms charge each element before testing the seam
   precondition. *)
and bb_fin t b lim budget k pa cur ce next_ev ptag =
  t.cycles <- t.cycles + 1;
  if ce then bb_count t cur;
  bb_fin_nc t b lim budget k pa cur ce next_ev ptag

(* Default class (ALU/shift/load/branch): only the event horizon can
   have expired; [next_is_delay] set by a branch is consumed on the next
   iteration (the whole block was decoded, so the delay slot is there). *)
and bb_fin_nc t b lim budget k pa cur ce next_ev ptag =
  let k = k + 1 in
  if k < lim then begin
    (* no halted check: only [U_other] and device stores can halt, and
       their classes ([bb_fin_other]/[bb_fin_store]) test it *)
    if t.cycles >= next_ev then begin
      bb_flush t b k;
      poll_devices t;
      if Array.unsafe_get t.bgen (b.bb_pa lsr Addr.page_shift) = b.bb_gen
      then begin
        if t.next_is_delay then begin
          (* The poll may have raised an irq line whose delivery is
             deferred past the delay slot (exactly as in [step]); a zero
             horizon forces the post-delay-slot boundary through the
             slow path, where the deferred sample runs. *)
          t.next_is_delay <- false;
          bb_go t b lim budget k (pa + 4) (cur + 4) ce 0 ptag
        end
        else if interrupt_pending t then
          enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false
            ~cur:t.pc ~in_delay:false
        else bb_go t b lim budget k (pa + 4) (cur + 4) ce (bb_horizon t) ptag
      end
    end
    else begin
      if t.next_is_delay then t.next_is_delay <- false;
      bb_go t b lim budget k (pa + 4) (cur + 4) ce next_ev ptag
    end
  end
  else bb_end t b lim budget k (t.cycles >= next_ev) next_ev ptag

(* Store class.  A store to RAM cannot reach a device: the interrupt
   lines and the event horizon are unchanged, so only the block's own
   text page needs re-validating (the store may have hit it).  A device
   store or a watchpoint callback sets [bb_dev] and takes the full
   poll + interrupt recheck.  Stores never set [next_is_delay]. *)
and bb_fin_store t b lim budget k pa cur ce next_ev ptag =
  t.cycles <- t.cycles + 1;
  if ce then bb_count t cur;
  let k = k + 1 in
  if k < lim then begin
    if t.halted then bb_flush t b k
    else if t.bb_dev || t.cycles >= next_ev then begin
      t.bb_dev <- false;
      bb_flush t b k;
      poll_devices t;
      if Array.unsafe_get t.bgen (b.bb_pa lsr Addr.page_shift) = b.bb_gen
      then begin
        if interrupt_pending t then
          enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false
            ~cur:t.pc ~in_delay:false
        else bb_go t b lim budget k (pa + 4) (cur + 4) ce (bb_horizon t) ptag
      end
    end
    else if Array.unsafe_get t.bgen (b.bb_pa lsr Addr.page_shift) = b.bb_gen
    then bb_go t b lim budget k (pa + 4) (cur + 4) ce next_ev ptag
    else bb_flush t b k
  end
  else bb_end t b lim budget k (t.bb_dev || t.cycles >= next_ev) next_ev ptag

(* [U_other] may have done anything (CP0, hcall, devices, the icache):
   full recheck, and forget the resident fetch line (ptag := -1). *)
and bb_fin_other t b lim budget k pa cur ce =
  t.cycles <- t.cycles + 1;
  if ce then bb_count t cur;
  let k = k + 1 in
  if k < lim then begin
    if t.halted then bb_flush t b k
    else begin
      bb_flush t b k;
      t.bb_dev <- false;
      poll_devices t;
      if Array.unsafe_get t.bgen (b.bb_pa lsr Addr.page_shift) = b.bb_gen
      then begin
        if t.next_is_delay then begin
          (* deferred-interrupt case: see [bb_fin_nc] *)
          t.next_is_delay <- false;
          bb_go t b lim budget k (pa + 4) (cur + 4) ce 0 (-1)
        end
        else if interrupt_pending t then
          enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false
            ~cur:t.pc ~in_delay:false
        else bb_go t b lim budget k (pa + 4) (cur + 4) ce (bb_horizon t) (-1)
      end
    end
  end
  else bb_end t b lim budget k true 0 (-1)

(* Block complete on a sequential pc with budget left: chain into the
   successor block directly.  [budget > lim] implies the block ran to its
   real end ([lim] = block length), so exactly [lim] instructions were
   executed here.  [slow] carries the class-specific recheck condition,
   then the fetch checks of [bb_step] run for the new pc. *)
and bb_end t b lim budget k slow next_ev ptag =
  if
    budget > lim && (not t.halted) && (not t.next_is_delay)
    && t.npc = t.pc + 4
  then begin
    bb_flush t b k;
    if slow then begin
      t.bb_dev <- false;
      poll_devices t;
      if interrupt_pending t then
        enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false
          ~cur:t.pc ~in_delay:false
      else bb_chain t b (budget - lim) (bb_horizon t) ptag
    end
    else bb_chain t b (budget - lim) next_ev ptag
  end
  else bb_flush t b k

(* Enter the block at [t.pc]: the fetch checks of [bb_step], then replay.
   Tail-called from [bb_go] when chaining, so the fetch-trap handler here
   must not wrap the replay itself.

   [bprev] is the block just replayed; its [bb_next] memoizes the block
   last entered from here.  The memo is valid only if the fetch class of
   the translation cache would translate [t.pc] to the memoized block's
   entry (the exact hit condition of [translate_i], which has no counter
   side effects) and the block's text page generation still matches —
   otherwise the full fetch-check + table-probe path runs and re-memoizes
   whatever it finds.  [bb_va = t.pc] implies alignment (blocks are only
   built at aligned pcs), and the bounds check held at build time for the
   same physical address. *)
and bb_chain t bprev budget next_ev ptag =
  let va = t.pc in
  let nb = bprev.bb_next in
  let vpn = va lsr Addr.page_shift in
  let e = Array.unsafe_get t.tc.tc_f (tc_slot vpn) in
  if
    nb.bb_va = va
    && tc_hit e vpn
    && tc_pa e va = nb.bb_pa
    && tc_cached e = nb.bb_cached
    && Array.unsafe_get t.bgen (nb.bb_pa lsr Addr.page_shift) = nb.bb_gen
  then begin
    t.tr_cached <- nb.bb_cached;
    (* [t.bb_um] is still current: nothing between the previous block's
       flush and this entry executes or touches CP0 status. *)
    t.bb_blk <- nb;
    t.bb_kf <- 0;
    let n = Array.length nb.bb_uops in
    let lim = if budget < n then budget else n in
    bb_go t nb lim budget 0 nb.bb_pa va t.cfg.count_exec next_ev ptag
  end
  else
    match
      (if va land 3 <> 0 then trap ~badva:va Exc.adel;
       let pa = translate_i t va ~write:false ~fetch:true in
       if not (phys_ok t pa 4) then trap ~badva:va Exc.adel;
       pa)
    with
    | exception Trap { code; badva; refill } ->
      t.cycles <- t.cycles + 1;
      enter_exception t ~code ~badva ~refill ~cur:va ~in_delay:false
    | pa ->
      let b = bb_lookup t ~va ~pa ~cached:t.tr_cached in
      bprev.bb_next <- b;
      t.bb_blk <- b;
      t.bb_kf <- 0;
      t.bb_um <- t.status land 0x2 <> 0;
      let n = Array.length b.bb_uops in
      let lim = if budget < n then budget else n in
      bb_go t b lim budget 0 pa va t.cfg.count_exec next_ev ptag

let exec_block t b ~budget =
  let n = Array.length b.bb_uops in
  let lim = if budget < n then budget else n in
  t.bb_blk <- b;
  t.bb_kf <- 0;
  t.bb_um <- t.status land 0x2 <> 0;
  match
    bb_go t b lim budget 0 b.bb_pa t.pc t.cfg.count_exec (bb_horizon t) (-1)
  with
  | () -> ()
  | exception Trap { code; badva; refill } ->
    t.cycles <- t.cycles + 1;
    let blk = t.bb_blk in
    let k = t.bb_k in
    (* uops [bb_kf, k) completed before the fault; uop k itself is not
       counted, exactly as in step mode *)
    bb_flush t blk k;
    let cur = blk.bb_va + (k * 4) in
    let in_delay =
      k > 0
      && (match Array.unsafe_get blk.bb_uops (k - 1) with
         | U_beq _ | U_bne _ | U_blez _ | U_bgtz _ | U_bltz _ | U_bgez _
         | U_bc1t _ | U_bc1f _ | U_j _ | U_jal _ | U_jr _ | U_jalr _
         (* a fused [j]+nop that bailed after the jump: the next slot is
            its delay slot *)
         | U_j_nop _ -> true
         | U_other i -> Insn.is_control i
         | _ -> false)
    in
    enter_exception t ~code ~badva ~refill ~cur ~in_delay

(* Block-mode counterpart of [step]: at a block entry the fetch checks run
   once (alignment, translation, bounds), then the cached block replays.
   Replays chain — a block ending in a taken jump whose target starts a
   fresh sequential pc re-enters directly, performing exactly the checks
   the [run]+[step] loop would (poll, interrupt sample, fresh fetch
   translation) without bouncing through [run].  Only called with
   [next_is_delay] false and [budget >= 1]. *)
let bb_step t ~budget =
  if t.npc <> t.pc + 4 then
    (* The harness set pc/npc out of line; the one-instruction path
       handles any pc/npc pair, so let the oracle run it. *)
    step t
  else begin
    let c = t.c in
    let start = c.instructions in
    let rec loop () =
      if t.cycles >= t.next_clock || Disk.next_event t.disk <= t.cycles then
        poll_devices t;
      if interrupt_pending t then
        enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false
          ~cur:t.pc ~in_delay:false
      else begin
        let va = t.pc in
        match
          (if va land 3 <> 0 then trap ~badva:va Exc.adel;
           let pa = translate_i t va ~write:false ~fetch:true in
           if not (phys_ok t pa 4) then trap ~badva:va Exc.adel;
           pa)
        with
        | pa ->
          let cached = t.tr_cached in
          exec_block t
            (bb_lookup t ~va ~pa ~cached)
            ~budget:(budget - (c.instructions - start));
          if
            (not t.halted)
            && (not t.next_is_delay)
            && c.instructions - start < budget
            && t.npc = t.pc + 4
          then loop ()
        | exception Trap { code; badva; refill } ->
          t.cycles <- t.cycles + 1;
          enter_exception t ~code ~badva ~refill ~cur:va ~in_delay:false
      end
    in
    loop ()
  end

type stop_reason = Halt | Limit

let run t ~max_insns =
  let start = t.c.instructions in
  if t.cfg.tier <> Uop.Step then
    let rec go () =
      if t.halted then Halt
      else begin
        let executed = t.c.instructions - start in
        if executed >= max_insns then Limit
        else begin
          (* a pending delay slot (branch target unknown until it runs, or
             a branch straddling a page end) takes the one-instruction
             path *)
          if t.next_is_delay then step t
          else bb_step t ~budget:(max_insns - executed);
          go ()
        end
      end
    in
    go ()
  else
    let rec go () =
      if t.halted then Halt
      else if t.c.instructions - start >= max_insns then Limit
      else begin
        step t;
        go ()
      end
    in
    go ()

let halt t = t.halted <- true

(* ------------------------------------------------------------------ *)
(* Loading and inspection                                              *)

(* Copy an executable into physical memory at [pa_of] applied to its
   segment bases (identity for kernel images loaded via kseg0). *)
let load_exe_phys t (exe : Exe.t) ~text_pa ~data_pa =
  Array.iteri
    (fun idx w -> write_phys_u32 t (text_pa + (idx * 4)) w)
    exe.Exe.text;
  write_phys_bytes t data_pa (Bytes.to_string exe.Exe.data)

let console_contents t = Buffer.contents t.console

let ram_pages t =
  Array.fold_left (fun n pg -> if pg != zero_page then n + 1 else n) 0 t.mem

let decoded_pages t =
  Array.fold_left
    (fun n page -> if Array.length page > 0 then n + 1 else n)
    0 t.dec.pages

let cached_blocks t =
  Array.fold_left
    (fun acc (b : Uop.block) -> if b.bb_pa >= 0 then b :: acc else acc)
    [] t.bcache_tab

let arith_stalls t = t.fpu.Fpu.arith_stalls
let wb_stalls t = Write_buffer.stall_cycles t.wb
let icache_misses t = t.icache.Cache.misses
let dcache_misses t = t.dcache.Cache.misses
