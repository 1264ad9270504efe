(* Trace-driven memory-system simulator.

   Consumes the reconstructed reference stream from the trace parsing
   library and drives the independent cache/TLB/write-buffer models.  The
   paper's key modelling decisions are reproduced:

   - Caches are physically indexed: virtual addresses are translated
     through the page map extracted from the running system (§4.2).
   - The user TLB miss handler is NOT in the trace (its behaviour under
     the doubled traced text would be unrepresentative); instead, a miss
     in the simulated TLB synthesizes the handler's activity — its
     instruction fetches at the UTLB vector and its page-table entry load
     (§4.1).  KTLB misses synthesize the general-vector fast path the same
     way.
   - The kernel's explicit TLB writes are invisible, and the replacement
     point differs from the hardware's, giving Table 3's error modes.
   - Write-buffer stalls never overlap with anything (Figure 3 / liv). *)

open Systrace_tracing

type config = {
  icache_bytes : int;
  icache_line : int;
  icache_ways : int;  (* 1 = the DECstation's direct-mapped caches *)
  dcache_bytes : int;
  dcache_line : int;
  dcache_ways : int;
  read_miss_penalty : int;
  uncached_penalty : int;
  wb_depth : int;
  wb_drain : int;
  (* Address-space knowledge: translate a mapped VA for [pid]; -1 for an
     unmapped page (counted, treated as identity).  An int sentinel rather
     than an option, so a lookup allocates nothing. *)
  pagemap : int -> int -> int;
  (* kseg2 linear page-table base for each pid, for synthesizing the UTLB
     handler's PTE load. *)
  pt_base : int -> int;
  utlb_handler_insns : int;  (* instructions synthesized per UTLB miss *)
  ktlb_handler_insns : int;
  tlb_entries : int;         (* 64 on the DECstation *)
}

type stats = {
  mutable insts : int;              (* from the trace *)
  mutable datas : int;
  (* per-mode split, for kernel-vs-user CPI (paper, §3.4) *)
  mutable kernel_insts : int;
  mutable user_insts : int;
  mutable kernel_stall : int;
  mutable user_stall : int;
  mutable synth_insts : int;        (* synthesized handler instructions *)
  mutable icache_misses : int;
  mutable dcache_read_misses : int;
  mutable uncached_reads : int;
  mutable uncached_writes : int;
  mutable wb_stalls : int;
  mutable utlb_misses : int;
  mutable ktlb_misses : int;
  mutable unmapped : int;
}

let kuseg_limit = 0x80000000
let kseg1_base = 0xA0000000
let kseg2_base = 0xC0000000

let asid_of_pid pid = pid + 1

(* ================================================================== *)
(* The simulator: a single-pass multi-configuration sweep.  One
   configuration is a one-element sweep.

   Per configuration, the model is an eager one: every reference (trace
   or synthesized) ticks a write-buffer clock by one cycle; a kuseg
   reference goes through the TLB with the process's ASID and a kseg2
   reference as a global mapping; a TLB miss synthesizes its refill
   handler's ifetches and its page-table load (see [g_synth_utlb] and
   [g_synth_ktlb] below); kseg0 bypasses the TLB, kseg1 is uncached;
   cache read misses and uncached references stall the clock by their
   penalty, and a store stalls it until the buffer has a free slot.
   Evaluating K such configurations by K independent replays decodes
   and translates the same trace K times; the sweep does the shared work
   once per reference and keeps only the per-configuration state that
   actually differs:

   - Reference classification (kuseg/kseg0/kseg1/kseg2), the page-map
     lookup and the per-mode instruction counts depend only on the trace:
     they are computed once, globally.
   - The TLB access stream — including the synthesized handler references
     a miss injects — depends only on the trace and the TLB parameters,
     so configurations sharing (tlb_entries, handler lengths) share one
     TLB and one synthesized stream ("groups" below).
   - Cache contents depend on the trace and the group's synthesized
     stream.  Within a group, every geometry sharing a line size and a
     set count — icache and dcache alike — is one member of a family
     simulated by a single level-tagged LRU stack ({!Sim_stack}): one
     state update per reference for the whole family, shared by every
     configuration that names one of its members.  Write-through/
     no-write-allocate keeps the members nested, and each stack entry's
     level says which members hold it (DESIGN.md 5f).  A lone geometry
     is a one-member family.
   - The write buffer depends on everything above plus the penalties, but
     its clock is a pure sum of counted events: rather than ticking every
     lane's buffer on every reference, each lane derives its clock from
     the shared counters on demand and only pays per store
     ({!Sim_wb.ring_store}).

   Per-configuration [stats] are assembled at the end as arithmetic over
   the unit counters; qcheck properties in the test suite hold them
   byte-identical to an eagerly-ticked single-configuration reference
   model run once per configuration. *)

(* miss counters split by how the eager model charges them:
   synthesized-handler references are never charged to kernel/user
   stall, trace references are charged by mode *)
type miss_ctr = {
  mutable c_synth : int;
  mutable c_kernel : int;
  mutable c_user : int;
}

let ctr () = { c_synth = 0; c_kernel = 0; c_user = 0 }
let ctr_total m = m.c_synth + m.c_kernel + m.c_user

let ctx_synth = 0

let bump m ctx =
  if ctx = 0 then m.c_synth <- m.c_synth + 1
  else if ctx = 1 then m.c_kernel <- m.c_kernel + 1
  else m.c_user <- m.c_user + 1

(* A cache family: one level-tagged LRU stack ({!Sim_stack}) for every
   geometry of a group that shares a line size and a set count, with its
   members' miss counters in ways order.  A lone geometry is a one-member
   family. *)
type cunit = { stack : Sim_stack.t; ctrs : miss_ctr array }

(* configurations whose TLB parameters agree see the same reference
   stream (trace + synthesized handlers) and share everything below *)
type group = {
  gr_tlb : Sim_tlb.t;
  gr_utlb_insns : int;
  gr_ktlb_insns : int;
  gr_ic : cunit array;
  gr_dc : cunit array;
  mutable gr_utlb : int;
  mutable gr_ktlb : int;
  mutable gr_synth : int;
  mutable gr_unmapped : int;
}

(* one configuration's view: its group, its cache-unit counters, and its
   own write buffer (the only state no two distinct configs can share) *)
type lane = {
  la_cfg : config;
  la_group : group;
  la_ic : miss_ctr;
  la_dc : miss_ctr;
  la_ring : Sim_wb.ring;
  mutable la_stall_k : int;
  mutable la_stall_u : int;
}

type sweep = {
  sw_groups : group array;
  sw_lanes : lane array;
  sw_pagemap : int -> int -> int;
  sw_pt_base : int -> int;
  (* trace-only counters, identical for every configuration *)
  mutable sv_insts : int;
  mutable sv_datas : int;
  mutable sv_kernel_insts : int;
  mutable sv_user_insts : int;
  mutable sv_unc_ifetch : int;
  mutable sv_unc_dload : int;
  mutable sv_unc_dstore : int;
  mutable sv_unc_kernel : int;  (* uncached events, by mode, for charging *)
  mutable sv_unc_user : int;
  mutable sv_dloads_cached : int;
}

let nsets_of ~what ~bytes ~line ~ways =
  if bytes <= 0 || line <= 0 || ways <= 0 || bytes mod (line * ways) <> 0
  then invalid_arg ("Memsim.sweep: bad " ^ what ^ " geometry")
  else bytes / (line * ways)

let sweep cfg_list : sweep =
  let cfgs = Array.of_list cfg_list in
  if Array.length cfgs = 0 then invalid_arg "Memsim.sweep: no configurations";
  let c0 = cfgs.(0) in
  Array.iter
    (fun c ->
      if c.pagemap != c0.pagemap || c.pt_base != c0.pt_base then
        invalid_arg
          "Memsim.sweep: all configurations must share pagemap and pt_base \
           (translation is done once per reference)")
    cfgs;
  let gkey c = (c.tlb_entries, c.utlb_handler_insns, c.ktlb_handler_insns) in
  let ic_geom c =
    ( c.icache_line,
      nsets_of ~what:"icache" ~bytes:c.icache_bytes ~line:c.icache_line
        ~ways:c.icache_ways,
      c.icache_ways )
  in
  let dc_geom c =
    ( c.dcache_line,
      nsets_of ~what:"dcache" ~bytes:c.dcache_bytes ~line:c.dcache_line
        ~ways:c.dcache_ways,
      c.dcache_ways )
  in
  let distinct l =
    List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l
    |> List.rev
  in
  let keys = distinct (Array.to_list (Array.map gkey cfgs)) in
  (* a group's distinct cache geometries as families, plus the lookup
     from a lane's geometry to its member counter *)
  let units geoms =
    let geoms = distinct geoms in
    let fams =
      List.map
        (fun (line, nsets) ->
          let ways =
            List.sort compare
              (List.filter_map
                 (fun (l, n, w) -> if l = line && n = nsets then Some w else None)
                 geoms)
          in
          let stack =
            Sim_stack.create ~line_bytes:line ~nsets ~ways:(Array.of_list ways)
          in
          let ctrs = Array.of_list (List.map (fun _ -> ctr ()) ways) in
          ( { stack; ctrs },
            List.mapi (fun i w -> ((line, nsets, w), ctrs.(i))) ways ))
        (distinct (List.map (fun (line, nsets, _) -> (line, nsets)) geoms))
    in
    (Array.of_list (List.map fst fams), List.concat_map snd fams)
  in
  let built =
    List.map
      (fun ((tlb_entries, uh, kh) as key) ->
        let members =
          List.filter (fun c -> gkey c = key) (Array.to_list cfgs)
        in
        let ic_units, ic_lookup = units (List.map ic_geom members) in
        let dc_units, dc_lookup = units (List.map dc_geom members) in
        let g =
          {
            gr_tlb = Sim_tlb.create ~size:tlb_entries ();
            gr_utlb_insns = uh;
            gr_ktlb_insns = kh;
            gr_ic = ic_units;
            gr_dc = dc_units;
            gr_utlb = 0;
            gr_ktlb = 0;
            gr_synth = 0;
            gr_unmapped = 0;
          }
        in
        (key, (g, ic_lookup, dc_lookup)))
      keys
  in
  let lanes =
    Array.map
      (fun c ->
        let g, ic_lookup, dc_lookup = List.assoc (gkey c) built in
        {
          la_cfg = c;
          la_group = g;
          la_ic = List.assoc (ic_geom c) ic_lookup;
          la_dc = List.assoc (dc_geom c) dc_lookup;
          la_ring =
            Sim_wb.ring_create ~depth:c.wb_depth ~drain_cycles:c.wb_drain;
          la_stall_k = 0;
          la_stall_u = 0;
        })
      cfgs
  in
  {
    sw_groups = Array.of_list (List.map (fun (_, (g, _, _)) -> g) built);
    sw_lanes = lanes;
    sw_pagemap = c0.pagemap;
    sw_pt_base = c0.pt_base;
    sv_insts = 0;
    sv_datas = 0;
    sv_kernel_insts = 0;
    sv_user_insts = 0;
    sv_unc_ifetch = 0;
    sv_unc_dload = 0;
    sv_unc_dstore = 0;
    sv_unc_kernel = 0;
    sv_unc_user = 0;
    sv_dloads_cached = 0;
  }

(* bump the counters of the members set in a miss mask *)
let rec bump_mask ctrs i mask ctx =
  if mask <> 0 then begin
    if mask land 1 = 1 then bump (Array.unsafe_get ctrs i) ctx;
    bump_mask ctrs (i + 1) (mask lsr 1) ctx
  end

(* one read by every cache family of a group ([gr_ic] or [gr_dc]).  These
   inner loops run once per group per trace reference: plain [for] loops
   and toplevel recursion, not [Array.iter] or a local function, because
   a closure would capture [pa]/[ctx] and heap-allocate on every
   reference. *)
let units_read units pa ctx =
  for i = 0 to Array.length units - 1 do
    let u = Array.unsafe_get units i in
    let mask = Sim_stack.read u.stack pa in
    if mask <> 0 then bump_mask u.ctrs 0 mask ctx
  done

(* a page-map result ([-1]: unmapped, counted per group and treated as
   identity) as the physical address the group's caches see *)
let g_phys g va pa =
  if pa >= 0 then pa
  else begin
    g.gr_unmapped <- g.gr_unmapped + 1;
    va land 0x00FFFFFF
  end

let g_translate sw g pid va = g_phys g va (sw.sw_pagemap pid va)

(* the synthesized handler paths: a KTLB refill fetches
   [ktlb_handler_insns] instructions at the general vector (0x80) and
   loads the root table (kernel data at a fixed kseg0 address, 0x9000);
   a UTLB refill fetches [utlb_handler_insns] at the UTLB vector (0) and
   loads the faulting page's PTE from the process's linear page table in
   kseg2, which can itself KTLB-miss.  No write-buffer tick happens here:
   the clock is derived from these same counters at store time *)
let g_synth_ktlb g =
  g.gr_ktlb <- g.gr_ktlb + 1;
  for k = 0 to g.gr_ktlb_insns - 1 do
    g.gr_synth <- g.gr_synth + 1;
    units_read g.gr_ic (0x80 + (k * 4)) ctx_synth
  done;
  units_read g.gr_dc 0x9000 ctx_synth

let g_kseg2_load sw g pid va =
  let vpn = va lsr 12 in
  if not (Sim_tlb.access g.gr_tlb ~vpn ~asid:0 ~global:true ~user:false) then
    g_synth_ktlb g;
  let pa = g_translate sw g pid va in
  units_read g.gr_dc pa ctx_synth

let g_synth_utlb sw g pid vpn =
  g.gr_utlb <- g.gr_utlb + 1;
  for k = 0 to g.gr_utlb_insns - 1 do
    g.gr_synth <- g.gr_synth + 1;
    units_read g.gr_ic (k * 4) ctx_synth
  done;
  g_kseg2_load sw g pid (sw.sw_pt_base pid + (vpn * 4))

(* A lane's write-buffer clock, derived on demand.  The eager model
   ticks 1 per instruction (trace and synthesized, plus one extra before
   each KTLB root-table load), the uncached penalty per uncached event,
   and the read-miss penalty per cache read miss; stalls advance the
   clock too.  All of those are already counted, so the clock is a sum. *)
let lane_clock sw l =
  let g = l.la_group in
  sw.sv_insts + g.gr_synth + g.gr_ktlb
  + ((sw.sv_unc_ifetch + sw.sv_unc_dload + sw.sv_unc_dstore)
     * l.la_cfg.uncached_penalty)
  + ((ctr_total l.la_ic + ctr_total l.la_dc) * l.la_cfg.read_miss_penalty)
  + l.la_stall_k + l.la_stall_u

let sweep_on_inst sw addr pid kernel =
  sw.sv_insts <- sw.sv_insts + 1;
  if kernel then sw.sv_kernel_insts <- sw.sv_kernel_insts + 1
  else sw.sv_user_insts <- sw.sv_user_insts + 1;
  let ctx = if kernel then 1 else 2 in
  let groups = sw.sw_groups in
  if addr < kuseg_limit then begin
    let vpn = addr lsr 12 in
    let asid = asid_of_pid pid in
    let mapped = sw.sw_pagemap pid addr in
    for i = 0 to Array.length groups - 1 do
      let g = Array.unsafe_get groups i in
      if not (Sim_tlb.access g.gr_tlb ~vpn ~asid ~global:false ~user:true)
      then g_synth_utlb sw g pid vpn;
      units_read g.gr_ic (g_phys g addr mapped) ctx
    done
  end
  else if addr < kseg1_base then begin
    let pa = addr - 0x80000000 in
    for i = 0 to Array.length groups - 1 do
      units_read (Array.unsafe_get groups i).gr_ic pa ctx
    done
  end
  else if addr < kseg2_base then begin
    sw.sv_unc_ifetch <- sw.sv_unc_ifetch + 1;
    if kernel then sw.sv_unc_kernel <- sw.sv_unc_kernel + 1
    else sw.sv_unc_user <- sw.sv_unc_user + 1
  end
  else begin
    let vpn = addr lsr 12 in
    let mapped = sw.sw_pagemap pid addr in
    for i = 0 to Array.length groups - 1 do
      let g = Array.unsafe_get groups i in
      if not (Sim_tlb.access g.gr_tlb ~vpn ~asid:0 ~global:true ~user:false)
      then g_synth_ktlb g;
      units_read g.gr_ic (g_phys g addr mapped) ctx
    done
  end

let sweep_on_data sw addr pid kernel is_load _bytes =
  sw.sv_datas <- sw.sv_datas + 1;
  if addr >= kseg1_base && addr < kseg2_base then begin
    (* uncached: classification and charge are trace-only, no per-group
       state is touched (matching [to_phys]'s uncached path) *)
    if is_load then sw.sv_unc_dload <- sw.sv_unc_dload + 1
    else sw.sv_unc_dstore <- sw.sv_unc_dstore + 1;
    if kernel then sw.sv_unc_kernel <- sw.sv_unc_kernel + 1
    else sw.sv_unc_user <- sw.sv_unc_user + 1
  end
  else begin
    let ctx = if kernel then 1 else 2 in
    if is_load then sw.sv_dloads_cached <- sw.sv_dloads_cached + 1;
    let kuseg = addr < kuseg_limit in
    let kseg2 = addr >= kseg2_base in
    let mapped = if kuseg || kseg2 then sw.sw_pagemap pid addr else -1 in
    let groups = sw.sw_groups in
    for i = 0 to Array.length groups - 1 do
      let g = Array.unsafe_get groups i in
      (if kuseg then begin
         let vpn = addr lsr 12 in
         if
           not
             (Sim_tlb.access g.gr_tlb ~vpn ~asid:(asid_of_pid pid)
                ~global:false ~user:true)
         then g_synth_utlb sw g pid vpn
       end
       else if kseg2 then begin
         let vpn = addr lsr 12 in
         if
           not (Sim_tlb.access g.gr_tlb ~vpn ~asid:0 ~global:true ~user:false)
         then g_synth_ktlb g
       end);
      let pa =
        if kuseg || kseg2 then g_phys g addr mapped else addr - 0x80000000
      in
      if is_load then units_read g.gr_dc pa ctx
      else begin
        (* write-through/no-allocate: a write moves no miss counter *)
        let units = g.gr_dc in
        for j = 0 to Array.length units - 1 do
          let u = Array.unsafe_get units j in
          let (_mask : int) = Sim_stack.write u.stack pa in
          ()
        done
      end
    done;
    (* stores issue to every lane's buffer after its group's TLB/cache
       state (and hence its derived clock) is current for this event *)
    if not is_load then begin
      let lanes = sw.sw_lanes in
      for i = 0 to Array.length lanes - 1 do
        let l = Array.unsafe_get lanes i in
        let stall = Sim_wb.ring_store l.la_ring ~clock:(lane_clock sw l) in
        if kernel then l.la_stall_k <- l.la_stall_k + stall
        else l.la_stall_u <- l.la_stall_u + stall
      done
    end
  end

let sweep_stats sw =
  Array.map
    (fun l ->
      let g = l.la_group and c = l.la_cfg in
      let rmp = c.read_miss_penalty and up = c.uncached_penalty in
      {
        insts = sw.sv_insts;
        datas = sw.sv_datas;
        kernel_insts = sw.sv_kernel_insts;
        user_insts = sw.sv_user_insts;
        kernel_stall =
          ((l.la_ic.c_kernel + l.la_dc.c_kernel) * rmp)
          + (sw.sv_unc_kernel * up) + l.la_stall_k;
        user_stall =
          ((l.la_ic.c_user + l.la_dc.c_user) * rmp)
          + (sw.sv_unc_user * up) + l.la_stall_u;
        synth_insts = g.gr_synth;
        icache_misses = ctr_total l.la_ic;
        dcache_read_misses = ctr_total l.la_dc;
        uncached_reads = sw.sv_unc_ifetch + sw.sv_unc_dload;
        uncached_writes = sw.sv_unc_dstore;
        wb_stalls = l.la_stall_k + l.la_stall_u;
        utlb_misses = g.gr_utlb;
        ktlb_misses = g.gr_ktlb;
        unmapped = g.gr_unmapped;
      })
    sw.sw_lanes

let sweep_accesses sw =
  Array.map
    (fun l ->
      let g = l.la_group in
      ( sw.sv_insts - sw.sv_unc_ifetch + g.gr_synth,
        sw.sv_dloads_cached + g.gr_utlb + g.gr_ktlb ))
    sw.sw_lanes

let sweep_handlers sw : Parser.handlers =
  {
    Parser.on_inst = (fun addr pid kernel -> sweep_on_inst sw addr pid kernel);
    on_data =
      (fun addr pid kernel is_load bytes ->
        sweep_on_data sw addr pid kernel is_load bytes);
  }

let sweep_sink ?live sw parser : Sink.t =
  Parser.set_handlers parser (sweep_handlers sw);
  Sink.to_parser ?live parser

(* A (size x line x TLB entries x WB depth) geometry grid over [base].
   With [nested] (the default) associativity scales with size at a fixed
   set count — ways = size / min size — so each (line, TLB) family of
   sizes nests and one sweep stack per cache covers the whole size axis.
   With [~nested:false] every size is direct-mapped (set counts differ,
   nothing nests: one one-member stack per geometry). *)
let grid ?(nested = true) ~base ~sizes ~lines ~tlb_entries ~wb_depths () :
    (string * config) list =
  if sizes = [] || lines = [] || tlb_entries = [] || wb_depths = [] then
    invalid_arg "Memsim.grid: empty axis";
  let min_size = List.fold_left min max_int sizes in
  List.concat_map
    (fun size ->
      let ways =
        if not nested then 1
        else if size mod min_size <> 0 then
          invalid_arg "Memsim.grid: nested sizes must be multiples of the \
                       smallest"
        else size / min_size
      in
      List.concat_map
        (fun line ->
          List.concat_map
            (fun tlb ->
              List.map
                (fun wb ->
                  ( Printf.sprintf "%dK/%dB/%dw tlb%d wb%d" (size / 1024) line
                      ways tlb wb,
                    {
                      base with
                      icache_bytes = size;
                      icache_line = line;
                      icache_ways = ways;
                      dcache_bytes = size;
                      dcache_line = line;
                      dcache_ways = ways;
                      tlb_entries = tlb;
                      wb_depth = wb;
                    } ))
                wb_depths)
            tlb_entries)
        lines)
    sizes
