(* The validation harness (paper §5): run each workload on each system
   twice —

   MEASURED: the uninstrumented binaries on the untraced kernel, using the
   machine simulator's ground-truth counters as the paper used its
   high-resolution timer and TLB-miss-counting kernel;

   PREDICTED: the epoxie-instrumented binaries on the traced kernel, with
   the collected trace streamed through the trace-driven memory-system
   simulator, the page map extracted from the running (traced) system, an
   arithmetic-stall estimate from a pixie-style ideal-memory run, and
   idle-loop counts scaled by the time-dilation factor.

   Comparing the two reproduces Table 2 (run times), Figure 3 (percent
   error) and Table 3 (user TLB misses). *)

open Systrace_tracing
open Systrace_kernel
open Systrace_tracesim

type os = Ultrix | Mach

let os_name = function Ultrix -> "Ultrix" | Mach -> "Mach 3.0"

(* A workload specification: its programs (excluding the UX server, which
   the harness adds for Mach) and its input files. *)
type spec = {
  wname : string;
  files : Builder.file_spec list;
  programs : Builder.program list;
}

type measurement = {
  m_cycles : int;
  m_seconds : float;
  m_utlb : int;
  m_idle : int;
  m_user_insts : int;
  m_kernel_insts : int;
  m_insts : int;
  m_arith_ideal : int; (* pixie-style arithmetic-stall estimate *)
  m_console : string;
  m_disk_reads : int;
  m_disk_writes : int;
}

type prediction = {
  p_breakdown : Predict.breakdown;
  p_utlb : int;
  p_console : string;
  p_parse : Parser.stats;
  p_mem : Memsim.stats;
  p_traced_insts : int;      (* instructions the traced machine executed *)
  p_tlbdropins : int;
  p_peak_words : int;        (* largest ANALYZE chunk: peak resident words *)
}

(* The personality policy, in one place: the os picks the kernel
   personality and the default page-mapping policy (careful under Ultrix,
   random under Mach, as each system allocated frames), and under Mach
   the UX server boots ahead of the workload's programs. *)
let build ?pagemap ?(seed = 1) ~cfg os spec =
  let personality, default_pagemap =
    match os with
    | Ultrix -> (Kcfg.Ultrix, Kcfg.Careful)
    | Mach -> (Kcfg.Mach, Kcfg.Random)
  in
  let cfg =
    {
      cfg with
      Builder.personality;
      pagemap = Option.value pagemap ~default:default_pagemap;
      seed;
    }
  in
  let programs =
    match os with
    | Ultrix -> spec.programs
    | Mach ->
      Builder.program ~is_server:true "uxserver"
        [
          Systrace_workloads.Ux_server.make
            ~file_plan:(Builder.file_plan spec.files) ();
          Systrace_workloads.Userlib.make ();
        ]
      :: spec.programs
  in
  Builder.build ~cfg ~programs ~files:spec.files ()

(* ------------------------------------------------------------------ *)

let measured_system ?pagemap ?machine_cfg ?seed os spec =
  let cfg =
    match machine_cfg with
    | Some m -> { Builder.default_config with Builder.machine_cfg = m }
    | None -> Builder.default_config
  in
  let t = build ?pagemap ?seed ~cfg os spec in
  Builder.run_to_halt t;
  t

let measure ?pagemap ?machine_cfg ?seed os spec : measurement =
  let t = measured_system ?pagemap ?machine_cfg ?seed os spec in
  let cfg = t.Builder.cfg in
  let c = t.Builder.machine.Systrace_machine.Machine.c in
  (* pixie-style arithmetic stall estimate: a functional run with an ideal
     memory system, so FP interlocks are the only stalls. *)
  let ideal_cfg =
    {
      cfg with
      Builder.machine_cfg =
        {
          cfg.Builder.machine_cfg with
          Systrace_machine.Machine.read_miss_penalty = 0;
          uncached_penalty = 0;
          wb_drain = 0;
        };
    }
  in
  let ti = build ?pagemap ?seed ~cfg:ideal_cfg os spec in
  Builder.run_to_halt ti;
  {
    m_cycles = t.Builder.machine.Systrace_machine.Machine.cycles;
    m_seconds =
      float_of_int t.Builder.machine.Systrace_machine.Machine.cycles
      /. Predict.clock_hz;
    m_utlb = c.Systrace_machine.Machine.utlb_misses;
    m_idle = c.Systrace_machine.Machine.idle_instructions;
    m_user_insts = c.Systrace_machine.Machine.user_instructions;
    m_kernel_insts = c.Systrace_machine.Machine.kernel_instructions;
    m_insts = c.Systrace_machine.Machine.instructions;
    m_arith_ideal =
      Systrace_machine.Machine.arith_stalls ti.Builder.machine;
    m_console = Builder.console t;
    m_disk_reads = t.Builder.machine.Systrace_machine.Machine.disk.Systrace_machine.Disk.reads;
    m_disk_writes = t.Builder.machine.Systrace_machine.Machine.disk.Systrace_machine.Disk.writes;
  }

(* ------------------------------------------------------------------ *)

(* The memory-simulator configuration a machine geometry implies, with
   the page map shared by reference so [Memsim.sweep] can translate once
   per trace word for every geometry at once. *)
let memsim_cfg ~pagemap (mcfg : Systrace_machine.Machine.config) =
  {
    Memsim.icache_bytes = mcfg.Systrace_machine.Machine.icache_bytes;
    icache_line = mcfg.Systrace_machine.Machine.icache_line;
    icache_ways = 1;
    dcache_bytes = mcfg.Systrace_machine.Machine.dcache_bytes;
    dcache_line = mcfg.Systrace_machine.Machine.dcache_line;
    dcache_ways = 1;
    read_miss_penalty = mcfg.Systrace_machine.Machine.read_miss_penalty;
    uncached_penalty = mcfg.Systrace_machine.Machine.uncached_penalty;
    wb_depth = mcfg.Systrace_machine.Machine.wb_depth;
    wb_drain = mcfg.Systrace_machine.Machine.wb_drain;
    pagemap;
    pt_base = Kcfg.pt_base_va;
    utlb_handler_insns = 8;
    ktlb_handler_insns = 24;
    tlb_entries = 64;
  }

let predict_sweep ?pagemap ?(seed = 1) ?(arith_stalls = -1) ?geometries os
    spec : prediction array =
  let cfg = { Builder.default_config with Builder.traced = true } in
  let geometries =
    match geometries with
    | Some [] -> invalid_arg "predict_sweep: no geometries"
    | Some gs -> gs
    | None -> [ cfg.Builder.machine_cfg ]
  in
  let t = build ?pagemap ~seed ~cfg os spec in
  let parser = Builder.parser t in
  (* one extracted page map, shared (by reference) across every geometry:
     the sweep translates each trace word once *)
  let shared_pagemap = Builder.extract_pagemap t in
  let sw =
    Memsim.sweep (List.map (memsim_cfg ~pagemap:shared_pagemap) geometries)
  in
  (* The prediction is fully online (paper §4.3): each ANALYZE phase's
     chunk drives the parser and memory simulation — all geometries at
     once — as it is drained, so peak resident trace words is the largest
     chunk — O(in-kernel buffer) — not the trace length.  The peak branch
     of the tee is the witness the stream bench checks against the buffer
     size. *)
  let live = Builder.server_pids t in
  let peak_sink, peak_words = Sink.peak () in
  let sink = Sink.tee [ peak_sink; Memsim.sweep_sink ~live sw parser ] in
  t.Builder.trace_sink <- Some (fun words len -> sink.Sink.on_words words ~len);
  Builder.run_to_halt t;
  Builder.drain_final t;
  sink.Sink.finish ();
  (* The arithmetic-stall estimate comes from the caller (usually the
     measured pass's ideal-memory run) or is recomputed here; the ideal
     run zeroes every memory penalty, so it is geometry-invariant and
     shared by all predictions. *)
  let arith =
    if arith_stalls >= 0 then arith_stalls
    else (measure ?pagemap ~seed os spec).m_arith_ideal
  in
  let stats = Memsim.sweep_stats sw in
  let parse = Parser.stats parser in
  let console = Builder.console t in
  let traced_insts =
    t.Builder.machine.Systrace_machine.Machine.c.Systrace_machine.Machine.instructions
  in
  let tlbdropins = Builder.tlbdropins t in
  let peak = peak_words () in
  Array.of_list
    (List.mapi
       (fun i (mcfg : Systrace_machine.Machine.config) ->
         let mem = stats.(i) in
         let breakdown =
           Predict.make ~mem ~parse ~arith_stalls:arith
             ~dilation:Kcfg.time_dilation
             ~read_miss_penalty:mcfg.Systrace_machine.Machine.read_miss_penalty
             ~uncached_penalty:mcfg.Systrace_machine.Machine.uncached_penalty
         in
         {
           p_breakdown = breakdown;
           p_utlb = mem.Memsim.utlb_misses;
           p_console = console;
           p_parse = parse;
           p_mem = mem;
           p_traced_insts = traced_insts;
           p_tlbdropins = tlbdropins;
           p_peak_words = peak;
         })
       geometries)

let predict ?pagemap ?seed ?arith_stalls os spec : prediction =
  (predict_sweep ?pagemap ?seed ?arith_stalls os spec).(0)

(* ------------------------------------------------------------------ *)

type row = {
  r_name : string;
  r_os : os;
  r_measured : measurement;
  r_predicted : prediction;
}

let run_workload ?machine_cfg ?pagemap ?(seed = 1) os spec : row =
  let m = measure ?machine_cfg ?pagemap ~seed os spec in
  let p = predict ?pagemap ~seed ~arith_stalls:m.m_arith_ideal os spec in
  if m.m_console <> p.p_console then
    failwith
      (Printf.sprintf
         "%s/%s: traced and untraced runs disagree on output:\n%S\nvs\n%S"
         spec.wname (os_name os) m.m_console p.p_console);
  { r_name = spec.wname; r_os = os; r_measured = m; r_predicted = p }

(* One measured pass per geometry (the "real machine" must actually be
   built with each geometry), but a single traced pass predicting all of
   them: the trace is collected and parsed once and [Memsim.sweep]
   evaluates every geometry from the shared decode. *)
let run_workload_sweep ?pagemap ?(seed = 1) ~geometries os spec : row list =
  let ms =
    List.map
      (fun machine_cfg -> measure ~machine_cfg ?pagemap ~seed os spec)
      geometries
  in
  let arith =
    match ms with m :: _ -> m.m_arith_ideal | [] -> invalid_arg
      "run_workload_sweep: no geometries"
  in
  let ps = predict_sweep ?pagemap ~seed ~arith_stalls:arith ~geometries os spec in
  List.mapi
    (fun i m ->
      let p = ps.(i) in
      if m.m_console <> p.p_console then
        failwith
          (Printf.sprintf
             "%s/%s: traced and untraced runs disagree on output:\n%S\nvs\n%S"
             spec.wname (os_name os) m.m_console p.p_console);
      { r_name = spec.wname; r_os = os; r_measured = m; r_predicted = p })
    ms

let percent_error row =
  Systrace_util.Stats.percent_error ~measured:row.r_measured.m_seconds
    ~predicted:row.r_predicted.p_breakdown.Predict.seconds

(* Time-dilation factor actually achieved by instrumentation (§4.1). *)
let dilation row =
  float_of_int row.r_predicted.p_traced_insts
  /. float_of_int row.r_measured.m_insts
