(** The validation harness (paper §5): each workload runs twice on each
    system — MEASURED (uninstrumented binaries, untraced kernel, the
    machine's ground-truth counters standing in for the paper's
    high-resolution timer and TLB-counting kernel) and PREDICTED (traced
    system, with the collected trace driven through the memory-system
    simulator and the four-component time model).  Comparing the two
    reproduces Table 2, Figure 3 and Table 3. *)

open Systrace_tracing
open Systrace_kernel
open Systrace_tracesim

type os = Ultrix | Mach

val os_name : os -> string

type spec = {
  wname : string;
  files : Builder.file_spec list;
  programs : Builder.program list;
      (** excluding the UX server, which {!build} adds under Mach *)
}

type measurement = {
  m_cycles : int;
  m_seconds : float;
  m_utlb : int;
  m_idle : int;
  m_user_insts : int;
  m_kernel_insts : int;
  m_insts : int;
  m_arith_ideal : int;
      (** pixie-style arithmetic-stall estimate (ideal-memory run) *)
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
  p_traced_insts : int;
  p_tlbdropins : int;
  p_peak_words : int;
      (** largest ANALYZE chunk fed to the online parse+simulate sink —
          the predicted run's peak resident trace words, bounded by the
          in-kernel buffer size rather than the trace length *)
}

val build :
  ?pagemap:Kcfg.pagemap -> ?seed:int -> cfg:Builder.config -> os -> spec ->
  Builder.t
(** Workload [spec] booted under [os], built but not yet run: the one
    owner of the personality policy.  Sets [cfg]'s personality, its seed
    (default 1) and its page map ([pagemap], else the os's own policy:
    careful under Ultrix, random under Mach), and under Mach puts the UX
    server ahead of [spec]'s programs.  Everything else — traced or not,
    buffer sizes, machine geometry — comes from [cfg].  Every path that
    boots a workload (measured and predicted passes, the {!Systrace}
    facade, the CLI's offline commands) builds its system here, so a
    stored trace's tables and page map match the run that captured it. *)

val measured_system :
  ?pagemap:Kcfg.pagemap ->
  ?machine_cfg:Systrace_machine.Machine.config ->
  ?seed:int ->
  os ->
  spec ->
  Builder.t
(** The MEASURED system: {!build} [spec] untraced under [os] and run it
    to halt ({!Builder.run_to_halt}). *)

val measure : ?pagemap:Kcfg.pagemap -> ?machine_cfg:Systrace_machine.Machine.config -> ?seed:int -> os -> spec -> measurement
(** The measured pass: {!measured_system}'s ground-truth counters, plus
    the arithmetic-stall estimate of a second, ideal-memory build of the
    same system.  [machine_cfg] (default: the machine's base
    configuration) varies the geometry for cache studies. *)

val memsim_cfg :
  pagemap:(int -> int -> int) -> Systrace_machine.Machine.config ->
  Memsim.config
(** The memory-simulator configuration a machine geometry implies: its
    caches (direct-mapped), miss penalties and write buffer, the 64-entry
    TLB and the refill-handler costs, translating through [pagemap]
    (usually {!Builder.extract_pagemap} of the traced system). *)

val predict :
  ?pagemap:Kcfg.pagemap -> ?seed:int -> ?arith_stalls:int -> os -> spec ->
  prediction
(** One traced pass ({!build} with [traced = true], parsed online by a
    {!Builder.parser}), one prediction for the default machine geometry.
    Implemented as a single-element {!predict_sweep}. *)

val predict_sweep :
  ?pagemap:Kcfg.pagemap ->
  ?seed:int ->
  ?arith_stalls:int ->
  ?geometries:Systrace_machine.Machine.config list ->
  os ->
  spec ->
  prediction array
(** One traced pass predicting every geometry at once: the trace is
    collected, parsed and translated once, and a {!Memsim.sweep} updates
    per-geometry cache/TLB/write-buffer state from the shared decode.
    Returns predictions in [geometries] order (default: the machine's
    base configuration); each is byte-identical to what a dedicated
    {!predict} pass with that geometry would produce. *)

type row = {
  r_name : string;
  r_os : os;
  r_measured : measurement;
  r_predicted : prediction;
}

val run_workload :
  ?machine_cfg:Systrace_machine.Machine.config ->
  ?pagemap:Kcfg.pagemap ->
  ?seed:int ->
  os ->
  spec ->
  row
(** Measured and predicted passes; fails if traced and untraced runs
    disagree on program output.  [machine_cfg] overrides the measured
    pass's machine configuration (e.g. [tier = Uop.Step]); the
    predicted pass is a trace-driven model and takes no machine. *)

val run_workload_sweep :
  ?pagemap:Kcfg.pagemap ->
  ?seed:int ->
  geometries:Systrace_machine.Machine.config list ->
  os ->
  spec ->
  row list
(** {!run_workload} across a geometry family: one measured pass per
    geometry (the machine must really be built with each), one traced
    pass predicting all of them via {!predict_sweep}. *)

val percent_error : row -> float
(** The Figure 3 quantity. *)

val dilation : row -> float
(** Instrumented instructions per original instruction (§4.1). *)
