(** Systrace: software methods for system address tracing.

    A full reimplementation of the WRL/CMU software tracing systems
    (Chen, Wall, Borg: "Software Methods for System Address Tracing",
    HotOS 1993 / WRL Research Report 94/6): link-time instrumentation
    (epoxie), traced Ultrix- and Mach-style kernels running on a simulated
    DECstation-class machine, the one-word trace format with its parsing
    library, and the trace-driven memory-system simulation used to
    validate the traces against direct measurement.

    Layering (bottom up):
    - {!Isa}: instruction set, assembler eDSL, object files, linker.
    - {!Machine}: the simulated hardware (CPU, TLB, caches, devices).
    - {!Tracing}: trace format, buffers ABI, parsing library.
    - {!Epoxie}: link-time instrumentation and the pixie baseline.
    - {!Kernel}: the traced operating system and its boot builder.
    - {!Tracesim}: trace-driven memory-system simulation and prediction.
    - {!Workloads}: the Table 1 workload suite.
    - {!Validate}: measured-vs-predicted experiment harness.

    The functions at the top of this module cover the common journeys:
    run a program under a traced system and consume its address trace. *)

module Isa = struct
  module Reg = Systrace_isa.Reg
  module Insn = Systrace_isa.Insn
  module Encode = Systrace_isa.Encode
  module Asm = Systrace_isa.Asm
  module Objfile = Systrace_isa.Objfile
  module Bb = Systrace_isa.Bb
  module Link = Systrace_isa.Link
  module Exe = Systrace_isa.Exe
end

module Machine = struct
  module Addr = Systrace_machine.Addr
  module Machine = Systrace_machine.Machine
  module Uop = Systrace_machine.Uop
  module Tlb = Systrace_machine.Tlb
  module Cache = Systrace_machine.Cache
  module Disk = Systrace_machine.Disk
end

module Tracing = struct
  module Abi = Systrace_tracing.Abi
  module Format = Systrace_tracing.Format_
  module Bbtable = Systrace_tracing.Bbtable
  module Parser = Systrace_tracing.Parser
  module Sink = Systrace_tracing.Sink
  module Tracefile = Systrace_tracing.Tracefile
  module Compress = Systrace_tracing.Compress
  module Faults = Systrace_tracing.Faults
end

module Epoxie = struct
  module Epoxie = Systrace_epoxie.Epoxie
  module Runtime = Systrace_epoxie.Runtime
  module Bbmap = Systrace_epoxie.Bbmap
  module Pixie = Systrace_epoxie.Pixie
  module Rewrite = Systrace_epoxie.Rewrite
end

module Kernel = struct
  module Kcfg = Systrace_kernel.Kcfg
  module Builder = Systrace_kernel.Builder
end

module Tracesim = struct
  module Memsim = Systrace_tracesim.Memsim
  module Predict = Systrace_tracesim.Predict
  module Sim_cache_assoc = Systrace_tracesim.Sim_cache_assoc
  module Sim_tlb = Systrace_tracesim.Sim_tlb
  module Sim_wb = Systrace_tracesim.Sim_wb
  module Sim_stack = Systrace_tracesim.Sim_stack
end

module Workloads = struct
  module Suite = Systrace_workloads.Suite
  module Userlib = Systrace_workloads.Userlib
  module Ux_server = Systrace_workloads.Ux_server
end

module Serve = struct
  module Wire = Systrace_serve.Wire
  module Bqueue = Systrace_serve.Bqueue
  module Server = Systrace_serve.Serve
  module Client = Systrace_serve.Client
end

module Validate = Systrace_validate.Validate
module Experiments = Systrace_validate.Experiments

(* ------------------------------------------------------------------ *)

type os = Validate.os = Ultrix | Mach

(** One parsed reference from a system trace, in the original binary's
    address space. *)
type event =
  | Inst of { addr : int; pid : int; kernel : bool }
  | Data of { addr : int; pid : int; kernel : bool; is_load : bool; bytes : int }

type traced_run = {
  console : string;                       (** program console output *)
  parse_stats : Systrace_tracing.Parser.stats; (** trace inventory *)
  machine : Systrace_machine.Machine.t;   (** the halted traced machine *)
  system : Systrace_kernel.Builder.t;     (** the whole booted system *)
}

(** [run_traced ~os ~on_event programs files] boots a traced system with
    the given user programs (instrumenting them and the kernel with
    epoxie), runs it to completion, and streams every reconstructed
    instruction and data reference of the original binaries to
    [on_event] — exactly the analysis-program position of Figure 1.

    Programs are built from the assembler eDSL ({!Isa.Asm}); link them
    against {!Workloads.Userlib} for the system-call wrappers.  A
    program made with [Builder.program ~notrace:true] runs uninstrumented
    beside the traced ones (selective tracing, §3.1): the kernel's
    activity on its behalf is traced, its own user references are not.
    The system is {!Validate.build}'s, so it matches the one
    {!Validate.predict} traces for the same programs.

    [?sink] attaches a streaming consumer ({!Tracing.Sink}) to the raw
    word stream: it receives each ANALYZE phase's chunk before the
    parser does, and its [finish] runs after the final drain — so a
    whole run can be counted, written to disk, or fed to a second
    analysis online, in O(chunk) memory.  [?on_words] is the bare
    callback form of the same hook. *)
let run_traced ?(os = Ultrix) ?(seed = 1) ?(on_event = fun (_ : event) -> ())
    ?(on_words = fun (_ : int array) (_ : int) -> ())
    ?(sink = Systrace_tracing.Sink.null)
    ?(config = Systrace_kernel.Builder.default_config)
    (programs : Systrace_kernel.Builder.program list)
    (files : Systrace_kernel.Builder.file_spec list) : traced_run =
  let open Systrace_kernel in
  let t =
    Validate.build ~seed ~cfg:{ config with Builder.traced = true } os
      { Validate.wname = ""; files; programs }
  in
  let parser = Builder.parser t in
  Systrace_tracing.Parser.set_handlers parser
    {
      Systrace_tracing.Parser.on_inst =
        (fun addr pid kernel -> on_event (Inst { addr; pid; kernel }));
      on_data =
        (fun addr pid kernel is_load bytes ->
          on_event (Data { addr; pid; kernel; is_load; bytes }));
    };
  t.Builder.trace_sink <-
    Some
      (fun words len ->
        on_words words len;
        sink.Systrace_tracing.Sink.on_words words ~len;
        Systrace_tracing.Parser.feed parser words ~len);
  Builder.run_to_halt t;
  Builder.drain_final t;
  sink.Systrace_tracing.Sink.finish ();
  Systrace_tracing.Parser.finish ~live:(Builder.server_pids t) parser;
  {
    console = Builder.console t;
    parse_stats = Systrace_tracing.Parser.stats parser;
    machine = t.Builder.machine;
    system = t;
  }

(** [run_measured] boots the same system untraced and returns it after
    completion; the machine's ground-truth counters are the "direct
    measurement" side of the paper's validation. *)
let run_measured ?(os = Ultrix) ?(seed = 1)
    ?(config = Systrace_kernel.Builder.default_config)
    (programs : Systrace_kernel.Builder.program list)
    (files : Systrace_kernel.Builder.file_spec list) :
    Systrace_kernel.Builder.t =
  let open Systrace_kernel in
  let t =
    Validate.build ~seed ~cfg:{ config with Builder.traced = false } os
      { Validate.wname = ""; files; programs }
  in
  Builder.run_to_halt t;
  t

(** Capture a traced run's raw in-kernel trace words as well as parsing
    them — useful for replaying one trace through several memory-system
    configurations, the paper's core use case ("trace analysis that must
    be done off-line against stored traces is unacceptable" for the
    authors' 64MB-class traces, but replay is exactly what the analysis
    program does with each buffer-full). *)
let capture_trace ?os ?seed ?config programs files : int array * traced_run =
  let sink, trace = Systrace_tracing.Sink.to_array () in
  let run = run_traced ?os ?seed ?config ~sink programs files in
  (trace (), run)

(** Build the replay machinery — a fresh parser over [system]'s block
    tables driving a fresh {!Tracesim.Memsim.sweep} over every
    configuration in [memsim_cfgs] — as a streaming sink, so any chunk
    producer ([run_traced ~sink], {!Tracing.Tracefile.fold_words}) can
    feed it in bounded memory.  One parser pass serves all the
    configurations, so replaying a trace through K memory systems costs
    roughly one replay, not K (geometry and TLB state that can be shared
    or nested is).  The sink's [finish] is a no-op: a replay observes
    whatever prefix it is given (stored traces may lack the liveness
    information [Parser.finish] needs).  Read the results off the second
    component when done: per-configuration stats and (icache,
    dcache-read) access counts — the miss-ratio denominators — in
    [memsim_cfgs] order, plus the shared parse stats. *)
let replay_sweep_sink ~(system : Systrace_kernel.Builder.t)
    ~(memsim_cfgs : Systrace_tracesim.Memsim.config list) () :
    Systrace_tracing.Sink.t
    * (unit ->
      Systrace_tracesim.Memsim.stats array
      * (int * int) array
      * Systrace_tracing.Parser.stats) =
  let parser = Systrace_kernel.Builder.parser system in
  let sw = Systrace_tracesim.Memsim.sweep memsim_cfgs in
  Systrace_tracing.Parser.set_handlers parser
    (Systrace_tracesim.Memsim.sweep_handlers sw);
  ( Systrace_tracing.Sink.make (fun words ~len ->
        Systrace_tracing.Parser.feed parser words ~len),
    fun () ->
      ( Systrace_tracesim.Memsim.sweep_stats sw,
        Systrace_tracesim.Memsim.sweep_accesses sw,
        Systrace_tracing.Parser.stats parser ) )

(** {!replay_sweep_sink} over a whole captured trace in memory. *)
let replay_sweep ~(system : Systrace_kernel.Builder.t)
    ~(memsim_cfgs : Systrace_tracesim.Memsim.config list) (words : int array) :
    Systrace_tracesim.Memsim.stats array
    * (int * int) array
    * Systrace_tracing.Parser.stats =
  let sink, result = replay_sweep_sink ~system ~memsim_cfgs () in
  sink.Systrace_tracing.Sink.on_words words ~len:(Array.length words);
  result ()

(** {!replay_sweep} straight off a stored trace file: the words stream
    from disk through {!Tracing.Tracefile.fold_words} into the
    simulation chunk by chunk, so a trace much larger than memory
    replays in O(chunk) space, whatever the number of configurations.
    With [?jobs], a version-3 trace's blocks are decoded concurrently on
    the domain pool ({!Tracing.Tracefile.fold_blocks_parallel}); the
    simulation itself still runs on the calling domain in stream order,
    so results are identical to the sequential read — decode just stops
    being the bottleneck.  Other formats fall back to the sequential
    reader.
    @raise Tracing.Tracefile.Bad_file as [fold_words]. *)
let replay_sweep_file ?jobs ~(system : Systrace_kernel.Builder.t)
    ~(memsim_cfgs : Systrace_tracesim.Memsim.config list) path :
    Systrace_tracesim.Memsim.stats array
    * (int * int) array
    * Systrace_tracing.Parser.stats =
  let sink, result = replay_sweep_sink ~system ~memsim_cfgs () in
  (match jobs with
  | Some jobs when jobs > 1 ->
    Systrace_tracing.Tracefile.fold_blocks_parallel ~jobs path ~init:()
      ~f:(fun () words ~len -> sink.Systrace_tracing.Sink.on_words words ~len)
  | _ ->
    Systrace_tracing.Tracefile.fold_words path ~init:()
      ~f:(fun () words ~len -> sink.Systrace_tracing.Sink.on_words words ~len));
  result ()

(** {!replay_sweep_sink} for one configuration — the mechanism behind
    the cache and TLB studies the traces were built for. *)
let replay_sink ~(system : Systrace_kernel.Builder.t)
    ~(memsim_cfg : Systrace_tracesim.Memsim.config) () :
    Systrace_tracing.Sink.t
    * (unit -> Systrace_tracesim.Memsim.stats * Systrace_tracing.Parser.stats)
    =
  let sink, result = replay_sweep_sink ~system ~memsim_cfgs:[ memsim_cfg ] () in
  ( sink,
    fun () ->
      let stats, _, parse = result () in
      (stats.(0), parse) )

(** Replay a captured trace through a fresh trace-driven memory-system
    simulation (see {!Tracesim.Memsim}): {!replay_sweep} of one
    configuration. *)
let replay ~(system : Systrace_kernel.Builder.t) ~(memsim_cfg : Systrace_tracesim.Memsim.config)
    (words : int array) : Systrace_tracesim.Memsim.stats * Systrace_tracing.Parser.stats =
  let stats, _, parse = replay_sweep ~system ~memsim_cfgs:[ memsim_cfg ] words in
  (stats.(0), parse)

(** {!replay} straight off a stored trace file, in O(chunk) space:
    {!replay_sweep_file} of one configuration.
    @raise Tracing.Tracefile.Bad_file as [fold_words]. *)
let replay_file ~(system : Systrace_kernel.Builder.t)
    ~(memsim_cfg : Systrace_tracesim.Memsim.config) path :
    Systrace_tracesim.Memsim.stats * Systrace_tracing.Parser.stats =
  let stats, _, parse = replay_sweep_file ~system ~memsim_cfgs:[ memsim_cfg ] path in
  (stats.(0), parse)

(** The memory-system configuration of the simulated DECstation, for
    {!replay} studies that vary one parameter at a time. *)
let default_memsim_cfg ~(system : Systrace_kernel.Builder.t) :
    Systrace_tracesim.Memsim.config =
  Validate.memsim_cfg
    ~pagemap:(Systrace_kernel.Builder.extract_pagemap system)
    system.Systrace_kernel.Builder.cfg.Systrace_kernel.Builder.machine_cfg
