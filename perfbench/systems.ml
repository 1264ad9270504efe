(* Booting a workload's system the way the systrace CLI does, and
   capturing its trace, with a span around each call into the kernel
   and machine layers. *)

open Systrace
module Builder = Systrace_kernel.Builder
module Kcfg = Systrace_kernel.Kcfg
module Suite = Workloads.Suite
module M = Systrace_machine.Machine

let os_label = function Validate.Ultrix -> "Ultrix" | Validate.Mach -> "Mach"

let cfg ~traced ~seed os =
  {
    Builder.default_config with
    Builder.traced;
    seed;
    personality =
      (match os with Validate.Ultrix -> Kcfg.Ultrix | Validate.Mach -> Kcfg.Mach);
    pagemap =
      (match os with Validate.Ultrix -> Kcfg.Careful | Validate.Mach -> Kcfg.Random);
  }

let assemble (e : Suite.entry) = Span.with_ "workloads.assemble" e.Suite.program

(* An assembled workload program, behind the UX server under Mach. *)
let with_server os (e : Suite.entry) prog =
  match os with
  | Validate.Ultrix -> [ prog ]
  | Validate.Mach ->
    let server =
      Span.with_ "workloads.assemble" (fun () ->
          Builder.program ~is_server:true "uxserver"
            [
              Workloads.Ux_server.make ~file_plan:(Builder.file_plan e.Suite.files) ();
              Workloads.Userlib.make ();
            ])
    in
    [ server; prog ]

let programs os e = with_server os e (assemble e)

let build ?machine_cfg ~traced ~seed os e programs =
  let cfg = cfg ~traced ~seed os in
  let cfg =
    match machine_cfg with
    | Some m -> { cfg with Builder.machine_cfg = m }
    | None -> cfg
  in
  Span.with_
    (if traced then "kernel.build_traced" else "kernel.build_untraced")
    (fun () -> Builder.build ~cfg ~programs ~files:e.Suite.files ())

let run_to_halt ~traced t =
  Span.with_ (if traced then "machine.traced" else "machine.untraced") (fun () ->
      match Builder.run t ~max_insns:2_000_000_000 with
      | M.Halt -> ()
      | M.Limit -> failwith "system did not halt")

let live_pids (t : Builder.t) =
  List.filter_map
    (fun (pi : Builder.proc_info) ->
      if pi.Builder.prog.Builder.is_server then Some pi.Builder.pid else None)
    t.Builder.procs

(* A fresh parser over the system's block tables. *)
let parser ?recover (t : Builder.t) =
  let p =
    Tracing.Parser.create ?recover ~kernel_bbs:(Option.get t.Builder.kernel_bbs) ()
  in
  List.iter
    (fun (pi : Builder.proc_info) ->
      Tracing.Parser.register_pid p ~pid:pi.Builder.pid (Option.get pi.Builder.bbs))
    t.Builder.procs;
  p

(* Kernel drain accounting of one traced run: ANALYZE phases delivered
   during the machine run, and the words in them. *)
type drains = { mutable phases : int; mutable phase_words : int }

let fresh_drains () = { phases = 0; phase_words = 0 }

(* Hook [consume] up as the system's trace sink, run to halt and drain
   the rest.  Chunks handed over inside [Builder.run] count as ANALYZE
   phases; the sink time is a child span, so the machine's self time
   excludes it. *)
let run_traced t drains consume =
  let in_run = ref false in
  t.Builder.trace_sink <-
    Some
      (fun words len ->
        if !in_run then begin
          drains.phases <- drains.phases + 1;
          drains.phase_words <- drains.phase_words + len
        end;
        Span.with_ "kernel.sink" (fun () -> consume words len));
  in_run := true;
  run_to_halt ~traced:true t;
  in_run := false;
  Span.with_ "kernel.drain_final" (fun () -> Builder.drain_final t)

(* Counters of a halted machine, by the names the report uses. *)
let machine_counts (m : M.t) =
  let c = m.M.c in
  [
    ("insns", c.M.instructions);
    ("kernel_insns", c.M.kernel_instructions);
    ("idle_insns", c.M.idle_instructions);
    ("cycles", m.M.cycles);
    ("icache_misses", M.icache_misses m);
    ("dcache_misses", M.dcache_misses m);
    ("utlb_misses", c.M.utlb_misses);
    ("wb_stalls", M.wb_stalls m);
    ("cached_blocks", List.length (M.cached_blocks m));
  ]

(* A captured trace: the words in the chunks the kernel handed over. *)
type capture = {
  entry : Suite.entry;
  os : Validate.os;
  chunks : int array list;  (* in stream order *)
  words : int;
  counts : (string * int) list;  (* the halted traced machine's counters *)
  drains : drains;
}

let capture ~seed os name =
  let e = Suite.find name in
  let t = build ~traced:true ~seed os e (programs os e) in
  let chunks = ref [] and words = ref 0 in
  let drains = fresh_drains () in
  run_traced t drains (fun w len ->
      chunks := Array.sub w 0 len :: !chunks;
      words := !words + len);
  { entry = e; os; chunks = List.rev !chunks; words = !words;
    counts = machine_counts t.Builder.machine; drains }

(* The traced system offline analysis rebuilds for its block tables and
   page map, as [systrace analyze]/[sweep] do. *)
let analysis_system ~seed c = build ~traced:true ~seed c.os c.entry (programs c.os c.entry)

(* Tracefile writer, fed the capture's chunks. *)
let store c path =
  let w = Tracing.Tracefile.open_writer ~compress:true path in
  List.iter (fun ch -> Tracing.Tracefile.write w ch ~len:(Array.length ch)) c.chunks;
  Tracing.Tracefile.close_writer w

(* Parse with null handlers: the parser's own cost over the chunks. *)
let null_parse ?key system chunks =
  let p = parser system in
  Span.with_ ?key "tracing.parse" (fun () ->
      List.iter (fun ch -> Tracing.Parser.feed p ch ~len:(Array.length ch)) chunks);
  Tracing.Parser.stats p

