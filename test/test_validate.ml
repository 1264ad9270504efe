(* Tests for the domain-parallel validation harness: running the
   measured-vs-predicted matrix on a pool of domains must be a pure
   performance change — the rendered tables are byte-identical to the
   serial run. *)

open Systrace_validate
open Systrace_workloads

(* A small slice of the suite keeps the regression affordable; each cell
   is a full measured + predicted simulation. *)
let entries () =
  List.filter
    (fun (e : Suite.entry) -> List.mem e.Suite.name [ "sed"; "lisp" ])
    Suite.all

let render m =
  Systrace_util.Table.render (Experiments.table2 m)
  ^ "\n"
  ^ Systrace_util.Table.render (Experiments.table3 m)
  ^ "\n"
  ^ Systrace_util.Table.render (Experiments.figure3 m)

let test_matrix_determinism () =
  let entries = entries () in
  let serial = Experiments.run_matrix ~jobs:1 ~entries () in
  let parallel = Experiments.run_matrix ~jobs:4 ~entries () in
  Alcotest.(check string)
    "tables byte-identical across jobs" (render serial) (render parallel)

(* ------------------------------------------------------------------ *)
(* Multi-configuration sweep on a REAL captured trace: Memsim.sweep must
   be byte-identical to independent runs of the single-configuration
   reference model (Test_tracesim.Memsim_ref), with
   chunk-split boundaries through the Sink interface chosen differently
   on each side, on both a clean and a fault-injected trace. *)

let captured =
  lazy
    (let e = Suite.find "egrep" in
     let cfg =
       {
         Systrace_kernel.Builder.default_config with
         Systrace_kernel.Builder.traced = true;
       }
     in
     let b =
       Systrace_kernel.Builder.build ~cfg
         ~programs:[ e.Suite.program () ]
         ~files:e.Suite.files ()
     in
     let capture, trace = Systrace_tracing.Sink.to_array () in
     b.Systrace_kernel.Builder.trace_sink <-
       Some (fun ws len -> capture.Systrace_tracing.Sink.on_words ws ~len);
     (match Systrace_kernel.Builder.run b ~max_insns:2_000_000_000 with
     | Systrace_machine.Machine.Halt -> ()
     | Systrace_machine.Machine.Limit -> failwith "sweep equiv: no halt");
     Systrace_kernel.Builder.drain_final b;
     (b, trace ()))

let mk_parser ~recover (b : Systrace_kernel.Builder.t) =
  let p =
    Systrace_tracing.Parser.create ~recover
      ~kernel_bbs:(Option.get b.Systrace_kernel.Builder.kernel_bbs) ()
  in
  List.iter
    (fun (pi : Systrace_kernel.Builder.proc_info) ->
      Systrace_tracing.Parser.register_pid p ~pid:pi.pid (Option.get pi.bbs))
    b.Systrace_kernel.Builder.procs;
  p

(* drive a sink with randomly-sized chunks: boundaries must not matter *)
let feed_random_chunks ~rng (sink : Systrace_tracing.Sink.t) words =
  let n = Array.length words in
  let pos = ref 0 in
  while !pos < n do
    let len = min (n - !pos) (1 + Systrace_util.Rng.int rng 4096) in
    sink.Systrace_tracing.Sink.on_words (Array.sub words !pos len) ~len;
    pos := !pos + len
  done;
  sink.Systrace_tracing.Sink.finish ()

let sweep_grid b =
  let open Systrace_tracesim in
  (* one base config so every grid point shares the extracted page map by
     reference, as Memsim.sweep requires *)
  let base = Systrace.default_memsim_cfg ~system:b in
  List.map snd
    (Memsim.grid ~base
       ~sizes:[ 4096; 8192; 16384 ]
       ~lines:[ 16 ] ~tlb_entries:[ 16; 64 ] ~wb_depths:[ 2; 4 ] ())

let sweep_vs_singles ~recover ~rng_seed b words cfgs =
  let open Systrace_tracesim in
  let swept =
    let p = mk_parser ~recover b in
    let sw = Memsim.sweep cfgs in
    let sink = Memsim.sweep_sink sw p in
    feed_random_chunks ~rng:(Systrace_util.Rng.create rng_seed) sink words;
    Memsim.sweep_stats sw
  in
  List.iteri
    (fun i cfg ->
      let p = mk_parser ~recover b in
      let m = Test_tracesim.Memsim_ref.create cfg in
      Systrace_tracing.Parser.set_handlers p
        {
          Systrace_tracing.Parser.on_inst = Test_tracesim.Memsim_ref.on_inst m;
          on_data = Test_tracesim.Memsim_ref.on_data m;
        };
      feed_random_chunks
        ~rng:(Systrace_util.Rng.create (rng_seed + 101 + i))
        (Systrace_tracing.Sink.to_parser p)
        words;
      Alcotest.(check bool)
        (Printf.sprintf "config %d: sweep stats == single-config stats" i)
        true
        (Test_tracesim.Memsim_ref.stats m = swept.(i)))
    cfgs

let test_sweep_real_trace () =
  let b, words = Lazy.force captured in
  sweep_vs_singles ~recover:false ~rng_seed:3 b words (sweep_grid b)

let test_sweep_real_trace_faulty () =
  let b, words = Lazy.force captured in
  let rng = Systrace_util.Rng.create 42 in
  let words, _injected =
    Systrace_tracing.Faults.inject rng ~n:20
      ~kinds:Systrace_tracing.Faults.all_kinds words
  in
  sweep_vs_singles ~recover:true ~rng_seed:7 b words (sweep_grid b)

(* predict_sweep: the per-geometry predictions must match what dedicated
   single-geometry passes produce (element 0 is the default geometry, so
   it is exactly [predict]'s result). *)
let test_predict_sweep_consistent () =
  let spec = Experiments.spec_of (Suite.find "sed") in
  let base = Systrace_machine.Machine.default_config in
  let big =
    {
      base with
      Systrace_machine.Machine.icache_bytes = 65536;
      dcache_bytes = 65536;
    }
  in
  let single = Validate.predict ~arith_stalls:0 Validate.Ultrix spec in
  let multi =
    Validate.predict_sweep ~arith_stalls:0 ~geometries:[ base; big ]
      Validate.Ultrix spec
  in
  Alcotest.(check bool) "first geometry == dedicated predict" true
    (single.Validate.p_mem = multi.(0).Validate.p_mem);
  Alcotest.(check bool) "breakdown identical" true
    (single.Validate.p_breakdown = multi.(0).Validate.p_breakdown);
  Alcotest.(check bool) "parse stats shared" true
    (single.Validate.p_parse = multi.(0).Validate.p_parse);
  Alcotest.(check bool) "bigger caches never miss more" true
    (multi.(1).Validate.p_mem.Systrace_tracesim.Memsim.icache_misses
    <= multi.(0).Validate.p_mem.Systrace_tracesim.Memsim.icache_misses)

let tests =
  [
    Alcotest.test_case "matrix determinism (jobs=1 == jobs=4)" `Quick
      test_matrix_determinism;
    Alcotest.test_case "sweep == singles on a real trace" `Quick
      test_sweep_real_trace;
    Alcotest.test_case "sweep == singles on a fault-injected trace" `Quick
      test_sweep_real_trace_faulty;
    Alcotest.test_case "predict_sweep consistent with predict" `Quick
      test_predict_sweep_consistent;
  ]
