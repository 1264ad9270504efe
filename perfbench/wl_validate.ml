(* validate-mix: the paper's §5 validation journey, [systrace validate].

   Four cells run closed-loop in this order, each as the calls
   [Validate.run_workload] makes: [Validate.measure] (the untraced pass
   plus the ideal-memory pass), then [Validate.predict ~arith_stalls]
   (a traced pass with online parse, a one-config sweep and Predict).
     tomcatv/Ultrix   FP and strided; its working set exceeds the dcache
     gcc/Mach         branchy integer code behind the UX server, random
                      page map: many pids, drains and mode switches
     compress/Mach    I/O plus IPC
     egrep/Ultrix     small; its working set fits in the caches
   It exercises the interpreter, the timing model and kernel drains on
   both uninstrumented (measure) and instrumented (predict) code. *)

open Systrace
module V = Validate
module Builder = Systems.Builder
module M = Systems.M
module Memsim = Tracesim.Memsim

let cells =
  [ ("tomcatv", V.Ultrix); ("gcc", V.Mach); ("compress", V.Mach); ("egrep", V.Ultrix) ]

type cell = { name : string; os : V.os; entry : Systems.Suite.entry; spec : V.spec }

let setup () =
  List.map
    (fun (w, os) ->
      let e = Systems.Suite.find w in
      let prog = Systems.assemble e in
      {
        name = w ^ "/" ^ Systems.os_label os;
        os;
        entry = e;
        spec = { V.wname = e.Systems.Suite.name; files = e.Systems.Suite.files; programs = [ prog ] };
      })
    cells

(* Layer figures only the traced pass records. *)
type layers = {
  untraced_insns : int;  (* measured + ideal-memory runs *)
  traced : (string * int) list;  (* the halted traced machine's counters *)
  drains : Systems.drains;
  parse : Tracing.Parser.stats;  (* null-handler parse of the same chunks *)
  mem : Memsim.stats;
}

type outcome = {
  measure_s : float;  (* wall *)
  predict_s : float;
  measure_cpu : float;  (* CPU *)
  predict_cpu : float;
  words : int;  (* trace words the predict pass generated and consumed *)
  err_pct : float;
  stats : (string * int) list;
  console_ok : bool;
  layers : layers option;
}

let outcome cell (m : V.measurement Common.clocked) (p : V.prediction Common.clocked) layers =
  let k s = cell.name ^ "." ^ s in
  let { Common.r = m; wall = measure_s; cpu_s = measure_cpu } = m in
  let { Common.r = p; wall = predict_s; cpu_s = predict_cpu } = p in
  let b = p.V.p_breakdown in
  {
    measure_s;
    predict_s;
    measure_cpu;
    predict_cpu;
    words = p.V.p_parse.Tracing.Parser.words;
    err_pct =
      Systrace_util.Stats.percent_error ~measured:m.V.m_seconds
        ~predicted:b.Tracesim.Predict.seconds;
    stats =
      [
        (k "measured_cycles", m.V.m_cycles);
        (k "measured_utlb", m.V.m_utlb);
        (k "measured_insns", m.V.m_insts);
        (k "predicted_cycles", b.Tracesim.Predict.total_cycles);
        (k "predicted_utlb", p.V.p_utlb);
        (k "trace_words", p.V.p_parse.Tracing.Parser.words);
        (k "traced_insns", p.V.p_traced_insts);
      ];
    console_ok = m.V.m_console = p.V.p_console;
    layers;
  }

(* The cell through the library's entry points, as [systrace validate]. *)
let api ~seed cell =
  let m = Common.clocked (fun () -> V.measure ~seed cell.os cell.spec) in
  let p =
    Common.clocked (fun () ->
        V.predict ~seed ~arith_stalls:m.Common.r.V.m_arith_ideal cell.os cell.spec)
  in
  outcome cell m p None

(* [Validate.measure], made of the same layer calls with a span around
   each. *)
let measure_traced ~seed cell =
  let programs () = Systems.with_server cell.os cell.entry (List.hd cell.spec.V.programs) in
  let t = Systems.build ~traced:false ~seed cell.os cell.entry (programs ()) in
  Systems.run_to_halt ~traced:false t;
  let base = (Systems.cfg ~traced:false ~seed cell.os).Builder.machine_cfg in
  let ideal = { base with M.read_miss_penalty = 0; uncached_penalty = 0; wb_drain = 0 } in
  let ti =
    Systems.build ~machine_cfg:ideal ~traced:false ~seed cell.os cell.entry (programs ())
  in
  Systems.run_to_halt ~traced:false ti;
  let m = t.Builder.machine in
  let c = m.M.c in
  let meas =
    {
      V.m_cycles = m.M.cycles;
      m_seconds = float_of_int m.M.cycles /. Tracesim.Predict.clock_hz;
      m_utlb = c.M.utlb_misses;
      m_idle = c.M.idle_instructions;
      m_user_insts = c.M.user_instructions;
      m_kernel_insts = c.M.kernel_instructions;
      m_insts = c.M.instructions;
      m_arith_ideal = M.arith_stalls ti.Builder.machine;
      m_console = Builder.console t;
      m_disk_reads = m.M.disk.Systrace_machine.Disk.reads;
      m_disk_writes = m.M.disk.Systrace_machine.Disk.writes;
    }
  in
  (meas, c.M.instructions + ti.Builder.machine.M.c.M.instructions)

(* [Validate.predict], likewise; each ANALYZE chunk also goes through a
   null-handler parser so parse and simulation time separate. *)
let predict_traced ~seed ~arith_stalls cell =
  let programs = Systems.with_server cell.os cell.entry (List.hd cell.spec.V.programs) in
  let t = Systems.build ~traced:true ~seed cell.os cell.entry programs in
  let parser = Systems.parser t and null = Systems.parser t in
  let mcfg = t.Builder.cfg.Builder.machine_cfg in
  let sw = Memsim.sweep [ default_memsim_cfg ~system:t ] in
  let sink = Memsim.sweep_sink ~live:(Systems.live_pids t) sw parser in
  let drains = Systems.fresh_drains () in
  Systems.run_traced t drains (fun w len ->
      Span.with_ "tracing.parse" (fun () -> Tracing.Parser.feed null w ~len);
      Span.with_ "tracesim.parse_sim" (fun () -> sink.Tracing.Sink.on_words w ~len));
  Span.with_ "tracesim.finish" sink.Tracing.Sink.finish;
  let mem = (Memsim.sweep_stats sw).(0) and parse = Tracing.Parser.stats parser in
  let breakdown =
    Span.with_ "tracesim.predict" (fun () ->
        Tracesim.Predict.make ~mem ~parse ~arith_stalls
          ~dilation:Systems.Kcfg.time_dilation ~read_miss_penalty:mcfg.M.read_miss_penalty
          ~uncached_penalty:mcfg.M.uncached_penalty)
  in
  let pred =
    {
      V.p_breakdown = breakdown;
      p_utlb = mem.Memsim.utlb_misses;
      p_console = Builder.console t;
      p_parse = parse;
      p_mem = mem;
      p_traced_insts = t.Builder.machine.M.c.M.instructions;
      p_tlbdropins = Builder.tlbdropins t;
      p_peak_words = 0;
    }
  in
  (pred, Systems.machine_counts t.Builder.machine, drains, Tracing.Parser.stats null)

let traced ~seed cell =
  Span.with_ ~key:cell.name "validate.cell" (fun () ->
      let m = Common.clocked (fun () -> measure_traced ~seed cell) in
      let meas, untraced_insns = m.Common.r in
      let p =
        Common.clocked (fun () -> predict_traced ~seed ~arith_stalls:meas.V.m_arith_ideal cell)
      in
      let pred, traced, drains, parse = p.Common.r in
      outcome cell { m with Common.r = meas } { p with Common.r = pred }
        (Some { untraced_insns; traced; drains; parse; mem = pred.V.p_mem }))

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let sumi f xs = List.fold_left (fun a x -> a + f x) 0 xs

let run ~seed ~seconds ~trace =
  let checks = Check.create () in
  let m = Common.metric in
  let cells, setup_s = Common.setups ~times:(if trace then 1 else 21) setup in
  (* pass 1's statistics, which every later pass must reproduce *)
  let first = Hashtbl.create 4 in
  let check cell o =
    let golden =
      if seed <> Golden.seed then []
      else
        Check.mismatches
          ~expected:
            (List.filter
               (fun (k, _) -> String.starts_with ~prefix:(cell.name ^ ".") k)
               Golden.validate_mix)
          ~actual:o.stats
    in
    let repeat =
      match Hashtbl.find_opt first cell.name with
      | None ->
        Hashtbl.add first cell.name o.stats;
        []
      | Some s -> Check.same ~what:"simulated statistics" s o.stats
    in
    let console = if o.console_ok then [] else [ "traced and untraced consoles differ" ] in
    Check.op checks cell.name (console @ golden @ repeat);
    o
  in
  let pass f = List.map (fun c -> check c (f c)) cells in
  let wall os = sum (fun o -> o.measure_s +. o.predict_s) os in
  let cpu os = sum (fun o -> o.measure_cpu +. o.predict_cpu) os in
  let cell_lines os =
    List.concat
      (List.map2
         (fun c o ->
           [
             m ("validate.cell_s." ^ c.name) "s" (o.measure_s +. o.predict_s);
             m ("validate.pred_err_pct." ^ c.name) "%" o.err_pct;
           ])
         cells os)
  in
  let pred_err os = sum (fun o -> o.err_pct) os /. float_of_int (List.length os) in
  if not trace then begin
    (* peak memory of set-up and one pass, however many passes fit *)
    let rss = ref nan in
    let results =
      Common.passes ~seconds ~min_passes:1 (fun k ->
          let os = pass (api ~seed) in
          if k = 1 then rss := Common.peak_rss_mb "self";
          os)
    in
    let med f = Span.median (List.map f results) in
    let rss = !rss in
    let error_rate = Check.error_rate checks in
    {
      Common.checks;
      end_to_end =
        [
          m "setup_s" "s" setup_s;
          m "result_cpu_s" "s" (med cpu);
          m "mwords_per_cpu_s" "Mwords/s"
            (med (fun os ->
                 float_of_int (sumi (fun o -> o.words) os) /. sum (fun o -> o.predict_cpu) os /. 1e6));
          m "peak_rss_mb" "MB" rss;
          m "success_rate" "frac" (1.0 -. error_rate);
        ];
      per_layer = [];
      report =
        [
          m "measure_s" "s" (med (sum (fun o -> o.measure_s)));
          m "predict_s" "s" (med (sum (fun o -> o.predict_s)));
          m "measure_cpu_s" "s" (med (sum (fun o -> o.measure_cpu)));
          m "predict_cpu_s" "s" (med (sum (fun o -> o.predict_cpu)));
          m "result_wall_s" "s" (med wall);
          m "pred_err_pct" "%" (pred_err (List.hd results));
          m "error_rate" "frac" error_rate;
          m "passes" "count" (float_of_int (List.length results));
        ]
        @ cell_lines (List.hd results);
    }
  end
  else begin
    (* Untraced and traced passes alternate; the traced ones are
       checked against the same pass-1 statistics. *)
    let untraced = ref [] and traced_runs = ref [] in
    ignore
      (Common.passes ~seconds ~min_passes:2 (fun k ->
           if k mod 2 = 1 then begin
             Span.enabled := false;
             untraced := pass (api ~seed) :: !untraced;
             Span.enabled := true
           end
           else begin
             Atomic.set Span.current_pass (k / 2);
             let os, w = Common.timed (fun () -> pass (traced ~seed)) in
             traced_runs := (k / 2, os, w) :: !traced_runs
           end));
    let n = List.length !traced_runs in
    let tagged =
      List.concat_map
        (fun (p, os, _) -> List.filter_map (fun o -> Option.map (fun l -> (p, l)) o.layers) os)
        !traced_runs
    in
    let on f = List.map (fun (p, l) -> (p, f l)) tagged in
    let l =
      Layers.create ~passes:n (Span.all ())
        ~machines:(on (fun l -> l.traced))
        ~drains:(on (fun l -> l.drains))
        ~parses:(on (fun l -> l.parse))
    in
    let overhead =
      Span.median (List.map (fun (_, _, w) -> w) !traced_runs)
      /. Span.median (List.map wall !untraced)
      -. 1.0
    in
    let per_layer = Layers.common l ~overhead ~uncovered:"validate.cell" in
    let untraced_s = Layers.total l "machine.untraced" in
    let memsim_self = Layers.total l "tracesim.parse_sim" -. Layers.total l "tracing.parse" in
    let refs = Layers.count l (fun x -> x) (on (fun l -> l.mem.Memsim.insts + l.mem.Memsim.datas)) in
    (* per cell, from the first traced pass *)
    let _, first_os, _ = List.hd (List.rev !traced_runs) in
    let per_cell =
      List.concat
        (List.map2
           (fun c o ->
             let x = Option.get o.layers in
             let spans name =
               List.filter
                 (fun s -> s.Span.key = c.name && s.Span.name = name && s.Span.pass = 1)
                 l.Layers.spans
             in
             let total name = sum Span.duration (spans name) in
             let self name = sum (Layers.self_of l) (spans name) in
             let counts = x.traced in
             [
               m ("machine.untraced_ns_per_insn." ^ c.name) "ns"
                 (1e9 *. total "machine.untraced" /. float_of_int x.untraced_insns);
               m ("machine.host_ns_per_insn." ^ c.name) "ns"
                 (1e9 *. self "machine.traced" /. float_of_int (List.assoc "insns" counts));
               m ("trace.uncovered_s." ^ c.name) "s" (self "validate.cell");
             ]
             @ List.map
                 (fun (k, v) -> m ("machine." ^ k ^ "." ^ c.name) "count" (float_of_int v))
                 counts)
           cells first_os)
    in
    let report =
      per_layer
      @ [
          m "kernel.build_untraced_s" "s" (Layers.total l "kernel.build_untraced");
          m "machine.untraced_s" "s" untraced_s;
          m "machine.untraced_minsns_per_s" "Minsns/s"
            (Layers.count l (fun x -> x) (on (fun l -> l.untraced_insns)) /. untraced_s /. 1e6);
          m "tracesim.memsim_self_s" "s" memsim_self;
          m "tracesim.refs" "count" refs;
          m "tracesim.ns_per_ref" "ns" (1e9 *. memsim_self /. refs);
          m "traced_passes" "count" (float_of_int n);
        ]
      @ Layers.counts l @ per_cell @ cell_lines first_os @ Layers.span_table l
    in
    { Common.checks; end_to_end = []; per_layer; report }
  end
