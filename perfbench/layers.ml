(* Per-layer metrics of a traced run, from its spans and the counts taken
   at the same layer boundaries.

   Every figure describes one set-up plus one average traced pass: spans
   and counts of the set-up (pass 0) are summed, those of the traced
   passes are summed and divided by the number of passes. *)

module Parser = Systrace.Tracing.Parser

type t = {
  passes : int;
  spans : Span.t list;
  self : (int, float) Hashtbl.t;  (* span id -> self time *)
  machines : (int * (string * int) list) list;
      (* (pass, counters of a halted traced machine) *)
  drains : (int * Systems.drains) list;  (* of the same runs *)
  parses : (int * Parser.stats) list;  (* null-handler parses *)
}

let create ~passes ~machines ~drains ~parses spans =
  let self = Hashtbl.create 256 in
  List.iter (fun (s, x) -> Hashtbl.replace self s.Span.id x) (Span.self_times spans);
  { passes; spans; self; machines; drains; parses }

let count t f xs =
  Span.per_pass ~passes:t.passes (List.map (fun (p, x) -> (p, float_of_int (f x))) xs)

let total t name = Span.named ~passes:t.passes t.spans Span.duration name
let self_of t s = Hashtbl.find t.self s.Span.id
let self t name = Span.named ~passes:t.passes t.spans (self_of t) name

(* Share of the [name] spans' wall time that no child span covers. *)
let uncovered_frac t name =
  let ss = List.filter (fun s -> s.Span.name = name) t.spans in
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 ss in
  sum (self_of t) /. sum Span.duration

let gc t f =
  Span.per_pass ~passes:t.passes
    (List.filter_map
       (fun s -> if s.Span.parent = -1 then Some (s.Span.pass, f s) else None)
       t.spans)

(* The metrics every workload reports (the BENCHMARK.json per_layer
   list), given its tracing overhead and the spans whose uncovered share
   it reports. *)
let common t ~overhead ~uncovered =
  let m = Common.metric in
  let machine_count name = count t (List.assoc name) t.machines in
  let insns = machine_count "insns" in
  let traced_self = self t "machine.traced" in
  let phases = count t (fun d -> d.Systems.phases) t.drains in
  let parse_s = total t "tracing.parse" in
  let words = count t (fun p -> p.Parser.words) t.parses in
  [
    m "workloads.assemble_s" "s" (total t "workloads.assemble");
    m "kernel.build_traced_s" "s" (total t "kernel.build_traced");
    m "kernel.analyze_phases" "count" phases;
    m "kernel.words_per_phase" "words"
      (count t (fun d -> d.Systems.phase_words) t.drains /. Float.max 1.0 phases);
    m "kernel.drain_final_s" "s" (self t "kernel.drain_final");
    m "machine.traced_self_s" "s" traced_self;
    m "machine.traced_minsns_per_s" "Minsns/s" (insns /. traced_self /. 1e6);
    m "machine.host_ns_per_insn" "ns" (1e9 *. traced_self /. insns);
    m "machine.insns" "count" insns;
    m "machine.dcache_misses" "count" (machine_count "dcache_misses");
    m "tracing.parse_s" "s" parse_s;
    m "tracing.parse_mwords_per_s" "Mwords/s" (words /. parse_s /. 1e6);
    m "tracing.words" "words" words;
    m "tracing.drains" "count" (count t (fun p -> p.Parser.drains) t.parses);
    m "tracing.pid_switches" "count" (count t (fun p -> p.Parser.pid_switches) t.parses);
    m "gc.minor_mwords" "Mwords" (gc t (fun s -> s.Span.minor_words) /. 1e6);
    m "gc.major_mwords" "Mwords" (gc t (fun s -> s.Span.major_words) /. 1e6);
    m "trace.overhead_frac" "frac" overhead;
    m "trace.uncovered_frac" "frac" (uncovered_frac t uncovered);
  ]

(* Machine counters and parse counts the common list leaves out. *)
let counts t =
  let m = Common.metric in
  (match t.machines with
  | [] -> []
  | (_, counts) :: _ ->
    List.filter_map
      (fun (name, _) ->
        if name = "insns" || name = "dcache_misses" then None
        else Some (m ("machine." ^ name) "count" (count t (List.assoc name) t.machines)))
      counts)
  @ [ m "tracing.bb_records" "count" (count t (fun p -> p.Parser.bb_records) t.parses) ]

(* Per span name: total and self time and GC words, one set-up plus one
   average pass. *)
let span_table t =
  let m = Common.metric in
  let names = List.sort_uniq compare (List.map (fun s -> s.Span.name) t.spans) in
  List.concat_map
    (fun name ->
      let f g = Span.named ~passes:t.passes t.spans g name in
      [
        m ("span." ^ name ^ ".total_s") "s" (f Span.duration);
        m ("span." ^ name ^ ".self_s") "s" (f (self_of t));
        m ("span." ^ name ^ ".minor_mwords") "Mwords" (f (fun s -> s.Span.minor_words) /. 1e6);
        m ("span." ^ name ^ ".major_mwords") "Mwords" (f (fun s -> s.Span.major_words) /. 1e6);
      ])
    names
