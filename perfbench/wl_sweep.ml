(* sweep-store: the offline cache-study journey ([systrace dump -z], then
   [sweep] and [analyze]).

   Set-up captures two traces and boots the system offline analysis
   needs for their block tables and page maps:
     tomcatv/Ultrix   1.96M words, highly compressible (strided FP)
     gcc/Mach         442k words, many pids and drains
   Each pass then
     - writes both traces to v3 through the Tracefile writer, in the
       capture's chunks (the store write sits beside the reads, so a
       codec change that buys decode speed with encode time shows);
     - replays each through [replay_sweep_file] over the CLI's default
       72-config grid, decoded with the CLI's default jobs;
     - replays each once more through [replay_file] with
       [default_memsim_cfg], the single-config path.
   The machine does no work in a pass; memory-system simulation
   dominates it. *)

open Systrace
module Memsim = Tracesim.Memsim
module Builder = Systems.Builder

let traces = [ ("tomcatv", Validate.Ultrix); ("gcc", Validate.Mach) ]

(* [systrace sweep]'s default grid: 4/8/16/64 KB x 4/16/32 B lines x
   16/32/64 TLB entries x 2/4 write-buffer slots. *)
let grid base =
  List.map snd
    (Memsim.grid ~base ~sizes:[ 4096; 8192; 16384; 65536 ] ~lines:[ 4; 16; 32 ]
       ~tlb_entries:[ 16; 32; 64 ] ~wb_depths:[ 2; 4 ] ())

type trace = {
  name : string;
  cap : Systems.capture;
  system : Builder.t;  (* rebuilt for analysis, as the CLI does *)
  single : Memsim.config;
  grid : Memsim.config list;
  path : string;  (* the v3 store *)
}

let setup ~seed () =
  List.map
    (fun (w, os) ->
      let cap = Systems.capture ~seed os w in
      let system = Systems.analysis_system ~seed cap in
      let single = default_memsim_cfg ~system in
      {
        name = w ^ "/" ^ Systems.os_label os;
        cap;
        system;
        single;
        grid = grid single;
        path = Common.work_file (w ^ ".strc");
      })
    traces

let jobs = Systrace_util.Pool.default_jobs ()

type result = {
  stored : int;  (* words the writer reports *)
  swept : Memsim.stats array * Tracing.Parser.stats;
  replayed : Memsim.stats * Tracing.Parser.stats;
}

(* Wall and CPU seconds of each stage, both traces. *)
type pass = {
  store : unit Common.clocked;
  sweep : unit Common.clocked;
  replay : unit Common.clocked;
  results : result list;  (* in [traces] order *)
}

let stage f ts =
  let c = Common.clocked (fun () -> List.map f ts) in
  (c.Common.r, { c with Common.r = () })

(* One pass through the library's entry points, as the CLI makes them. *)
let api ts =
  let stored, store = stage (fun t -> Systems.store t.cap t.path) ts in
  let swept, sweep =
    stage
      (fun t ->
        let st, _, parse = replay_sweep_file ~jobs ~system:t.system ~memsim_cfgs:t.grid t.path in
        (st, parse))
      ts
  in
   let replayed, replay =
    stage (fun t -> replay_file ~system:t.system ~memsim_cfg:t.single t.path) ts
  in
  let results =
    List.map2 (fun stored (swept, replayed) -> { stored; swept; replayed }) stored
      (List.combine swept replayed)
  in
  { store; sweep; replay; results }

(* Layer figures only the traced pass records, per trace. *)
type extra = {
  bytes : int;  (* stored file size *)
  parse : Tracing.Parser.stats;  (* null-handler parse of the chunks *)
}

(* The same pass, built from the layers' parts with a span around each
   call: the sweep and the replay feed their sinks from the reader by
   hand, so time inside the sink (parse + simulate) separates from time
   spent decoding the store.  It also times the reader, the parser and
   the one-config sweep on their own. *)
let traced ts =
  let with_ t name f = Span.with_ ~key:t.name name f in
  let stored, store =
    stage (fun t -> with_ t "tracing.store_write" (fun () -> Systems.store t.cap t.path)) ts
  in
  let swept, sweep =
    stage
      (fun t ->
        with_ t "tracesim.sweep" (fun () ->
            let sink, result = replay_sweep_sink ~system:t.system ~memsim_cfgs:t.grid () in
            Tracing.Tracefile.fold_blocks_parallel ~jobs t.path ~init:() ~f:(fun () w ~len ->
                Span.with_ "tracesim.sweep_feed" (fun () -> sink.Tracing.Sink.on_words w ~len));
            let st, _, parse = result () in
            (st, parse)))
      ts
  in
  let replayed, replay =
    stage
      (fun t ->
        with_ t "tracesim.replay" (fun () ->
            let sink, result = replay_sink ~system:t.system ~memsim_cfg:t.single () in
            Tracing.Tracefile.fold_words t.path ~init:() ~f:(fun () w ~len ->
                Span.with_ "tracesim.replay_feed" (fun () -> sink.Tracing.Sink.on_words w ~len));
            result ()))
      ts
  in
  let extras =
    List.map
      (fun t ->
        with_ t "tracing.store_read" (fun () ->
            Tracing.Tracefile.fold_words t.path ~init:() ~f:(fun () _ ~len:_ -> ()));
        let parse = Systems.null_parse ~key:t.name t.system t.cap.Systems.chunks in
        ignore
          (with_ t "tracesim.sweep1" (fun () ->
               replay_sweep_file ~jobs ~system:t.system ~memsim_cfgs:[ t.single ] t.path));
        ignore
          (with_ t "tracesim.replay1" (fun () ->
               replay_file ~system:t.system ~memsim_cfg:t.single t.path));
        { bytes = Common.file_size t.path; parse })
      ts
  in
  let results =
    List.map2 (fun stored (swept, replayed) -> { stored; swept; replayed }) stored
      (List.combine swept replayed)
  in
  ({ store; sweep; replay; results }, extras)

(* A stable fingerprint of every configuration's statistics. *)
let fingerprint (a : Memsim.stats array) =
  int_of_string ("0x" ^ String.sub (Digest.to_hex (Digest.string (Marshal.to_string a []))) 0 15)

let stats t r =
  let k s = t.name ^ "." ^ s in
  let grid, gparse = r.swept and (single : Memsim.stats), _ = r.replayed in
  let total f = Array.fold_left (fun a s -> a + f s) 0 grid in
  [
    (k "trace_words", gparse.Tracing.Parser.words);
    (k "grid_icache_misses", total (fun s -> s.Memsim.icache_misses));
    (k "grid_dcache_read_misses", total (fun s -> s.Memsim.dcache_read_misses));
    (k "grid_utlb_misses", total (fun s -> s.Memsim.utlb_misses));
    (k "grid_wb_stalls", total (fun s -> s.Memsim.wb_stalls));
    (k "grid_fingerprint", fingerprint grid);
    (k "replay_icache_misses", single.Memsim.icache_misses);
    (k "replay_dcache_read_misses", single.Memsim.dcache_read_misses);
    (k "replay_utlb_misses", single.Memsim.utlb_misses);
    (k "replay_wb_stalls", single.Memsim.wb_stalls);
  ]

let run ~seed ~seconds ~trace =
  let checks = Check.create () in
  let m = Common.metric in
  let ts, setup_s = Common.setups ~times:(if trace then 1 else 3) (setup ~seed) in
  let first = Hashtbl.create 2 in
  (* Operations per trace and pass: the store, the sweep, the replay. *)
  let check p =
    List.iter2
      (fun t r ->
        let words = t.cap.Systems.words in
        let st = stats t r in
        Check.op checks (t.name ^ " store")
          (if r.stored = words then []
           else [ Printf.sprintf "stored %d of %d words" r.stored words ]);
        let golden =
          if seed <> Golden.seed then []
          else
            Check.mismatches
              ~expected:
                (List.filter
                   (fun (k, _) -> String.starts_with ~prefix:(t.name ^ ".") k)
                   Golden.sweep_store)
              ~actual:st
        in
        let repeat =
          match Hashtbl.find_opt first t.name with
          | None ->
            Hashtbl.add first t.name st;
            []
          | Some s -> Check.same ~what:"simulated statistics" s st
        in
        let words_seen (_, (p : Tracing.Parser.stats)) what =
          if p.Tracing.Parser.words = words then []
          else [ Printf.sprintf "%s parsed %d of %d words" what p.Tracing.Parser.words words ]
        in
        Check.op checks (t.name ^ " sweep") (words_seen r.swept "sweep" @ golden @ repeat);
        Check.op checks (t.name ^ " replay") (words_seen r.replayed "replay"))
      ts p.results;
    p
  in
  (* Spot-check one seeded grid point per trace against its own
     single-config replay. *)
  let spot p =
    let rng = Random.State.make [| seed |] in
    List.iter2
      (fun t r ->
        let i = Random.State.int rng (List.length t.grid) in
        let single, _ = replay_file ~system:t.system ~memsim_cfg:(List.nth t.grid i) t.path in
        Check.op checks
          (Printf.sprintf "%s grid point %d" t.name i)
          (if (fst r.swept).(i) = single then []
           else [ "sweep differs from its single-config replay" ]))
      ts p.results
  in
  let words = float_of_int (List.fold_left (fun a t -> a + t.cap.Systems.words) 0 ts) in
  let wall p = p.store.Common.wall +. p.sweep.Common.wall +. p.replay.Common.wall in
  let cpu p = p.store.Common.cpu_s +. p.sweep.Common.cpu_s +. p.replay.Common.cpu_s in
  if not trace then begin
    (* peak memory of set-up and one pass, however many passes fit *)
    let rss = ref nan in
    let ps =
      Common.passes ~seconds ~min_passes:1 (fun k ->
          let p = check (api ts) in
          if k = 1 then rss := Common.peak_rss_mb "self";
          p)
    in
    spot (List.hd ps);
    let med f = Span.median (List.map f ps) in
    let rss = !rss in
    let error_rate = Check.error_rate checks in
    List.iter (fun t -> Common.remove_quietly t.path) ts;
    {
      Common.checks;
      end_to_end =
        [
          m "setup_s" "s" setup_s;
          m "result_cpu_s" "s" (med cpu);
          m "mwords_per_cpu_s" "Mwords/s" (med (fun p -> words /. p.sweep.Common.cpu_s /. 1e6));
          m "peak_rss_mb" "MB" rss;
          m "success_rate" "frac" (1.0 -. error_rate);
        ];
      per_layer = [];
      report =
        [
          m "store_s" "s" (med (fun p -> p.store.Common.wall));
          m "sweep_s" "s" (med (fun p -> p.sweep.Common.wall));
          m "replay_s" "s" (med (fun p -> p.replay.Common.wall));
          m "store_cpu_s" "s" (med (fun p -> p.store.Common.cpu_s));
          m "sweep_cpu_s" "s" (med (fun p -> p.sweep.Common.cpu_s));
          m "replay_cpu_s" "s" (med (fun p -> p.replay.Common.cpu_s));
          m "result_wall_s" "s" (med wall);
          m "error_rate" "frac" error_rate;
          m "passes" "count" (float_of_int (List.length ps));
        ];
    }
  end
  else begin
    let untraced = ref [] and traced_runs = ref [] in
    ignore
      (Common.passes ~seconds ~min_passes:2 (fun k ->
           if k mod 2 = 1 then begin
             Span.enabled := false;
             untraced := wall (check (api ts)) :: !untraced;
             Span.enabled := true
           end
           else begin
             Atomic.set Span.current_pass (k / 2);
             let (p, extras), w = Common.timed (fun () -> traced ts) in
             ignore (check p);
             traced_runs := (k / 2, extras, w) :: !traced_runs
           end));
    let n = List.length !traced_runs in
    let extras = List.concat_map (fun (p, xs, _) -> List.map (fun x -> (p, x)) xs) !traced_runs in
    let caps = List.map (fun t -> (0, t.cap)) ts in
    let l =
      Layers.create ~passes:n (Span.all ())
        ~machines:(List.map (fun (p, c) -> (p, c.Systems.counts)) caps)
        ~drains:(List.map (fun (p, c) -> (p, c.Systems.drains)) caps)
        ~parses:(List.map (fun (p, x) -> (p, x.parse)) extras)
    in
    let overhead =
      Span.median (List.map (fun (_, _, w) -> w) !traced_runs) /. Span.median !untraced -. 1.0
    in
    let per_layer = Layers.common l ~overhead ~uncovered:"tracesim.sweep" in
    let parse_s = Layers.total l "tracing.parse" in
    let refs =
      Layers.count l (fun x -> x)
        (List.map (fun (p, x) -> (p, x.parse.Tracing.Parser.insts + x.parse.Tracing.Parser.datas)) extras)
    in
    let configs = float_of_int (List.length (List.hd ts).grid) in
    let sweep_self = Layers.total l "tracesim.sweep_feed" -. parse_s in
    let memsim_self = Layers.total l "tracesim.replay_feed" -. parse_s in
    let bytes = Layers.count l (fun x -> x.bytes) extras in
    let report =
      per_layer
      @ [
          m "tracing.store_write_s" "s" (Layers.total l "tracing.store_write");
          m "tracing.store_bytes" "bytes" bytes;
          m "tracing.store_ratio" "x" (4.0 *. words /. bytes);
          m "tracing.store_read_s" "s" (Layers.total l "tracing.store_read");
          m "tracesim.sweep_self_s" "s" sweep_self;
          m "tracesim.configs" "count" configs;
          m "tracesim.ns_per_ref_config" "ns" (1e9 *. sweep_self /. (refs *. configs));
          m "tracesim.memsim_self_s" "s" memsim_self;
          m "tracesim.refs" "count" refs;
          m "tracesim.ns_per_ref" "ns" (1e9 *. memsim_self /. refs);
          m "tracesim.sweep1_over_replay1" "x"
            (Layers.total l "tracesim.sweep1" /. Layers.total l "tracesim.replay1");
          m "trace.uncovered_frac.replay" "frac" (Layers.uncovered_frac l "tracesim.replay");
          m "traced_passes" "count" (float_of_int n);
        ]
      @ Layers.counts l @ Layers.span_table l
    in
    List.iter (fun t -> Common.remove_quietly t.path) ts;
    { Common.checks; end_to_end = []; per_layer; report }
  end
