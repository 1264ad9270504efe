(* The end-to-end, per-layer benchmark (see README.md).

     main.exe --workload W --seed N --seconds S --trace 0|1 [--rate R]

   Runs one workload for S seconds, checks every output, prints each
   figure it measured by name with its unit, appends a result line to
   perfbench/_run/results.jsonl, and ends with one JSON line: the
   end-to-end metrics (--trace 0) or the per-layer metrics of a run with
   spans recorded (--trace 1).  Exits non-zero if any check found a
   problem other than the known defect. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload validate-mix|sweep-store|serve-ingest --seed N \
     --seconds S --trace 0|1 [--rate STREAMS_PER_S]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rate = ref 30.0 in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := t = "1"; parse rest
    | "--rate" :: r :: rest -> rate := float_of_string r; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match !workload with
    | "validate-mix" -> Wl_validate.run
    | "sweep-store" -> Wl_sweep.run
    | "serve-ingest" -> Wl_serve.run ~rate:!rate
    | _ -> usage ()
  in
  if !seconds <= 0.0 || !rate <= 0.0 then usage ();
  Common.ensure_work_dir ();
  Span.enabled := !trace;
  let r, wall = Common.timed (fun () -> run ~seed:!seed ~seconds:!seconds ~trace:!trace) in
  let c = r.Common.checks in
  let commit = Common.commit () in
  let facts =
    [
      ("workload", Span.json_string !workload);
      ("seed", string_of_int !seed);
      ("trace", string_of_bool !trace);
      ("seconds", Common.json_float !seconds);
      ("nproc", string_of_int (Common.nproc ()));
      ("ocaml", Span.json_string Sys.ocaml_version);
      ("commit", match commit with Some s -> Span.json_string s | None -> "null");
      ("source_digest", Span.json_string (Common.source_digest ()));
      ("time", Common.json_float (Unix.time ()));
      ("wall_s", Common.json_float wall);
    ]
  in
  Printf.printf "%s seed %d%s: %d operations, %d failed (%d the known defect)\n"
    !workload !seed (if !trace then " traced" else "") c.Check.attempted c.Check.failed
    c.Check.known_defect;
  Printf.printf "host: nproc %d, OCaml %s, commit %s\n" (Common.nproc ()) Sys.ocaml_version
    (Option.value commit ~default:"unknown");
  List.iter (Printf.printf "PROBLEM %s\n") (List.rev c.Check.problems);
  let metrics = if !trace then r.Common.per_layer else r.Common.end_to_end in
  print_endline (if !trace then "per-layer metrics:" else "end-to-end metrics:");
  Common.print_report metrics;
  let others =
    List.filter
      (fun x -> not (List.exists (fun m -> m.Common.name = x.Common.name) metrics))
      r.Common.report
  in
  print_endline "other figures:";
  Common.print_report others;
  if !trace then
    Span.write (Common.work_file (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed)) (Span.all ());
  let finite = List.for_all (fun m -> Float.is_finite m.Common.value) metrics in
  if not finite then Check.problem c "a metric is not a finite number";
  let correct = Check.correct c in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644
      (Filename.concat Common.work_dir "results.jsonl")
  in
  Printf.fprintf oc "{%s, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"known_defect\": %d, \"metrics\": {%s}}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) facts))
    correct c.Check.attempted c.Check.failed c.Check.known_defect
    (Common.json_metrics (if finite then metrics @ others else []));
  close_out oc;
  if finite then
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      correct c.Check.attempted c.Check.failed (Common.json_metrics metrics);
  exit (if correct then 0 else 1)
