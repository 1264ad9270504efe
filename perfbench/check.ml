(* Output checks and failure accounting.

   Every operation (a validate cell, a store/sweep/replay of one trace,
   one stream) is counted as attempted, and as failed when any check on
   its output fails.  A failure either matches the known defect recorded
   in CHANGES.md — it still counts as failed, and is reported apart — or
   is a problem: any problem makes the run incorrect and the benchmark
   exit non-zero. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable known_defect : int;
  mutable problems : string list;  (* newest first *)
}

let create () = { attempted = 0; failed = 0; known_defect = 0; problems = [] }

type verdict = Pass | Known_defect | Bad of string

let record t = function
  | Pass -> t.attempted <- t.attempted + 1
  | Known_defect ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    t.known_defect <- t.known_defect + 1
  | Bad msg ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    t.problems <- msg :: t.problems

(* One operation whose checks produced these problems (none = pass). *)
let op t what = function
  | [] -> record t Pass
  | msgs -> record t (Bad (what ^ ": " ^ String.concat "; " msgs))

(* A failure outside any single operation (e.g. daemon counters). *)
let problem t msg = t.problems <- msg :: t.problems

let correct t = t.problems = []

let error_rate t =
  if t.attempted = 0 then 1.0
  else float_of_int t.failed /. float_of_int t.attempted

(* Named integer statistics against a recorded golden: one message per
   statistic that differs, is missing, or was not recorded. *)
let mismatches ~expected ~actual =
  let missing =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k actual with
        | None -> Some (Printf.sprintf "%s missing (golden %d)" k v)
        | Some a when a <> v -> Some (Printf.sprintf "%s = %d, golden %d" k a v)
        | Some _ -> None)
      expected
  in
  let extra =
    List.filter_map
      (fun (k, a) ->
        if List.mem_assoc k expected then None
        else Some (Printf.sprintf "%s = %d has no golden" k a))
      actual
  in
  missing @ extra

(* [same ~what a b]: a later pass must reproduce the first exactly. *)
let same ~what a b = if a = b then [] else [ what ^ " differs from pass 1" ]

(* A clean stream's reply must count every word sent, drop none, and
   carry no diagnosis — except exactly the [defect] spurious ones the
   known defect adds to every clean stream of this trace (0 if none). *)
let clean_reply ~sent ~defect (r : Systrace_serve.Client.reply option) =
  match r with
  | None -> Bad "clean stream: no reply"
  | Some r ->
    let open Systrace_serve.Client in
    if r.r_words <> sent then
      Bad (Printf.sprintf "clean stream: reply counts %d of %d words" r.r_words sent)
    else if r.r_dropped_words <> 0 || r.r_dropped_frames <> 0 then
      Bad
        (Printf.sprintf "clean stream: %d words / %d frames dropped"
           r.r_dropped_words r.r_dropped_frames)
    else if r.r_diagnoses = 0 then Pass
    else if defect > 0 && r.r_diagnoses = defect then Known_defect
    else Bad (Printf.sprintf "clean stream: %d diagnoses" r.r_diagnoses)

(* A torn stream must come back diagnosed: an "err" reply line. *)
let torn_reply (line : string option) =
  match line with
  | Some l when String.length l >= 4 && String.sub l 0 4 = "err " -> Pass
  | Some l -> Bad ("torn stream not diagnosed: " ^ l)
  | None -> Bad "torn stream: no reply"
