(* Self-tests of the benchmark: its percentile and self-time arithmetic
   on fixed inputs, and each output check firing on a deliberately wrong
   input. *)

open Perfbench

let feq = Alcotest.float 1e-9

let span ?(parent = -1) ?(pass = 0) id start stop =
  { Span.id; name = "s"; key = ""; parent; pass; start; stop; minor_words = 0.0; major_words = 0.0 }

let test_percentile () =
  let xs = [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.check feq "p0" 1.0 (Span.percentile xs 0.0);
  Alcotest.check feq "p50" 2.5 (Span.percentile xs 50.0);
  Alcotest.check feq "p95" 3.85 (Span.percentile xs 95.0);
  Alcotest.check feq "p100" 4.0 (Span.percentile xs 100.0);
  Alcotest.check feq "one sample" 7.0 (Span.median [ 7.0 ]);
  Alcotest.check_raises "no samples" (Invalid_argument "percentile: no samples") (fun () ->
      ignore (Span.median []))

let test_self_time () =
  (* children [1,3] and [2,5] overlap, [7,8] stands alone, [9,12] runs
     past the parent's end: 4 + 1 + 1 of the parent's 10 s are covered *)
  let parent = span 0 0.0 10.0 in
  let kids =
    [ span ~parent:0 1 1.0 3.0; span ~parent:0 2 2.0 5.0; span ~parent:0 3 7.0 8.0;
      span ~parent:0 4 9.0 12.0 ]
  in
  Alcotest.check feq "union" 4.0 (Span.union_length [ (1.0, 3.0); (2.0, 5.0) ]);
  Alcotest.check feq "uncovered" 4.0 (Span.uncovered parent kids);
  let selfs = Span.self_times (parent :: kids) in
  Alcotest.check feq "parent self" 4.0 (List.assoc parent selfs);
  Alcotest.check feq "leaf self" 2.0 (List.assq (List.nth kids 0) selfs)

let test_per_pass () =
  (* one set-up span plus the mean of two traced passes *)
  let ss = [ span 0 0.0 1.0; span ~pass:1 1 0.0 2.0; span ~pass:2 2 0.0 4.0 ] in
  Alcotest.check feq "per pass" 4.0 (Span.named ~passes:2 ss Span.duration "s")

let test_recorded_spans () =
  Span.reset ();
  Span.enabled := true;
  Span.with_ ~key:"cell" "outer" (fun () -> Span.with_ "inner" (fun () -> Unix.sleepf 0.01));
  Span.enabled := false;
  match Span.all () with
  | [ outer; inner ] ->
    Alcotest.(check int) "parent" outer.Span.id inner.Span.parent;
    Alcotest.(check string) "key inherited" "cell" inner.Span.key;
    let self = List.assq outer (Span.self_times [ outer; inner ]) in
    Alcotest.(check bool) "self = span - child" true
      (Float.abs (self -. (Span.duration outer -. Span.duration inner)) < 1e-9)
  | _ -> Alcotest.fail "expected two spans"

let test_golden_perturbed () =
  let actual = Golden.validate_mix in
  Alcotest.(check (list string)) "golden matches itself" []
    (Check.mismatches ~expected:Golden.validate_mix ~actual);
  let perturbed = List.mapi (fun i (k, v) -> if i = 3 then (k, v + 1) else (k, v)) actual in
  let k, v = List.nth actual 3 in
  Alcotest.(check (list string)) "perturbed golden fires"
    [ Printf.sprintf "%s = %d, golden %d" k v (v + 1) ]
    (Check.mismatches ~expected:perturbed ~actual);
  Alcotest.(check int) "missing statistic fires" 1
    (List.length (Check.mismatches ~expected:Golden.sweep_store ~actual:(List.tl Golden.sweep_store)))

let reply ?(dropped = 0) ?(diagnoses = 0) words =
  Some
    { Systrace_serve.Client.r_words = words; r_frames = 3; r_dropped_words = dropped;
      r_dropped_frames = (if dropped > 0 then 1 else 0); r_diagnoses = diagnoses }

let verdict =
  Alcotest.testable
    (fun f v ->
      Format.pp_print_string f
        (match v with Check.Pass -> "pass" | Known_defect -> "known defect" | Bad m -> "bad: " ^ m))
    (fun a b ->
      match (a, b) with
      | Check.Bad _, Check.Bad _ -> true
      | a, b -> a = b)

let test_clean_reply () =
  let check name expected r = Alcotest.check verdict name expected (Check.clean_reply ~sent:100 ~defect:1 r) in
  check "all words" Check.Pass (reply 100);
  check "short by one word" (Check.Bad "") (reply 99);
  check "dropped words" (Check.Bad "") (reply ~dropped:5 100);
  check "the known defect's diagnosis" Check.Known_defect (reply ~diagnoses:1 100);
  check "one diagnosis too many" (Check.Bad "") (reply ~diagnoses:2 100);
  check "no reply" (Check.Bad "") None;
  Alcotest.check verdict "no defect expected" (Check.Bad "")
    (Check.clean_reply ~sent:100 ~defect:0 (reply ~diagnoses:1 100))

let test_torn_reply () =
  Alcotest.check verdict "diagnosed" Check.Pass
    (Check.torn_reply (Some "err connection cut mid-frame: 3 word(s) short"));
  Alcotest.check verdict "undiagnosed torn stream" (Check.Bad "")
    (Check.torn_reply (Some "ok words=10 frames=1 dropped_words=0 dropped_frames=0 diagnoses=0"));
  Alcotest.check verdict "no reply" (Check.Bad "") (Check.torn_reply None)

let test_accounting () =
  let c = Check.create () in
  Check.record c Check.Pass;
  Check.record c Check.Known_defect;
  Alcotest.(check bool) "known defect keeps the run correct" true (Check.correct c);
  Alcotest.check feq "but counts as failed" 0.5 (Check.error_rate c);
  Check.op c "cell" [ "consoles differ" ];
  Alcotest.(check bool) "a problem makes it incorrect" false (Check.correct c);
  Alcotest.(check (list int)) "attempted, failed, known" [ 3; 2; 1 ]
    [ c.Check.attempted; c.Check.failed; c.Check.known_defect ]

let () =
  Alcotest.run "perfbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "per pass" `Quick test_per_pass;
          Alcotest.test_case "recorded spans" `Quick test_recorded_spans;
        ] );
      ( "checks",
        [
          Alcotest.test_case "perturbed golden" `Quick test_golden_perturbed;
          Alcotest.test_case "clean reply" `Quick test_clean_reply;
          Alcotest.test_case "torn reply" `Quick test_torn_reply;
          Alcotest.test_case "failure accounting" `Quick test_accounting;
        ] );
    ]
