(* Tests for the trace format and parsing library, using hand-built static
   block tables and synthetic trace words. *)

open Systrace_tracing

let check_int = Alcotest.(check int)
let check = Alcotest.(check bool)

(* A kernel table with two blocks:
     record 0x80100000 -> orig 0x80200000, 4 insns, loads at pos 1, store at 3
     record 0x80100040 -> orig 0x80200100, 2 insns, no mems            *)
let kernel_table () =
  let t = Bbtable.create () in
  Bbtable.add t ~record_addr:0x80100000
    {
      Bbtable.orig_addr = 0x80200000;
      ninsns = 4;
      mems = [| (1, 4, true); (3, 4, false) |];
      flags = 0;
    };
  Bbtable.add t ~record_addr:0x80100040
    { Bbtable.orig_addr = 0x80200100; ninsns = 2; mems = [||]; flags = 0 };
  Bbtable.add t ~record_addr:0x80100080
    {
      Bbtable.orig_addr = 0x80200200;
      ninsns = 3;
      mems = [||];
      flags = Bbtable.flag_idle;
    };
  t

let user_table () =
  let t = Bbtable.create () in
  Bbtable.add t ~record_addr:0x00410000
    {
      Bbtable.orig_addr = 0x00400000;
      ninsns = 3;
      mems = [| (0, 4, true); (2, 1, false) |];
      flags = 0;
    };
  t

type ev =
  | I of int * bool          (* addr, kernel *)
  | D of int * bool * bool   (* addr, kernel, is_load *)

let collect () =
  let evs = ref [] in
  let h =
    {
      Parser.on_inst = (fun addr _pid kernel -> evs := I (addr, kernel) :: !evs);
      on_data =
        (fun addr _pid kernel is_load _bytes ->
          evs := D (addr, kernel, is_load) :: !evs);
    }
  in
  (h, fun () -> List.rev !evs)

let parse words =
  let p = Parser.create ~kernel_bbs:(kernel_table ()) () in
  Parser.register_pid p ~pid:1 (user_table ());
  let h, get = collect () in
  Parser.set_handlers p h;
  Parser.feed p (Array.of_list words) ~len:(List.length words);
  Parser.finish p;
  (Parser.stats p, get ())

let test_kernel_block () =
  let stats, evs = parse [ 0x80100000; 0xC0000123; 0x80300040 ] in
  check_int "insts" 4 stats.Parser.insts;
  check_int "datas" 2 stats.Parser.datas;
  Alcotest.(check (list (pair int bool)))
    "event order"
    [
      (0x80200000, true);   (* I pos 0 *)
      (0x80200004, true);   (* I pos 1 (the load) *)
      (0xC0000123, true);   (* D load *)
      (0x80200008, true);   (* I pos 2 *)
      (0x8020000C, true);   (* I pos 3 (the store) *)
      (0x80300040, true);   (* D store *)
    ]
    (List.map
       (function I (a, k) -> (a, k) | D (a, k, _) -> (a, k))
       evs);
  (* Check load/store direction came through. *)
  (match evs with
  | [ _; _; D (_, _, true); _; _; D (_, _, false) ] -> ()
  | _ -> Alcotest.fail "wrong event shapes")

let test_no_mem_block () =
  let stats, _ = parse [ 0x80100040 ] in
  check_int "insts" 2 stats.Parser.insts;
  check_int "datas" 0 stats.Parser.datas

let test_nested_exception_mid_block () =
  (* The first block is interrupted after its first data word by an
     exception whose handler runs the no-mem block; then the first block
     completes. *)
  let words =
    [
      0x80100000;                                 (* bb A *)
      0xC0000123;                                 (* A data 1 *)
      Format_.marker_word (Format_.Exc_enter 0);
      0x80100040;                                 (* nested bb B *)
      Format_.marker_word Format_.Exc_exit;
      0x80300040;                                 (* A data 2 *)
    ]
  in
  let stats, evs = parse words in
  check_int "insts" 6 stats.Parser.insts;
  check_int "max depth" 1 stats.Parser.max_exc_depth;
  (* Nested block's instructions appear between A's data words. *)
  let addrs = List.map (function I (a, _) -> a | D (a, _, _) -> a) evs in
  Alcotest.(check (list int)) "interleaving"
    [
      0x80200000; 0x80200004; 0xC0000123;         (* A up to data 1 *)
      0x80200100; 0x80200104;                     (* B *)
      0x80200008; 0x8020000C; 0x80300040;         (* A completes *)
    ]
    addrs

let test_user_drain () =
  let words =
    [
      Format_.marker_word (Format_.Pid_switch 1);
      Format_.marker_word (Format_.Drain 1);
      3;
      0x00410000;    (* user bb *)
      0x00500000;    (* data 1 (load) *)
      0x00500004;    (* data 2 (store byte) *)
    ]
  in
  let stats, evs = parse words in
  check_int "user insts" 3 stats.Parser.user_insts;
  check_int "user datas" 2 stats.Parser.user_datas;
  check_int "drains" 1 stats.Parser.drains;
  check "all user events" true
    (List.for_all (function I (_, k) | D (_, k, _) -> not k) evs)

let test_drain_split_mid_block () =
  (* A user block's record arrives in one drain and its data words in a
     later one — exactly what happens when an exception interrupts a traced
     process between memory references. *)
  let words =
    [
      Format_.marker_word (Format_.Drain 1);
      2;
      0x00410000;
      0x00500000;
      (* kernel activity between the drains *)
      0x80100040;
      Format_.marker_word (Format_.Drain 1);
      1;
      0x00500004;
    ]
  in
  let stats, _ = parse words in
  check_int "user insts" 3 stats.Parser.user_insts;
  check_int "kernel insts" 2 stats.Parser.kernel_insts;
  check_int "user datas" 2 stats.Parser.user_datas

let test_idle_flag () =
  let stats, _ = parse [ 0x80100080 ] in
  check_int "idle insts counted" 3 stats.Parser.idle_insts

let expect_corrupt words =
  match parse words with
  | exception Parser.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let test_defensive_unknown_record () = expect_corrupt [ 0x80777700 ]

let test_defensive_data_without_block () =
  (* A data-looking kernel word with no open block fails the bb lookup. *)
  expect_corrupt [ 0xC0000123 ]

let test_defensive_surplus_data () =
  (* A completed block followed by a stray data address: the stray word is
     interpreted as a block record and fails the table lookup.  (A stray
     word that happens to equal a record address is undetectable — the
     paper's format detects corruption "with a very high probability", not
     certainty.) *)
  expect_corrupt [ 0x80100000; 0xC0000123; 0x80300040; 0xC0000999 ]

let test_defensive_exc_exit_underflow () =
  expect_corrupt [ Format_.marker_word Format_.Exc_exit ]

let test_defensive_marker_in_drain () =
  expect_corrupt
    [
      Format_.marker_word (Format_.Drain 1);
      2;
      Format_.marker_word (Format_.Pid_switch 1);
      0x00410000;
    ]

let test_defensive_incomplete_at_finish () =
  expect_corrupt [ 0x80100000; 0xC0000123 ]

let test_defensive_kernel_addr_in_drain () =
  expect_corrupt [ Format_.marker_word (Format_.Drain 1); 1; 0x80100040 ]

let test_marker_roundtrip () =
  let ms =
    [
      Format_.Pid_switch 5;
      Format_.Drain 2;
      Format_.Exc_enter 8;
      Format_.Exc_exit;
      Format_.Mode 1;
      Format_.Trace_onoff 0;
      Format_.Thread_switch 3;
      Format_.End;
    ]
  in
  List.iter
    (fun m ->
      let w = Format_.marker_word m in
      check "in marker range" true (Format_.is_marker w);
      check "roundtrip" true (Format_.decode_marker w = m))
    ms

let test_mode_transitions () =
  let words =
    [
      0x80100040;
      Format_.marker_word (Format_.Mode 1);
      Format_.marker_word (Format_.Mode 0);
      0x80100040;
    ]
  in
  let stats, _ = parse words in
  check_int "transitions" 2 stats.Parser.mode_transitions

let prop_marker_roundtrip =
  QCheck.Test.make ~count:500 ~name:"marker word roundtrip"
    QCheck.(pair (int_bound 7) (int_bound 0xFFF))
    (fun (kind, arg) ->
      let w = Format_.make_marker kind arg in
      Format_.is_marker w
      && (w lsr 12) land 0xF = kind
      && w land 0xFFF = arg)

let tests =
  [
    Alcotest.test_case "kernel block parse" `Quick test_kernel_block;
    Alcotest.test_case "block without mems" `Quick test_no_mem_block;
    Alcotest.test_case "nested exception mid-block" `Quick
      test_nested_exception_mid_block;
    Alcotest.test_case "user drain" `Quick test_user_drain;
    Alcotest.test_case "drain split mid-block" `Quick test_drain_split_mid_block;
    Alcotest.test_case "idle flag counting" `Quick test_idle_flag;
    Alcotest.test_case "defensive: unknown record" `Quick
      test_defensive_unknown_record;
    Alcotest.test_case "defensive: data without block" `Quick
      test_defensive_data_without_block;
    Alcotest.test_case "defensive: surplus data word" `Quick
      test_defensive_surplus_data;
    Alcotest.test_case "defensive: exc exit underflow" `Quick
      test_defensive_exc_exit_underflow;
    Alcotest.test_case "defensive: marker in drain" `Quick
      test_defensive_marker_in_drain;
    Alcotest.test_case "defensive: incomplete at finish" `Quick
      test_defensive_incomplete_at_finish;
    Alcotest.test_case "defensive: kernel addr in drain" `Quick
      test_defensive_kernel_addr_in_drain;
    Alcotest.test_case "marker roundtrip" `Quick test_marker_roundtrip;
    Alcotest.test_case "mode transitions" `Quick test_mode_transitions;
    QCheck_alcotest.to_alcotest prop_marker_roundtrip;
  ]

(* ------------------------------------------------------------------ *)
(* Property: the parser reconstructs exactly the schedule that generated
   the trace.  Random kernel-block schedules with bounded exception
   nesting are serialized to words (records, data addresses, EXC
   markers); random user-block sequences are split across drain blocks at
   random points.  Parsed instruction/data counts must match the
   schedule's. *)

type kaction =
  | KBlock of int           (* index into the kernel table *)
  | KNest of kaction list   (* EXC_ENTER ... EXC_EXIT *)

let ktable_entries =
  [|
    (0x80100000, 0x80200000, 4, [| (1, 4, true); (3, 4, false) |]);
    (0x80100040, 0x80200100, 2, [||]);
    (0x80100080, 0x80200200, 3, [||]);
    (0x801000C0, 0x80200300, 6, [| (0, 4, true); (2, 1, false); (5, 4, true) |]);
  |]

let synth_kernel_table () =
  let t = Bbtable.create () in
  Array.iter
    (fun (rec_addr, orig, n, mems) ->
      Bbtable.add t ~record_addr:rec_addr
        { Bbtable.orig_addr = orig; ninsns = n; mems; flags = 0 })
    ktable_entries;
  t

let gen_kactions =
  let open QCheck.Gen in
  sized_size (int_range 1 12) @@ fix (fun self n ->
      if n <= 1 then map (fun k -> KBlock k) (int_range 0 3)
      else
        frequency
          [
            (4, map (fun k -> KBlock k) (int_range 0 3));
            (1, map (fun l -> KNest l) (list_size (int_range 1 3) (self (n / 2))));
          ])

let gen_schedule = QCheck.Gen.(list_size (int_range 1 20) gen_kactions)

(* Serialize a schedule into trace words. *)
let rec serialize_action out (act : kaction) =
  match act with
  | KBlock k ->
    let rec_addr, _, _, mems = ktable_entries.(k) in
    out := rec_addr :: !out;
    Array.iteri
      (fun i _ -> out := (0xC0000000 + (k * 64) + (i * 4)) :: !out)
      mems
  | KNest inner ->
    out := Format_.marker_word (Format_.Exc_enter 0) :: !out;
    List.iter (serialize_action out) inner;
    out := Format_.marker_word Format_.Exc_exit :: !out

let serialize schedule =
  let out = ref [] in
  List.iter (serialize_action out) schedule;
  Array.of_list (List.rev !out)

let expected_counts schedule =
  let insts = ref 0 and datas = ref 0 in
  let rec go = function
    | KBlock k ->
      let _, _, n, mems = ktable_entries.(k) in
      insts := !insts + n;
      datas := !datas + Array.length mems
    | KNest inner -> List.iter go inner
  in
  List.iter go schedule;
  (!insts, !datas)

let prop_parser_roundtrip =
  QCheck.Test.make ~count:200 ~name:"parser reconstructs random schedules"
    (QCheck.make gen_schedule)
    (fun schedule ->
      let words = serialize schedule in
      let p = Parser.create ~kernel_bbs:(synth_kernel_table ()) () in
      Parser.feed p words ~len:(Array.length words);
      Parser.finish p;
      let stats = Parser.stats p in
      let insts, datas = expected_counts schedule in
      stats.Parser.insts = insts && stats.Parser.datas = datas)

let tests = tests @ [ QCheck_alcotest.to_alcotest prop_parser_roundtrip ]

(* ------------------------------------------------------------------ *)
(* Compress: lossless delta/varint trace compression                   *)

let test_compress_basic () =
  let cases =
    [
      ("empty", [||]);
      ("one word", [| 0x40001000 |]);
      ("stride run", Array.init 1000 (fun i -> 0x10000000 + (4 * i)));
      ("loop", Array.init 600 (fun i -> 0x40001000 + (16 * (i mod 3))));
      ("extremes", [| 0; 0xFFFFFFFF; 0; 0x80000000; 0x7FFFFFFF |]);
    ]
  in
  List.iter
    (fun (name, words) ->
      let enc = Compress.encode words in
      Alcotest.(check (array int)) name words (Compress.decode enc))
    cases;
  (* a pure stride compresses to a handful of bytes *)
  let stride = Array.init 10_000 (fun i -> 4 * i) in
  Alcotest.(check bool)
    "stride run tiny" true
    (String.length (Compress.encode stride) < 32)

let test_compress_corrupt () =
  let words = Array.init 64 (fun i -> i * 8) in
  let enc = Compress.encode words in
  (* truncated varint *)
  (try
     ignore (Compress.decode (String.make 1 '\xFF'));
     Alcotest.fail "truncated varint accepted"
   with Compress.Corrupt _ -> ());
  (* word-count check *)
  (try
     ignore (Compress.decode ~expect:(Array.length words + 1) enc);
     Alcotest.fail "wrong count accepted"
   with Compress.Corrupt _ -> ())

let prop_compress_roundtrip =
  QCheck.Test.make ~count:300 ~name:"compress roundtrip on random words"
    QCheck.(
      list_of_size Gen.(int_range 0 400)
        (* mix of clustered addresses and arbitrary 32-bit values *)
        (oneof
           [ map (fun i -> 0x40000000 + (4 * i)) (int_bound 4096);
             map (fun i -> i land 0xFFFFFFFF) (int_bound max_int) ]))
    (fun l ->
      let words = Array.of_list l in
      Compress.decode ~expect:(Array.length words) (Compress.encode words)
      = words)

let test_tracefile_compressed () =
  let words =
    Array.init 5000 (fun i ->
        if i mod 7 = 0 then 0xBFFF0000 + (8 * (i mod 6))
        else 0x40001000 + (4 * (i mod 257)))
  in
  let path = Filename.temp_file "systrace" ".strc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracefile.save ~compress:true path words;
      Alcotest.(check (array int)) "v3 roundtrip" words (Tracefile.load path);
      let compressed_size = (Unix.stat path).Unix.st_size in
      Tracefile.save path words;
      Alcotest.(check (array int)) "v1 roundtrip" words (Tracefile.load path);
      let raw_size = (Unix.stat path).Unix.st_size in
      Alcotest.(check bool) "v3 smaller" true (compressed_size < raw_size))

let tests =
  tests
  @ [
      Alcotest.test_case "compress: basic shapes" `Quick test_compress_basic;
      Alcotest.test_case "compress: corrupt input" `Quick test_compress_corrupt;
      QCheck_alcotest.to_alcotest prop_compress_roundtrip;
      Alcotest.test_case "tracefile: both formats" `Quick
        test_tracefile_compressed;
    ]

let prop_lzss_roundtrip =
  QCheck.Test.make ~count:300 ~name:"lzss roundtrip on random strings"
    QCheck.(
      oneof
        [
          string_of_size Gen.(int_range 0 2000);
          (* highly repetitive input exercises overlapping matches *)
          map
            (fun (pat, reps) ->
              String.concat "" (List.init (reps + 1) (fun _ -> pat)))
            (pair (string_of_size Gen.(int_range 1 12)) (int_bound 200));
        ])
    (fun s -> Compress.lzss_unpack (Compress.lzss_pack s) = s)

let test_lzss_overlap_and_ratio () =
  (* single repeated byte: one literal + overlapping matches *)
  let s = String.make 10_000 'x' in
  let packed = Compress.lzss_pack s in
  Alcotest.(check string) "overlap roundtrip" s (Compress.lzss_unpack packed);
  Alcotest.(check bool) "rle-dense" true (String.length packed < 160);
  (* a looping trace compresses far better through the LZ stage: the loop
     body's delta sequence becomes one match per iteration *)
  let body =
    (* one loop iteration: block records and fixed-location accesses, the
       trace a tight loop actually emits — its delta sequence repeats
       verbatim, which run-length deltas cannot exploit but LZ can *)
    [| 0x40001000; 0x10002340; 0x40001040; 0x7FFFE000; 0x40001080;
       0x10002344 |]
  in
  let loop_trace = Array.init 4002 (fun i -> body.(i mod 6)) in
  let z1 = String.length (Compress.encode loop_trace) in
  let z2 = String.length (Compress.pack loop_trace) in
  Alcotest.(check bool) "lz beats delta-only on loops" true (z2 < z1 / 2);
  Alcotest.(check (array int))
    "pack roundtrip" loop_trace
    (Compress.unpack ~expect:(Array.length loop_trace)
       (Compress.pack loop_trace))

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_lzss_roundtrip;
      Alcotest.test_case "compress: lzss overlap + loop density" `Quick
        test_lzss_overlap_and_ratio;
    ]

(* ------------------------------------------------------------------ *)
(* Fuzzing: hostile input must fail cleanly, never crash.              *)

let prop_parser_never_crashes =
  (* Arbitrary word salad into the parser: every outcome must be either a
     clean parse or a Corrupt/Bad_marker rejection — no other exception,
     no runaway state.  This is the §4.3 "defensive tracing" contract
     stated as a total-behaviour property. *)
  QCheck.Test.make ~count:300 ~name:"parser: garbage never crashes"
    QCheck.(
      list_of_size Gen.(int_range 0 200)
        (oneof
           [ map (fun i -> i land 0xFFFFFFFF) (int_bound max_int);
             (* bias toward the marker slice where the state machine has
                the most transitions *)
             map (fun i -> 0xBFFF0000 lor (i land 0xFFFF)) (int_bound max_int) ]))
    (fun l ->
      let words = Array.of_list l in
      let p = Parser.create ~kernel_bbs:(synth_kernel_table ()) () in
      match
        Parser.feed p words ~len:(Array.length words);
        Parser.finish p
      with
      | () -> true
      | exception Parser.Corrupt _ -> true
      | exception Format_.Bad_marker _ -> true)

let prop_compress_decode_never_crashes =
  QCheck.Test.make ~count:500 ~name:"compress: garbage decode never crashes"
    QCheck.(string_of_size Gen.(int_range 0 300))
    (fun s ->
      (* expect bounds the decode, so hostile run-length tokens are
         rejected after at most 4096 emitted words *)
      match Compress.decode ~expect:4096 s with
      | (_ : int array) -> true
      | exception Compress.Corrupt _ -> true)

let prop_lzss_unpack_never_crashes =
  QCheck.Test.make ~count:500 ~name:"lzss: garbage unpack never crashes"
    QCheck.(string_of_size Gen.(int_range 0 300))
    (fun s ->
      match Compress.lzss_unpack s with
      | (_ : string) -> true
      | exception Compress.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Marker dispatch.  [Parser.feed] dispatches marker words on their raw
   kind field without building a [Format_.marker] value; the variant API
   serves as the oracle here.  (This replaces the old duplicated
   variant-based word loop, which could never be measured apart from the
   raw-kind one — markers are a fraction of a percent of real traces —
   and was folded away.) *)

type parse_outcome = P_ok | P_corrupt of string | P_bad_marker of int

let gen_equiv_words =
  let open QCheck.Gen in
  let salad_word =
    oneof
      [
        map (fun i -> i land 0xFFFFFFFF) (int_bound max_int);
        map (fun i -> 0xBFFF0000 lor (i land 0xFFFF)) (int_bound max_int);
      ]
  in
  oneof
    [
      (* valid kernel schedules *)
      map serialize gen_schedule;
      (* the same, with one word smashed *)
      map3
        (fun sch pos w ->
          let ws = serialize sch in
          if Array.length ws > 0 then
            ws.(pos mod Array.length ws) <- w land 0xFFFFFFFF;
          ws)
        gen_schedule (int_bound 1000) (int_bound max_int);
      (* pure word salad, biased toward the marker slice *)
      map Array.of_list (list_size (int_range 0 120) salad_word);
    ]

(* Any word in the reserved marker slice, valid kind or not. *)
let gen_marker_word =
  QCheck.Gen.map (fun i -> 0xBFFF0000 lor (i land 0xFFFF))
    (QCheck.Gen.int_bound max_int)

let prop_marker_dispatch_matches_variant =
  QCheck.Test.make ~count:500
    ~name:"raw-kind marker dispatch == Format_.decode_marker oracle"
    (QCheck.make ~print:(Printf.sprintf "0x%x") gen_marker_word)
    (fun w ->
      let p = Parser.create ~kernel_bbs:(synth_kernel_table ()) () in
      let outcome =
        match Parser.feed p [| w |] ~len:1 with
        | () -> P_ok
        | exception Parser.Corrupt msg -> P_corrupt msg
        | exception Format_.Bad_marker bw -> P_bad_marker bw
      in
      let s = Parser.stats p in
      let counted ~pid ~drain ~exc ~mode_t ~ended =
        s.Parser.markers = 1
        && s.Parser.pid_switches = pid
        && s.Parser.drains = drain
        && s.Parser.exc_markers = exc
        && s.Parser.mode_transitions = mode_t
        && s.Parser.ended = ended
      in
      match Format_.decode_marker w with
      | exception Format_.Bad_marker _ ->
        outcome = P_bad_marker w && s.Parser.markers = 1
      | Format_.Pid_switch _ ->
        outcome = P_ok && counted ~pid:1 ~drain:0 ~exc:0 ~mode_t:0 ~ended:false
      | Format_.Drain _ ->
        outcome = P_ok && counted ~pid:0 ~drain:1 ~exc:0 ~mode_t:0 ~ended:false
      | Format_.Exc_enter _ ->
        outcome = P_ok
        && counted ~pid:0 ~drain:0 ~exc:1 ~mode_t:0 ~ended:false
        && s.Parser.max_exc_depth = 1
      | Format_.Exc_exit ->
        (* depth is 0, so the dispatch must land in the exit handler and
           trip its bracket check *)
        (match outcome with P_corrupt _ -> true | _ -> false)
        && s.Parser.exc_markers = 1
      | Format_.Mode _ ->
        outcome = P_ok && counted ~pid:0 ~drain:0 ~exc:0 ~mode_t:1 ~ended:false
      | Format_.Trace_onoff _ | Format_.Thread_switch _ ->
        outcome = P_ok && counted ~pid:0 ~drain:0 ~exc:0 ~mode_t:0 ~ended:false
      | Format_.End ->
        outcome = P_ok && counted ~pid:0 ~drain:0 ~exc:0 ~mode_t:0 ~ended:true)

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_parser_never_crashes;
      QCheck_alcotest.to_alcotest prop_compress_decode_never_crashes;
      QCheck_alcotest.to_alcotest prop_lzss_unpack_never_crashes;
      QCheck_alcotest.to_alcotest prop_marker_dispatch_matches_variant;
    ]

(* ------------------------------------------------------------------ *)
(* Fault injection and error recovery (paper 4.3, the tentpole of the
   defensive-tracing work).

   The ISSUE-stated property "strict mode either raises Corrupt or the
   reconstructed stream is identical to the clean run" is deliberately
   weakened here: it is false in general — §4.3 promises detection "with
   very high probability", not certainty.  A dropped record of a mem-less
   block, or a bit flip inside a data address, alters the stream without
   any structural violation; the faults_table experiment measures those
   misses statistically.  What IS universally true, and what these
   properties enforce:
     - recovery mode never raises, on any input whatsoever;
     - when strict mode succeeds on a faulted stream, recovery mode is
       byte-identical to it and reports no diagnoses;
     - when strict mode raises, recovery's first diagnosis is the same
       violation, and recovery reconstructs at least the prefix strict
       managed;
     - every word recovery discards is accounted in the per-source skip
       counters, and the reference loss vs the clean run is bounded by
       what those counters (plus the fault's own size) can explain;
     - a drain split is a valid transform: strict parses it to the
       identical stream;
     - recovery parsing is invariant under chunk splits of the fed
       stream, on valid, faulted, and word-salad inputs alike. *)

(* Valid traces with BOTH kernel activity and user drains: a random
   kernel schedule interleaved with pid-1 drain blocks whose payload is a
   user block stream chunked at random boundaries (blocks may split
   across drains). *)
let take n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go n [] l

let serialize_mixed (sched, chunks) =
  let out = ref [ Format_.marker_word (Format_.Pid_switch 1) ] in
  let emit_drain ch =
    out := List.length ch :: Format_.marker_word (Format_.Drain 1) :: !out;
    List.iter (fun w -> out := w :: !out) ch
  in
  let rec go acts chs =
    match (acts, chs) with
    | [], [] -> ()
    | a :: ar, [] ->
      serialize_action out a;
      go ar []
    | [], ch :: cr ->
      emit_drain ch;
      go [] cr
    | a :: ar, ch :: cr ->
      serialize_action out a;
      emit_drain ch;
      go ar cr
  in
  go sched chunks;
  Array.of_list (List.rev !out)

let gen_mixed_words =
  let open QCheck.Gen in
  gen_schedule >>= fun sched ->
  int_range 0 4 >>= fun nblocks ->
  int_range 1 4 >>= fun chunk_max ->
  let user_words =
    List.concat
      (List.init nblocks (fun i ->
           [ 0x00410000; 0x00500000 + (16 * i); 0x00500004 + (16 * i) ]))
  in
  let rec chunk = function
    | [] -> []
    | l ->
      let c, rest = take chunk_max l in
      c :: chunk rest
  in
  return (serialize_mixed (sched, chunk user_words))

(* Like [run_parser], with recovery controls; returns the diagnoses and
   skip counters too. *)
let run_parser_r ?feed_chunks ~recover words =
  let p = Parser.create ~recover ~kernel_bbs:(synth_kernel_table ()) () in
  Parser.register_pid p ~pid:1 (user_table ());
  let evs = ref [] in
  Parser.set_handlers p
    {
      Parser.on_inst =
        (fun addr pid kernel -> evs := (`I, addr, pid, kernel, false, 0) :: !evs);
      on_data =
        (fun addr pid kernel is_load bytes ->
          evs := (`D, addr, pid, kernel, is_load, bytes) :: !evs);
    };
  let feed_all () =
    match feed_chunks with
    | None -> Parser.feed p words ~len:(Array.length words)
    | Some sizes ->
      (* feed the same words split at the given boundaries; any tail not
         covered by [sizes] goes in one final chunk *)
      let n = Array.length words in
      let pos = ref 0 in
      List.iter
        (fun sz ->
          let k = min sz (n - !pos) in
          if k > 0 then begin
            Parser.feed p (Array.sub words !pos k) ~len:k;
            pos := !pos + k
          end)
        sizes;
      if !pos < n then Parser.feed p (Array.sub words !pos (n - !pos)) ~len:(n - !pos)
  in
  let outcome =
    match
      feed_all ();
      Parser.finish p
    with
    | () -> P_ok
    | exception Parser.Corrupt msg -> P_corrupt msg
    | exception Format_.Bad_marker w -> P_bad_marker w
  in
  (outcome, List.rev !evs, Parser.stats p, Parser.errors p, Parser.skipped p)

let gen_fault_case =
  QCheck.Gen.triple gen_mixed_words
    (QCheck.Gen.oneofl Faults.all_kinds)
    (QCheck.Gen.int_bound 100_000)

let print_fault_case (ws, kind, seed) =
  Printf.sprintf "<%d words, %s, seed %d>" (Array.length ws)
    (Faults.kind_name kind) seed

let prop_fault_contract =
  QCheck.Test.make ~count:400
    ~name:"faults: strict/recovery contract on injected faults"
    (QCheck.make ~print:print_fault_case gen_fault_case)
    (fun (words, kind, seed) ->
      let c_out, c_evs, _, _, _ = run_parser_r ~recover:false words in
      if c_out <> P_ok then QCheck.Test.fail_report "generator made an invalid trace";
      match Faults.inject_one (Systrace_util.Rng.create seed) kind words with
      | None -> true
      | Some (faulted, _inj) ->
        let s_out, s_evs, _, _, _ =
          run_parser_r ~recover:false faulted
        in
        let r_out, r_evs, r_stats, r_errs, r_skip =
          run_parser_r ~recover:true faulted
        in
        (* recovery never raises, whatever the fault did *)
        r_out = P_ok
        (* every discarded word is accounted to a source *)
        && List.fold_left (fun a (_, n) -> a + n) 0 r_skip
           = r_stats.Parser.skipped_words
        && (match s_out with
           | P_ok ->
             (* fault landed in dead redundancy (or was a valid
                transform): recovery must agree exactly *)
             r_errs = [] && r_evs = s_evs
           | P_corrupt msg -> (
             match r_errs with
             | e :: _ ->
               (* same first violation, and recovery keeps at least the
                  prefix strict managed before bailing *)
               e.Parser.message = msg
               && List.length r_evs >= List.length s_evs
             | [] -> false)
           | P_bad_marker w -> (
             match r_errs with e :: _ -> e.Parser.got = w | [] -> false))
        (* loss vs the clean run is explained by the skip counters plus
           the words the fault itself added/removed (16 refs per word is
           a >4x margin over the densest table block, 64 covers block
           boundary effects) *)
        && List.length c_evs - List.length r_evs
           <= (16
               * (r_stats.Parser.skipped_words
                 + abs (Array.length words - Array.length faulted)))
              + 64)

let prop_drain_split_transparent =
  QCheck.Test.make ~count:200
    ~name:"faults: drain split is a valid transform (dead redundancy)"
    (QCheck.make
       ~print:(fun (ws, seed) ->
         Printf.sprintf "<%d words, seed %d>" (Array.length ws) seed)
       (QCheck.Gen.pair gen_mixed_words (QCheck.Gen.int_bound 100_000)))
    (fun (words, seed) ->
      let _, c_evs, _, _, _ = run_parser_r ~recover:false words in
      match
        Faults.inject_one (Systrace_util.Rng.create seed) Faults.Drain_split
          words
      with
      | None -> true
      | Some (faulted, _) ->
        let s_out, s_evs, _, _, _ =
          run_parser_r ~recover:false faulted
        in
        s_out = P_ok && s_evs = c_evs)

let prop_recover_never_raises =
  (* The recovery-mode totality contract on raw word salad, not just
     injected faults: Parser.feed ~recover:true must return diagnoses,
     never raise. *)
  QCheck.Test.make ~count:400 ~name:"recovery: word salad never raises"
    QCheck.(
      list_of_size Gen.(int_range 0 200)
        (oneof
           [ map (fun i -> i land 0xFFFFFFFF) (int_bound max_int);
             map (fun i -> 0xBFFF0000 lor (i land 0xFFFF)) (int_bound max_int) ]))
    (fun l ->
      let words = Array.of_list l in
      let out, _, stats, errs, _ = run_parser_r ~recover:true words in
      out = P_ok && List.length errs = stats.Parser.parse_errors)

let gen_recover_equiv_words =
  (* valid, faulted, and salad streams *)
  QCheck.Gen.oneof
    [
      gen_equiv_words;
      QCheck.Gen.map
        (fun (ws, kind, seed) ->
          match Faults.inject_one (Systrace_util.Rng.create seed) kind ws with
          | Some (faulted, _) -> faulted
          | None -> ws)
        gen_fault_case;
    ]

let prop_recovery_chunk_invariant =
  (* The recovery state machine must be invariant under chunk splits:
     feeding a stream in arbitrary pieces yields the same events,
     diagnoses, and skip counters as feeding it whole — on valid,
     faulted, and word-salad streams alike. *)
  QCheck.Test.make ~count:300
    ~name:"recovery parse is chunk-split invariant"
    (QCheck.make
       ~print:(fun (ws, sizes) ->
         Printf.sprintf "<%d words, chunks %s>" (Array.length ws)
           (String.concat "," (List.map string_of_int sizes)))
       (QCheck.Gen.pair gen_recover_equiv_words
          QCheck.Gen.(list_size (int_range 0 8) (int_range 0 40))))
    (fun (words, sizes) ->
      run_parser_r ~recover:true words
      = run_parser_r ~feed_chunks:sizes ~recover:true words)

let prop_faults_deterministic =
  QCheck.Test.make ~count:100 ~name:"faults: equal seeds give equal streams"
    (QCheck.make ~print:print_fault_case gen_fault_case)
    (fun (words, kind, seed) ->
      let one () =
        Faults.inject_one (Systrace_util.Rng.create seed) kind words
      in
      one () = one ())

(* Regression (the drain count-0 bug): an empty drain must reset the
   drain pid, so later diagnoses are not attributed to a closed drain. *)
let test_empty_drain_resets_pid () =
  (* strict: an empty drain followed by kernel activity parses *)
  let stats, _ =
    parse [ Format_.marker_word (Format_.Drain 1); 0; 0x80100040 ]
  in
  check_int "drains" 1 stats.Parser.drains;
  check_int "kernel insts" 2 stats.Parser.kernel_insts;
  (* recovery: the diagnosis for a bad word AFTER the empty drain must
     say "outside any drain" (in_drain = -1), not blame stale pid 1 *)
  let p = Parser.create ~recover:true ~kernel_bbs:(kernel_table ()) () in
  Parser.feed p
    [| Format_.marker_word (Format_.Drain 1); 0; 0x80777700 |]
    ~len:3;
  Parser.finish p;
  match Parser.errors p with
  | [ e ] ->
    check_int "diagnosis at the bad word" 2 e.Parser.at;
    check_int "empty drain closed before the diagnosis" (-1) e.Parser.in_drain
  | es ->
    Alcotest.fail (Printf.sprintf "expected 1 diagnosis, got %d" (List.length es))

(* Recovery resynchronizes and keeps parsing: one smashed word inside the
   first of two kernel blocks costs diagnoses and skips, but the block
   after the next marker parses fully. *)
let test_recover_resync () =
  let words =
    [|
      0x80100000; 0xC0000123; 0xC0000999;          (* block + its 2 data words *)
      0xC0000555;                                  (* bad: looked up as a record *)
      Format_.marker_word (Format_.Pid_switch 1);  (* resync point *)
      0x80100040;                                  (* parses after resync *)
    |]
  in
  let out, evs, stats, errs, _ = run_parser_r ~recover:true words in
  check "no raise" true (out = P_ok);
  check_int "one diagnosis" 1 (List.length errs);
  check "post-resync block reconstructed" true
    (List.exists (function `I, 0x80200100, _, _, _, _ -> true | _ -> false) evs);
  check_int "offending word counted" 1 stats.Parser.skipped_words

(* Structural scan: table-free validation for `systrace check`. *)
let test_scan () =
  (* a clean trace scans clean *)
  Alcotest.(check int) "clean" 0
    (List.length
       (Parser.scan
          [|
            0x80100000; 0xC0000123; 0x80300040;
            Format_.marker_word (Format_.Drain 1); 2; 0x00410000; 0x00500000;
          |]));
  (* truncated drain *)
  (match Parser.scan [| Format_.marker_word (Format_.Drain 3); 5; 0x1000 |] with
  | [ e ] -> check "drain truncation at end" true (e.Parser.in_drain = 3)
  | es -> Alcotest.fail (Printf.sprintf "drain: %d diagnoses" (List.length es)));
  (* exception underflow *)
  check_int "exc underflow" 1
    (List.length (Parser.scan [| Format_.marker_word Format_.Exc_exit |]));
  (* words after END: only the first is reported *)
  check_int "post-END reported once" 1
    (List.length
       (Parser.scan
          [| Format_.marker_word Format_.End; 0x80100000; 0xC0000123 |]));
  (* unknown marker kind *)
  check_int "unknown kind" 1
    (List.length (Parser.scan [| Format_.make_marker 12 0 |]))

let prop_scan_total =
  QCheck.Test.make ~count:400 ~name:"scan: word salad never raises"
    QCheck.(
      list_of_size Gen.(int_range 0 200)
        (oneof
           [ map (fun i -> i land 0xFFFFFFFF) (int_bound max_int);
             map (fun i -> 0xBFFF0000 lor (i land 0xFFFF)) (int_bound max_int) ]))
    (fun l ->
      match Parser.scan (Array.of_list l) with (_ : Parser.error list) -> true)

let prop_scan_clean_on_valid =
  QCheck.Test.make ~count:200 ~name:"scan: valid traces scan clean"
    (QCheck.make
       ~print:(fun ws -> Printf.sprintf "<%d words>" (Array.length ws))
       gen_mixed_words)
    (fun words -> Parser.scan words = [])

let tests =
  tests
  @ [
      Alcotest.test_case "recovery: empty drain resets pid (regression)" `Quick
        test_empty_drain_resets_pid;
      Alcotest.test_case "recovery: resync keeps parsing" `Quick
        test_recover_resync;
      Alcotest.test_case "scan: structural diagnoses" `Quick test_scan;
      QCheck_alcotest.to_alcotest prop_fault_contract;
      QCheck_alcotest.to_alcotest prop_drain_split_transparent;
      QCheck_alcotest.to_alcotest prop_recover_never_raises;
      QCheck_alcotest.to_alcotest prop_recovery_chunk_invariant;
      QCheck_alcotest.to_alcotest prop_faults_deterministic;
      QCheck_alcotest.to_alcotest prop_scan_total;
      QCheck_alcotest.to_alcotest prop_scan_clean_on_valid;
    ]

(* ------------------------------------------------------------------ *)
(* Tracefile hardening: load is total (Bad_file, never End_of_file /
   Invalid_argument / oversized allocation), save refuses out-of-range
   words. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let with_temp f =
  let path = Filename.temp_file "systrace_test" ".strc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Version-2 trace files, which the writer no longer produces but the
   readers still load: magic, then version, word count and payload byte
   count, then the payload — one delta/varint stream, LZSS-packed
   ([Compress.pack]) or, as files from the old block-flushing writer
   were, packed in pieces and concatenated. *)
let write_v2_payload path ~words payload =
  let hdr = Bytes.create 12 in
  Bytes.set_int32_le hdr 0 2l;
  Bytes.set_int32_le hdr 4 (Int32.of_int words);
  Bytes.set_int32_le hdr 8 (Int32.of_int (String.length payload));
  write_file path ("STRC" ^ Bytes.to_string hdr ^ payload)

let write_v2 path (words : int array) =
  write_v2_payload path ~words:(Array.length words) (Compress.pack words)

(* a trace file of format version 1, 2 or 3 *)
let save_version version path words =
  match version with
  | 1 -> Tracefile.save path words
  | 2 -> write_v2 path words
  | _ -> Tracefile.save ~compress:true path words

let test_tracefile_save_range () =
  with_temp (fun path ->
      Tracefile.save path [| 7; 8 |];
      let before = read_file path in
      (* too wide: rejected by the writer's check, before [path] opens *)
      (match Tracefile.save path [| 0x10; 0x1_0000_0000 |] with
      | () -> Alcotest.fail "33-bit word accepted"
      | exception Invalid_argument msg ->
        check "names the offending index" true (contains msg "word 1");
        check "the writer's message" true (contains msg "Tracefile.write:"));
      check "existing file untouched" true (read_file path = before);
      (* negative *)
      match Tracefile.save path [| -1 |] with
      | () -> Alcotest.fail "negative word accepted"
      | exception Invalid_argument msg ->
        check "names index 0" true (contains msg "word 0"))

let expect_bad_file path =
  match Tracefile.load path with
  | (_ : int array) -> Alcotest.fail "malformed file loaded"
  | exception Tracefile.Bad_file _ -> ()

let test_tracefile_load_hardening () =
  with_temp (fun path ->
      (* short garbage: must be Bad_file, not End_of_file *)
      write_file path "ST";
      expect_bad_file path;
      (* magic but truncated header *)
      write_file path "STRC\x01\x00";
      expect_bad_file path;
      (* v1 with an absurd word count: must reject BEFORE allocating n*4
         (a 2^30 count used to allocate 4 GB) *)
      let hdr = Bytes.create 12 in
      Bytes.blit_string "STRC" 0 hdr 0 4;
      Bytes.set_int32_le hdr 4 1l;
      Bytes.set_int32_le hdr 8 0x40000000l;
      write_file path (Bytes.to_string hdr);
      expect_bad_file path;
      (* v1 with a count larger than the file: reject before allocating *)
      Bytes.set_int32_le hdr 8 1000l;
      write_file path (Bytes.to_string hdr ^ "xxxx");
      expect_bad_file path;
      (* v2 with a payload length beyond the file *)
      let hdr2 = Bytes.create 16 in
      Bytes.blit_string "STRC" 0 hdr2 0 4;
      Bytes.set_int32_le hdr2 4 2l;
      Bytes.set_int32_le hdr2 8 4l;
      Bytes.set_int32_le hdr2 12 100000l;
      write_file path (Bytes.to_string hdr2 ^ "zz");
      expect_bad_file path;
      (* truncating a real file anywhere must give Bad_file *)
      Tracefile.save path (Array.init 100 (fun i -> i * 3));
      let full = read_file path in
      List.iter
        (fun k ->
          write_file path (String.sub full 0 k);
          expect_bad_file path)
        [ 0; 3; 7; 11; 12; 50; String.length full - 1 ])

let prop_tracefile_load_total =
  (* The fuzz contract of the acceptance criteria: load on ANY bytes —
     raw garbage or a mangled real file, both formats — either succeeds
     or raises Bad_file.  Anything else (End_of_file, Invalid_argument,
     Out_of_memory) fails the property by escaping it. *)
  QCheck.Test.make ~count:200 ~name:"tracefile: load is total on any bytes"
    QCheck.(
      pair (string_of_size Gen.(int_range 0 256)) (int_bound 1_000_000))
    (fun (garbage, seed) ->
      let rng = Systrace_util.Rng.create seed in
      let content =
        if seed mod 3 = 0 then garbage
        else
          with_temp (fun path ->
              let words = Array.init 60 (fun i -> (i * 2654435761) land 0xFFFFFFFF) in
              save_version (1 + (seed / 3 mod 3)) path words;
              Faults.mangle rng (read_file path))
      in
      with_temp (fun path ->
          write_file path content;
          match Tracefile.load path with
          | (_ : int array) -> true
          | exception Tracefile.Bad_file _ -> true))

let test_lzss_limit () =
  (* a highly expansive stream must hit the output bound as Corrupt, not
     as a giant allocation *)
  let s = String.make 100_000 'x' in
  let packed = Compress.lzss_pack s in
  (match Compress.lzss_unpack ~limit:1000 packed with
  | (_ : string) -> Alcotest.fail "limit not enforced"
  | exception Compress.Corrupt _ -> ());
  Alcotest.(check string) "full unpack intact" s (Compress.lzss_unpack packed)

let tests =
  tests
  @ [
      Alcotest.test_case "tracefile: save rejects out-of-range words" `Quick
        test_tracefile_save_range;
      Alcotest.test_case "tracefile: load hardening" `Quick
        test_tracefile_load_hardening;
      QCheck_alcotest.to_alcotest prop_tracefile_load_total;
      Alcotest.test_case "compress: lzss output limit" `Quick test_lzss_limit;
    ]

(* ------------------------------------------------------------------ *)
(* Streaming pipeline: the chunked codecs, sinks, writer/reader and
   scanner must be observably identical to their whole-array batch
   counterparts on ARBITRARY chunkings — the invariant that lets the
   trace-analysis side run online over ANALYZE-phase chunks (paper 4.3)
   without a whole trace ever existing in one place. *)

(* Cut [0, total) into (pos, len) slices whose lengths cycle through
   [sizes] (non-positive entries are skipped; all-non-positive falls back
   to one whole slice). *)
let cuts_of sizes total =
  if List.for_all (fun s -> s <= 0) sizes then [ (0, total) ]
  else begin
    let rec go pos ss acc =
      if pos >= total then List.rev acc
      else
        let s, rest = match ss with s :: r -> (s, r) | [] -> assert false in
        let rest = if rest = [] then sizes else rest in
        let len = min (max s 0) (total - pos) in
        if len = 0 then go pos rest acc
        else go (pos + len) rest ((pos, len) :: acc)
    in
    go 0 sizes []
  end

let gen_sizes = QCheck.Gen.(list_size (int_range 1 6) (int_range 0 13))

let gen_words_arr =
  QCheck.Gen.(
    map Array.of_list
      (list_size (int_range 0 400)
         (oneof
            [
              map (fun i -> 0x40000000 + (4 * i)) (int_bound 4096);
              map (fun i -> i land 0xFFFFFFFF) (int_bound max_int);
            ])))

let prop_encoder_chunked =
  QCheck.Test.make ~count:300
    ~name:"compress: chunked encode is byte-identical to batch encode"
    (QCheck.make
       ~print:(fun (ws, _) -> Printf.sprintf "<%d words>" (Array.length ws))
       (QCheck.Gen.pair gen_words_arr gen_sizes))
    (fun (words, sizes) ->
      let e = Compress.encoder () in
      let buf = Buffer.create 64 in
      List.iter
        (fun (pos, len) ->
          Compress.encode_chunk e buf (Array.sub words pos len) ~len)
        (cuts_of sizes (Array.length words));
      Compress.encode_finish e buf;
      Buffer.contents buf = Compress.encode words)

let prop_decoder_chunked =
  QCheck.Test.make ~count:300
    ~name:"compress: chunked decode == batch decode on any byte split"
    (QCheck.make
       ~print:(fun (ws, _) -> Printf.sprintf "<%d words>" (Array.length ws))
       (QCheck.Gen.pair gen_words_arr gen_sizes))
    (fun (words, sizes) ->
      let s = Compress.encode words in
      let out = ref [] in
      let d =
        Compress.decoder ~expect:(Array.length words)
          ~emit:(fun w -> out := w :: !out)
          ()
      in
      List.iter
        (fun (pos, len) -> Compress.decode_bytes d s ~pos ~len)
        (cuts_of sizes (String.length s));
      Compress.decode_finish d;
      Array.of_list (List.rev !out) = words)

let prop_lz_decoder_chunked =
  QCheck.Test.make ~count:300
    ~name:"compress: chunked lzss decode == batch unpack on any byte split"
    (QCheck.make
       (QCheck.Gen.pair
          QCheck.Gen.(
            oneof
              [
                string_size (int_range 0 2000);
                map
                  (fun (pat, reps) ->
                    String.concat "" (List.init (reps + 1) (fun _ -> pat)))
                  (pair (string_size (int_range 1 12)) (int_bound 200));
              ])
          gen_sizes))
    (fun (s, sizes) ->
      let packed = Compress.lzss_pack s in
      let buf = Buffer.create (String.length s) in
      let z = Compress.lz_decoder ~emit:(Buffer.add_char buf) () in
      List.iter
        (fun (pos, len) -> Compress.lz_decode_bytes z packed ~pos ~len)
        (cuts_of sizes (String.length packed));
      Compress.lz_decode_finish z;
      Buffer.contents buf = s)

(* The trace-file writer concatenates independently packed LZSS blocks
   into one byte stream, relying on each block's final group being padded
   to 8 items.  The streaming decoder must see the concatenation as one
   stream — across any chunk split, including splits inside the padding
   items at block boundaries. *)
let prop_lz_block_concat =
  QCheck.Test.make ~count:200
    ~name:"compress: concatenated lzss blocks decode as one stream"
    (QCheck.make
       (QCheck.Gen.pair
          QCheck.Gen.(
            list_size (int_range 0 5)
              (oneof
                 [
                   string_size (int_range 0 400);
                   map
                     (fun (pat, reps) ->
                       String.concat ""
                         (List.init (reps + 1) (fun _ -> pat)))
                     (pair (string_size (int_range 1 8)) (int_bound 60));
                 ]))
          gen_sizes))
    (fun (ss, sizes) ->
      let packed = String.concat "" (List.map Compress.lzss_pack ss) in
      let buf = Buffer.create 1024 in
      let z = Compress.lz_decoder ~emit:(Buffer.add_char buf) () in
      List.iter
        (fun (pos, len) -> Compress.lz_decode_bytes z packed ~pos ~len)
        (cuts_of sizes (String.length packed));
      Compress.lz_decode_finish z;
      Buffer.contents buf = String.concat "" ss)

(* Parser.feed across arbitrary chunk boundaries: the persistent per-source
   state (split drains, open EXC brackets, block records awaiting their
   data words, recovery resync) must make chunking unobservable — on valid
   traces, faulted traces and word salad, in strict and recovery mode. *)
let run_parser_r_chunks ~recover cuts words =
  let p =
    Parser.create ~recover ~kernel_bbs:(synth_kernel_table ()) ()
  in
  Parser.register_pid p ~pid:1 (user_table ());
  let evs = ref [] in
  Parser.set_handlers p
    {
      Parser.on_inst =
        (fun addr pid kernel -> evs := (`I, addr, pid, kernel, false, 0) :: !evs);
      on_data =
        (fun addr pid kernel is_load bytes ->
          evs := (`D, addr, pid, kernel, is_load, bytes) :: !evs);
    };
  let outcome =
    match
      List.iter
        (fun (pos, len) -> Parser.feed p (Array.sub words pos len) ~len)
        cuts;
      Parser.finish p
    with
    | () -> P_ok
    | exception Parser.Corrupt msg -> P_corrupt msg
    | exception Format_.Bad_marker w -> P_bad_marker w
  in
  (outcome, List.rev !evs, Parser.stats p, Parser.errors p, Parser.skipped p)

let prop_feed_chunk_invariant =
  QCheck.Test.make ~count:300
    ~name:"parser: chunked feed == single feed (strict and recovery)"
    (QCheck.make
       ~print:(fun (ws, _, r) ->
         Printf.sprintf "<%d words, recover=%b>" (Array.length ws) r)
       (QCheck.Gen.triple gen_recover_equiv_words gen_sizes QCheck.Gen.bool))
    (fun (words, sizes, recover) ->
      run_parser_r_chunks ~recover (cuts_of sizes (Array.length words)) words
      = run_parser_r ~recover words)

(* Deterministic regression for the nastiest boundary placements: a DRAIN
   marker, its count word and its payload each in a different feed; EXC
   brackets and the bracketed block split from each other; a block record
   split from its data words. *)
let test_chunk_boundary_regression () =
  let words =
    [|
      0x80100000;                                 (* kernel bb, 2 data words *)
      0xC0000123;
      Format_.marker_word (Format_.Exc_enter 0);  (* nested mid-block *)
      0x80100040;
      Format_.marker_word Format_.Exc_exit;
      0x80300040;                                 (* first block completes *)
      Format_.marker_word (Format_.Pid_switch 1);
      Format_.marker_word (Format_.Drain 1);
      3;
      0x00410000;                                 (* user bb *)
      0x00500000;
      0x00500004;
      Format_.marker_word (Format_.Drain 1);      (* empty drain *)
      0;
    |]
  in
  let whole = run_parser_r_chunks ~recover:false [ (0, 14) ] words in
  List.iter
    (fun cuts ->
      Alcotest.(check bool)
        (Printf.sprintf "split at %s"
           (String.concat ","
              (List.map (fun (p, l) -> Printf.sprintf "%d+%d" p l) cuts)))
        true
        (run_parser_r_chunks ~recover:false cuts words = whole))
    [
      List.init 14 (fun i -> (i, 1));             (* every word its own feed *)
      [ (0, 8); (8, 1); (9, 3); (12, 2) ];        (* count split from payload *)
      [ (0, 3); (3, 2); (5, 9) ];                 (* EXC brackets split *)
      [ (0, 1); (1, 13) ];                        (* record split from data *)
      [ (0, 9); (9, 1); (10, 1); (11, 1); (12, 2) ]; (* payload word-by-word *)
    ]

let prop_scanner_chunked =
  QCheck.Test.make ~count:300
    ~name:"scanner: chunked scan_feed == whole-array scan"
    (QCheck.make
       ~print:(fun (ws, _) -> Printf.sprintf "<%d words>" (Array.length ws))
       (QCheck.Gen.pair
          (QCheck.Gen.oneof
             [
               gen_mixed_words;
               QCheck.Gen.(
                 map Array.of_list
                   (list_size (int_range 0 200)
                      (oneof
                         [
                           map (fun i -> i land 0xFFFFFFFF) (int_bound max_int);
                           map
                             (fun i -> 0xBFFF0000 lor (i land 0xFFFF))
                             (int_bound max_int);
                         ])));
             ])
          gen_sizes))
    (fun (words, sizes) ->
      let c = Parser.scanner () in
      List.iter
        (fun (pos, len) -> Parser.scan_feed c (Array.sub words pos len) ~len)
        (cuts_of sizes (Array.length words));
      Parser.scan_finish c = Parser.scan words)

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_encoder_chunked;
      QCheck_alcotest.to_alcotest prop_decoder_chunked;
      QCheck_alcotest.to_alcotest prop_lz_decoder_chunked;
      QCheck_alcotest.to_alcotest prop_lz_block_concat;
      QCheck_alcotest.to_alcotest prop_feed_chunk_invariant;
      Alcotest.test_case "parser: chunk-boundary regression" `Quick
        test_chunk_boundary_regression;
      QCheck_alcotest.to_alcotest prop_scanner_chunked;
    ]

(* ------------------------------------------------------------------ *)
(* Sinks: fan-out order, finish propagation, endpoints.                *)

let test_sink_tee_order () =
  let a1, get1 = Sink.to_array () in
  let a2, get2 = Sink.to_array () in
  let cnt, words_seen = Sink.counting () in
  let pk, peak_words = Sink.peak () in
  let fin = ref 0 in
  let flag = Sink.make ~finish:(fun () -> incr fin) (fun _ ~len:_ -> ()) in
  let sink = Sink.tee [ a1; cnt; a2; pk; flag ] in
  sink.Sink.on_words [| 1; 2; 3 |] ~len:3;
  sink.Sink.on_words [| 9; 9; 9; 9 |] ~len:0;       (* empty chunks are legal *)
  sink.Sink.on_words [| 4; 5; 6; 7; 8 |] ~len:4;    (* len < array length *)
  sink.Sink.finish ();
  let expect = [| 1; 2; 3; 4; 5; 6; 7 |] in
  Alcotest.(check (array int)) "branch 1 word order" expect (get1 ());
  Alcotest.(check (array int)) "branch 2 word order" expect (get2 ());
  check_int "count" 7 (words_seen ());
  check_int "peak chunk" 4 (peak_words ());
  check_int "finish reached every branch once" 1 !fin

let test_sink_tee_finish_raises () =
  (* finish must reach every branch even when an earlier one raises, and
     the first exception must surface afterwards *)
  let order = ref [] in
  let branch name exn =
    Sink.make
      ~finish:(fun () ->
        order := name :: !order;
        match exn with Some e -> raise e | None -> ())
      (fun _ ~len:_ -> ())
  in
  let sink =
    Sink.tee
      [
        branch "a" None;
        branch "b" (Some (Failure "first"));
        branch "c" (Some (Failure "second"));
        branch "d" None;
      ]
  in
  (match sink.Sink.finish () with
  | () -> Alcotest.fail "expected the first branch failure to re-raise"
  | exception Failure msg -> Alcotest.(check string) "first exception wins" "first" msg);
  Alcotest.(check (list string))
    "every finish ran, in order" [ "a"; "b"; "c"; "d" ] (List.rev !order)

let test_sink_finish_propagation_under_parse_failure () =
  (* A strict parser branch whose finish raises (incomplete block at end
     of trace) must not leave a file branch unclosed: the defensive
     contract for one-pass parse+store pipelines. *)
  with_temp (fun path ->
      let p = Parser.create ~kernel_bbs:(synth_kernel_table ()) () in
      let words = [| 0x80100000; 0xC0000123 |] in
      let sink = Sink.tee [ Sink.to_parser p; Sink.to_file path ] in
      sink.Sink.on_words words ~len:2;
      (match sink.Sink.finish () with
      | () -> Alcotest.fail "expected Corrupt from Parser.finish"
      | exception Parser.Corrupt _ -> ());
      Alcotest.(check (array int))
        "file branch closed despite parser failure" words (Tracefile.load path))

(* Under recovery-mode faults the tee still delivers the identical word
   sequence to every branch, and the recovery parse behind [to_parser]
   matches a direct recovery parse of the same faulted stream. *)
let prop_sink_tee_recovery_faults =
  QCheck.Test.make ~count:200
    ~name:"sink: tee preserves order and finish under recovery-mode faults"
    (QCheck.make ~print:print_fault_case gen_fault_case)
    (fun (words, kind, seed) ->
      let faulted =
        match Faults.inject_one (Systrace_util.Rng.create seed) kind words with
        | Some (f, _) -> f
        | None -> words
      in
      let p =
        Parser.create ~recover:true ~kernel_bbs:(synth_kernel_table ()) ()
      in
      Parser.register_pid p ~pid:1 (user_table ());
      let arr, get = Sink.to_array () in
      let cnt, words_seen = Sink.counting () in
      let sink = Sink.tee [ Sink.to_parser p; arr; cnt ] in
      (* feed in a few chunks to cross fault positions with boundaries *)
      List.iter
        (fun (pos, len) -> sink.Sink.on_words (Array.sub faulted pos len) ~len)
        (cuts_of [ 7; 3; 11 ] (Array.length faulted));
      sink.Sink.finish ();
      let direct_out, _, direct_stats, direct_errs, _ =
        run_parser_r ~recover:true faulted
      in
      direct_out = P_ok
      && get () = faulted
      && words_seen () = Array.length faulted
      && Parser.stats p = direct_stats
      && Parser.errors p = direct_errs)

(* [batching] must forward the identical word sequence whatever the
   incoming chunking and batch size — including chunks bigger than the
   batch (passed through) and a producer that reuses one scratch array
   across calls (the Builder contract: chunks are borrowed). *)
let prop_sink_batching_equivalent =
  QCheck.Test.make ~count:300
    ~name:"sink: batching forwards the identical word sequence"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 12) (int_range 0 100))
        (int_range 1 64))
    (fun (lens, batch) ->
      let direct, dget = Sink.to_array () in
      let inner, bget = Sink.to_array () in
      let cnt, words_seen = Sink.counting () in
      let batched = Sink.batching ~words:batch (Sink.tee [ inner; cnt ]) in
      let scratch = Array.make 100 0 in
      let ctr = ref 0 in
      List.iter
        (fun len ->
          for i = 0 to len - 1 do
            incr ctr;
            scratch.(i) <- !ctr
          done;
          direct.Sink.on_words scratch ~len;
          batched.Sink.on_words scratch ~len)
        lens;
      direct.Sink.finish ();
      batched.Sink.finish ();
      dget () = bget () && words_seen () = !ctr)

let tests =
  tests
  @ [
      Alcotest.test_case "sink: tee order and counters" `Quick
        test_sink_tee_order;
      QCheck_alcotest.to_alcotest prop_sink_batching_equivalent;
      Alcotest.test_case "sink: tee finish runs every branch" `Quick
        test_sink_tee_finish_raises;
      Alcotest.test_case "sink: file branch closed when parser fails" `Quick
        test_sink_finish_propagation_under_parse_failure;
      QCheck_alcotest.to_alcotest prop_sink_tee_recovery_faults;
    ]

(* ------------------------------------------------------------------ *)
(* Streaming trace files: incremental writer + chunked reader.         *)

let prop_writer_fold_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"tracefile: chunked write + fold_words == save + load (both formats)"
    (QCheck.make
       ~print:(fun (ws, _, _, z) ->
         Printf.sprintf "<%d words, compress=%b>" (Array.length ws) z)
       (QCheck.Gen.quad gen_words_arr gen_sizes
          QCheck.Gen.(int_range 1 97)
          QCheck.Gen.bool))
    (fun (words, sizes, chunk_words, compress) ->
      with_temp (fun saved ->
          with_temp (fun path ->
              Tracefile.save ~compress saved words;
              let w = Tracefile.open_writer ~compress path in
              List.iter
                (fun (pos, len) ->
                  Tracefile.write w (Array.sub words pos len) ~len)
                (cuts_of sizes (Array.length words));
              let n = Tracefile.close_writer w in
              let folded = ref [] in
              let total =
                Tracefile.fold_words ~chunk_words path ~init:0
                  ~f:(fun acc chunk ~len ->
                    folded := Array.sub chunk 0 len :: !folded;
                    acc + len)
              in
              n = Array.length words
              && total = Array.length words
              && Array.concat (List.rev !folded) = words
              && Tracefile.load path = words
              (* [save] is the writer, so the bytes are the same *)
              && read_file saved = read_file path)))

let test_writer_byte_identical_to_save () =
  (* chunked writes produce byte-for-byte what the batch writer produces:
     always for v1 and v3 (v3 block boundaries depend only on the word
     stream, never on call chunking) *)
  let words =
    Array.init 5000 (fun i ->
        if i mod 7 = 0 then 0xBFFF0000 + (8 * (i mod 6))
        else 0x40001000 + (4 * (i mod 257)))
  in
  List.iter
    (fun compress ->
      with_temp (fun p1 ->
          with_temp (fun p2 ->
              Tracefile.save ~compress p1 words;
              let w = Tracefile.open_writer ~compress p2 in
              List.iter
                (fun (pos, len) ->
                  Tracefile.write w (Array.sub words pos len) ~len)
                (cuts_of [ 33; 1; 500 ] (Array.length words));
              ignore (Tracefile.close_writer w);
              Alcotest.(check string)
                (if compress then "v3" else "v1")
                (read_file p1) (read_file p2))))
    [ false; true ]

let test_multiblock_v2_load () =
  (* the old v2 writer LZSS-packed a delta stream larger than ~1 MB in
     several blocks and concatenated them; such a file must read back
     with the ordinary loader AND the chunked reader *)
  let n = 300_000 in
  (* LCG, not an affine ramp: consecutive deltas must vary, or the whole
     stream collapses into one run token *)
  let x = ref 1 in
  let words =
    Array.init n (fun _ ->
        x := ((!x * 1103515245) + 12345) land 0xFFFFFFFF;
        !x)
  in
  let delta = Compress.encode words in
  let block = 1 lsl 20 in
  Alcotest.(check bool)
    "delta stream spans several blocks" true
    (String.length delta > block);
  let payload =
    String.concat ""
      (List.map
         (fun (pos, len) -> Compress.lzss_pack (String.sub delta pos len))
         (cuts_of [ block ] (String.length delta)))
  in
  with_temp (fun path ->
      write_v2_payload path ~words:n payload;
      Alcotest.(check bool) "load" true (Tracefile.load path = words);
      let sum =
        Tracefile.fold_words path ~init:0 ~f:(fun acc _ ~len -> acc + len)
      in
      check_int "fold word count" n sum)

let test_v2_full_fold_audits_end () =
  (* regression: a v2 header that under-counts the payload by a byte or
     two still leaves every word decodable, but the LZSS stream is cut
     short.  [load] reports it; a whole-trace fold used to stop at the
     last word and return clean, skipping the end-of-stream checks. *)
  let words = Array.init 60 (fun i -> (i * 2654435761) land 0xFFFFFFFF) in
  let payload = Compress.pack words in
  with_temp (fun path ->
      List.iter
        (fun cut ->
          write_v2_payload path ~words:60
            (String.sub payload 0 (String.length payload - cut));
          expect_bad_file path;
          match
            Tracefile.fold_words path ~init:() ~f:(fun () _ ~len:_ -> ())
          with
          | () -> Alcotest.failf "fold accepted a payload %d bytes short" cut
          | exception Tracefile.Bad_file _ -> ())
        [ 1; 2 ])

let test_writer_rejects_bad_words () =
  with_temp (fun path ->
      let w = Tracefile.open_writer path in
      Tracefile.write w [| 1; 2; 3 |] ~len:3;
      (match Tracefile.write w [| 4; 0x1_0000_0000 |] ~len:2 with
      | () -> Alcotest.fail "33-bit word accepted"
      | exception Invalid_argument msg ->
        check "global stream index in message" true (contains msg "word 4"));
      check_int "the rejected chunk wrote nothing" 3 (Tracefile.close_writer w);
      check "file holds the accepted words" true
        (Tracefile.load path = [| 1; 2; 3 |]))

let test_fold_words_callback_exn () =
  (* the reader's totality contract wraps ITS failures in Bad_file but
     must let the callback's own exceptions through untouched *)
  with_temp (fun path ->
      Tracefile.save path (Array.init 10 (fun i -> i));
      match Tracefile.fold_words path ~init:() ~f:(fun () _ ~len:_ -> raise Exit) with
      | () -> Alcotest.fail "callback exception swallowed"
      | exception Exit -> ())

let prop_fold_words_total =
  (* fold_words matches load on ANY bytes: same words when load succeeds,
     Bad_file when load raises Bad_file — and never any other escape. *)
  QCheck.Test.make ~count:200 ~name:"tracefile: fold_words total, == load"
    QCheck.(
      pair (string_of_size Gen.(int_range 0 256)) (int_bound 1_000_000))
    (fun (garbage, seed) ->
      let rng = Systrace_util.Rng.create seed in
      let content =
        if seed mod 3 = 0 then garbage
        else
          with_temp (fun path ->
              let words =
                Array.init 60 (fun i -> (i * 2654435761) land 0xFFFFFFFF)
              in
              save_version (1 + (seed / 3 mod 3)) path words;
              Faults.mangle rng (read_file path))
      in
      with_temp (fun path ->
          write_file path content;
          let via_load =
            match Tracefile.load path with
            | ws -> Ok ws
            | exception Tracefile.Bad_file _ -> Error ()
          in
          let via_fold =
            match
              Tracefile.fold_words ~chunk_words:17 path ~init:[]
                ~f:(fun acc chunk ~len -> Array.sub chunk 0 len :: acc)
            with
            | chunks -> Ok (Array.concat (List.rev chunks))
            | exception Tracefile.Bad_file _ -> Error ()
          in
          via_load = via_fold))

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_writer_fold_roundtrip;
      Alcotest.test_case "tracefile: writer byte-identical to save" `Quick
        test_writer_byte_identical_to_save;
      Alcotest.test_case "tracefile: multi-block v2 file loads" `Quick
        test_multiblock_v2_load;
      Alcotest.test_case "tracefile: writer rejects bad words" `Quick
        test_writer_rejects_bad_words;
      Alcotest.test_case "tracefile: v2 full fold audits the stream end"
        `Quick test_v2_full_fold_audits_end;
      Alcotest.test_case "tracefile: fold_words lets callback exceptions \
                          through" `Quick test_fold_words_callback_exn;
      QCheck_alcotest.to_alcotest prop_fold_words_total;
    ]

(* ------------------------------------------------------------------ *)
(* Version-3 trace store: semantic codec, index trailer, seek windows,
   parallel decode, slice — and the decode-path fuzz sweep against
   trailer-targeted faults. *)

(* Trace-like word mix covering every semantic class (markers, drain
   protocol left out on purpose — classification is encoder-only) plus
   raw salad so codec selection is exercised. *)
let gen_v3_words =
  QCheck.Gen.(
    map Array.of_list
      (list_size (int_range 0 500)
         (oneof
            [
              map (fun i -> 0x00400000 + (4 * i)) (int_bound 8192);
              map (fun i -> 0x10000000 + (4 * i)) (int_bound 65536);
              map (fun i -> 0x80100000 + (4 * i)) (int_bound 4096);
              map (fun i -> 0xBFFF0000 lor (1 lsl 12) lor (i land 0xFFF))
                (int_bound 0xFFF);
              map (fun i -> i land 0xFFFFFFFF) (int_bound max_int);
            ])))

let prop_semantic_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"compress: semantic codec roundtrip on random slices"
    (QCheck.make
       ~print:(fun (ws, _, _) -> Printf.sprintf "<%d words>" (Array.length ws))
       QCheck.Gen.(triple gen_v3_words (int_bound 100) (int_bound 100)))
    (fun (words, a, b) ->
      let n = Array.length words in
      let pos = if n = 0 then 0 else a * n / 101 in
      let len = min (n - pos) (b * n / 101) in
      Compress.decode_semantic ~expect:len
        (Compress.encode_semantic words ~pos ~len)
      = Array.sub words pos len)

let prop_v3_version_roundtrip =
  (* chunk-split writer == save, load intact *)
  QCheck.Test.make ~count:200
    ~name:"tracefile: v3 chunked write + load roundtrip"
    (QCheck.make
       ~print:(fun (ws, _) -> Printf.sprintf "<%d words>" (Array.length ws))
       QCheck.Gen.(pair gen_v3_words gen_sizes))
    (fun (words, sizes) ->
      with_temp (fun p1 ->
          with_temp (fun p2 ->
              Tracefile.save ~compress:true p1 words;
              let w = Tracefile.open_writer ~compress:true p2 in
              List.iter
                (fun (pos, len) ->
                  Tracefile.write w (Array.sub words pos len) ~len)
                (cuts_of sizes (Array.length words));
              ignore (Tracefile.close_writer w);
              Tracefile.load p1 = words
              && read_file p1 = read_file p2
              && Tracefile.load p2 = words)))

(* A multi-block v3 trace (several 64K-word blocks) shared by the tests
   below; LCG-scrambled trace-like words so blocks are non-degenerate. *)
let multiblock_words =
  lazy
    (let x = ref 7 in
     Array.init 180_000 (fun i ->
         x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
         match i mod 13 with
         | 0 -> 0xBFFF0000 lor (1 lsl 12) lor (i land 0xFFF)
         | 1 | 2 | 3 | 4 -> 0x00400000 + (4 * (!x mod 8192))
         | 5 | 6 -> 0x10000000 + (4 * (!x mod 65536))
         | 7 | 8 | 9 -> 0x80100000 + (4 * (!x mod 4096))
         | _ -> !x))

let multiblock_file =
  lazy
    (let path = Filename.temp_file "systrace_v3multi" ".strc" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     Tracefile.save ~compress:true path (Lazy.force multiblock_words);
     path)

let test_v3_multiblock () =
  let words = Lazy.force multiblock_words in
  let path = Lazy.force multiblock_file in
  check "spans several blocks" true
    (Array.length words > 2 * Tracefile.v3_block_words);
  check "load intact" true (Tracefile.load path = words);
  (* byte identity of save and an arbitrarily chunked writer across
     block boundaries *)
  with_temp (fun p2 ->
      let w = Tracefile.open_writer ~compress:true p2 in
      List.iter
        (fun (pos, len) -> Tracefile.write w (Array.sub words pos len) ~len)
        (cuts_of [ 40_000; 1; 65536; 13 ] (Array.length words));
      ignore (Tracefile.close_writer w);
      Alcotest.(check string)
        "multi-block writer == save" (read_file path) (read_file p2));
  (* a window crossing a block boundary seeks to the covering block *)
  let from = Tracefile.v3_block_words - 7
  and until = Tracefile.v3_block_words + 9 in
  let got = ref [] in
  ignore
    (Tracefile.fold_words ~from ~until path ~init:()
       ~f:(fun () c ~len -> got := Array.sub c 0 len :: !got));
  check "boundary window == array window" true
    (Array.concat (List.rev !got) = Array.sub words from (until - from))

let prop_fold_window =
  (* fold_words ?from ?until == the materialized window, all formats *)
  QCheck.Test.make ~count:150
    ~name:"tracefile: fold_words window == array window (v1/v2/v3)"
    (QCheck.make
       ~print:(fun (ws, a, b, v) ->
         Printf.sprintf "<%d words, [%d,%d), v%d>" (Array.length ws) a b v)
       QCheck.Gen.(
         quad gen_v3_words (int_bound 600) (int_bound 600) (int_range 1 3)))
    (fun (words, a, b, version) ->
      let from = min a b and until = max a b in
      with_temp (fun path ->
          save_version version path words;
          let got = ref [] in
          ignore
            (Tracefile.fold_words ~chunk_words:23 ~from ~until path ~init:()
               ~f:(fun () c ~len -> got := Array.sub c 0 len :: !got));
          let n = Array.length words in
          let from' = min from n and until' = min until n in
          Array.concat (List.rev !got)
          = Array.sub words from' (max 0 (until' - from'))))

let prop_slice_matches_window =
  QCheck.Test.make ~count:100
    ~name:"tracefile: slice(from,until) == materialized array slice"
    (QCheck.make
       ~print:(fun (ws, a, b, v) ->
         Printf.sprintf "<%d words, [%d,%d), v%d>" (Array.length ws) a b v)
       QCheck.Gen.(
         quad gen_v3_words (int_bound 600) (int_bound 600) (int_range 1 3)))
    (fun (words, a, b, version) ->
      let from = min a b and until = max a b in
      with_temp (fun src ->
          with_temp (fun dst ->
              save_version version src words;
              let wrote = Tracefile.slice ~from ~until src dst in
              let n = Array.length words in
              let from' = min from n and until' = min until n in
              wrote = max 0 (until' - from')
              && Tracefile.load dst
                 = Array.sub words from' (max 0 (until' - from')))))

let prop_parallel_fold_identity =
  QCheck.Test.make ~count:100
    ~name:"tracefile: fold_blocks_parallel == fold_words (v1/v2/v3)"
    (QCheck.make
       ~print:(fun (ws, j, v) ->
         Printf.sprintf "<%d words, jobs=%d, v%d>" (Array.length ws) j v)
       QCheck.Gen.(triple gen_v3_words (int_range 1 4) (int_range 1 3)))
    (fun (words, jobs, version) ->
      with_temp (fun path ->
          save_version version path words;
          let seq = ref [] in
          ignore
            (Tracefile.fold_words path ~init:()
               ~f:(fun () c ~len -> seq := Array.sub c 0 len :: !seq));
          let par = ref [] in
          ignore
            (Tracefile.fold_blocks_parallel ~jobs path ~init:()
               ~f:(fun () c ~len -> par := Array.sub c 0 len :: !par));
          Array.concat (List.rev !par) = Array.concat (List.rev !seq)))

let test_parallel_fold_multiblock () =
  (* several blocks decoded on the pool, folded in order, == sequential *)
  let words = Lazy.force multiblock_words in
  let path = Lazy.force multiblock_file in
  let par = ref [] in
  ignore
    (Tracefile.fold_blocks_parallel ~jobs:3 path ~init:()
       ~f:(fun () c ~len -> par := Array.sub c 0 len :: !par));
  check "parallel multi-block == words" true
    (Array.concat (List.rev !par) = words);
  (* callback exceptions escape as themselves *)
  match
    Tracefile.fold_blocks_parallel ~jobs:2 path ~init:()
      ~f:(fun () _ ~len:_ -> raise Exit)
  with
  | () -> Alcotest.fail "callback exception swallowed"
  | exception Exit -> ()

let test_empty_writer_roundtrip () =
  (* a writer closed after zero words must produce a valid empty file in
     every format it writes, and so must an empty v2 file: load = [||],
     fold delivers no chunks, the structural scanner sees a clean empty
     trace *)
  List.iter
    (fun version ->
      with_temp (fun path ->
          if version = 2 then write_v2 path [||]
          else begin
            let w = Tracefile.open_writer ~compress:(version = 3) path in
            check_int "zero words" 0 (Tracefile.close_writer w)
          end;
          check "empty load" true (Tracefile.load path = [||]);
          ignore
            (Tracefile.fold_words path ~init:()
               ~f:(fun () _ ~len:_ -> Alcotest.fail "chunk on empty trace"));
          ignore
            (Tracefile.fold_blocks_parallel ~jobs:2 path ~init:()
               ~f:(fun () _ ~len:_ -> Alcotest.fail "chunk on empty trace"));
          let c = Parser.scanner () in
          check "empty trace scans clean" true (Parser.scan_finish c = [])))
    [ 1; 2; 3 ]

let test_lzss_limit_pad_boundary () =
  (* dist-0 group-padding items must be skipped BEFORE the output-limit
     check: a complete stream unpacked with limit = exact plaintext size
     must succeed even though pad items follow the last real byte, and
     limit = size - 1 must still be Corrupt. *)
  let cases =
    [
      "abc" (* 3 literal items + 5 pads in the final group *);
      String.concat "" (List.init 50 (fun i -> Printf.sprintf "%d," i));
      String.make 1000 'r' (* long match run, partial tail group *);
    ]
  in
  List.iter
    (fun s ->
      let packed = Compress.lzss_pack s in
      Alcotest.(check string)
        "exact-fit limit succeeds" s
        (Compress.lzss_unpack ~limit:(String.length s) packed);
      match Compress.lzss_unpack ~limit:(String.length s - 1) packed with
      | (_ : string) -> Alcotest.fail "limit - 1 not enforced"
      | exception Compress.Corrupt _ -> ())
    cases;
  (* concatenated complete streams carry pads mid-stream (v2 writer block
     flushes); the exact-fit limit must hold across the seam too *)
  let s = "hello, trace words, hello, trace words" in
  let packed2 = Compress.lzss_pack s ^ Compress.lzss_pack s in
  Alcotest.(check string)
    "exact-fit across block seam" (s ^ s)
    (Compress.lzss_unpack ~limit:(2 * String.length s) packed2)

(* --- decode-path fuzz sweep ---------------------------------------- *)

let prop_v3_fuzz_total =
  (* the PR-2 totality bar extended to v3: load and fold_words on any
     trailer-mangled file either succeed or raise Bad_file, and always
     agree with each other *)
  QCheck.Test.make ~count:300
    ~name:"tracefile: v3 trailer fuzz — load/fold total and equal"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let rng = Systrace_util.Rng.create seed in
      let base =
        with_temp (fun path ->
            let words =
              Array.init
                (200 + Systrace_util.Rng.int rng 400)
                (fun i -> (i * 2654435761) land 0xFFFFFFFF)
            in
            Tracefile.save ~compress:true path words;
            read_file path)
      in
      let mangled, _what = Faults.mangle_v3 rng base in
      with_temp (fun path ->
          write_file path mangled;
          let via_load =
            match Tracefile.load path with
            | ws -> Ok ws
            | exception Tracefile.Bad_file _ -> Error ()
          in
          let via_fold =
            match
              Tracefile.fold_words ~chunk_words:31 path ~init:[]
                ~f:(fun acc c ~len -> Array.sub c 0 len :: acc)
            with
            | chunks -> Ok (Array.concat (List.rev chunks))
            | exception Tracefile.Bad_file _ -> Error ()
          in
          let via_par =
            match
              Tracefile.fold_blocks_parallel ~jobs:2 path ~init:[]
                ~f:(fun acc c ~len -> Array.sub c 0 len :: acc)
            with
            | chunks -> Ok (Array.concat (List.rev chunks))
            | exception Tracefile.Bad_file _ -> Error ()
          in
          via_load = via_fold && via_load = via_par))

let test_v3_multiblock_trailer_fuzz () =
  (* the same sweep against a file with several blocks, where entry
     validation (overlap, tiling, monotone word offsets) has real work
     to do; the base file is built once, mangled hundreds of ways *)
  let base = read_file (Lazy.force multiblock_file) in
  let rng = Systrace_util.Rng.create 424242 in
  for _ = 1 to 300 do
    let mangled, what = Faults.mangle_v3 rng base in
    with_temp (fun path ->
        write_file path mangled;
        match Tracefile.load path with
        | (_ : int array) -> ()
        | exception Tracefile.Bad_file msg ->
          if String.length msg = 0 then
            Alcotest.failf "empty diagnosis for %s" what
        | exception e ->
          Alcotest.failf "%s escaped as %s" what (Printexc.to_string e))
  done

let test_v3_targeted_diagnoses () =
  (* deterministic fault classes must produce Bad_file with the matching
     structured diagnosis, not a generic failure: drive mangle_v3 until
     every class has been seen, and check the message each time *)
  let base = read_file (Lazy.force multiblock_file) in
  let rng = Systrace_util.Rng.create 1337 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 400 do
    let mangled, what = Faults.mangle_v3 rng base in
    let class_of w =
      List.find_opt (fun p -> String.length w >= String.length p
                              && String.sub w 0 (String.length p) = p)
        [ "trailer truncated"; "index bit rot"; "payload bit rot";
          "footer magic"; "footer block count" ]
    in
    let expect_substring =
      (* classes whose diagnosis is deterministic *)
      match class_of what with
      | Some "index bit rot" -> Some "index CRC"
      | Some "payload bit rot" -> Some "CRC mismatch"
      | Some "footer magic" -> Some "footer"
      | _ -> None
    in
    with_temp (fun path ->
        write_file path mangled;
        match Tracefile.load path with
        | (_ : int array) -> Alcotest.failf "%s loaded clean" what
        | exception Tracefile.Bad_file msg ->
          Hashtbl.replace seen
            (Option.value ~default:"entry lie" (class_of what)) ();
          (match expect_substring with
          | Some sub when not (contains msg sub) ->
            Alcotest.failf "%s diagnosed as %S (wanted %S)" what msg sub
          | _ -> ()))
  done;
  check "every targeted fault class exercised" true (Hashtbl.length seen >= 6)

(* --- backward-compat fixtures -------------------------------------- *)

(* MUST match scratch history: the fixture files in test/ were written by
   this exact generator when each format version landed; decoding must
   keep producing these words from those bytes forever. *)
let fixture_words =
  let x = ref 1 in
  Array.init 5000 (fun i ->
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      match i mod 11 with
      | 0 -> 0xBFFF0000 lor (1 lsl 12) lor (i land 0xFFF)
      | 1 | 2 | 3 -> 0x00400000 + (4 * (!x mod 8192))
      | 4 | 5 -> 0x10000000 + (4 * (!x mod 65536))
      | 6 | 7 | 8 -> 0x80100000 + (4 * (!x mod 4096))
      | _ -> !x)

let test_backward_compat_fixtures () =
  List.iter
    (fun (file, version) ->
      let words = Tracefile.load file in
      check (Printf.sprintf "v%d fixture loads byte-identically" version) true
        (words = fixture_words);
      let folded = ref [] in
      ignore
        (Tracefile.fold_words file ~init:()
           ~f:(fun () c ~len -> folded := Array.sub c 0 len :: !folded));
      check (Printf.sprintf "v%d fixture folds identically" version) true
        (Array.concat (List.rev !folded) = fixture_words))
    [ ("fixture_v1.strc", 1); ("fixture_v2.strc", 2); ("fixture_v3.strc", 3) ];
  (* the test suite's v2 writer reproduces the checked-in v2 fixture, so
     the random v2 files it draws are the real format *)
  with_temp (fun path ->
      write_v2 path fixture_words;
      Alcotest.(check string)
        "write_v2 == v2 fixture bytes" (read_file "fixture_v2.strc")
        (read_file path))

(* The codecs reuse per-domain scratch from block to block, so the
   writer's bytes are pinned: saving the fixture words reproduces the
   checked-in v3 fixture, also right after this domain packed and
   unpacked a larger trace, and a multi-block file reads back the same
   through both readers, twice. *)
let test_v3_bytes_pinned_across_reuse () =
  let fixture = read_file "fixture_v3.strc" in
  let save_fixture what =
    with_temp (fun path ->
        Tracefile.save ~compress:true path fixture_words;
        Alcotest.(check string) what fixture (read_file path))
  in
  save_fixture "v3 save == v3 fixture bytes";
  let rng = Random.State.make [| 18 |] in
  let big =
    Array.init ((2 * Tracefile.v3_block_words) + 4321) (fun i ->
        if i land 3 = 0 then
          let hi = Random.State.bits rng lsl 30 in
          (hi lor Random.State.bits rng) land 0xFFFFFFFF
        else fixture_words.(i mod Array.length fixture_words))
  in
  with_temp (fun path ->
      Tracefile.save ~compress:true path big;
      check "larger trace round-trips" true (Tracefile.load path = big));
  save_fixture "v3 save == v3 fixture bytes after a larger trace";
  let path = Lazy.force multiblock_file in
  let words = Lazy.force multiblock_words in
  let collect fold =
    let acc = ref [] in
    ignore (fold path ~init:() ~f:(fun () c ~len -> acc := Array.sub c 0 len :: !acc));
    Array.concat (List.rev !acc)
  in
  for pass = 1 to 2 do
    check (Printf.sprintf "fold_words, pass %d" pass) true
      (collect (fun p -> Tracefile.fold_words p) = words);
    check (Printf.sprintf "fold_blocks_parallel ~jobs:2, pass %d" pass) true
      (collect (fun p -> Tracefile.fold_blocks_parallel ~jobs:2 p) = words)
  done

let tests =
  tests
  @ [
      Alcotest.test_case "tracefile: v3 bytes pinned across scratch reuse"
        `Quick test_v3_bytes_pinned_across_reuse;
      QCheck_alcotest.to_alcotest prop_semantic_roundtrip;
      QCheck_alcotest.to_alcotest prop_v3_version_roundtrip;
      Alcotest.test_case "tracefile: v3 multi-block store" `Quick
        test_v3_multiblock;
      QCheck_alcotest.to_alcotest prop_fold_window;
      QCheck_alcotest.to_alcotest prop_slice_matches_window;
      QCheck_alcotest.to_alcotest prop_parallel_fold_identity;
      Alcotest.test_case "tracefile: parallel fold across blocks" `Quick
        test_parallel_fold_multiblock;
      Alcotest.test_case "tracefile: empty writer round-trips (v1/v2/v3)"
        `Quick test_empty_writer_roundtrip;
      Alcotest.test_case "compress: lzss pad items skip the output limit"
        `Quick test_lzss_limit_pad_boundary;
      QCheck_alcotest.to_alcotest prop_v3_fuzz_total;
      Alcotest.test_case "tracefile: v3 multi-block trailer fuzz" `Quick
        test_v3_multiblock_trailer_fuzz;
      Alcotest.test_case "tracefile: v3 targeted fault diagnoses" `Quick
        test_v3_targeted_diagnoses;
      Alcotest.test_case "tracefile: v1/v2/v3 backward-compat fixtures" `Quick
        test_backward_compat_fixtures;
    ]
