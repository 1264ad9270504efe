(* The systrace command line, driven as a user runs it: the binary is a
   test dependency, each case spawns it and checks its output and exit
   status. *)

let cli =
  (* beside the test under dune runtest; from the repo root otherwise *)
  List.find Sys.file_exists
    [ "../bin/systrace_cli.exe"; "_build/default/bin/systrace_cli.exe" ]

(* Run the CLI; its stdout lines and exit code. *)
let run args =
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: args)) in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (out, code)

(* Run the CLI for its exit status alone; stdout and stderr are
   discarded. *)
let status args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin null null
  in
  Unix.close null;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

(* The interpreter has two tiers, step and super.  The removed tier names
   and the options that only steered them are usage errors (cmdliner's
   exit 124) on every command that takes [--interp-tier], not silently
   ignored flags. *)
let test_removed_tier_options () =
  List.iter
    (fun cmd ->
      List.iter
        (fun opts ->
          Alcotest.(check int)
            (String.concat " " (cmd :: opts) ^ " is a usage error")
            124 (status (cmd :: "egrep" :: opts)))
        [
          [ "--interp-tier"; "trace" ];
          [ "--interp-tier"; "bcache" ];
          [ "--interp-tier"; "tcache" ];
          [ "--no-bcache" ];
          [ "--trace-len"; "8" ];
        ])
    [ "run"; "validate" ]

(* The step-at-a-time oracle and the default fast path print the same
   counters and console. *)
let test_step_tier_matches_default () =
  let step, code = run [ "run"; "egrep"; "--interp-tier"; "step" ] in
  Alcotest.(check int) "step exit" 0 code;
  let default, code = run [ "run"; "egrep" ] in
  Alcotest.(check int) "default exit" 0 code;
  Alcotest.(check bool) "counters printed" true
    (List.exists (String.starts_with ~prefix:"instructions: ") default);
  Alcotest.(check (list string)) "step == default" default step

(* A clean Mach trace ends with the UX server still blocked in receive:
   [check -w] must pass it to the parser as live, or it reports the
   server's open block as incomplete and fails a clean dump. *)
let test_check_clean_mach_dump () =
  let path = Filename.temp_file "systrace_cli" ".strc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let _, code = run [ "dump"; "gcc"; "--os"; "mach"; "-o"; path ] in
      Alcotest.(check int) "dump exit" 0 code;
      let out, code = run [ "check"; path; "-w"; "gcc"; "--os"; "mach" ] in
      let has prefix = List.exists (String.starts_with ~prefix) out in
      if not (has "full parse against gcc tables: 0 diagnosis(es)") then
        Alcotest.failf "full parse diagnosed a clean dump:\n%s"
          (String.concat "\n" out);
      Alcotest.(check bool) "reports OK" true (has (path ^ ": OK"));
      Alcotest.(check int) "check exit" 0 code)

(* [analyze] and [sweep] read a stored trace against the traced system
   that captured it.  Their figures must be an in-process replay of the
   same file over [Validate.build]'s system. *)
let traced_system name os =
  Systrace_validate.Validate.build
    ~cfg:{ Systrace_kernel.Builder.default_config with traced = true }
    os
    (Systrace_validate.Experiments.spec_of (Systrace_workloads.Suite.find name))

let test_analyze_and_sweep ~name ~os ~compress () =
  let module P = Systrace_tracing.Parser in
  let module M = Systrace_tracesim.Memsim in
  let os_flag =
    [ "--os"; (match os with Systrace.Ultrix -> "ultrix" | Systrace.Mach -> "mach") ]
  in
  let path = Filename.temp_file "systrace_cli" ".strc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let _, code =
        run ((("dump" :: name :: os_flag) @ [ "-o"; path ])
             @ if compress then [ "-z" ] else [])
      in
      Alcotest.(check int) "dump exit" 0 code;
      let system = traced_system name os in
      let mem, parse =
        Systrace.replay_file ~system
          ~memsim_cfg:(Systrace.default_memsim_cfg ~system) path
      in
      let out, code = run (("analyze" :: name :: os_flag) @ [ path ]) in
      Alcotest.(check int) "analyze exit" 0 code;
      Alcotest.(check (list string)) "analyze == in-process replay"
        [
          Printf.sprintf
            "%s: %d words -> %d instructions (%d user / %d kernel), %d data \
             refs"
            path parse.P.words parse.P.insts parse.P.user_insts
            parse.P.kernel_insts parse.P.datas;
          Printf.sprintf
            "memory system: %d icache misses, %d dcache read misses, %d wb \
             stalls, %d user TLB misses"
            mem.M.icache_misses mem.M.dcache_read_misses mem.M.wb_stalls
            mem.M.utlb_misses;
        ]
        out;
      (* The one-point grid changes only the line sizes (16 B for both
         caches) from analyze's configuration. *)
      let cfg =
        match
          M.grid ~base:(Systrace.default_memsim_cfg ~system) ~sizes:[ 16384 ]
            ~lines:[ 16 ] ~tlb_entries:[ 64 ] ~wb_depths:[ 4 ] ()
        with
        | [ (_, cfg) ] -> cfg
        | _ -> Alcotest.fail "one-point grid"
      in
      let swept, _ = Systrace.replay_file ~system ~memsim_cfg:cfg path in
      let out, code =
        run
          (("sweep" :: name :: os_flag)
          @ [ path; "--sizes"; "16"; "--lines"; "16"; "--tlb"; "64"; "--wb";
              "4"; "-j"; "1" ])
      in
      Alcotest.(check int) "sweep exit" 0 code;
      let row =
        List.filter (( <> ) "")
          (String.split_on_char ' ' (List.nth out (List.length out - 1)))
      in
      match row with
      | [ size; tlb; depth; _; _; utlb; wb ] ->
        Alcotest.(check string) "grid point" "16K/16B/1w tlb64 wb4"
          (String.concat " " [ size; tlb; depth ]);
        Alcotest.(check int) "sweep utlb == analyze utlb" mem.M.utlb_misses
          (int_of_string utlb);
        Alcotest.(check int) "sweep utlb == in-process replay"
          swept.M.utlb_misses (int_of_string utlb);
        Alcotest.(check int) "sweep wb stalls == in-process replay"
          swept.M.wb_stalls (int_of_string wb)
      | _ -> Alcotest.failf "sweep row: %s" (String.concat "\n" out))

let tests =
  [
    Alcotest.test_case "analyze + sweep: gcc/Mach dump" `Quick
      (test_analyze_and_sweep ~name:"gcc" ~os:Systrace.Mach ~compress:false);
    Alcotest.test_case "analyze + sweep: compressed egrep dump" `Quick
      (test_analyze_and_sweep ~name:"egrep" ~os:Systrace.Ultrix ~compress:true);
    Alcotest.test_case "check -w: clean gcc/Mach dump" `Quick
      test_check_clean_mach_dump;
    Alcotest.test_case "removed tier options are usage errors" `Quick
      test_removed_tier_options;
    Alcotest.test_case "run: step tier prints the default's counters" `Quick
      test_step_tier_matches_default;
  ]
