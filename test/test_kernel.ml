(* End-to-end kernel tests: boot the full system (kernel + user programs
   on the simulated machine) untraced and traced, under both personalities,
   and validate console output, file I/O, scheduling, and the collected
   traces. *)

open Systrace_isa
open Systrace_tracing
open Systrace_kernel
open Systrace_workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A program that prints a greeting and exits. *)
let hello_prog () : Builder.program =
  let a = Asm.create "hello" in
  let open Asm in
  func a "main" ~frame:0 ~saves:[] (fun () ->
      la a Reg.a0 "$msg";
      jal a "puts";
      li a Reg.v0 0);
  dlabel a "$msg";
  asciiz a "hello, world\n";
  {
    Builder.pname = "hello";
    modules = [ to_obj a; Userlib.make () ];
    heap_pages = 4;
    is_server = false;
    notrace = false;
  }

(* Opens a file, sums its bytes with read(), prints the sum. *)
let checksum_prog ?(name = "cksum") ~file () : Builder.program =
  let a = Asm.create name in
  let open Asm in
  func a "main" ~frame:0 ~saves:[ Reg.s0; Reg.s1; Reg.s2 ] (fun () ->
      la a Reg.a0 "$fname";
      jal a "u_open";
      move a Reg.s0 Reg.v0;          (* fd *)
      bltz a Reg.s0 "$ck_fail";
      li a Reg.s1 0;                 (* sum *)
      label a "$ck_loop";
      move a Reg.a0 Reg.s0;
      la a Reg.a1 "$buf";
      li a Reg.a2 512;
      jal a "u_read";
      blez a Reg.v0 "$ck_done";
      move a Reg.s2 Reg.v0;          (* n *)
      la a Reg.t0 "$buf";
      addu a Reg.t1 Reg.t0 Reg.s2;
      label a "$ck_sum";
      beq a Reg.t0 Reg.t1 "$ck_loop";
      nop a;
      lbu a Reg.t2 0 Reg.t0;
      addu a Reg.s1 Reg.s1 Reg.t2;
      i a (Insn.J (Sym "$ck_sum"));
      addiu a Reg.t0 Reg.t0 1;
      label a "$ck_done";
      move a Reg.a0 Reg.s1;
      jal a "print_uint";
      la a Reg.a0 "$nl";
      jal a "puts";
      li a Reg.v0 0;
      j_ a (name ^ "::exit_ok");
      label a "$ck_fail";
      la a Reg.a0 "$failmsg";
      jal a "puts";
      li a Reg.v0 1;
      label a (name ^ "::exit_ok"));
  dlabel a "$fname";
  asciiz a file;
  dlabel a "$nl";
  asciiz a "\n";
  dlabel a "$failmsg";
  asciiz a "open failed\n";
  dlabel a "$buf";
  space a 512;
  {
    Builder.pname = name;
    modules = [ to_obj a; Userlib.make () ];
    heap_pages = 4;
    is_server = false;
    notrace = false;
  }

(* Yields in a loop, printing its tag each round: exercises scheduling. *)
let pingpong_prog ~name ~tag ~rounds () : Builder.program =
  let a = Asm.create name in
  let open Asm in
  func a "main" ~frame:0 ~saves:[ Reg.s0 ] (fun () ->
      li a Reg.s0 rounds;
      label a "$pp_loop";
      la a Reg.a0 "$tag";
      jal a "puts";
      jal a "u_yield";
      addiu a Reg.s0 Reg.s0 (-1);
      bgtz a Reg.s0 "$pp_loop";
      li a Reg.v0 0);
  dlabel a "$tag";
  asciiz a tag;
  {
    Builder.pname = name;
    modules = [ to_obj a; Userlib.make () ];
    heap_pages = 4;
    is_server = false;
    notrace = false;
  }

let test_file =
  {
    Builder.fname = "input";
    data = String.init 1000 (fun i -> Char.chr (i land 0xFF));
    writable_bytes = 0;
  }

let expected_checksum =
  let s = String.init 1000 (fun i -> Char.chr (i land 0xFF)) in
  String.fold_left (fun acc c -> acc + Char.code c) 0 s

let run_system ?(cfg = Builder.default_config) ?(files = []) programs =
  let t = Builder.build ~cfg ~programs ~files () in
  (match Builder.run t ~max_insns:100_000_000 with
  | Systrace_machine.Machine.Halt -> ()
  | Systrace_machine.Machine.Limit -> Alcotest.fail "system did not halt");
  t

(* ------------------------------------------------------------------ *)

let test_boot_hello () =
  let t = run_system [ hello_prog () ] in
  check_str "console" "hello, world\n" (Builder.console t)

let test_file_read () =
  let t = run_system ~files:[ test_file ] [ checksum_prog ~file:"input" () ] in
  check_str "console" (string_of_int expected_checksum ^ "\n") (Builder.console t)

let test_two_processes () =
  let t =
    run_system
      [
        pingpong_prog ~name:"ping" ~tag:"a" ~rounds:5 ();
        pingpong_prog ~name:"pong" ~tag:"b" ~rounds:5 ();
      ]
  in
  let out = Builder.console t in
  check_int "total rounds" 10 (String.length out);
  (* yield alternates the two processes *)
  check "interleaved" true
    (String.length out >= 4 && out.[0] <> out.[1])

let test_utlb_misses_occur () =
  let t = run_system ~files:[ test_file ] [ checksum_prog ~file:"input" () ] in
  check "utlb misses" true (t.Builder.machine.Systrace_machine.Machine.c.Systrace_machine.Machine.utlb_misses > 0)

(* ------------------------------------------------------------------ *)
(* Traced runs                                                         *)

(* Run traced; parse everything through the trace parser; return
   (system, parser stats). *)
let run_traced ?(cfg = Builder.default_config) ?(files = []) ?(live = []) programs =
  let cfg = { cfg with Builder.traced = true } in
  let t = Builder.build ~cfg ~programs ~files () in
  let kernel_bbs = Option.get t.Builder.kernel_bbs in
  let p = Parser.create ~kernel_bbs () in
  List.iter
    (fun (pi : Builder.proc_info) ->
      Parser.register_pid p ~pid:pi.pid (Option.get pi.bbs))
    t.Builder.procs;
  t.Builder.trace_sink <- Some (fun words len -> Parser.feed p words ~len);
  (match Builder.run t ~max_insns:600_000_000 with
  | Systrace_machine.Machine.Halt -> ()
  | Systrace_machine.Machine.Limit -> Alcotest.fail "traced system did not halt");
  Builder.drain_final t;
  Parser.finish ~live p;
  (t, Parser.stats p)

let test_traced_hello () =
  let t, stats = run_traced [ hello_prog () ] in
  check_str "console" "hello, world\n" (Builder.console t);
  check "user insts traced" true (stats.Parser.user_insts > 100);
  check "kernel insts traced" true (stats.Parser.kernel_insts > 100);
  check "drains happened" true (stats.Parser.drains > 0)

let test_traced_matches_untraced () =
  (* The parsed user instruction count of the traced run should closely
     match the machine's ground-truth user instruction count from the
     untraced run (same deterministic program).  They are not exactly
     equal: the untraced count includes the (untraced) crt0 and the
     blocked-syscall retries can differ with timing. *)
  let tu = run_system ~files:[ test_file ] [ checksum_prog ~file:"input" () ] in
  let tt, stats = run_traced ~files:[ test_file ] [ checksum_prog ~file:"input" () ] in
  check_str "same console output"
    (Builder.console tu) (Builder.console tt);
  let measured =
    tu.Builder.machine.Systrace_machine.Machine.c.Systrace_machine.Machine.user_instructions
  in
  let parsed = stats.Parser.user_insts in
  let err =
    abs_float (float_of_int parsed -. float_of_int measured)
    /. float_of_int measured
  in
  if err > 0.02 then
    Alcotest.failf "user instruction counts diverge: measured %d parsed %d"
      measured parsed

let test_traced_two_processes () =
  let t, stats =
    run_traced
      [
        pingpong_prog ~name:"ping" ~tag:"a" ~rounds:5 ();
        pingpong_prog ~name:"pong" ~tag:"b" ~rounds:5 ();
      ]
  in
  check_int "console length" 10 (String.length (Builder.console t));
  check "pid switches in trace" true (stats.Parser.pid_switches >= 2)

let test_analysis_mode_transitions () =
  (* A small in-kernel buffer forces generation/analysis mode switches. *)
  let cfg =
    {
      Builder.default_config with
      Builder.trace_buf_bytes = 64 * 1024;
      trace_slack_bytes = 24 * 1024;
      analysis_chunk = 2048;
    }
  in
  let big_file =
    {
      Builder.fname = "input";
      data = String.init 8000 (fun i -> Char.chr (i land 0xFF));
      writable_bytes = 0;
    }
  in
  let t, stats =
    run_traced ~cfg ~files:[ big_file ] [ checksum_prog ~file:"input" () ]
  in
  check "multiple analyze calls" true (t.Builder.analyze_calls > 1);
  check "mode transitions recorded" true (stats.Parser.mode_transitions >= 2);
  let big_sum =
    let s = String.init 8000 (fun i -> Char.chr (i land 0xFF)) in
    String.fold_left (fun acc c -> acc + Char.code c) 0 s
  in
  check_str "output still right" (string_of_int big_sum ^ "\n")
    (Builder.console t)

(* ------------------------------------------------------------------ *)
(* Mach personality                                                     *)

let mach_cfg = { Builder.default_config with Builder.personality = Kcfg.Mach }

let mach_system ~files programs =
  let server =
    {
      Builder.pname = "uxserver";
      modules =
        [ Ux_server.make ~file_plan:(Builder.file_plan files) (); Userlib.make () ];
      heap_pages = 4;
      is_server = true;
      notrace = false;
    }
  in
  server :: programs

let test_mach_file_read () =
  let programs = mach_system ~files:[ test_file ] [ checksum_prog ~file:"input" () ] in
  let t = run_system ~cfg:mach_cfg ~files:[ test_file ] programs in
  check_str "console" (string_of_int expected_checksum ^ "\n") (Builder.console t)

let test_mach_traced () =
  let programs = mach_system ~files:[ test_file ] [ checksum_prog ~file:"input" () ] in
  let t, stats = run_traced ~cfg:mach_cfg ~files:[ test_file ] ~live:[ 0 ] programs in
  check_str "console" (string_of_int expected_checksum ^ "\n") (Builder.console t);
  (* The trace-page fault path must have marked both processes traced. *)
  let pcb0_traced = Builder.peek_off t "pcbs" Kcfg.pcb_traced in
  let pcb1_traced = Builder.peek_off t "pcbs" (Kcfg.pcb_size + Kcfg.pcb_traced) in
  check_int "server traced by reference" 1 pcb0_traced;
  check_int "client traced by reference" 1 pcb1_traced;
  (* Mach preloads TLB entries at every switch. *)
  check "tlb_map_random calls" true (Builder.tlbdropins t > 0);
  check "user trace from both sides" true (stats.Parser.user_insts > 1000)

let test_mach_amplification () =
  (* The microkernel structure multiplies kernel crossings: every file
     operation becomes recv/reply/copy/raw-IO syscalls in the UX server.
     (Table 3's TLB-miss amplification shows up at realistic workload
     scale in the validation harness; at this micro scale we check the
     structural cause: syscall amplification and server-side user work.) *)
  let programs = mach_system ~files:[ test_file ] [ checksum_prog ~file:"input" () ] in
  let tm = run_system ~cfg:mach_cfg ~files:[ test_file ] programs in
  let tu = run_system ~files:[ test_file ] [ checksum_prog ~file:"input" () ] in
  let syscalls t =
    t.Builder.machine.Systrace_machine.Machine.c.Systrace_machine.Machine.syscalls
  in
  let user t =
    t.Builder.machine.Systrace_machine.Machine.c.Systrace_machine.Machine.user_instructions
  in
  check "mach makes more syscalls" true (syscalls tm > 2 * syscalls tu);
  check "mach does more user work" true (user tm > user tu)

let tests =
  [
    Alcotest.test_case "boot + hello" `Quick test_boot_hello;
    Alcotest.test_case "file read + checksum" `Quick test_file_read;
    Alcotest.test_case "two processes yield" `Quick test_two_processes;
    Alcotest.test_case "utlb misses occur" `Quick test_utlb_misses_occur;
    Alcotest.test_case "traced hello" `Quick test_traced_hello;
    Alcotest.test_case "traced matches untraced" `Quick test_traced_matches_untraced;
    Alcotest.test_case "traced two processes" `Quick test_traced_two_processes;
    Alcotest.test_case "analysis mode transitions" `Quick test_analysis_mode_transitions;
    Alcotest.test_case "mach: file read via ux server" `Quick test_mach_file_read;
    Alcotest.test_case "mach: traced run" `Quick test_mach_traced;
    Alcotest.test_case "mach: microkernel amplification" `Quick
      test_mach_amplification;
  ]

let test_selective_tracing () =
  (* §3.1: "pick and choose the processes to be traced" — one traced, one
     notrace process on a traced system.  Both run correctly; the parsed
     user trace contains only the traced process. *)
  let traced_p = pingpong_prog ~name:"ping" ~tag:"a" ~rounds:4 () in
  let untraced_p =
    { (pingpong_prog ~name:"pong" ~tag:"b" ~rounds:4 ()) with
      Builder.notrace = true }
  in
  let cfg = { Builder.default_config with Builder.traced = true } in
  let t = Builder.build ~cfg ~programs:[ traced_p; untraced_p ] ~files:[] () in
  let p = Parser.create ~kernel_bbs:(Option.get t.Builder.kernel_bbs) () in
  List.iter
    (fun (pi : Builder.proc_info) ->
      match pi.bbs with
      | Some bbs -> Parser.register_pid p ~pid:pi.pid bbs
      | None -> ())
    t.Builder.procs;
  let user_insts_by_pid = Hashtbl.create 4 in
  Parser.set_handlers p
    {
      Parser.on_inst =
        (fun _ pid kernel ->
          if not kernel then
            Hashtbl.replace user_insts_by_pid pid
              (1 + Option.value ~default:0 (Hashtbl.find_opt user_insts_by_pid pid)));
      on_data = (fun _ _ _ _ _ -> ());
    };
  t.Builder.trace_sink <- Some (fun words len -> Parser.feed p words ~len);
  (match Builder.run t ~max_insns:200_000_000 with
  | Systrace_machine.Machine.Halt -> ()
  | Systrace_machine.Machine.Limit -> Alcotest.fail "no halt");
  Builder.drain_final t;
  Parser.finish p;
  check_int "both produced output" 8 (String.length (Builder.console t));
  let insts pid = Option.value ~default:0 (Hashtbl.find_opt user_insts_by_pid pid) in
  check "traced process in trace" true (insts 0 > 100);
  check_int "untraced process absent from trace" 0 (insts 1)

(* The same selective-tracing system through the facade: [run_traced]
   and a [replay_sweep] of its captured words must both accept a process
   that has no block table, and the notrace pid must get no user
   references. *)
let test_selective_tracing_facade () =
  let traced_p = pingpong_prog ~name:"ping" ~tag:"a" ~rounds:4 () in
  let untraced_p =
    { (pingpong_prog ~name:"pong" ~tag:"b" ~rounds:4 ()) with
      Builder.notrace = true }
  in
  let user_refs = Array.make 2 0 in
  let count pid kernel =
    if not kernel then user_refs.(pid) <- user_refs.(pid) + 1
  in
  let on_event = function
    | Systrace.Inst { pid; kernel; _ } -> count pid kernel
    | Systrace.Data { pid; kernel; _ } -> count pid kernel
  in
  let sink, words = Sink.to_array () in
  let run =
    Systrace.run_traced ~on_event ~sink [ traced_p; untraced_p ] []
  in
  check_int "both produced output" 8 (String.length run.Systrace.console);
  check "ping's output" true (String.contains run.Systrace.console 'a');
  check "pong's output" true (String.contains run.Systrace.console 'b');
  check "traced process in trace" true (user_refs.(0) > 100);
  check_int "notrace process gets no references" 0 user_refs.(1);
  let system = run.Systrace.system in
  let _, _, parse =
    Systrace.replay_sweep ~system
      ~memsim_cfgs:[ Systrace.default_memsim_cfg ~system ]
      (words ())
  in
  check_int "replay parses every user instruction"
    run.Systrace.parse_stats.Parser.user_insts parse.Parser.user_insts

let tests = tests @ [
  Alcotest.test_case "selective tracing (3.1)" `Quick test_selective_tracing;
  Alcotest.test_case "selective tracing through the facade" `Quick
    test_selective_tracing_facade;
]

let test_bad_syscall_returns_error () =
  (* An out-of-range syscall number returns -1 without harming the
     system. *)
  let a = Asm.create "bad" in
  let open Asm in
  func a "main" ~frame:0 ~saves:[] (fun () ->
      li a Reg.v0 99;
      syscall a;
      (* v0 = 0xFFFFFFFF: print 1 if so *)
      addiu a Reg.t0 Reg.v0 1;
      beqz a Reg.t0 "$ok";
      nop a;
      la a Reg.a0 "$no";
      jal a "puts";
      j_ a "$out";
      label a "$ok";
      la a Reg.a0 "$yes";
      jal a "puts";
      label a "$out";
      li a Reg.v0 0);
  dlabel a "$yes";
  asciiz a "ok";
  dlabel a "$no";
  asciiz a "bad";
  let prog = Builder.program "bad" [ to_obj a; Userlib.make () ] in
  let t = run_system [ prog ] in
  check_str "error returned" "ok" (Builder.console t)

let test_wild_pointer_panics () =
  (* Under Ultrix a store through a wild pointer has no handler: the
     kernel panics (reported as Builder.Panic, not a hang). *)
  let a = Asm.create "wild" in
  let open Asm in
  func a "main" ~frame:0 ~saves:[] (fun () ->
      li a Reg.t0 0x7000_0000;        (* unmapped user page *)
      sw a Reg.zero 0 Reg.t0;
      li a Reg.v0 0);
  let prog = Builder.program "wild" [ to_obj a; Userlib.make () ] in
  let t = Builder.build ~cfg:Builder.default_config ~programs:[ prog ] ~files:[] () in
  check "panics" true
    (try
       ignore (Builder.run t ~max_insns:10_000_000);
       false
     with Builder.Panic _ -> true)

let tests = tests @ [
  Alcotest.test_case "bad syscall returns error" `Quick
    test_bad_syscall_returns_error;
  Alcotest.test_case "wild pointer panics" `Quick test_wild_pointer_panics;
]

let test_file_writes_reach_disk () =
  (* Ultrix's synchronous write-through: output written by sed must be on
     the disk image when the system halts, with the substitution applied. *)
  let e = Systrace_workloads.Suite.find "sed" in
  let t =
    Builder.build ~cfg:Builder.default_config
      ~programs:[ e.Systrace_workloads.Suite.program () ]
      ~files:e.Systrace_workloads.Suite.files ()
  in
  (match Builder.run t ~max_insns:200_000_000 with
  | Systrace_machine.Machine.Halt -> ()
  | Systrace_machine.Machine.Limit -> Alcotest.fail "no halt");
  let plan = Builder.file_plan e.Systrace_workloads.Suite.files in
  let _, start, _ = List.find (fun (n, _, _) -> n = "sed.out") plan in
  let out =
    Systrace_machine.Disk.read_image t.Builder.machine.Systrace_machine.Machine.disk
      ~block:start ~off:0 ~len:64
  in
  (* the input's "ab" pairs became "XY" *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "substitution on disk" true (contains out "XY");
  check "no ab left in window" true (not (contains out "ab"))

let tests = tests @ [
  Alcotest.test_case "file writes reach disk" `Quick test_file_writes_reach_disk;
]

let test_concurrent_workload_mix () =
  (* Four different programs timesharing one traced system: the full
     multi-process promise of Figure 1.  Every program must produce its
     solo output, and the parser must account user work to all four. *)
  let names = [ "sed"; "egrep"; "yacc"; "lisp" ] in
  let entries = List.map Systrace_workloads.Suite.find names in
  let files = List.concat_map (fun e -> e.Systrace_workloads.Suite.files) entries in
  let programs = List.map (fun e -> e.Systrace_workloads.Suite.program ()) entries in
  (* solo outputs, for comparison *)
  let solo =
    List.map
      (fun (e : Systrace_workloads.Suite.entry) ->
        let t =
          Builder.build ~cfg:Builder.default_config
            ~programs:[ e.Systrace_workloads.Suite.program () ]
            ~files:e.Systrace_workloads.Suite.files ()
        in
        (match Builder.run t ~max_insns:500_000_000 with
        | Systrace_machine.Machine.Halt -> ()
        | Systrace_machine.Machine.Limit -> Alcotest.fail "solo: no halt");
        Builder.console t)
      entries
  in
  let cfg = { Builder.default_config with Builder.traced = true } in
  let t = Builder.build ~cfg ~programs ~files () in
  let p = Parser.create ~kernel_bbs:(Option.get t.Builder.kernel_bbs) () in
  List.iter
    (fun (pi : Builder.proc_info) ->
      Parser.register_pid p ~pid:pi.pid (Option.get pi.bbs))
    t.Builder.procs;
  let per_pid = Hashtbl.create 8 in
  Parser.set_handlers p
    {
      Parser.on_inst =
        (fun _ pid kernel ->
          if not kernel then
            Hashtbl.replace per_pid pid
              (1 + Option.value ~default:0 (Hashtbl.find_opt per_pid pid)));
      on_data = (fun _ _ _ _ _ -> ());
    };
  t.Builder.trace_sink <- Some (fun words len -> Parser.feed p words ~len);
  (match Builder.run t ~max_insns:1_000_000_000 with
  | Systrace_machine.Machine.Halt -> ()
  | Systrace_machine.Machine.Limit -> Alcotest.fail "mix: no halt");
  Builder.drain_final t;
  Parser.finish p;
  (* every solo output appears in the interleaved console *)
  let out = Builder.console t in
  List.iteri
    (fun k s ->
      let s = String.trim s in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        nn = 0 || go 0
      in
      check (List.nth names k ^ " output present") true (contains out s))
    solo;
  (* all four processes contributed traced user work *)
  List.iteri
    (fun pid name ->
      check (name ^ " traced") true
        (Option.value ~default:0 (Hashtbl.find_opt per_pid pid) > 1000))
    names;
  check "many context switches" true
    ((Parser.stats p).Parser.pid_switches > 10)

let tests = tests @ [
  Alcotest.test_case "concurrent workload mix" `Slow test_concurrent_workload_mix;
]

let test_drain_ablation () =
  (* flush-only-when-full must preserve the computation and every user
     trace word (exit drains the residual buffer); only the interleaving differs,
     quantified by the kernel's overtaken-words counter. *)
  let e = Systrace_workloads.Suite.find "sed" in
  let run drain_on_entry =
    let cfg =
      { Builder.default_config with Builder.traced = true; drain_on_entry }
    in
    let t =
      Builder.build ~cfg
        ~programs:[ e.Systrace_workloads.Suite.program () ]
        ~files:e.Systrace_workloads.Suite.files ()
    in
    let p =
      Parser.create ~kernel_bbs:(Option.get t.Builder.kernel_bbs) ()
    in
    List.iter
      (fun (pi : Builder.proc_info) ->
        Parser.register_pid p ~pid:pi.pid (Option.get pi.bbs))
      t.Builder.procs;
    t.Builder.trace_sink <- Some (fun ws len -> Parser.feed p ws ~len);
    (match Builder.run t ~max_insns:2_000_000_000 with
    | Systrace_machine.Machine.Halt -> ()
    | Systrace_machine.Machine.Limit -> Alcotest.fail "no halt");
    Builder.drain_final t;
    Parser.finish p;
    ( String.trim (Builder.console t),
      Parser.stats p,
      Builder.peek t "kstat_displaced" )
  in
  let con1, s1, d1 = run true in
  let con2, s2, d2 = run false in
  Alcotest.(check string) "console identical" con1 con2;
  Alcotest.(check int) "baseline has no overtaken words" 0 d1;
  check "ablation overtakes many words" true (d2 > 1000);
  let user (s : Parser.stats) = s.Parser.insts - s.Parser.kernel_insts in
  Alcotest.(check int) "no user reference lost" (user s1) (user s2);
  check "far fewer drains" true (s2.Parser.drains * 3 < s1.Parser.drains)

let tests = tests @ [
  Alcotest.test_case "drain-on-entry ablation" `Slow test_drain_ablation;
]
