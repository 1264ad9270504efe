(* Allocation regression tests for the memory-reference path.  Every
   simulated reference passes through these calls, in the interpreter
   (translation) and in the trace-driven simulator (cache, LRU stack,
   write buffer, TLB, page map); each must allocate nothing, measured as
   the [Gc.minor_words] delta over many calls.  A closure, tuple, option or
   boxed float creeping back into one of them shows here as a whole
   number of words per call.  The machine's own footprint is bounded
   too: what creating one allocates and how much decode cache a boot
   materialises. *)

open Systrace

module Machine = Systrace_machine.Machine
module Tlb = Systrace_machine.Tlb
module Addr = Systrace_machine.Addr
module Builder = Systrace_kernel.Builder
module Kcfg = Systrace_kernel.Kcfg
module Sim_cache_assoc = Systrace_tracesim.Sim_cache_assoc
module Sim_stack = Systrace_tracesim.Sim_stack
module Sim_tlb = Systrace_tracesim.Sim_tlb
module Sim_wb = Systrace_tracesim.Sim_wb

let calls = 100_000

(* Minor words allocated per call of [f], after one warm-up call. *)
let words_per_call f =
  f 0;
  let w0 = Gc.minor_words () in
  for i = 1 to calls do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let check_zero what f =
  Alcotest.(check (float 0.0)) (what ^ ": minor words per call") 0.0
    (words_per_call f)

(* A reference stream with hits and misses: a strided walk over more
   lines than the cache holds, revisiting each line a few times. *)
let addr i = ((i / 4) * 4112) land 0xFFFFF

let test_sim_cache_assoc () =
  List.iter
    (fun ways ->
      let c =
        Sim_cache_assoc.create ~size_bytes:16384 ~line_bytes:16 ~ways ()
      in
      check_zero (Printf.sprintf "Sim_cache_assoc.read, %d-way" ways)
        (fun i -> ignore (Sim_cache_assoc.read c (addr i)));
      check_zero (Printf.sprintf "Sim_cache_assoc.write, %d-way" ways)
        (fun i -> ignore (Sim_cache_assoc.write c (addr i)));
      Alcotest.(check bool) "both outcomes seen" true
        (c.Sim_cache_assoc.read_hits > 0 && c.Sim_cache_assoc.read_misses > 0))
    [ 1; 4 ]

let test_sim_stack () =
  let st = Sim_stack.create ~line_bytes:16 ~nsets:256 ~ways:[| 1; 2; 4 |] in
  check_zero "Sim_stack.read" (fun i -> ignore (Sim_stack.read st (addr i)))

(* A 4-member family over 4 sets of up to 8 ways, fed 48 lines in a
   hashed order: most reads miss somewhere, evict and demote; writes in
   between leave lines above others that narrow members hold. *)
let family () = Sim_stack.create ~line_bytes:16 ~nsets:4 ~ways:[| 1; 2; 4; 8 |]
let hot i = ((((i * 2654435761) lsr 16) land 0xFFFF) mod 48) * 16

let test_sim_stack_write () =
  let st = family () in
  let hits = ref 0 in
  check_zero "Sim_stack.write" (fun i ->
      ignore (Sim_stack.read st (hot (i * 3)));
      if Sim_stack.write st (hot i) = 0 then incr hits);
  Alcotest.(check bool) "write hits seen" true (!hits > 0)

let test_sim_stack_evict () =
  let st = family () in
  let partial = ref 0 and all = ref 0 in
  check_zero "Sim_stack.read, misses and evictions" (fun i ->
      if i land 3 = 0 then ignore (Sim_stack.write st (hot (i + 5)));
      let mask = Sim_stack.read st (hot i) in
      if mask = 15 then incr all else if mask <> 0 then incr partial);
  if !partial < 1000 || !all < 1000 then
    Alcotest.failf "%d partial and %d full misses in %d reads" !partial !all calls

(* bursts of back-to-back stores: the buffer fills, stalls and drains,
   the caller's clock advanced by each stall as the simulator does *)
let test_sim_wb () =
  let r = Sim_wb.ring_create ~depth:4 ~drain_cycles:6 in
  let clock = ref 0 and stalls = ref 0 in
  check_zero "Sim_wb.ring_store" (fun i ->
      clock := !clock + if i land 7 = 0 then 40 else 1;
      let stall = Sim_wb.ring_store r ~clock:!clock in
      clock := !clock + stall;
      stalls := !stalls + stall);
  Alcotest.(check bool) "stalls exercised" true (!stalls > 0)

let test_sim_tlb () =
  let t = Sim_tlb.create () in
  (* 200 pages over 3 asids: far more than the memo and the TLB hold, so
     most calls scan and many refill *)
  check_zero "Sim_tlb.access" (fun i ->
      ignore
        (Sim_tlb.access t ~vpn:(i * 7 mod 200) ~asid:(i mod 3) ~global:false
           ~user:true));
  Alcotest.(check bool) "misses exercised" true (t.Sim_tlb.user_misses > 1000)

let test_translate_i () =
  let m = Machine.create () in
  for vpn = 0 to 7 do
    Tlb.write m.Machine.tlb vpn
      ~hi:(Tlb.make_entryhi ~vpn ~asid:0)
      ~lo:(Tlb.make_entrylo ~pfn:(vpn + 16) ())
  done;
  (* mapped kuseg pages and kseg0, loads and stores: every call hits *)
  let va i =
    if i land 1 = 0 then ((i lsr 1) land 7) lsl 12
    else Addr.kseg0_base + (((i lsr 1) land 7) lsl 12)
  in
  for i = 0 to 15 do
    ignore (Machine.translate_i m (va i) ~write:false ~fetch:false);
    ignore (Machine.translate_i m (va i) ~write:true ~fetch:false)
  done;
  check_zero "Machine.translate_i (load)" (fun i ->
      ignore (Machine.translate_i m (va i) ~write:false ~fetch:false));
  check_zero "Machine.translate_i (store)" (fun i ->
      ignore (Machine.translate_i m (va i) ~write:true ~fetch:false))

(* RAM, the disk image and the decode cache are allocated page by page
   as a run first writes or runs them, so creating a machine allocates
   only its page tables, caches and block table (about 40K words).
   Zero-filled RAM, disk and decode-valid bytes made it 3.7M words. *)
let test_create_words () =
  let b0 = Gc.allocated_bytes () in
  let m = Machine.create () in
  let words = (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8) in
  ignore (Sys.opaque_identity m);
  if words >= 65536. then
    Alcotest.failf "Machine.create: %.0f words allocated (bound 64K)" words

(* A traced egrep/Ultrix system, run to completion, with its run's minor
   words per instruction. *)
let traced_egrep =
  lazy
    (let e = Workloads.Suite.find "egrep" in
     let cfg = { Builder.default_config with Builder.traced = true } in
     let t =
       Builder.build ~cfg ~programs:[ e.Workloads.Suite.program () ]
         ~files:e.Workloads.Suite.files ()
     in
     let w0 = Gc.minor_words () in
     (match Builder.run t ~max_insns:2_000_000_000 with
     | Machine.Halt -> ()
     | Machine.Limit -> Alcotest.fail "egrep did not halt");
     let words = Gc.minor_words () -. w0 in
     (t, words /. float_of_int t.Builder.machine.Machine.c.Machine.instructions))

let test_pagemap_lookup () =
  let t, _ = Lazy.force traced_egrep in
  let pm = Builder.extract_pagemap t in
  let pid = (List.hd t.Builder.procs).Builder.pid in
  (* user text, data and stack pages, and the text's PTEs in kseg2 *)
  let va i =
    match i land 3 with
    | 0 -> Kcfg.user_text_va + ((i * 4) land 0x3FFF)
    | 1 -> Kcfg.user_data_va + ((i * 4) land 0xFFF)
    | 2 -> Kcfg.user_stack_top - 4 - ((i * 4) land 0xFFF)
    | _ ->
      Kcfg.pt_base_va pid + ((Kcfg.user_text_va lsr 12) * 4) + ((i * 4) land 0xFFF)
  in
  let mapped = ref 0 in
  for i = 0 to 3 do
    if pm pid (va i) >= 0 then incr mapped
  done;
  Alcotest.(check int) "every probed page mapped" 4 !mapped;
  check_zero "extract_pagemap lookup" (fun i -> ignore (pm pid (va i)))

(* Before the translation cache went multi-entry and the walk
   allocation-free, this run allocated 2.4 words per instruction. *)
let test_traced_run_words () =
  let _, per_insn = Lazy.force traced_egrep in
  if per_insn >= 0.5 then
    Alcotest.failf "traced egrep/Ultrix: %.3f minor words per instruction (bound 0.5)"
      per_insn

(* Only pages that held executed text get decode slots. *)
let test_decoded_pages () =
  let t, _ = Lazy.force traced_egrep in
  let m = t.Builder.machine in
  let used = Machine.decoded_pages m in
  if used >= 64 then
    Alcotest.failf "traced egrep/Ultrix: %d decode pages allocated (bound 64)"
      used

(* Only pages that were written get bytes of their own: every allocated
   page had its store generation moved, and the boot writes under a
   quarter of RAM. *)
let test_ram_pages () =
  let t, _ = Lazy.force traced_egrep in
  let m = t.Builder.machine in
  let pages = Array.length m.Machine.bgen in
  let written =
    Array.fold_left (fun n g -> if g > 0 then n + 1 else n) 0 m.Machine.bgen
  in
  let allocated = Machine.ram_pages m in
  Alcotest.(check int) "RAM pages" 4096 pages;
  if allocated > written then
    Alcotest.failf "traced egrep/Ultrix: %d RAM pages allocated, %d written"
      allocated written;
  if allocated >= 1024 then
    Alcotest.failf "traced egrep/Ultrix: %d of %d RAM pages allocated (bound 1024)"
      allocated pages

let tests =
  [
    Alcotest.test_case "Sim_cache_assoc read/write (1, 4 ways)" `Quick
      test_sim_cache_assoc;
    Alcotest.test_case "Sim_stack.read" `Quick test_sim_stack;
    Alcotest.test_case "Sim_stack.write" `Quick test_sim_stack_write;
    Alcotest.test_case "Sim_stack.read misses, 4-member family" `Quick
      test_sim_stack_evict;
    Alcotest.test_case "Sim_wb.ring_store" `Quick test_sim_wb;
    Alcotest.test_case "Sim_tlb.access with memo misses" `Quick test_sim_tlb;
    Alcotest.test_case "Machine.translate_i, warm cache" `Quick test_translate_i;
    Alcotest.test_case "extract_pagemap lookup" `Quick test_pagemap_lookup;
    Alcotest.test_case "traced egrep/Ultrix minor words per insn" `Quick
      test_traced_run_words;
    Alcotest.test_case "Machine.create words" `Quick test_create_words;
    Alcotest.test_case "traced egrep/Ultrix decode pages" `Quick
      test_decoded_pages;
    Alcotest.test_case "traced egrep/Ultrix RAM pages" `Quick test_ram_pages;
  ]
