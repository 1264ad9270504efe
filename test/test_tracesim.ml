(* Tests for the trace-driven memory-system simulator: the independent
   cache/TLB/write-buffer models, the handler-synthesis logic, and the
   execution-time predictor. *)

open Systrace_tracesim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cache model: the direct-mapped host organization is a 1-way          *)
(* Sim_cache_assoc                                                      *)

let dm_cache size = Sim_cache_assoc.create ~size_bytes:size ~line_bytes:16 ~ways:1 ()

let test_cache_compulsory () =
  let c = dm_cache 1024 in
  for k = 0 to 63 do
    ignore (Sim_cache_assoc.read c (k * 16))
  done;
  check_int "all compulsory" 64 c.Sim_cache_assoc.read_misses;
  for k = 0 to 63 do
    ignore (Sim_cache_assoc.read c (k * 16))
  done;
  check_int "all hits" 64 c.Sim_cache_assoc.read_hits

let test_cache_conflict () =
  let c = dm_cache 1024 in
  (* two addresses 1024 apart map to the same line *)
  ignore (Sim_cache_assoc.read c 0);
  ignore (Sim_cache_assoc.read c 1024);
  ignore (Sim_cache_assoc.read c 0);
  check_int "ping-pong misses" 3 c.Sim_cache_assoc.read_misses

let test_cache_write_no_allocate () =
  let c = dm_cache 1024 in
  check "write miss" true (not (Sim_cache_assoc.write c 64));
  (* the line was NOT allocated *)
  check "read still misses" true (not (Sim_cache_assoc.read c 64));
  (* but a write to a present line hits *)
  check "write hit" true (Sim_cache_assoc.write c 64)

let prop_cache_sequential =
  QCheck.Test.make ~count:100 ~name:"sequential scan misses once per line"
    QCheck.(pair (int_range 1 6) (int_range 1 64))
    (fun (line_pow, nlines) ->
      let line = 1 lsl (line_pow + 1) in
      let c =
        Sim_cache_assoc.create ~size_bytes:(line * 256) ~line_bytes:line ~ways:1 ()
      in
      let bytes = nlines * line in
      for a = 0 to bytes - 1 do
        ignore (Sim_cache_assoc.read c a)
      done;
      c.Sim_cache_assoc.read_misses = nlines)

(* ------------------------------------------------------------------ *)
(* TLB model                                                           *)

let test_tlb_hit_miss () =
  let t = Sim_tlb.create () in
  check "first access misses" true
    (not (Sim_tlb.access t ~vpn:5 ~asid:1 ~global:false ~user:true));
  check "second access hits" true
    (Sim_tlb.access t ~vpn:5 ~asid:1 ~global:false ~user:true);
  check_int "one user miss" 1 t.Sim_tlb.user_misses

let test_tlb_asid_isolation () =
  let t = Sim_tlb.create () in
  ignore (Sim_tlb.access t ~vpn:5 ~asid:1 ~global:false ~user:true);
  check "different asid misses" true
    (not (Sim_tlb.access t ~vpn:5 ~asid:2 ~global:false ~user:true))

let test_tlb_global_entries () =
  let t = Sim_tlb.create () in
  ignore (Sim_tlb.access t ~vpn:9 ~asid:0 ~global:true ~user:false);
  check "global entry matches any asid" true
    (Sim_tlb.access t ~vpn:9 ~asid:7 ~global:false ~user:true)

let test_tlb_capacity () =
  let t = Sim_tlb.create ~size:16 ~wired:0 () in
  (* touch 32 distinct pages twice: capacity misses must occur *)
  for round = 1 to 2 do
    ignore round;
    for vpn = 0 to 31 do
      ignore (Sim_tlb.access t ~vpn ~asid:1 ~global:false ~user:true)
    done
  done;
  check "capacity misses" true (t.Sim_tlb.user_misses > 32)

let test_tlb_size_param () =
  let small = Sim_tlb.create ~size:16 ~wired:8 () in
  let big = Sim_tlb.create ~size:128 ~wired:8 () in
  for round = 1 to 3 do
    ignore round;
    for vpn = 0 to 63 do
      ignore (Sim_tlb.access small ~vpn ~asid:1 ~global:false ~user:true);
      ignore (Sim_tlb.access big ~vpn ~asid:1 ~global:false ~user:true)
    done
  done;
  check "bigger TLB misses less" true
    (big.Sim_tlb.user_misses < small.Sim_tlb.user_misses)

(* ------------------------------------------------------------------ *)
(* Write buffer model                                                  *)

(* [n] stores [gap] cycles apart through a depth-4, drain-6 ring, the
   caller's clock advanced by each stall as the simulator does; the
   total stall *)
let ring_stall_total ~gap n =
  let r = Sim_wb.ring_create ~depth:4 ~drain_cycles:6 in
  let clock = ref 0 and total = ref 0 in
  for _ = 1 to n do
    clock := !clock + gap;
    let stall = Sim_wb.ring_store r ~clock:!clock in
    clock := !clock + stall;
    total := !total + stall
  done;
  !total

let test_wb_burst_stalls () =
  check "burst causes stalls" true (ring_stall_total ~gap:1 20 > 0)

let test_wb_spaced_stores_free () =
  check_int "spaced stores never stall" 0 (ring_stall_total ~gap:10 20)

(* ------------------------------------------------------------------ *)
(* Memsim: synthetic event streams                                     *)

let mk_memsim ?(tlb_entries = 64) () =
  Memsim.sweep
    [
      {
        Memsim.icache_bytes = 4096;
        icache_line = 16;
        icache_ways = 1;
        dcache_bytes = 4096;
        dcache_line = 4;
        dcache_ways = 1;
        read_miss_penalty = 10;
        uncached_penalty = 10;
        wb_depth = 4;
        wb_drain = 6;
        pagemap = (fun _pid va -> va land 0xFFFFF);
        pt_base = (fun pid -> 0xC0000000 + (pid * 0x200000));
        utlb_handler_insns = 8;
        ktlb_handler_insns = 24;
        tlb_entries;
      };
    ]

(* a one-config sweep's stats *)
let stats1 m = (Memsim.sweep_stats m).(0)

let test_memsim_utlb_synthesis () =
  let m = mk_memsim () in
  (* one user instruction on a fresh page: TLB miss -> synthesized
     handler (8 instructions) + PTE load (whose kseg2 access KTLB-misses
     and synthesizes another 24). *)
  Memsim.sweep_on_inst m 0x00400000 1 false;
  let s = stats1 m in
  check_int "one utlb miss" 1 s.Memsim.utlb_misses;
  check_int "one ktlb miss" 1 s.Memsim.ktlb_misses;
  check_int "synthesized instructions" (8 + 24) s.Memsim.synth_insts;
  check_int "one trace instruction" 1 s.Memsim.insts

let test_memsim_no_tlb_for_kseg0 () =
  let m = mk_memsim () in
  Memsim.sweep_on_inst m 0x80001000 0 true;
  Memsim.sweep_on_data m 0x80080000 0 true true 4;
  let s = stats1 m in
  check_int "no tlb misses" 0 (s.Memsim.utlb_misses + s.Memsim.ktlb_misses)

let test_memsim_kseg1_uncached () =
  let m = mk_memsim () in
  Memsim.sweep_on_data m 0xA1000000 0 true true 4;
  Memsim.sweep_on_data m 0xA1000000 0 true false 4;
  let s = stats1 m in
  check_int "uncached read" 1 s.Memsim.uncached_reads;
  check_int "uncached write" 1 s.Memsim.uncached_writes

let test_memsim_mode_split () =
  let m = mk_memsim () in
  Memsim.sweep_on_inst m 0x80001000 0 true;
  Memsim.sweep_on_inst m 0x00400000 1 false;
  let s = stats1 m in
  check_int "kernel insts" 1 s.Memsim.kernel_insts;
  check_int "user insts" 1 s.Memsim.user_insts

let test_memsim_same_page_one_miss () =
  let m = mk_memsim () in
  for k = 0 to 99 do
    Memsim.sweep_on_inst m (0x00400000 + (k * 4)) 1 false
  done;
  check_int "one page, one miss" 1 (stats1 m).Memsim.utlb_misses

(* ------------------------------------------------------------------ *)
(* Predictor arithmetic                                                *)

let test_predict_components () =
  let mem =
    {
      Memsim.insts = 1000;
      datas = 300;
      kernel_insts = 400;
      user_insts = 600;
      kernel_stall = 0;
      user_stall = 0;
      synth_insts = 50;
      icache_misses = 10;
      dcache_read_misses = 20;
      uncached_reads = 5;
      uncached_writes = 5;
      wb_stalls = 7;
      utlb_misses = 3;
      ktlb_misses = 1;
      unmapped = 0;
    }
  in
  let parse = Systrace_tracing.Parser.fresh_stats () in
  parse.Systrace_tracing.Parser.idle_insts <- 100;
  let b =
    Predict.make ~mem ~parse ~arith_stalls:11 ~dilation:15
      ~read_miss_penalty:15 ~uncached_penalty:12
  in
  check_int "icache stall" 150 b.Predict.icache_stall;
  check_int "dcache stall" 300 b.Predict.dcache_stall;
  check_int "uncached stall" 120 b.Predict.uncached_stall;
  check_int "idle extra" 1400 b.Predict.io_idle_extra;
  check_int "total"
    (1000 + 50 + 1400 + 150 + 300 + 120 + 7 + 11)
    b.Predict.total_cycles

let tests =
  [
    Alcotest.test_case "cache: compulsory then hits" `Quick test_cache_compulsory;
    Alcotest.test_case "cache: conflict ping-pong" `Quick test_cache_conflict;
    Alcotest.test_case "cache: write no-allocate" `Quick test_cache_write_no_allocate;
    QCheck_alcotest.to_alcotest prop_cache_sequential;
    Alcotest.test_case "tlb: hit/miss" `Quick test_tlb_hit_miss;
    Alcotest.test_case "tlb: asid isolation" `Quick test_tlb_asid_isolation;
    Alcotest.test_case "tlb: global entries" `Quick test_tlb_global_entries;
    Alcotest.test_case "tlb: capacity misses" `Quick test_tlb_capacity;
    Alcotest.test_case "tlb: size parameter" `Quick test_tlb_size_param;
    Alcotest.test_case "wb: burst stalls" `Quick test_wb_burst_stalls;
    Alcotest.test_case "wb: spaced stores free" `Quick test_wb_spaced_stores_free;
    Alcotest.test_case "memsim: utlb synthesis" `Quick test_memsim_utlb_synthesis;
    Alcotest.test_case "memsim: kseg0 bypasses tlb" `Quick test_memsim_no_tlb_for_kseg0;
    Alcotest.test_case "memsim: kseg1 uncached" `Quick test_memsim_kseg1_uncached;
    Alcotest.test_case "memsim: mode split" `Quick test_memsim_mode_split;
    Alcotest.test_case "memsim: page locality" `Quick test_memsim_same_page_one_miss;
    Alcotest.test_case "predict: components" `Quick test_predict_components;
  ]

(* ------------------------------------------------------------------ *)
(* Sim_cache_assoc: set-associative LRU model                           *)

let test_assoc_eliminates_conflict () =
  (* Two lines mapping to the same direct-mapped slot ping-pong in a 1-way
     cache but coexist in a 2-way one — the conflict/capacity distinction
     the associative model exists to expose. *)
  let dm = Sim_cache_assoc.create ~size_bytes:1024 ~line_bytes:16 ~ways:1 () in
  let sa = Sim_cache_assoc.create ~size_bytes:1024 ~line_bytes:16 ~ways:2 () in
  let a = 0x0 and b = 0x400 (* a + 1-way cache size: same set both ways *) in
  for _ = 1 to 50 do
    ignore (Sim_cache_assoc.read dm a);
    ignore (Sim_cache_assoc.read dm b);
    ignore (Sim_cache_assoc.read sa a);
    ignore (Sim_cache_assoc.read sa b)
  done;
  Alcotest.(check int) "1-way: all misses" 100 dm.Sim_cache_assoc.read_misses;
  Alcotest.(check int) "2-way: compulsory only" 2 sa.Sim_cache_assoc.read_misses

let test_assoc_lru_order () =
  (* 2-way set with three competing lines: LRU must evict the least
     recently used, so touching [a] between fills keeps [a] resident. *)
  let c = Sim_cache_assoc.create ~size_bytes:512 ~line_bytes:16 ~ways:2 () in
  let set_stride = 16 * (512 / (16 * 2)) in
  let a = 0 and b = set_stride and d = 2 * set_stride in
  ignore (Sim_cache_assoc.read c a);   (* miss, fill *)
  ignore (Sim_cache_assoc.read c b);   (* miss, fill *)
  ignore (Sim_cache_assoc.read c a);   (* hit: a is now MRU *)
  ignore (Sim_cache_assoc.read c d);   (* miss, must evict b *)
  Alcotest.(check bool) "a still resident" true (Sim_cache_assoc.read c a);
  Alcotest.(check bool) "b evicted" false (Sim_cache_assoc.read c b)

let test_assoc_write_no_allocate () =
  let c = Sim_cache_assoc.create ~size_bytes:512 ~line_bytes:16 ~ways:4 () in
  Alcotest.(check bool) "write miss" false (Sim_cache_assoc.write c 0x40);
  Alcotest.(check bool) "still absent" false (Sim_cache_assoc.read c 0x40);
  Alcotest.(check bool) "write hit after fill" true (Sim_cache_assoc.write c 0x40)

(* Direct-mapped, write-through/no-write-allocate reference model: one
   tag per line slot.  The oracle for the 1-way associative cache, which
   is the host organization everywhere in the simulator. *)
module Dm = struct
  type t = { shift : int; tags : int array }

  let create ~size_bytes ~line_bytes =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
    { shift = log2 line_bytes; tags = Array.make (size_bytes / line_bytes) (-1) }

  let slot t pa =
    let ln = pa lsr t.shift in
    (ln, ln mod Array.length t.tags)

  let read t pa =
    let ln, i = slot t pa in
    let hit = t.tags.(i) = ln in
    t.tags.(i) <- ln;
    hit

  let write t pa =
    let ln, i = slot t pa in
    t.tags.(i) = ln
end

let prop_assoc_one_way_equals_direct =
  (* a 1-way associative cache is access-for-access identical to the
     direct-mapped model above *)
  QCheck.Test.make ~count:200 ~name:"1-way assoc cache == direct-mapped"
    QCheck.(
      list_of_size Gen.(int_range 1 300)
        (pair bool (map (fun a -> a land 0xFFFF) (int_bound max_int))))
    (fun accesses ->
      let dm = Dm.create ~size_bytes:1024 ~line_bytes:16 in
      let sa = Sim_cache_assoc.create ~size_bytes:1024 ~line_bytes:16 ~ways:1 () in
      List.for_all
        (fun (is_read, pa) ->
          if is_read then Dm.read dm pa = Sim_cache_assoc.read sa pa
          else Dm.write dm pa = Sim_cache_assoc.write sa pa)
        accesses)

let prop_assoc_full_lru_compulsory_only =
  (* The LRU theorem worth owning: a fully-associative LRU cache whose
     capacity covers the stream's working set misses exactly once per
     distinct line, whatever the access order.  (Misses across *different
     set counts* are deliberately not compared: halving the set count
     while doubling ways is not a Mattson stack inclusion, and anomalies
     are real.) *)
  QCheck.Test.make ~count:200 ~name:"full-LRU: one miss per distinct line"
    QCheck.(
      list_of_size
        Gen.(int_range 1 500)
        (map (fun a -> (a land 0x1F) * 16) (int_bound max_int)))
    (fun pas ->
      (* 32 ways x 16B lines = 512B, >= the 32-line address range above *)
      let c = Sim_cache_assoc.create ~size_bytes:512 ~line_bytes:16 ~ways:32 () in
      List.iter (fun pa -> ignore (Sim_cache_assoc.read c pa)) pas;
      let distinct = List.sort_uniq compare pas in
      c.Sim_cache_assoc.read_misses = List.length distinct)

let tests =
  tests
  @ [
      Alcotest.test_case "assoc: conflict elimination" `Quick
        test_assoc_eliminates_conflict;
      Alcotest.test_case "assoc: true LRU" `Quick test_assoc_lru_order;
      Alcotest.test_case "assoc: write no-allocate" `Quick
        test_assoc_write_no_allocate;
      QCheck_alcotest.to_alcotest prop_assoc_one_way_equals_direct;
      QCheck_alcotest.to_alcotest prop_assoc_full_lru_compulsory_only;
    ]

let test_memsim_ways_knob () =
  (* Two data pages colliding in a direct-mapped D-cache stop colliding at
     2 ways; everything else in the config untouched. *)
  let mk ways =
    Memsim.sweep
      [
        {
          Memsim.icache_bytes = 4096;
          icache_line = 4;
          icache_ways = 1;
          dcache_bytes = 4096;
          dcache_line = 4;
          dcache_ways = ways;
          read_miss_penalty = 15;
          uncached_penalty = 6;
          wb_depth = 4;
          wb_drain = 5;
          pagemap = (fun _ va -> va land 0xFFFFFF);
          pt_base = (fun _ -> 0xC0000000);
          utlb_handler_insns = 8;
          ktlb_handler_insns = 24;
          tlb_entries = 64;
        };
      ]
  in
  let drive sim =
    for _ = 1 to 40 do
      (* kseg0 addresses: no TLB traffic, pure cache behaviour *)
      (* 0x80003000 = 0x80002000 + 4096: the same line index *)
      Memsim.sweep_on_data sim 0x80002000 0 true true 4;
      Memsim.sweep_on_data sim 0x80003000 0 true true 4
    done;
    (stats1 sim).Memsim.dcache_read_misses
  in
  Alcotest.(check int) "1-way ping-pong" 80 (drive (mk 1));
  Alcotest.(check int) "2-way coexist" 2 (drive (mk 2))

let tests =
  tests
  @ [ Alcotest.test_case "memsim: dcache_ways knob" `Quick test_memsim_ways_knob ]

let test_assoc_write_back () =
  let c =
    Sim_cache_assoc.create ~policy:Sim_cache_assoc.Write_back
      ~size_bytes:512 ~line_bytes:16 ~ways:2 ()
  in
  (* write-allocate: a store miss installs the line *)
  Alcotest.(check bool) "store miss" false (Sim_cache_assoc.write c 0x40);
  Alcotest.(check bool) "allocated" true (Sim_cache_assoc.read c 0x40);
  Alcotest.(check int) "no writeback yet" 0 c.Sim_cache_assoc.writebacks;
  (* evict the dirty line: 2 ways, so two more lines in the same set *)
  let set_stride = 16 * (512 / (16 * 2)) in
  ignore (Sim_cache_assoc.read c (0x40 + set_stride));
  ignore (Sim_cache_assoc.read c (0x40 + (2 * set_stride)));
  Alcotest.(check int) "dirty eviction counted" 1 c.Sim_cache_assoc.writebacks;
  (* clean evictions don't count *)
  ignore (Sim_cache_assoc.read c (0x40 + (3 * set_stride)));
  Alcotest.(check int) "clean eviction free" 1 c.Sim_cache_assoc.writebacks;
  (* re-dirtying via a write hit *)
  ignore (Sim_cache_assoc.write c (0x40 + (3 * set_stride)));
  ignore (Sim_cache_assoc.read c 0x40);
  ignore (Sim_cache_assoc.read c (0x40 + set_stride));
  Alcotest.(check int) "write-hit dirt written back" 2
    c.Sim_cache_assoc.writebacks

let prop_assoc_wb_traffic_bounded =
  (* Write-back memory traffic never exceeds the number of stores: each
     writeback needs a distinct preceding store that dirtied the line. *)
  QCheck.Test.make ~count:200 ~name:"write-back: writebacks <= stores"
    QCheck.(
      list_of_size Gen.(int_range 1 400)
        (pair bool (map (fun a -> (a land 0x3F) * 16) (int_bound max_int))))
    (fun accesses ->
      let c =
        Sim_cache_assoc.create ~policy:Sim_cache_assoc.Write_back
          ~size_bytes:256 ~line_bytes:16 ~ways:2 ()
      in
      let stores = ref 0 in
      List.iter
        (fun (is_read, pa) ->
          if is_read then ignore (Sim_cache_assoc.read c pa)
          else begin
            incr stores;
            ignore (Sim_cache_assoc.write c pa)
          end)
        accesses;
      c.Sim_cache_assoc.writebacks <= !stores)

let tests =
  tests
  @ [
      Alcotest.test_case "assoc: write-back policy" `Quick
        test_assoc_write_back;
      QCheck_alcotest.to_alcotest prop_assoc_wb_traffic_bounded;
    ]

(* ------------------------------------------------------------------ *)
(* Multi-configuration sweep: the unit fast paths and the end-to-end    *)
(* equivalence with independent single-configuration runs               *)

let prop_stack_equals_assoc_family =
  (* The .mli contract: a stack family member with associativity W is
     reference-for-reference identical, reads and no-allocate writes
     alike, to an independent W-way write-through Sim_cache_assoc over the
     same sets.  Families mix non-power-of-two ways and set counts; the
     lines are drawn from a footprint a few lines wider than the widest
     member per set, so evictions, re-reads of lines some members lost,
     and write hits on lines only the wide members hold all occur. *)
  QCheck.Test.make ~count:300 ~name:"LRU stack == independent assoc caches"
    (QCheck.make
       ~print:(fun (line, nsets, ways, refs) ->
         Printf.sprintf "line %d, nsets %d, ways [%s], %d refs" line nsets
           (String.concat ";" (List.map string_of_int ways))
           (List.length refs))
       QCheck.Gen.(
         let* line = oneofl [ 16; 32; 64 ] in
         let* nsets = oneofl [ 1; 2; 3; 4; 5; 8; 16 ] in
         let* ways =
           map (List.sort_uniq compare)
             (list_size (int_range 1 4) (oneofl [ 1; 2; 3; 4; 6; 8; 16 ]))
         in
         let lines = nsets * (List.fold_left max 0 ways + 3) in
         let* write_pct = int_range 0 60 in
         let* refs =
           list_size (int_range 1 600)
             (pair
                (map (fun p -> p >= write_pct) (int_bound 99))
                (map2 (fun ln off -> (ln * line) + off) (int_bound (lines - 1))
                   (int_bound (line - 1))))
         in
         return (line, nsets, ways, refs)))
    (fun (line, nsets, ways, refs) ->
      let ways = Array.of_list ways in
      let st = Sim_stack.create ~line_bytes:line ~nsets ~ways in
      let members =
        Array.map
          (fun w ->
            Sim_cache_assoc.create ~size_bytes:(line * nsets * w)
              ~line_bytes:line ~ways:w ())
          ways
      in
      List.for_all
        (fun (is_read, pa) ->
          let mask = if is_read then Sim_stack.read st pa else Sim_stack.write st pa in
          let agree = ref true in
          Array.iteri
            (fun i c ->
              let hit =
                if is_read then Sim_cache_assoc.read c pa
                else Sim_cache_assoc.write c pa
              in
              if (mask lsr i) land 1 = Bool.to_int hit then agree := false)
            members;
          !agree && mask lsr Array.length ways = 0)
        refs)

(* The write buffer's original list model, eagerly ticked: entries retire
   when the clock passes them, a full buffer stalls the clock to the
   oldest entry's retirement, and each store retires [drain] cycles after
   the later of the clock and the previous entry.  The oracle for
   Sim_wb's ring. *)
module Wb_list = struct
  type t = { depth : int; drain : int; mutable clock : int; mutable retire : int list }

  let create ~depth ~drain = { depth; drain; clock = 0; retire = [] }
  let tick t n = t.clock <- t.clock + n

  let store t =
    t.retire <- List.filter (fun r -> r > t.clock) t.retire;
    let stall =
      match t.retire with
      | oldest :: rest when List.length t.retire >= t.depth ->
        t.retire <- rest;
        let s = oldest - t.clock in
        t.clock <- oldest;
        s
      | _ -> 0
    in
    let last = List.fold_left max t.clock t.retire in
    t.retire <- t.retire @ [ last + t.drain ];
    stall
end

(* The eager single-configuration simulator: the reference model the
   sweep must match, configuration by configuration.  Every reference
   ticks the write buffer's clock; a TLB miss synthesizes its refill
   handler's ifetches and page-table load; caches are write-through/
   no-write-allocate Sim_cache_assoc models and the buffer is the
   Wb_list model above. *)
module Memsim_ref = struct
  type t = {
    cfg : Memsim.config;
    icache : Sim_cache_assoc.t;
    dcache : Sim_cache_assoc.t;
    tlb : Sim_tlb.t;
    wb : Wb_list.t;
    s : Memsim.stats;
  }

  let create (cfg : Memsim.config) =
    {
      cfg;
      icache =
        Sim_cache_assoc.create ~size_bytes:cfg.icache_bytes
          ~line_bytes:cfg.icache_line ~ways:cfg.icache_ways ();
      dcache =
        Sim_cache_assoc.create ~size_bytes:cfg.dcache_bytes
          ~line_bytes:cfg.dcache_line ~ways:cfg.dcache_ways ();
      tlb = Sim_tlb.create ~size:cfg.tlb_entries ();
      wb = Wb_list.create ~depth:cfg.wb_depth ~drain:cfg.wb_drain;
      s =
        {
          Memsim.insts = 0;
          datas = 0;
          kernel_insts = 0;
          user_insts = 0;
          kernel_stall = 0;
          user_stall = 0;
          synth_insts = 0;
          icache_misses = 0;
          dcache_read_misses = 0;
          uncached_reads = 0;
          uncached_writes = 0;
          wb_stalls = 0;
          utlb_misses = 0;
          ktlb_misses = 0;
          unmapped = 0;
        };
    }

  let stats t = t.s
  let tick t n = Wb_list.tick t.wb n

  let translate t ~pid va =
    let pa = t.cfg.pagemap pid va in
    if pa >= 0 then pa
    else begin
      t.s.unmapped <- t.s.unmapped + 1;
      va land 0x00FFFFFF
    end

  (* a cache read; a miss is counted and stalls the clock, and the
     result says whether it missed *)
  let iread t pa =
    let miss = not (Sim_cache_assoc.read t.icache pa) in
    if miss then begin
      t.s.icache_misses <- t.s.icache_misses + 1;
      tick t t.cfg.read_miss_penalty
    end;
    miss

  let dread t pa =
    let miss = not (Sim_cache_assoc.read t.dcache pa) in
    if miss then begin
      t.s.dcache_read_misses <- t.s.dcache_read_misses + 1;
      tick t t.cfg.read_miss_penalty
    end;
    miss

  (* KTLB refill: ifetches at the general vector, then the root-table
     load (kseg0-resident, a fixed address) *)
  let synth_ktlb t =
    t.s.ktlb_misses <- t.s.ktlb_misses + 1;
    for k = 0 to t.cfg.ktlb_handler_insns - 1 do
      t.s.synth_insts <- t.s.synth_insts + 1;
      tick t 1;
      ignore (iread t (0x80 + (k * 4)) : bool)
    done;
    tick t 1;
    ignore (dread t 0x9000 : bool)

  (* UTLB refill: ifetches at the UTLB vector, then the PTE load from
     the process's linear page table in kseg2 (a global mapping, which
     can itself KTLB-miss) *)
  let synth_utlb t ~pid ~vpn =
    t.s.utlb_misses <- t.s.utlb_misses + 1;
    for k = 0 to t.cfg.utlb_handler_insns - 1 do
      t.s.synth_insts <- t.s.synth_insts + 1;
      tick t 1;
      ignore (iread t (k * 4) : bool)
    done;
    let pte_va = t.cfg.pt_base pid + (vpn * 4) in
    if
      not
        (Sim_tlb.access t.tlb ~vpn:(pte_va lsr 12) ~asid:0 ~global:true
           ~user:false)
    then synth_ktlb t;
    ignore (dread t (translate t ~pid pte_va) : bool)

  (* the cached physical address of a reference, charging its TLB
     behaviour, or -1 for uncached kseg1 *)
  let to_phys t ~pid va =
    let vpn = va lsr 12 in
    if va < 0x80000000 then begin
      if
        not
          (Sim_tlb.access t.tlb ~vpn ~asid:(pid + 1) ~global:false ~user:true)
      then synth_utlb t ~pid ~vpn;
      translate t ~pid va
    end
    else if va < 0xA0000000 then va - 0x80000000
    else if va < 0xC0000000 then -1
    else begin
      if not (Sim_tlb.access t.tlb ~vpn ~asid:0 ~global:true ~user:false)
      then synth_ktlb t;
      translate t ~pid va
    end

  let charge t ~kernel stall =
    if kernel then t.s.kernel_stall <- t.s.kernel_stall + stall
    else t.s.user_stall <- t.s.user_stall + stall

  let on_inst t addr pid kernel =
    t.s.insts <- t.s.insts + 1;
    if kernel then t.s.kernel_insts <- t.s.kernel_insts + 1
    else t.s.user_insts <- t.s.user_insts + 1;
    tick t 1;
    let pa = to_phys t ~pid addr in
    if pa >= 0 then begin
      if iread t pa then charge t ~kernel t.cfg.read_miss_penalty
    end
    else begin
      t.s.uncached_reads <- t.s.uncached_reads + 1;
      charge t ~kernel t.cfg.uncached_penalty;
      tick t t.cfg.uncached_penalty
    end

  let on_data t addr pid kernel is_load _bytes =
    t.s.datas <- t.s.datas + 1;
    let pa = to_phys t ~pid addr in
    if pa >= 0 then begin
      if is_load then begin
        if dread t pa then charge t ~kernel t.cfg.read_miss_penalty
      end
      else begin
        let (_hit : bool) = Sim_cache_assoc.write t.dcache pa in
        let stall = Wb_list.store t.wb in
        charge t ~kernel stall;
        t.s.wb_stalls <- t.s.wb_stalls + stall
      end
    end
    else begin
      charge t ~kernel t.cfg.uncached_penalty;
      if is_load then t.s.uncached_reads <- t.s.uncached_reads + 1
      else t.s.uncached_writes <- t.s.uncached_writes + 1;
      tick t t.cfg.uncached_penalty
    end
end

let prop_ring_equals_wb =
  (* The ring returns the same stall per store as the eagerly-ticked list
     model, against the clock the simulator derives (ticks so far plus
     stalls so far), and that clock stays the model's. *)
  QCheck.Test.make ~count:200 ~name:"wb ring == eager wb model"
    QCheck.(
      pair
        (pair (int_range 1 6) (int_range 0 10)) (* depth, drain *)
        (list_of_size Gen.(int_range 1 300) (int_range 0 12) (* inter-store gaps *)))
    (fun ((depth, drain), gaps) ->
      let oracle = Wb_list.create ~depth ~drain in
      let ring = Sim_wb.ring_create ~depth ~drain_cycles:drain in
      let base = ref 0 (* sum of ticks *) and stalls = ref 0 in
      List.for_all
        (fun gap ->
          Wb_list.tick oracle gap;
          base := !base + gap;
          let s_list = Wb_list.store oracle in
          let s_ring = Sim_wb.ring_store ring ~clock:(!base + !stalls) in
          stalls := !stalls + s_ring;
          s_list = s_ring && !base + !stalls = oracle.Wb_list.clock)
        gaps)

let prop_write_accounting =
  (* The write path's returned hit/miss status must agree with the cache's
     own write counters, store for store, under both policies — the audit
     for the memsim call sites that drop the returned bool. *)
  QCheck.Test.make ~count:200 ~name:"write status == write counter deltas"
    QCheck.(
      pair bool
        (list_of_size Gen.(int_range 1 400)
           (pair bool (map (fun a -> a land 0xFFF) (int_bound max_int)))))
    (fun (write_back, accesses) ->
      let policy =
        if write_back then Sim_cache_assoc.Write_back
        else Sim_cache_assoc.Write_through
      in
      let c =
        Sim_cache_assoc.create ~policy ~size_bytes:512 ~line_bytes:16 ~ways:2 ()
      in
      List.for_all
        (fun (is_read, pa) ->
          if is_read then begin
            ignore (Sim_cache_assoc.read c pa);
            true
          end
          else begin
            let h0 = c.Sim_cache_assoc.write_hits
            and m0 = c.Sim_cache_assoc.write_misses in
            let hit = Sim_cache_assoc.write c pa in
            let dh = c.Sim_cache_assoc.write_hits - h0
            and dm = c.Sim_cache_assoc.write_misses - m0 in
            if hit then dh = 1 && dm = 0 else dh = 0 && dm = 1
          end)
        accesses)

(* --- sweep == N independent runs, on synthetic event streams --- *)

let sweep_pagemap _pid va =
  (* deterministic, partial: some pages unmapped to exercise the
     fallback-translation path *)
  if va land 0xF000 = 0xF000 then -1 else va land 0xFFFFF

let sweep_pt_base pid = 0xC0000000 + (pid * 0x200000)

let sweep_base_cfg =
  {
    Memsim.icache_bytes = 1024;
    icache_line = 16;
    icache_ways = 1;
    dcache_bytes = 1024;
    dcache_line = 16;
    dcache_ways = 1;
    read_miss_penalty = 13;
    uncached_penalty = 7;
    wb_depth = 4;
    wb_drain = 6;
    pagemap = sweep_pagemap;
    pt_base = sweep_pt_base;
    utlb_handler_insns = 8;
    ktlb_handler_insns = 24;
    tlb_entries = 16;
  }

(* random references spread over all four segments, word-aligned *)
let event_gen =
  QCheck.Gen.(
    let* seg = int_range 0 3 in
    let* off = int_bound 0x3FFFF in
    let off = off land lnot 3 in
    let addr =
      match seg with
      | 0 -> 0x00400000 + off
      | 1 -> 0x80000000 + off
      | 2 -> 0xA0000000 + off
      | _ -> 0xC0000000 + off
    in
    let* is_inst = bool and* pid = int_range 0 3 and* kernel = bool in
    let* is_load = bool in
    return (is_inst, addr, pid, kernel, is_load))

(* Hot-footprint mode: a few dozen lines over a handful of sets, in
   bursts, about half of them write-heavy.  Offsets a multiple of 4096
   apart share a set index in every geometry drawn here (line * nsets <=
   4096), so each hot set holds more lines than the narrow members of a
   cache family can; write bursts then hit lines that only the wider
   members still hold, where no-write-allocate makes membership differ
   from LRU stack depth.  (Scattered events over a 256 KB window almost
   always miss, and would not see a wrong family.) *)
let hot_events_gen ~bursts =
  QCheck.Gen.(
    let hot_addr =
      let* seg =
        frequency
          [ (3, return 0x80000000); (3, return 0x00400000);
            (1, return 0xC0000000); (1, return 0xA0000000) ]
      in
      let* tag = int_bound 7 and* set = int_bound 3 and* word = int_bound 3 in
      return (seg + (tag * 4096) + (set * 16) + (word * 4))
    in
    let burst =
      let* write_pct = oneofl [ 0; 20; 75 ] and* n = int_range 2 12 in
      list_repeat n
        (let* addr = hot_addr and* pid = int_range 0 3 and* kernel = bool in
         let* is_inst = map (fun p -> p < 25) (int_bound 99) in
         let* is_load = map (fun p -> p >= write_pct) (int_bound 99) in
         return (is_inst, addr, pid, kernel, is_load))
    in
    let* bursts = list_size (int_range 1 bursts) burst in
    return (List.concat bursts))

(* either mode, half the time each, of comparable lengths (a burst
   averages 7 events) *)
let events_gen ~max_events =
  QCheck.Gen.(
    oneof
      [ list_size (int_range 1 max_events) event_gen;
        hot_events_gen ~bursts:(max_events / 7) ])

let drive_events feed_inst feed_data events =
  List.iter
    (fun (is_inst, addr, pid, kernel, is_load) ->
      if is_inst then feed_inst addr pid kernel
      else feed_data addr pid kernel is_load 4)
    events

let stats_equal (a : Memsim.stats) (b : Memsim.stats) = a = b

let check_sweep_matches_singles cfgs events =
  let sw = Memsim.sweep cfgs in
  drive_events (Memsim.sweep_on_inst sw) (Memsim.sweep_on_data sw) events;
  let swept = Memsim.sweep_stats sw in
  List.for_all2
    (fun c s1 ->
      let m = Memsim_ref.create c in
      drive_events (Memsim_ref.on_inst m) (Memsim_ref.on_data m) events;
      stats_equal (Memsim_ref.stats m) s1)
    cfgs (Array.to_list swept)

let prop_sweep_equals_independent =
  (* The tentpole contract: Memsim.sweep over an arbitrary configuration
     list produces stats identical to N independent single-config runs on
     the same event stream.  Configurations are drawn with independent
     random axes, so a run mixes TLB groups, one- and many-member cache
     families on both sides, deduplicated identical configs, and distinct
     write buffers. *)
  QCheck.Test.make ~count:60 ~name:"sweep == independent single-config runs"
    (QCheck.make ~print:(fun (cfgs, events) ->
         Printf.sprintf "%d cfgs, %d events" (List.length cfgs)
           (List.length events))
       QCheck.Gen.(
         let cfg_gen =
           let* is_exp = int_range 0 2 and* ds_exp = int_range 0 2 in
           let* iline = oneofl [ 16; 32 ] and* dline = oneofl [ 4; 16 ] in
           let* iways = oneofl [ 1; 2; 4 ] and* dways = oneofl [ 1; 2; 4 ] in
           let* tlb = oneofl [ 16; 32; 64 ] in
           let* wb = oneofl [ 2; 4 ] in
           return
             {
               sweep_base_cfg with
               Memsim.icache_bytes = 1024 lsl is_exp;
               icache_line = iline;
               icache_ways = iways;
               dcache_bytes = 1024 lsl ds_exp;
               dcache_line = dline;
               dcache_ways = dways;
               tlb_entries = tlb;
               wb_depth = wb;
             }
         in
         let* cfgs = list_size (int_range 1 6) cfg_gen in
         let* events = events_gen ~max_events:500 in
         return (cfgs, events)))
    (fun (cfgs, events) -> check_sweep_matches_singles cfgs events)

let prop_sweep_timing_equals_independent =
  (* The same contract with the timing parameters drawn too: handler
     lengths, penalties and drain rates.  At the base config's 24-insn
     KTLB handler the buffer has always drained by the time a refill
     ends, which would hide an off-by-one in the derived clock; short
     handlers, zero penalties and slow drains keep stores queued across
     refills and uncached references, where every tick counts. *)
  QCheck.Test.make ~count:60 ~name:"sweep == independent runs, timing axes"
    (QCheck.make ~print:(fun (cfgs, events) ->
         Printf.sprintf "%d cfgs, %d events" (List.length cfgs)
           (List.length events))
       QCheck.Gen.(
         let cfg_gen =
           let* uh = oneofl [ 0; 1; 2; 8 ] and* kh = oneofl [ 0; 1; 3; 24 ] in
           let* rmp = oneofl [ 0; 2; 13 ] and* up = oneofl [ 0; 1; 7 ] in
           let* depth = oneofl [ 1; 2; 4 ] and* drain = oneofl [ 0; 6; 25; 60 ] in
           let* tlb = oneofl [ 16; 64 ] in
           return
             {
               sweep_base_cfg with
               Memsim.utlb_handler_insns = uh;
               ktlb_handler_insns = kh;
               read_miss_penalty = rmp;
               uncached_penalty = up;
               wb_depth = depth;
               wb_drain = drain;
               tlb_entries = tlb;
             }
         in
         let* cfgs = list_size (int_range 1 6) cfg_gen in
         let* events = events_gen ~max_events:500 in
         return (cfgs, events)))
    (fun (cfgs, events) -> check_sweep_matches_singles cfgs events)

let prop_sweep_grid_equals_independent =
  (* Same contract through Memsim.grid's nested families, where the size
     axis makes every icache and dcache unit a three-member stack. *)
  QCheck.Test.make ~count:40 ~name:"sweep over nested grid == singles"
    (QCheck.make ~print:(fun events ->
         Printf.sprintf "%d events" (List.length events))
       (events_gen ~max_events:400))
    (fun events ->
      let cfgs =
        List.map snd
          (Memsim.grid ~base:sweep_base_cfg ~sizes:[ 1024; 2048; 4096 ]
             ~lines:[ 16 ] ~tlb_entries:[ 16; 64 ] ~wb_depths:[ 2; 4 ] ())
      in
      check_sweep_matches_singles cfgs events)

let test_sweep_rejects_mixed_pagemaps () =
  let other = { sweep_base_cfg with Memsim.pagemap = (fun _ va -> va) } in
  Alcotest.check_raises "distinct pagemaps rejected"
    (Invalid_argument
       "Memsim.sweep: all configurations must share pagemap and pt_base \
        (translation is done once per reference)") (fun () ->
      ignore (Memsim.sweep [ sweep_base_cfg; other ]))

let test_grid_shape () =
  let g =
    Memsim.grid ~base:sweep_base_cfg ~sizes:[ 1024; 4096 ] ~lines:[ 16; 32 ]
      ~tlb_entries:[ 16; 64 ] ~wb_depths:[ 2 ] ()
  in
  Alcotest.(check int) "full cross product" 8 (List.length g);
  (* nested: ways scale with size at fixed nsets *)
  List.iter
    (fun (_, c) ->
      Alcotest.(check int) "fixed set count" (1024 / c.Memsim.icache_line)
        (c.Memsim.icache_bytes / (c.Memsim.icache_line * c.Memsim.icache_ways)))
    g

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_stack_equals_assoc_family;
      QCheck_alcotest.to_alcotest prop_ring_equals_wb;
      QCheck_alcotest.to_alcotest prop_write_accounting;
      QCheck_alcotest.to_alcotest prop_sweep_equals_independent;
      QCheck_alcotest.to_alcotest prop_sweep_grid_equals_independent;
      QCheck_alcotest.to_alcotest prop_sweep_timing_equals_independent;
      Alcotest.test_case "sweep: rejects mixed pagemaps" `Quick
        test_sweep_rejects_mixed_pagemaps;
      Alcotest.test_case "grid: shape and nesting" `Quick test_grid_shape;
    ]
