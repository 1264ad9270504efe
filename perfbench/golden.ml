(* Simulated statistics at the default seed (1), recorded with the
   benchmark.  Host timings never appear here: every value is a count the
   deterministic simulators must reproduce exactly. *)

let seed = 1

let validate_mix =
  [
    ("tomcatv/Ultrix.measured_cycles", 15350107);
    ("tomcatv/Ultrix.measured_utlb", 40);
    ("tomcatv/Ultrix.measured_insns", 5131531);
    ("tomcatv/Ultrix.predicted_cycles", 15225377);
    ("tomcatv/Ultrix.predicted_utlb", 56);
    ("tomcatv/Ultrix.trace_words", 1956737);
    ("tomcatv/Ultrix.traced_insns", 74244002);
    ("gcc/Mach.measured_cycles", 3016210);
    ("gcc/Mach.measured_utlb", 28);
    ("gcc/Mach.measured_insns", 1114664);
    ("gcc/Mach.predicted_cycles", 2866401);
    ("gcc/Mach.predicted_utlb", 18);
    ("gcc/Mach.trace_words", 441730);
    ("gcc/Mach.traced_insns", 14751550);
    ("compress/Mach.measured_cycles", 2099737);
    ("compress/Mach.measured_utlb", 78);
    ("compress/Mach.measured_insns", 1561133);
    ("compress/Mach.predicted_cycles", 2150702);
    ("compress/Mach.predicted_utlb", 33);
    ("compress/Mach.trace_words", 525068);
    ("compress/Mach.traced_insns", 16212575);
    ("egrep/Ultrix.measured_cycles", 266455);
    ("egrep/Ultrix.measured_utlb", 6);
    ("egrep/Ultrix.measured_insns", 235633);
    ("egrep/Ultrix.predicted_cycles", 261508);
    ("egrep/Ultrix.predicted_utlb", 3);
    ("egrep/Ultrix.trace_words", 68439);
    ("egrep/Ultrix.traced_insns", 2198108);
  ]

let sweep_store =
  [
    ("tomcatv/Ultrix.trace_words", 1956737);
    ("tomcatv/Ultrix.grid_icache_misses", 23564);
    ("tomcatv/Ultrix.grid_dcache_read_misses", 21099914);
    ("tomcatv/Ultrix.grid_utlb_misses", 817176);
    ("tomcatv/Ultrix.grid_wb_stalls", 205848);
    ("tomcatv/Ultrix.grid_fingerprint", 754380634897194952);
    ("tomcatv/Ultrix.replay_icache_misses", 130);
    ("tomcatv/Ultrix.replay_dcache_read_misses", 478585);
    ("tomcatv/Ultrix.replay_utlb_misses", 56);
    ("tomcatv/Ultrix.replay_wb_stalls", 2587);
    ("gcc/Mach.trace_words", 441730);
    ("gcc/Mach.grid_icache_misses", 92116);
    ("gcc/Mach.grid_dcache_read_misses", 3699304);
    ("gcc/Mach.grid_utlb_misses", 6624);
    ("gcc/Mach.grid_wb_stalls", 2549128);
    ("gcc/Mach.grid_fingerprint", 438050145699607168);
    ("gcc/Mach.replay_icache_misses", 544);
    ("gcc/Mach.replay_dcache_read_misses", 113885);
    ("gcc/Mach.replay_utlb_misses", 18);
    ("gcc/Mach.replay_wb_stalls", 21355);
  ]
