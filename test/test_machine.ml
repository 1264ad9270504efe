(* Tests for the machine simulator: instruction semantics, exceptions, TLB,
   caches, write buffer, FPU, and devices.

   Test programs are assembled with the eDSL, linked at a kseg0 virtual
   address, and loaded at the corresponding physical address.  The machine
   boots in kernel mode, so programs can use privileged instructions. *)

open Systrace_isa
open Systrace_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let text_va = 0x8000_1000
let data_va = 0x8000_8000

(* Build a machine running the given module from "_start"; the hcall 0
   handler halts the machine. *)
let setup ?(cfg = Machine.default_config) ?(extra = []) (build : Asm.t -> unit) =
  let a = Asm.create "test" in
  Asm.global a "_start";
  Asm.label a "_start";
  build a;
  let exe =
    Link.link ~name:"test" ~text_base:text_va ~data_base:data_va
      ~entry:"_start"
      (Asm.to_obj a :: extra)
  in
  let m = Machine.create ~cfg () in
  Machine.load_exe_phys m exe ~text_pa:(Addr.kseg0_pa text_va)
    ~data_pa:(Addr.kseg0_pa data_va);
  m.Machine.pc <- exe.Exe.entry;
  m.Machine.npc <- exe.Exe.entry + 4;
  m.Machine.hcall_handler <-
    Some (fun m code -> if code = 0 then Machine.halt m);
  (m, exe)

let run ?(max_insns = 1_000_000) m =
  match Machine.run m ~max_insns with
  | Machine.Halt -> ()
  | Machine.Limit -> Alcotest.fail "instruction limit reached"

let halt a = Asm.hcall a 0

(* ------------------------------------------------------------------ *)

let test_arith () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 21;
        li a Reg.t1 2;
        mul a Reg.t2 Reg.t0 Reg.t1;       (* 42 *)
        li a Reg.t3 (-7);
        div_ a Reg.t4 Reg.t2 Reg.t3;      (* -6 *)
        rem_ a Reg.t5 Reg.t2 Reg.t3;      (* 0 *)
        subu a Reg.t6 Reg.t2 Reg.t0;      (* 21 *)
        slt a Reg.s0 Reg.t3 Reg.zero;     (* 1: -7 < 0 signed *)
        sltu a Reg.s1 Reg.t3 Reg.zero;    (* 0: 0xfffffff9 > 0 unsigned *)
        halt a)
  in
  run m;
  check_int "mul" 42 m.Machine.regs.(Reg.t2);
  check_int "div" ((-6) land 0xFFFFFFFF) m.Machine.regs.(Reg.t4);
  check_int "rem" 0 m.Machine.regs.(Reg.t5);
  check_int "subu" 21 m.Machine.regs.(Reg.t6);
  check_int "slt signed" 1 m.Machine.regs.(Reg.s0);
  check_int "sltu unsigned" 0 m.Machine.regs.(Reg.s1)

let test_shifts () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (-8);
        sra a Reg.t1 Reg.t0 1;            (* -4 *)
        srl a Reg.t2 Reg.t0 28;           (* 0xF *)
        sll a Reg.t3 Reg.t0 1;            (* -16 *)
        halt a)
  in
  run m;
  check_int "sra" ((-4) land 0xFFFFFFFF) m.Machine.regs.(Reg.t1);
  check_int "srl" 0xF m.Machine.regs.(Reg.t2);
  check_int "sll" ((-16) land 0xFFFFFFFF) m.Machine.regs.(Reg.t3)

let test_loads_stores () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        la a Reg.t0 "buf";
        li a Reg.t1 0x12345678;
        sw a Reg.t1 0 Reg.t0;
        lw a Reg.t2 0 Reg.t0;
        lbu a Reg.t3 0 Reg.t0;            (* little-endian: 0x78 *)
        lb a Reg.t4 1 Reg.t0;             (* 0x56 *)
        lhu a Reg.t5 2 Reg.t0;            (* 0x1234 *)
        li a Reg.t6 0xFF80;
        sh a Reg.t6 4 Reg.t0;
        lh a Reg.t7 4 Reg.t0;             (* sign-extended: -128 *)
        halt a;
        dlabel a "buf";
        space a 16)
  in
  run m;
  check_int "lw" 0x12345678 m.Machine.regs.(Reg.t2);
  check_int "lbu" 0x78 m.Machine.regs.(Reg.t3);
  check_int "lb" 0x56 m.Machine.regs.(Reg.t4);
  check_int "lhu" 0x1234 m.Machine.regs.(Reg.t5);
  check_int "lh sign" ((-128) land 0xFFFFFFFF) m.Machine.regs.(Reg.t7)

let test_branch_delay_slot () =
  (* The delay slot executes even for taken branches. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 0;
        li a Reg.t1 5;
        label a "loop";
        Asm.i a (Insn.Bne (Reg.t1, Reg.zero, Sym "loop"));
        (* delay slot: executes 5 times *)
        Asm.i a (Insn.Alui (ADDIU, Reg.t0, Reg.t0, Imm 1));
        halt a)
  in
  (* Wait: the delay slot must also decrement t1, else infinite loop. Redo
     with a proper loop below. *)
  ignore m;
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 0;
        li a Reg.t1 5;
        label a "loop";
        addiu a Reg.t1 Reg.t1 (-1);
        Asm.i a (Insn.Bne (Reg.t1, Reg.zero, Sym "loop"));
        Asm.i a (Insn.Alui (ADDIU, Reg.t0, Reg.t0, Imm 1)) (* delay slot *);
        halt a)
  in
  run m;
  (* Delay slot runs on every iteration including the fall-through one. *)
  check_int "delay slot executed each iteration" 5 m.Machine.regs.(Reg.t0);
  check_int "loop counter" 0 m.Machine.regs.(Reg.t1)

let test_jal_ra () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        jal a "callee";
        move a Reg.s0 Reg.v0;
        halt a;
        leaf a "callee" (fun () -> li a Reg.v0 99))
  in
  run m;
  check_int "return value" 99 m.Machine.regs.(Reg.s0)

let test_syscall_exception () =
  (* A syscall from kernel mode enters the general vector with EPC set. *)
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_general";
  Asm.label vec "_vec_general";
  Asm.mfc0 vec Reg.k0 Insn.C0_epc;
  Asm.mfc0 vec Reg.k1 Insn.C0_cause;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.general_vector
      ~data_base:0x8000_0C00 ~entry:"_vec_general" [ Asm.to_obj vec ]
  in
  let m, exe =
    setup (fun a ->
        let open Asm in
        nop a;
        syscall a;
        nop a)
  in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.general_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  run m;
  let syscall_addr = exe.Exe.entry + 4 in
  check_int "epc" syscall_addr m.Machine.regs.(Reg.k0);
  check_int "cause code" (Machine.Exc.syscall lsl 2)
    (m.Machine.regs.(Reg.k1) land 0x7C);
  check_int "syscall counter" 1 m.Machine.c.Machine.syscalls

let test_delay_slot_exception () =
  (* An exception in a delay slot sets EPC to the branch and BD in cause. *)
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_general";
  Asm.label vec "_vec_general";
  Asm.mfc0 vec Reg.k0 Insn.C0_epc;
  Asm.mfc0 vec Reg.k1 Insn.C0_cause;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.general_vector
      ~data_base:0x8000_0C00 ~entry:"_vec_general" [ Asm.to_obj vec ]
  in
  let m, exe =
    setup (fun a ->
        let open Asm in
        nop a;
        Asm.i a (Insn.J (Sym "away"));
        Asm.i a Insn.Syscall (* delay slot *);
        label a "away";
        nop a;
        halt a)
  in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.general_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  run m;
  let branch_addr = exe.Exe.entry + 4 in
  check_int "epc points at branch" branch_addr m.Machine.regs.(Reg.k0);
  check "BD bit set" true (m.Machine.regs.(Reg.k1) land 0x80000000 <> 0)

let test_utlb_miss_vector () =
  (* A kuseg reference with no TLB entry vectors to 0x80000000. *)
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_utlb";
  Asm.label vec "_vec_utlb";
  Asm.mfc0 vec Reg.k0 Insn.C0_badvaddr;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.utlb_vector ~data_base:0x8000_0C00
      ~entry:"_vec_utlb" [ Asm.to_obj vec ]
  in
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 0x0040_0404;
        lw a Reg.t1 0 Reg.t0;
        halt a)
  in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.utlb_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  run m;
  check_int "badvaddr" 0x0040_0404 m.Machine.regs.(Reg.k0);
  check_int "utlb miss counted" 1 m.Machine.c.Machine.utlb_misses

let test_tlb_mapping () =
  (* Write a TLB entry mapping user page 0x400 (va 0x00400000) to a physical
     frame, then access it from kernel mode through kuseg. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        (* entryhi: vpn 0x400, asid 0 *)
        li a Reg.t0 (0x400 lsl 12);
        mtc0 a Reg.t0 Insn.C0_entryhi;
        (* entrylo: pfn 0x200 (pa 0x200000), valid+dirty *)
        li a Reg.t1 ((0x200 lsl 12) lor 0x600);
        mtc0 a Reg.t1 Insn.C0_entrylo;
        li a Reg.t2 (0 lsl 8);
        mtc0 a Reg.t2 Insn.C0_index;
        tlbwi a;
        (* Store through the mapping, read back through kseg0. *)
        li a Reg.t3 0x00400010;
        li a Reg.t4 0xBEEF;
        sw a Reg.t4 0 Reg.t3;
        li a Reg.t5 0x80200010;
        lw a Reg.s0 0 Reg.t5;
        halt a)
  in
  run m;
  check_int "mapped store visible at pa" 0xBEEF m.Machine.regs.(Reg.s0);
  check_int "no utlb misses" 0 m.Machine.c.Machine.utlb_misses

let test_tlbp () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (0x123 lsl 12);
        mtc0 a Reg.t0 Insn.C0_entryhi;
        li a Reg.t1 ((0x77 lsl 12) lor 0x600);
        mtc0 a Reg.t1 Insn.C0_entrylo;
        li a Reg.t2 (5 lsl 8);
        mtc0 a Reg.t2 Insn.C0_index;
        tlbwi a;
        (* Probe for it. *)
        li a Reg.t3 (0x123 lsl 12);
        mtc0 a Reg.t3 Insn.C0_entryhi;
        tlbp a;
        mfc0 a Reg.s0 Insn.C0_index;
        (* Probe for something absent. *)
        li a Reg.t4 (0x999 lsl 12);
        mtc0 a Reg.t4 Insn.C0_entryhi;
        tlbp a;
        mfc0 a Reg.s1 Insn.C0_index;
        halt a)
  in
  run m;
  check_int "probe hit index" (5 lsl 8) m.Machine.regs.(Reg.s0);
  check "probe miss flag" true (m.Machine.regs.(Reg.s1) land 0x80000000 <> 0)

let test_user_mode_protection () =
  (* In user mode, privileged instructions trap, and kseg access traps. *)
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_general";
  Asm.label vec "_vec_general";
  Asm.mfc0 vec Reg.k0 Insn.C0_cause;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.general_vector
      ~data_base:0x8000_0C00 ~entry:"_vec_general" [ Asm.to_obj vec ]
  in
  (* Map a user text page: we place user code at va 0x00400000 backed by
     pa 0x200000 and jump to it with user mode set via rfe. *)
  let user = Asm.create "user" in
  Asm.global user "_user";
  Asm.label user "_user";
  Asm.li user Reg.t0 0x80000000;
  Asm.lw user Reg.t1 0 Reg.t0;
  (* should trap AdEL before this: *)
  Asm.nop user;
  let uexe =
    Link.link ~name:"user" ~text_base:0x0040_0000 ~data_base:0x0041_0000
      ~entry:"_user" [ Asm.to_obj user ]
  in
  let m, _ =
    setup (fun a ->
        let open Asm in
        (* TLB entry for user text page *)
        li a Reg.t0 (0x400 lsl 12);
        mtc0 a Reg.t0 Insn.C0_entryhi;
        li a Reg.t1 ((0x200 lsl 12) lor 0x600);
        mtc0 a Reg.t1 Insn.C0_entrylo;
        li a Reg.t2 0;
        mtc0 a Reg.t2 Insn.C0_index;
        tlbwi a;
        (* status: KUp=1 (user after rfe), IEp=0; KUc=0 now *)
        li a Reg.t3 0x8;
        mtc0 a Reg.t3 Insn.C0_status;
        li a Reg.t4 0x0040_0000;
        mtc0 a Reg.t4 Insn.C0_epc;
        mfc0 a Reg.t5 Insn.C0_epc;
        Asm.i a (Insn.Jr Reg.t5);
        Asm.i a Insn.Rfe (* delay slot: classic return-to-user sequence *))
  in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.general_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  Machine.load_exe_phys m uexe ~text_pa:0x20_0000 ~data_pa:0x21_0000;
  run m;
  check_int "AdEL cause" (Machine.Exc.adel lsl 2)
    (m.Machine.regs.(Reg.k0) land 0x7C)

let test_console_device () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
        li a Reg.t1 (Char.code 'h');
        sw a Reg.t1 Addr.dev_console_tx Reg.t0;
        li a Reg.t1 (Char.code 'i');
        sw a Reg.t1 Addr.dev_console_tx Reg.t0;
        halt a)
  in
  run m;
  Alcotest.(check string) "console" "hi" (Machine.console_contents m)

let test_clock_interrupt () =
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_general";
  Asm.label vec "_vec_general";
  (* Ack the clock and halt. *)
  Asm.li vec Reg.k0 (0xA0000000 + Addr.device_base_pa);
  Asm.sw vec Reg.zero Addr.dev_clock_ack Reg.k0;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.general_vector
      ~data_base:0x8000_0C00 ~entry:"_vec_general" [ Asm.to_obj vec ]
  in
  let m, _ =
    setup (fun a ->
        let open Asm in
        (* Program the clock for 500 cycles. *)
        li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
        li a Reg.t1 500;
        sw a Reg.t1 Addr.dev_clock_interval Reg.t0;
        (* Enable interrupts: IEc=1, IM for the clock line. *)
        li a Reg.t2 (1 lor (1 lsl (Addr.irq_clock + 8)));
        mtc0 a Reg.t2 Insn.C0_status;
        label a "spin";
        j_ a "spin")
  in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.general_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  run m;
  check_int "one tick" 1 m.Machine.c.Machine.clock_ticks;
  check_int "one interrupt" 1 m.Machine.c.Machine.interrupts

let test_disk_read () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
        (* Read block 3 into pa 0x100000. *)
        li a Reg.t1 3;
        sw a Reg.t1 Addr.dev_disk_block Reg.t0;
        li a Reg.t1 0x100000;
        sw a Reg.t1 Addr.dev_disk_addr Reg.t0;
        li a Reg.t1 1;
        sw a Reg.t1 Addr.dev_disk_count Reg.t0;
        sw a Reg.t1 Addr.dev_disk_cmd Reg.t0;
        (* Busy-wait on the done block register. *)
        label a "wait";
        lw a Reg.t2 Addr.dev_disk_done_block Reg.t0;
        li a Reg.t3 3;
        bne a Reg.t2 Reg.t3 "wait";
        sw a Reg.zero Addr.dev_disk_ack Reg.t0;
        (* Load the first word of the block. *)
        li a Reg.t4 0x80100000;
        lw a Reg.s0 0 Reg.t4;
        halt a)
  in
  Disk.write_image m.Machine.disk ~block:3 ~off:0 "\xEF\xBE\xAD\xDE";
  run m;
  check_int "dma contents" 0xDEADBEEF m.Machine.regs.(Reg.s0);
  check "took disk latency" true (m.Machine.cycles > 20000)

let test_dcache_behavior () =
  (* First pass over an array misses; second pass hits. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        la a Reg.s0 "arr";
        List.iter
          (fun _pass ->
            move a Reg.t0 Reg.s0;
            li a Reg.t1 64;
            let l = fresh_label a "lp" in
            label a l;
            lw a Reg.t2 0 Reg.t0;
            addiu a Reg.t0 Reg.t0 4;
            addiu a Reg.t1 Reg.t1 (-1);
            bnez a Reg.t1 l)
          [ 1; 2 ];
        halt a;
        dlabel a "arr";
        space a 256)
  in
  let misses_before = Machine.dcache_misses m in
  run m;
  let misses = Machine.dcache_misses m - misses_before in
  (* 256 bytes / 4-byte lines = 64 misses on the first pass only. *)
  check_int "compulsory misses" 64 misses

let test_write_buffer_stalls () =
  (* A burst of back-to-back stores overwhelms the 4-entry buffer. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        la a Reg.t0 "arr";
        for k = 0 to 19 do
          sw a Reg.zero (k * 4) Reg.t0
        done;
        halt a;
        dlabel a "arr";
        space a 128)
  in
  run m;
  check "wb stalls happened" true (Machine.wb_stalls m > 0)

let test_fpu_arithmetic () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        la a Reg.t0 "vals";
        ld a 0 0 Reg.t0;                      (* 1.5 *)
        ld a 1 8 Reg.t0;                      (* 2.5 *)
        fadd a 2 0 1;                         (* 4.0 *)
        fmul a 3 2 2;                         (* 16.0 *)
        i a (Insn.Fop (FDIV, 4, 3, 1));       (* 6.4 *)
        sd a 4 16 Reg.t0;
        (* Integer conversion round-trip *)
        li a Reg.t1 7;
        mtc1 a Reg.t1 5;
        cvtdw a 5 5;
        fadd a 5 5 0;                         (* 8.5 *)
        truncwd a 5 5;
        mfc1 a Reg.s0 5;                      (* 8 *)
        halt a;
        dlabel a "vals";
        double a 1.5;
        double a 2.5;
        double a 0.0)
  in
  run m;
  check_int "trunc result" 8 m.Machine.regs.(Reg.s0);
  let bits =
    Int64.logor
      (Int64.of_int (Machine.read_phys_u32 m (Addr.kseg0_pa data_va + 16)))
      (Int64.shift_left
         (Int64.of_int (Machine.read_phys_u32 m (Addr.kseg0_pa data_va + 20)))
         32)
  in
  Alcotest.(check (float 1e-9)) "fp result" 6.4 (Int64.float_of_bits bits);
  check "fp ops counted" true (m.Machine.fpu.Fpu.ops >= 5)

let test_fpu_stalls () =
  (* A dependent chain of divides must accumulate arithmetic stalls. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        la a Reg.t0 "vals";
        ld a 0 0 Reg.t0;
        ld a 1 8 Reg.t0;
        for _ = 1 to 8 do
          i a (Insn.Fop (FDIV, 0, 0, 1))
        done;
        halt a;
        dlabel a "vals";
        double a 1000.0;
        double a 1.1)
  in
  run m;
  check "arith stalls accumulate" true (Machine.arith_stalls m > 50)

let test_cycle_counter_device () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
        lw a Reg.s0 Addr.dev_cycle_lo Reg.t0;
        lw a Reg.s1 Addr.dev_cycle_lo Reg.t0;
        halt a)
  in
  run m;
  check "cycle counter advances" true
    (m.Machine.regs.(Reg.s1) > m.Machine.regs.(Reg.s0))

let test_idle_range_counting () =
  let m, exe =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 10;
        label a "idle_loop";
        addiu a Reg.t0 Reg.t0 (-1);
        bnez a Reg.t0 "idle_loop";
        label a "idle_end";
        halt a)
  in
  m.Machine.idle_lo <- Exe.symbol exe "test::idle_loop";
  m.Machine.idle_hi <- Exe.symbol exe "test::idle_end";
  run m;
  (* 10 iterations x 3 instructions (addiu, bnez, nop-delay). *)
  check_int "idle instructions" 30 m.Machine.c.Machine.idle_instructions

let tests =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "loads and stores" `Quick test_loads_stores;
    Alcotest.test_case "branch delay slot" `Quick test_branch_delay_slot;
    Alcotest.test_case "jal/ra" `Quick test_jal_ra;
    Alcotest.test_case "syscall exception" `Quick test_syscall_exception;
    Alcotest.test_case "exception in delay slot" `Quick test_delay_slot_exception;
    Alcotest.test_case "utlb miss vector" `Quick test_utlb_miss_vector;
    Alcotest.test_case "tlb mapping" `Quick test_tlb_mapping;
    Alcotest.test_case "tlbp probe" `Quick test_tlbp;
    Alcotest.test_case "user mode protection" `Quick test_user_mode_protection;
    Alcotest.test_case "console device" `Quick test_console_device;
    Alcotest.test_case "clock interrupt" `Quick test_clock_interrupt;
    Alcotest.test_case "disk read + dma" `Quick test_disk_read;
    Alcotest.test_case "dcache hit/miss" `Quick test_dcache_behavior;
    Alcotest.test_case "write buffer stalls" `Quick test_write_buffer_stalls;
    Alcotest.test_case "fpu arithmetic" `Quick test_fpu_arithmetic;
    Alcotest.test_case "fpu stalls" `Quick test_fpu_stalls;
    Alcotest.test_case "cycle counter device" `Quick test_cycle_counter_device;
    Alcotest.test_case "idle range counting" `Quick test_idle_range_counting;
  ]

(* ------------------------------------------------------------------ *)
(* Additional machine semantics                                        *)

let run_expect_vec body =
  (* Run [body] with a general-vector stub that records cause/badvaddr
     into k0/k1 and halts. *)
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_general";
  Asm.label vec "_vec_general";
  Asm.mfc0 vec Reg.k0 Insn.C0_cause;
  Asm.mfc0 vec Reg.k1 Insn.C0_badvaddr;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.general_vector
      ~data_base:0x8000_0C00 ~entry:"_vec_general" [ Asm.to_obj vec ]
  in
  let m, _ = setup body in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.general_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  run m;
  ((m.Machine.regs.(Reg.k0) lsr 2) land 0x1F, m.Machine.regs.(Reg.k1))

let test_alignment_traps () =
  let code, badva =
    run_expect_vec (fun a ->
        let open Asm in
        li a Reg.t0 0x80002002;
        lw a Reg.t1 0 Reg.t0)
  in
  check_int "AdEL" Machine.Exc.adel code;
  check_int "badva" 0x80002002 badva;
  let code, _ =
    run_expect_vec (fun a ->
        let open Asm in
        li a Reg.t0 0x80002001;
        sh a Reg.t1 0 Reg.t0)
  in
  check_int "AdES" Machine.Exc.ades code;
  let code, _ =
    run_expect_vec (fun a ->
        let open Asm in
        li a Reg.t0 0x80002004;  (* 4-aligned but not 8 *)
        ld a 0 0 Reg.t0)
  in
  check_int "l.d AdEL" Machine.Exc.adel code

let test_interrupt_masking () =
  (* With IM clear, a pending clock line must NOT interrupt. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
        li a Reg.t1 200;
        sw a Reg.t1 Addr.dev_clock_interval Reg.t0;
        (* IEc on, but IM = 0 *)
        li a Reg.t2 1;
        mtc0 a Reg.t2 Insn.C0_status;
        li a Reg.t3 3000;
        label a "spin";
        addiu a Reg.t3 Reg.t3 (-1);
        bgtz a Reg.t3 "spin";
        hcall a 0)
  in
  run m;
  check "ticks pending but uninterrupted" true
    (m.Machine.c.Machine.clock_ticks > 0
    && m.Machine.c.Machine.interrupts = 0)

let test_store_invalidates_decode () =
  (* Self-modifying code: a store over an instruction must invalidate the
     decoded-instruction cache (the machine-level mechanism the kernel's
     cache-flush discipline relies on). *)
  let m, exe =
    setup (fun a ->
        let open Asm in
        (* patch target: turns "li v0, 1" into "li v0, 42" *)
        la a Reg.t0 "$patch";
        li a Reg.t1 0x24020063;  (* addiu v0, zero, 99 *)
        (* run the instruction once, patch it, run again *)
        jal a "$target";
        move a Reg.s0 Reg.v0;
        sw a Reg.t1 0 Reg.t0;
        jal a "$target";
        move a Reg.s1 Reg.v0;
        hcall a 0;
        label a "$target";
        label a "$patch";
        li a Reg.v0 1;
        ret a)
  in
  ignore exe;
  run m;
  check_int "before patch" 1 m.Machine.regs.(Reg.s0);
  check_int "after patch" 99 m.Machine.regs.(Reg.s1)

let test_random_register_range () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        mfc0 a Reg.s0 Insn.C0_random;
        nop a; nop a; nop a;
        mfc0 a Reg.s1 Insn.C0_random;
        hcall a 0)
  in
  run m;
  let idx r = (r lsr 8) land 0x3F in
  check "in range" true
    (idx m.Machine.regs.(Reg.s0) >= 8 && idx m.Machine.regs.(Reg.s0) < 64);
  check "advances" true (m.Machine.regs.(Reg.s0) <> m.Machine.regs.(Reg.s1))

let test_context_register () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 0xC0200000;
        mtc0 a Reg.t0 Insn.C0_context;
        (* touch an unmapped user address to set BadVPN; the utlb stub at
           the vector returns through k1 after a tlbwr of garbage, so give
           it a vector that just records context. *)
        mfc0 a Reg.s0 Insn.C0_context;
        hcall a 0)
  in
  run m;
  (* with no fault yet, BadVPN is whatever was there (0): base preserved *)
  check_int "PTEbase preserved" 0xC0200000
    (m.Machine.regs.(Reg.s0) land 0xFFE00000)

(* ------------------------------------------------------------------ *)
(* Translation cache vs the full TLB walk                              *)

(* Random CP0 traffic for the property below.  Every mutation runs as real
   instructions (mtc0/tlbwi/tlbwr/rfe, faulting loads), so the translation
   cache sees exactly the invalidation points the interpreter gives it — a
   direct [Tlb.write] would bypass them and prove nothing.  The mutations
   include the ones that must not flush (IE-only status writes, same-ASID
   entryhi writes, context writes, exceptions from either mode) next to
   the ones that must (entering user mode, ASID changes, TLB writes). *)
type tc_op =
  | Access of { va : int; write : bool; fetch : bool }
  | Op_tlbwi of { hi : int; lo : int; index : int }
  | Op_tlbwr of { hi : int; lo : int }
  | Op_status of int
  | Op_user of { status : int; by_rfe : bool }
  | Op_entryhi of int
  | Op_entryhi_vpn of int
  | Op_context of int
  | Op_fault of int
  | Op_rfe

let tc_machine () =
  (* One snippet per mutation kind; parameters arrive in t0..t2. *)
  let a = Asm.create "tcprop" in
  let snippet name build =
    Asm.global a name;
    Asm.label a name;
    build ();
    Asm.hcall a 0
  in
  Asm.global a "_start";
  Asm.label a "_start";
  Asm.hcall a 0;
  snippet "op_tlbwi" (fun () ->
      Asm.mtc0 a Reg.t0 Insn.C0_entryhi;
      Asm.mtc0 a Reg.t1 Insn.C0_entrylo;
      Asm.mtc0 a Reg.t2 Insn.C0_index;
      Asm.tlbwi a);
  snippet "op_tlbwr" (fun () ->
      Asm.mtc0 a Reg.t0 Insn.C0_entryhi;
      Asm.mtc0 a Reg.t1 Insn.C0_entrylo;
      Asm.tlbwr a);
  snippet "op_status" (fun () -> Asm.mtc0 a Reg.t0 Insn.C0_status);
  snippet "op_entryhi" (fun () -> Asm.mtc0 a Reg.t0 Insn.C0_entryhi);
  (* rewrite entryhi's vpn field, keeping the ASID *)
  snippet "op_entryhi_vpn" (fun () ->
      Asm.mfc0 a Reg.t1 Insn.C0_entryhi;
      Asm.andi a Reg.t1 Reg.t1 0xFC0;
      Asm.or_ a Reg.t1 Reg.t1 Reg.t0;
      Asm.mtc0 a Reg.t1 Insn.C0_entryhi);
  snippet "op_context" (fun () -> Asm.mtc0 a Reg.t0 Insn.C0_context);
  (* a load that may fault: the exception (taken in kernel mode) rewrites
     entryhi and pushes the KU stack, then the vector stub halts *)
  snippet "op_fault" (fun () -> Asm.lw a Reg.t1 Reg.t0 0);
  snippet "op_rfe" (fun () -> Asm.rfe a);
  let exe =
    Link.link ~name:"tcprop" ~text_base:text_va ~data_base:data_va
      ~entry:"_start" [ Asm.to_obj a ]
  in
  let m = Machine.create () in
  Machine.load_exe_phys m exe ~text_pa:(Addr.kseg0_pa text_va)
    ~data_pa:(Addr.kseg0_pa data_va);
  List.iter
    (fun v ->
      Machine.write_phys_u32 m (Addr.kseg0_pa v)
        (Encode.encode ~pc:v (Insn.Hcall 0)))
    [ Addr.utlb_vector; Addr.general_vector ];
  m.Machine.hcall_handler <- Some (fun m code -> if code = 0 then Machine.halt m);
  (m, exe)

let tc_run m exe name ~max_insns =
  m.Machine.pc <- Exe.symbol exe name;
  m.Machine.npc <- m.Machine.pc + 4;
  m.Machine.next_is_delay <- false;
  m.Machine.halted <- false;
  Machine.run m ~max_insns

(* Snippets live in kseg0, so they run in kernel mode.  A machine left in
   user mode by [Op_user] gets back the way real code does: the first
   fetch faults, and the exception entry (a KU flip) lands on the vector
   stub. *)
let tc_run_snippet m exe name =
  let go name =
    match tc_run m exe name ~max_insns:20 with
    | Machine.Halt -> ()
    | Machine.Limit -> Alcotest.fail (name ^ ": snippet did not halt")
  in
  if Machine.user_mode m then go "_start";
  go name

(* Random status values keep the machine in kernel mode (their KU stack is
   masked off), so they are IE/IM-only writes; [Op_user] is the KU flip,
   by mtc0 or by rfe. *)
let tc_status_mask = lnot 0x2A

(* Pages.  Mapped accesses and TLB entries share a small hot set — a few
   low vpns plus vpns that alias in the translation cache (four per slot,
   for four slots) — so entries get cached, overwritten, duplicated and
   retargeted by ASID.  Unmapped segments also range over more distinct
   vpns than a class has slots, for eviction. *)
let tc_aliases =
  let rec collect slot v acc =
    if List.length acc = 4 then List.rev acc
    else collect slot (v + 1) (if Machine.tc_slot v = slot then v :: acc else acc)
  in
  Array.of_list (List.concat_map (fun slot -> collect slot 0 []) [ 0; 1; 2; 3 ])

let tc_gen_hot_page =
  let open QCheck.Gen in
  frequency
    [
      (1, int_range 0 7);
      (1, map (Array.get tc_aliases) (int_bound (Array.length tc_aliases - 1)));
    ]

let tc_gen_op =
  let open QCheck.Gen in
  let va =
    frequency
      [
        (3, map2 (fun kseg2 page ->
                 (if kseg2 then 0xC000_0000 else 0) lor (page lsl 12) lor 0x100)
              bool tc_gen_hot_page);
        (2, map2 (fun seg page -> seg lor (page lsl 12) lor 0x100)
              (oneofl [ 0x8000_0000; 0xA000_0000 ])
              (frequency
                 [ (1, tc_gen_hot_page); (1, int_range 0 (3 * Machine.tc_slots)) ]));
      ]
  in
  let mapped_vpn =
    map2 (fun kseg2 page -> if kseg2 then 0xC0000 + page else page) bool
      tc_gen_hot_page
  in
  let entry_hi =
    map2 (fun vpn asid -> Tlb.make_entryhi ~vpn ~asid) mapped_vpn (int_range 0 3)
  in
  let entry_lo =
    map2
      (fun pfn (valid, dirty, global, nc) ->
        Tlb.make_entrylo ~noncacheable:nc ~dirty ~valid ~global ~pfn ())
      (int_range 0 15)
      (quad bool bool bool bool)
  in
  (* mostly a few indexes, so writes overwrite live entries *)
  let index = frequency [ (3, int_range 0 7); (1, int_range 8 63) ] in
  frequency
    [
      (10, map3 (fun va write fetch ->
               Access { va; write; fetch = fetch && not write })
            va bool bool);
      (3, map3 (fun hi lo index -> Op_tlbwi { hi; lo; index = index lsl 8 })
            entry_hi entry_lo index);
      (1, map2 (fun hi lo -> Op_tlbwr { hi; lo }) entry_hi entry_lo);
      (1, map (fun s -> Op_status (s land tc_status_mask)) (int_bound 0xFFFF));
      (2, map2 (fun s by_rfe -> Op_user { status = s land tc_status_mask; by_rfe })
            (int_bound 0xFFFF) bool);
      (2, map (fun hi -> Op_entryhi hi) entry_hi);
      (1, map (fun vpn -> Op_entryhi_vpn (vpn lsl 12)) mapped_vpn);
      (1, map (fun c -> Op_context (c lsl 21)) (int_bound 0x3F));
      (1, map (fun va -> Op_fault va) va);
      (1, return Op_rfe);
    ]

let tc_arb_ops =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
    QCheck.Gen.(list_size (int_range 1 120) tc_gen_op)

let tc_counters (m : Machine.t) =
  let c = m.Machine.c in
  (c.Machine.utlb_misses, c.Machine.ktlb_misses, c.Machine.tlb_invalid,
   c.Machine.tlb_mod)

(* Every hot page in every segment and class: swept after each mutation,
   so every entry the cache holds is re-checked against the walk at each
   invalidation point. *)
let tc_probes =
  List.concat_map
    (fun seg ->
      List.concat_map
        (fun page ->
          let va = seg lor (page lsl 12) lor 0x100 in
          [ (va, false, true); (va, false, false); (va, true, false) ])
        (List.init 8 Fun.id @ Array.to_list tc_aliases))
    [ 0x0000_0000; 0x8000_0000; 0xA000_0000; 0xC000_0000 ]

let prop_tcache_matches_walk =
  QCheck.Test.make ~count:100
    ~name:"translate micro-cache == full TLB walk on every result"
    tc_arb_ops
    (fun ops ->
      let m, exe = tc_machine () in
      (* (pa, cached) or the trap, plus the counters the call moved *)
      let result f =
        let before = tc_counters m in
        let r =
          match f () with
          | pa -> Ok (pa, m.Machine.tr_cached)
          | exception Machine.Trap { code; badva; refill } ->
            Error (code, badva, refill)
        in
        (r, before, tc_counters m)
      in
      let delta (r, (a, b, c, d), (a', b', c', d')) =
        (r, (a' - a, b' - b, c' - c, d' - d))
      in
      let access va ~write ~fetch =
        (* Oracle first: the walk never reads the translation cache. *)
        let oracle =
          delta (result (fun () -> Machine.translate_walk m va ~write ~fetch))
        in
        let fast =
          delta (result (fun () -> Machine.translate_i m va ~write ~fetch))
        in
        fast = oracle
      in
      let sweep () =
        List.for_all
          (fun (va, write, fetch) -> access va ~write ~fetch)
          tc_probes
      in
      List.for_all
        (fun op ->
          match op with
          | Access { va; write; fetch } -> access va ~write ~fetch
          | Op_tlbwi { hi; lo; index } ->
            m.Machine.regs.(Reg.t0) <- hi;
            m.Machine.regs.(Reg.t1) <- lo;
            m.Machine.regs.(Reg.t2) <- index;
            tc_run_snippet m exe "op_tlbwi";
            sweep ()
          | Op_tlbwr { hi; lo } ->
            m.Machine.regs.(Reg.t0) <- hi;
            m.Machine.regs.(Reg.t1) <- lo;
            tc_run_snippet m exe "op_tlbwr";
            sweep ()
          | Op_status s ->
            m.Machine.regs.(Reg.t0) <- s;
            tc_run_snippet m exe "op_status";
            sweep ()
          | Op_user { status; by_rfe } ->
            (* run only the mtc0 (status with KUc set) or the rfe (after
               setting KUp): the machine stays in user mode for the
               accesses that follow *)
            let user = 0x2 lsl (if by_rfe then 2 else 0) in
            m.Machine.regs.(Reg.t0) <- status lor user;
            if by_rfe then tc_run_snippet m exe "op_status"
            else if Machine.user_mode m then tc_run_snippet m exe "_start";
            (match
               tc_run m exe (if by_rfe then "op_rfe" else "op_status") ~max_insns:1
             with
            | Machine.Limit -> ()
            | Machine.Halt -> Alcotest.fail "single instruction halted");
            Machine.user_mode m && sweep ()
          | Op_entryhi hi ->
            m.Machine.regs.(Reg.t0) <- hi;
            tc_run_snippet m exe "op_entryhi";
            sweep ()
          | Op_entryhi_vpn v ->
            m.Machine.regs.(Reg.t0) <- v;
            tc_run_snippet m exe "op_entryhi_vpn";
            sweep ()
          | Op_context c ->
            m.Machine.regs.(Reg.t0) <- c;
            tc_run_snippet m exe "op_context";
            sweep ()
          | Op_fault va ->
            m.Machine.regs.(Reg.t0) <- va;
            tc_run_snippet m exe "op_fault";
            sweep ()
          | Op_rfe ->
            tc_run_snippet m exe "op_rfe";
            sweep ())
        ops)

(* The TLB's vpn index against a reference model: among the entries
   written since the last reset that match (vpn, and global or asid),
   [probe] picks the most recently written one — the order duplicates
   resolve in, which translation results depend on. *)
let prop_tlb_probe_order =
  let open QCheck in
  let op =
    Gen.(
      map3
        (fun (k, vpn) (asid, global) probe -> (k, vpn, asid, global, probe))
        (pair (int_bound 7) (int_bound 3))
        (pair (int_bound 2) bool) bool)
  in
  Test.make ~count:300 ~name:"tlb probe picks the most recent matching write"
    (make Gen.(list_size (int_range 1 80) op))
    (fun ops ->
      let t = Tlb.create () in
      Tlb.reset t;
      (* per entry: (hi, lo, write time), None until written *)
      let model = Array.make Tlb.size None in
      let clock = ref 0 in
      List.for_all
        (fun (k, vpn, asid, global, probe) ->
          if probe then begin
            let best = ref (-1) and time = ref (-1) in
            Array.iteri
              (fun i e ->
                match e with
                | Some (hi, lo, at)
                  when Tlb.hi_vpn hi = vpn
                       && (Tlb.lo_global lo || Tlb.hi_asid hi = asid)
                       && at > !time ->
                  best := i;
                  time := at
                | _ -> ())
              model;
            Tlb.probe t ~vpn ~asid = !best
          end
          else begin
            let hi = Tlb.make_entryhi ~vpn ~asid
            and lo = Tlb.make_entrylo ~global ~pfn:k () in
            Tlb.write t k ~hi ~lo;
            incr clock;
            model.(k) <- Some (hi, lo, !clock);
            true
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* Block-cache oracle: replay must be indistinguishable from [step]    *)

(* The whole of physical memory, read through the host accessor. *)
let ram_image (m : Machine.t) =
  Machine.read_phys_bytes m 0 m.Machine.cfg.Machine.mem_bytes

(* Complete architectural state plus every ground-truth counter.  Any
   divergence here means the block cache leaked into the simulation. *)
let bb_fingerprint (m : Machine.t) =
  let c = m.Machine.c in
  ( ( Array.to_list m.Machine.regs,
      (m.Machine.pc, m.Machine.npc, m.Machine.next_is_delay),
      (m.Machine.status, m.Machine.cause, m.Machine.epc, m.Machine.badvaddr),
      m.Machine.cycles ),
    ( (c.Machine.instructions, c.Machine.user_instructions,
       c.Machine.kernel_instructions, c.Machine.idle_instructions),
      (c.Machine.utlb_misses, c.Machine.ktlb_misses, c.Machine.exceptions,
       c.Machine.interrupts, c.Machine.clock_ticks),
      (Machine.icache_misses m, Machine.dcache_misses m, Machine.wb_stalls m) ),
    ( Array.to_list (Array.map Int64.bits_of_float m.Machine.fregs),
      m.Machine.fcc,
      Machine.arith_stalls m ),
    Machine.console_contents m )

(* The general/utlb vectors get a host-assembled stub: interrupts ack the
   clock and resume at epc; any other trap skips the faulting
   instruction (epc + 4).  Written straight into physical memory so the
   generated programs stay simple. *)
let bb_install_vectors m =
  let open Insn in
  let stub base =
    [
      Mfc0 (Reg.k0, C0_cause);
      Alui (ANDI, Reg.k0, Reg.k0, Imm 0x3c);
      Bne (Reg.k0, Reg.zero, Abs (base + (9 * 4)));
      nop;
      Lui (Reg.k1, Imm 0xA100);
      Store (W, Reg.zero, Reg.k1, Imm 0x08) (* dev_clock_ack *);
      Mfc0 (Reg.k1, C0_epc);
      Jr Reg.k1;
      Rfe;
      Mfc0 (Reg.k1, C0_epc);
      Alui (ADDIU, Reg.k1, Reg.k1, Imm 4);
      Jr Reg.k1;
      Rfe;
    ]
  in
  let write base insns =
    List.iteri
      (fun i insn ->
        Machine.write_phys_u32 m
          (Addr.kseg0_pa base + (4 * i))
          (Encode.encode ~pc:(base + (4 * i)) insn))
      insns
  in
  write Addr.general_vector (stub Addr.general_vector);
  write Addr.utlb_vector (stub Addr.utlb_vector)

(* Run the same program under the step-at-a-time oracle and the block
   tier (superblock-fused) with identical budgets; [prepare]
   pokes extra host-side state (mapped routines, clock) into every
   machine identically. *)
let bb_run_both ?(prepare = fun (_ : Machine.t) -> ()) ?(max_insns = 400_000)
    build =
  let run_tier tier =
    let cfg = { Machine.default_config with Machine.tier } in
    let m, _ = setup ~cfg build in
    bb_install_vectors m;
    prepare m;
    (match Machine.run m ~max_insns with
    | Machine.Halt -> ()
    | Machine.Limit ->
      QCheck.Test.fail_report "generated program hit the instruction limit");
    m
  in
  let ms = run_tier Uop.Step in
  let fs = bb_fingerprint ms in
  List.iter
    (fun tier ->
      let mb = run_tier tier in
      if ram_image ms <> ram_image mb then
        QCheck.Test.fail_report
          (Uop.tier_name tier ^ " tier diverges from step mode in memory");
      if bb_fingerprint mb <> fs then
        QCheck.Test.fail_report
          (Uop.tier_name tier
          ^ " tier diverges from step mode in registers/counters"))
    [ Uop.Super ];
  true

(* Generated program fragments.  [Patch] stores a freshly encoded
   instruction over a callable slot's first word (through kseg0, like
   the stores self-modifying code does); [Call_slot] jumps into it, so a
   stale decoded block would be caught immediately.  [Delay_fault] puts
   an unaligned load in a jump's delay slot: the fault must recover the
   branch pc and the in-delay flag from mid-block state.  The [Fp_*]
   fragments drive the FP uops: a dependent add/mul/div chain that
   stalls on the FP scoreboard, l.d/s.d over aligned doubles, a s.d
   reloaded from the same address, and an l.d or s.d at a word- but
   not double-aligned address (traps), optionally in a jump's delay
   slot. *)
type bb_op =
  | Arith of int
  | Mem_rw of int
  | Skip_fwd
  | Loop of int * int
  | Patch of int * int
  | Call_slot of int
  | Unaligned
  | Delay_fault
  | Fp_chain of int
  | Fp_mem of int
  | Fp_spill of int
  | Fp_misaligned of bool * bool  (* store?, in a delay slot? *)

let bb_nslots = 3

(* Doubles live above the words [Mem_rw] writes. *)
let bb_fp_va k = data_va + 0x400 + (8 * (k land 15))

let bb_emit_op a fresh op =
  let open Asm in
  match op with
  | Arith k ->
    addiu a Reg.s0 Reg.s0 k;
    xor_ a Reg.s1 Reg.s1 Reg.s0
  | Mem_rw k ->
    li a Reg.t4 (data_va + (4 * k));
    sw a Reg.s0 0 Reg.t4;
    lw a Reg.t5 0 Reg.t4;
    addu a Reg.s1 Reg.s1 Reg.t5
  | Skip_fwd ->
    let l = fresh "skip" in
    beq a Reg.zero Reg.zero l;
    addiu a Reg.s0 Reg.s0 1;
    addiu a Reg.s0 Reg.s0 2;
    label a l
  | Loop (n, k) ->
    let l = fresh "loop" in
    li a Reg.t3 n;
    label a l;
    addiu a Reg.s0 Reg.s0 k;
    addiu a Reg.t3 Reg.t3 (-1);
    bnez a Reg.t3 l
  | Patch (slot, k) ->
    li a Reg.t0
      (Encode.encode ~pc:0 (Insn.Alui (Insn.ADDIU, Reg.s7, Reg.s7, Insn.Imm k)));
    la a Reg.t1 (Printf.sprintf "slot%d" (slot mod bb_nslots));
    sw a Reg.t0 0 Reg.t1
  | Call_slot slot ->
    la a Reg.t2 (Printf.sprintf "slot%d" (slot mod bb_nslots));
    jalr a Reg.t2
  | Unaligned ->
    li a Reg.t8 (data_va + 0x101);
    lw a Reg.t9 0 Reg.t8
  | Delay_fault ->
    let l = fresh "df" in
    li a Reg.t8 (data_va + 0x203);
    i a (Insn.J (Insn.Sym l));
    i a (Insn.Load (Insn.W, Reg.t9, Reg.t8, Insn.Imm 0));
    label a l
  | Fp_chain k ->
    li a Reg.t6 k;
    mtc1 a Reg.t6 2;
    cvtdw a 2 2;
    fadd a 4 4 2;
    fmul a 4 4 2;
    fdiv a 4 4 2;
    fadd a 6 4 2;
    fdiv a 6 6 2;
    fmul a 4 6 4;
    fcmp a Insn.FLT 4 2
  | Fp_mem k ->
    li a Reg.t4 (bb_fp_va k);
    ld a 8 0 Reg.t4;
    fadd a 8 8 4;
    sd a 8 8 Reg.t4
  | Fp_spill k ->
    li a Reg.t4 (bb_fp_va k);
    sd a 4 0 Reg.t4;
    ld a 12 0 Reg.t4;
    fadd a 14 12 2
  | Fp_misaligned (store, in_delay) ->
    let l = fresh "fdf" in
    li a Reg.t8 (data_va + 0x504);
    if in_delay then i a (Insn.J (Insn.Sym l));
    i a
      (if store then Insn.Fstore (4, Reg.t8, Insn.Imm 0)
       else Insn.Fload (10, Reg.t8, Insn.Imm 0));
    label a l

let bb_build_program ops a =
  let open Asm in
  let fresh = fresh_label a in
  List.iter (bb_emit_op a fresh) ops;
  halt a;
  for s = 0 to bb_nslots - 1 do
    label a (Printf.sprintf "slot%d" s);
    addiu a Reg.s7 Reg.s7 1;
    jr_ a Reg.ra
  done

let bb_gen_op =
  let open QCheck.Gen in
  frequency
    [
      (4, map (fun k -> Arith k) (int_range 1 100));
      (3, map (fun k -> Mem_rw k) (int_range 0 63));
      (2, return Skip_fwd);
      (2, map2 (fun n k -> Loop (n, k)) (int_range 2 6) (int_range 1 9));
      (3, map2 (fun s k -> Patch (s, k)) (int_range 0 2) (int_range 1 200));
      (3, map (fun s -> Call_slot s) (int_range 0 2));
      (1, return Unaligned);
      (1, return Delay_fault);
      (2, map (fun k -> Fp_chain k) (int_range 1 9));
      (2, map (fun k -> Fp_mem k) (int_range 0 15));
      (1, map (fun k -> Fp_spill k) (int_range 0 15));
      (1, map2 (fun st d -> Fp_misaligned (st, d)) bool bool);
    ]

let bb_op_name = function
  | Arith k -> Printf.sprintf "arith%d" k
  | Mem_rw k -> Printf.sprintf "mem%d" k
  | Skip_fwd -> "skip"
  | Loop (n, k) -> Printf.sprintf "loop%dx%d" n k
  | Patch (s, k) -> Printf.sprintf "patch%d<-%d" s k
  | Call_slot s -> Printf.sprintf "call%d" s
  | Unaligned -> "unaligned"
  | Delay_fault -> "delayfault"
  | Fp_chain k -> Printf.sprintf "fchain%d" k
  | Fp_mem k -> Printf.sprintf "fmem%d" k
  | Fp_spill k -> Printf.sprintf "fspill%d" k
  | Fp_misaligned (st, d) ->
    Printf.sprintf "f%smisaligned%s" (if st then "st" else "ld")
      (if d then "-delay" else "")

let bb_arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map bb_op_name ops))
    QCheck.Gen.(list_size (int_range 1 40) bb_gen_op)

let prop_bcache_matches_step =
  QCheck.Test.make ~count:60
    ~name:"block replay == step: self-modifying text, faults, branches"
    bb_arb_ops
    (fun ops -> bb_run_both (bb_build_program ops))

(* TLB remaps under the block cache: one kuseg page flips between two
   physical frames holding different routines; jumping through the
   mapping must always execute the routine the TLB currently names, and
   stores through kseg0 to either frame must invalidate blocks decoded
   through the kuseg mapping (block keys are physical). *)

let bb_map_va = 0x0000_6000
let bb_frame1 = 0x0040_0000
let bb_frame2 = 0x0040_1000

type bb_map_op =
  | Map_remap of bool
  | Map_call
  | Map_poke of bool * int
  | Map_arith of int

let bb_map_routine k = [ Insn.Alui (Insn.ADDIU, Reg.s6, Reg.s6, Insn.Imm k); Insn.Jr Reg.ra; Insn.nop ]

let bb_map_prepare m =
  List.iteri
    (fun i insn ->
      Machine.write_phys_u32 m (bb_frame1 + (4 * i))
        (Encode.encode ~pc:(bb_map_va + (4 * i)) insn))
    (bb_map_routine 1);
  List.iteri
    (fun i insn ->
      Machine.write_phys_u32 m (bb_frame2 + (4 * i))
        (Encode.encode ~pc:(bb_map_va + (4 * i)) insn))
    (bb_map_routine 64)

let bb_map_emit a op =
  let open Asm in
  match op with
  | Map_remap second ->
    let frame = if second then bb_frame2 else bb_frame1 in
    li a Reg.t0 (Tlb.make_entryhi ~vpn:(bb_map_va lsr Addr.page_shift) ~asid:0);
    mtc0 a Reg.t0 Insn.C0_entryhi;
    li a Reg.t1
      (Tlb.make_entrylo ~dirty:true ~valid:true ~global:true
         ~pfn:(frame lsr Addr.page_shift) ());
    mtc0 a Reg.t1 Insn.C0_entrylo;
    li a Reg.t2 (8 lsl 8);
    mtc0 a Reg.t2 Insn.C0_index;
    tlbwi a
  | Map_call ->
    li a Reg.t6 bb_map_va;
    jalr a Reg.t6
  | Map_poke (second, k) ->
    let frame = if second then bb_frame2 else bb_frame1 in
    li a Reg.t0
      (Encode.encode ~pc:bb_map_va
         (Insn.Alui (Insn.ADDIU, Reg.s6, Reg.s6, Insn.Imm k)));
    li a Reg.t1 (Addr.kseg0_base lor frame);
    sw a Reg.t0 0 Reg.t1
  | Map_arith k -> addiu a Reg.s0 Reg.s0 k

let bb_map_build ops a =
  List.iter (bb_map_emit a) (Map_remap false :: ops);
  halt a

let bb_map_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Map_remap b -> Printf.sprintf "remap%B" b
             | Map_call -> "call"
             | Map_poke (b, k) -> Printf.sprintf "poke%B<-%d" b k
             | Map_arith k -> Printf.sprintf "arith%d" k)
           ops))
    QCheck.Gen.(
      list_size (int_range 1 40)
        (frequency
           [
             (3, map (fun b -> Map_remap b) bool);
             (4, return Map_call);
             (2, map2 (fun b k -> Map_poke (b, k)) bool (int_range 1 200));
             (2, map (fun k -> Map_arith k) (int_range 1 100));
           ]))

let prop_bcache_tlb_remap =
  QCheck.Test.make ~count:60
    ~name:"block replay == step: TLB remaps over cached blocks"
    bb_map_arb
    (fun ops -> bb_run_both ~prepare:bb_map_prepare (bb_map_build ops))

(* Clock interrupts at random intervals sweep the interrupt-arrival
   point across every block-boundary alignment — including an irq
   raised at the branch→delay-slot boundary, whose delivery [step]
   defers by exactly one instruction (the regression that motivated
   this property: block chaining must not defer it further). *)

type bb_clk_op =
  | Clk_arith of int
  | Clk_skip
  | Clk_loop of int * int
  | Clk_mem of int
  | Clk_fp of bb_op

let bb_clk_build ops a =
  let open Asm in
  let fresh = fresh_label a in
  li a Reg.t0 (0x401 lor (1 lsl (Addr.irq_clock + 8)));
  mtc0 a Reg.t0 Insn.C0_status;
  List.iter
    (fun op ->
      bb_emit_op a fresh
        (match op with
        | Clk_arith k -> Arith k
        | Clk_skip -> Skip_fwd
        | Clk_loop (n, k) -> Loop (n, k)
        | Clk_mem k -> Mem_rw k
        | Clk_fp op -> op))
    ops;
  halt a;
  for s = 0 to bb_nslots - 1 do
    label a (Printf.sprintf "slot%d" s);
    addiu a Reg.s7 Reg.s7 1;
    jr_ a Reg.ra
  done

let bb_clk_arb =
  QCheck.make
    ~print:(fun (iv, ops) -> Printf.sprintf "interval=%d <%d ops>" iv (List.length ops))
    QCheck.Gen.(
      (* Floor the interval above the handler's steady-state cost (~30
         cycles: nine instructions plus the uncached ack store) — below
         that the clock refires mid-handler forever and the *guest*
         livelocks, on real hardware just as much as here. *)
      pair (int_range 100 300)
        (list_size (int_range 5 40)
           (frequency
              [
                (4, map (fun k -> Clk_arith k) (int_range 1 100));
                (3, return Clk_skip);
                (4, map2 (fun n k -> Clk_loop (n, k)) (int_range 2 8) (int_range 1 9));
                (2, map (fun k -> Clk_mem k) (int_range 0 63));
                (* FP stalls move the clock across the event horizon *)
                ( 3,
                  map2
                    (fun c k ->
                      Clk_fp
                        (match c with
                        | 0 -> Fp_chain (k + 1)
                        | 1 -> Fp_mem k
                        | _ -> Fp_spill k))
                    (int_range 0 2) (int_range 0 15) );
              ])))

let prop_bcache_clock_interrupts =
  QCheck.Test.make ~count:60
    ~name:"block replay == step: clock interrupts at random intervals"
    bb_clk_arb
    (fun (interval, ops) ->
      bb_run_both
        ~prepare:(fun m ->
          m.Machine.clock_interval <- interval;
          m.Machine.next_clock <- interval)
        (bb_clk_build ops))

(* Structural invariants of superblock fusion (DESIGN.md §5h), over
   random lowered bodies salted with fusible idioms.  A store may only
   be a run's *final* element, so a fused run never crosses a
   store-generation bump — the post-store revalidation happens
   immediately after the dispatch.  (The event-horizon half of the
   contract is runtime behaviour: every seam re-checks the horizon, and
   the clock-interrupt equality property above exercises it on the
   Super tier.)  Covered slots must keep their scalar originals so a
   mid-run bail-out resumes on the unfused tail, and runs never
   overlap. *)

let fuse_gen_insns =
  let open QCheck.Gen in
  let reg = int_range 0 7 in
  let imm = map (fun i -> Insn.Imm i) (int_range (-64) 64) in
  let tgt = map (fun a -> 4 * a) (int_range 0 1024) in
  let insn =
    frequency
      [
        (4, map3 (fun rt rs i -> Insn.Alui (Insn.ADDIU, rt, rs, i)) reg reg imm);
        (2, map2 (fun rt i -> Insn.Lui (rt, i)) reg imm);
        (2, map3 (fun rt rs i -> Insn.Alui (Insn.ORI, rt, rs, i)) reg reg imm);
        (2, map3 (fun rd rs rt -> Insn.Alu (Insn.SLT, rd, rs, rt)) reg reg reg);
        (2, map3 (fun rt b i -> Insn.Load (Insn.W, rt, b, i)) reg reg imm);
        (2, map3 (fun rt b i -> Insn.Store (Insn.W, rt, b, i)) reg reg imm);
        (2, map2 (fun rs a -> Insn.Bne (rs, 0, Insn.Abs a)) reg tgt);
        (2, map2 (fun rs a -> Insn.Beq (rs, 0, Insn.Abs a)) reg tgt);
        (1, map (fun a -> Insn.J (Insn.Abs a)) tgt);
        (2, return (Insn.Shift (Insn.SLL, 0, 0, 0)));
        (1, return Insn.Syscall);
      ]
  in
  let chunk =
    frequency
      [
        (5, map (fun i -> [ i ]) insn);
        ( 2,
          map3
            (fun rd rs a ->
              [ Insn.Alu (Insn.SLTU, rd, rs, rs); Insn.Bne (rd, 0, Insn.Abs a) ])
            reg reg tgt );
        ( 2,
          map2
            (fun rt i ->
              [ Insn.Lui (rt, Insn.Imm 0x1234); Insn.Alui (Insn.ORI, rt, rt, i) ])
            reg imm );
        ( 2,
          map3
            (fun rt b i ->
              [
                Insn.Load (Insn.W, rt, b, i);
                Insn.Alui (Insn.ADDIU, rt, rt, Insn.Imm 4);
                Insn.Store (Insn.W, rt, b, i);
              ])
            reg reg imm );
        (1, map (fun a -> [ Insn.J (Insn.Abs a); Insn.nop ]) tgt);
      ]
  in
  map List.concat (list_size (int_range 1 20) chunk)

let fuse_arb_insns =
  QCheck.make
    ~print:(fun insns -> Printf.sprintf "<%d insns>" (List.length insns))
    fuse_gen_insns

let prop_fusion_structure =
  QCheck.Test.make ~count:500
    ~name:
      "superblock fusion: stores only final (no run crosses a generation \
       bump), originals kept, runs disjoint"
    fuse_arb_insns
    (fun insns ->
      let scal = Array.of_list (List.map Uop.of_insn insns) in
      let out = Uop.fuse scal in
      let n = Array.length out in
      if n <> Array.length scal then
        QCheck.Test.fail_report "fusion changed the block length";
      Array.iter
        (fun u ->
          if Uop.is_fused u then
            QCheck.Test.fail_report "of_insn produced a fused constructor")
        scal;
      let i = ref 0 in
      while !i < n do
        let u = out.(!i) in
        let w = Uop.width u in
        if w > 1 then begin
          if !i + w > n then
            QCheck.Test.fail_report "fused run extends past the block end";
          for j = !i + 1 to !i + w - 1 do
            if out.(j) <> scal.(j) then
              QCheck.Test.fail_report
                "covered slot lost its scalar original (bail-out could not \
                 resume)"
          done;
          for j = !i to !i + w - 2 do
            match scal.(j) with
            | Uop.U_sw _ | Uop.U_sh _ | Uop.U_sb _ ->
              QCheck.Test.fail_report
                "store in a non-final fused position (run would cross a \
                 store-generation bump)"
            | Uop.U_other _ ->
              QCheck.Test.fail_report "U_other inside a fused run"
            | Uop.U_beq _ | Uop.U_bne _ | Uop.U_blez _ | Uop.U_bgtz _
            | Uop.U_bltz _ | Uop.U_bgez _ | Uop.U_bc1t _ | Uop.U_bc1f _
            | Uop.U_jal _ | Uop.U_jr _ | Uop.U_jalr _ ->
              QCheck.Test.fail_report "branch in a non-final fused position"
            | Uop.U_j _ -> (
              match u with
              | Uop.U_j_nop _ -> ()
              | _ ->
                QCheck.Test.fail_report "jump in a non-final fused position")
            | _ -> ()
          done
        end;
        i := !i + w
      done;
      true)


(* A TLB miss on the load of the *last* fused load-modify-store triple
   of a block: the block has already retired whole [U_lmw] dispatches
   when element 1 of its final triple faults, so trap recovery rebuilds
   pc/epc and the register file from mid-block state.  Registers, EPC,
   BadVAddr, memory and every counter must match step-at-a-time
   exactly. *)
let test_lmw_last_load_tlb_miss () =
  let build a =
    let open Asm in
    li a Reg.s0 30;
    la a Reg.t2 "buf";
    label a "loop";
    lw a Reg.t3 0 Reg.t2;
    addiu a Reg.t3 Reg.t3 1;
    sw a Reg.t3 0 Reg.t2;
    lw a Reg.t4 4 Reg.t2;
    addiu a Reg.t4 Reg.t4 1;
    sw a Reg.t4 4 Reg.t2;
    addiu a Reg.s0 Reg.s0 (-1);
    bnez a Reg.s0 "loop";
    (* fall out: one more valid triple, then one through an unmapped
       kuseg page — its load takes a utlb refill mid-block, the vector
       stub skips the faulting instruction (and then the store's) *)
    lw a Reg.t5 8 Reg.t2;
    addiu a Reg.t5 Reg.t5 1;
    sw a Reg.t5 8 Reg.t2;
    li a Reg.t2 0x4000;
    lw a Reg.t6 0 Reg.t2;
    addiu a Reg.t6 Reg.t6 1;
    sw a Reg.t6 0 Reg.t2;
    halt a;
    dlabel a "buf";
    word a 0;
    word a 0;
    word a 0
  in
  let run_tier tier =
    let cfg = { Machine.default_config with Machine.tier } in
    let m, _ = setup ~cfg build in
    bb_install_vectors m;
    (match Machine.run m ~max_insns:10_000 with
    | Machine.Halt -> ()
    | Machine.Limit -> Alcotest.fail "instruction limit reached");
    m
  in
  let ms = run_tier Uop.Step in
  let fs = bb_fingerprint ms in
  List.iter
    (fun tier ->
      let mt = run_tier tier in
      check
        (Uop.tier_name tier ^ ": memory matches step after lmw fault")
        true
        (ram_image ms = ram_image mt);
      check
        (Uop.tier_name tier ^ ": registers/epc/counters match step")
        true
        (bb_fingerprint mt = fs))
    [ Uop.Super ];
  (* the run really took the fault path it claims to test *)
  check_int "two utlb refills (lw then sw)" 2 ms.Machine.c.Machine.utlb_misses;
  check_int "badvaddr names the unmapped page" 0x4000 ms.Machine.badvaddr;
  let buf_pa = Addr.kseg0_pa data_va in
  check_int "buf.0 counted every loop pass" 30 (Machine.read_phys_u32 ms buf_pa);
  check_int "buf.8 counted once on fall-out" 1
    (Machine.read_phys_u32 ms (buf_pa + 8))

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_tcache_matches_walk;
      QCheck_alcotest.to_alcotest prop_tlb_probe_order;
      QCheck_alcotest.to_alcotest prop_bcache_matches_step;
      QCheck_alcotest.to_alcotest prop_bcache_tlb_remap;
      QCheck_alcotest.to_alcotest prop_bcache_clock_interrupts;
      QCheck_alcotest.to_alcotest prop_fusion_structure;
      Alcotest.test_case "lmw last-load tlb miss vs step" `Quick
        test_lmw_last_load_tlb_miss;
      Alcotest.test_case "alignment traps" `Quick test_alignment_traps;
      Alcotest.test_case "interrupt masking" `Quick test_interrupt_masking;
      Alcotest.test_case "store invalidates decode" `Quick
        test_store_invalidates_decode;
      Alcotest.test_case "random register range" `Quick test_random_register_range;
      Alcotest.test_case "context register" `Quick test_context_register;
    ]

(* ------------------------------------------------------------------ *)
(* Page-lazy RAM and disk vs a flat-bytes model                         *)

(* RAM and the disk image are page tables whose never-written pages share
   one zero page.  Every host access, and DMA in both directions, must
   behave as on one flat byte array: the model kept here.  Accesses land
   at random offsets and lengths, so they straddle page and block ends;
   most disk blocks and RAM pages are never written, so DMA reads of
   untouched blocks and DMA writes from untouched RAM come up often. *)

let lazy_cfg =
  { Machine.default_config with Machine.mem_bytes = 1 lsl 20; disk_blocks = 64 }

(* RAM below this holds the spin loop that lets DMA complete; the ops
   stay inside a window above it small enough that DMA often meets
   written pages and often does not. *)
let lazy_lo = 0x10000
let lazy_window = 0x18000

type lazy_op =
  | L_write of int * string
  | L_read of int * int
  | L_u32 of int * int
  | L_u16 of int * int
  | L_u8 of int * int
  | L_disk_write of int * string
  | L_disk_read of int * int
  | L_dma of bool * int * int * int  (* is_write, block, pa, count *)

let lazy_gen_op =
  let open QCheck.Gen in
  let ram_bytes = lazy_cfg.Machine.mem_bytes in
  let disk_bytes = lazy_cfg.Machine.disk_blocks * Disk.block_bytes in
  let ram_span len = int_range lazy_lo (min (ram_bytes - len) (lazy_lo + lazy_window)) in
  let payload len =
    (* zero runs too: a copy of zeros onto an unwritten page keeps it
       shared, and that path must read back the same *)
    oneof
      [ string_size ~gen:char (return len); return (String.make len '\000') ]
  in
  let len = oneof [ int_range 0 16; int_range 1 9000 ] in
  frequency
    [
      ( 4,
        len >>= fun n ->
        pair (ram_span n) (payload n) >|= fun (pa, s) -> L_write (pa, s) );
      (3, len >>= fun n -> ram_span n >|= fun pa -> L_read (pa, n));
      (2, pair (ram_span 4) (int_bound 0xFFFFFFF) >|= fun (pa, v) -> L_u32 (pa, v));
      (1, pair (ram_span 2) (int_bound 0xFFFF) >|= fun (pa, v) -> L_u16 (pa, v));
      (1, pair (ram_span 1) (int_bound 0xFF) >|= fun (pa, v) -> L_u8 (pa, v));
      ( 3,
        len >>= fun n ->
        pair (int_range 0 (disk_bytes - n)) (payload n) >|= fun (a, s) ->
        L_disk_write (a, s) );
      ( 2,
        len >>= fun n ->
        int_range 0 (disk_bytes - n) >|= fun a -> L_disk_read (a, n) );
      ( 3,
        int_range 1 3 >>= fun count ->
        let span = count * Disk.block_bytes in
        triple bool
          (int_range 0 (lazy_cfg.Machine.disk_blocks - count))
          (ram_span span)
        >|= fun (w, b, pa) -> L_dma (w, b, pa, count) );
    ]

let lazy_print = function
  | L_write (pa, s) -> Printf.sprintf "write %#x +%d" pa (String.length s)
  | L_read (pa, n) -> Printf.sprintf "read %#x +%d" pa n
  | L_u32 (pa, v) -> Printf.sprintf "u32 %#x %#x" pa v
  | L_u16 (pa, v) -> Printf.sprintf "u16 %#x %#x" pa v
  | L_u8 (pa, v) -> Printf.sprintf "u8 %#x %#x" pa v
  | L_disk_write (a, s) -> Printf.sprintf "disk write %#x +%d" a (String.length s)
  | L_disk_read (a, n) -> Printf.sprintf "disk read %#x +%d" a n
  | L_dma (w, b, pa, n) ->
    Printf.sprintf "dma %s block %d pa %#x x%d" (if w then "out" else "in") b pa n

(* A machine spinning in kseg0 with interrupts off: DMA completes while
   it runs. *)
let lazy_machine () =
  let m, _ =
    setup ~cfg:lazy_cfg (fun a ->
        let open Asm in
        label a "spin";
        j_ a "spin";
        nop a)
  in
  m

(* Submit one request and run until it has completed. *)
let lazy_dma m ~is_write ~block ~pa ~count =
  let d = m.Machine.disk in
  d.Disk.reg_block <- block;
  d.Disk.reg_addr <- pa;
  d.Disk.reg_count <- count;
  if not (Disk.submit d ~now:m.Machine.cycles ~is_write) then
    Alcotest.fail "disk queue full";
  let budget = d.Disk.seek_cycles + (count * d.Disk.per_block_cycles) + 16 in
  ignore (Machine.run m ~max_insns:budget);
  if Disk.done_block d <> block then Alcotest.fail "DMA did not complete";
  Disk.ack d

let prop_lazy_memory_model =
  QCheck.Test.make ~count:60
    ~name:"page-lazy RAM and disk == flat-bytes model (host access and DMA)"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map lazy_print ops))
       QCheck.Gen.(list_size (int_range 1 40) lazy_gen_op))
    (fun ops ->
      let m = lazy_machine () in
      let bs = Disk.block_bytes in
      let ram = Bytes.of_string (ram_image m) in
      let disk =
        Bytes.make (lazy_cfg.Machine.disk_blocks * bs) '\000'
      in
      let set_le n pa v =
        for i = 0 to n - 1 do
          Bytes.set_uint8 ram (pa + i) ((v lsr (8 * i)) land 0xFF)
        done
      in
      let get_le n pa =
        let v = ref 0 in
        for i = n - 1 downto 0 do
          v := (!v lsl 8) lor Bytes.get_uint8 ram (pa + i)
        done;
        !v
      in
      let fail what = QCheck.Test.fail_report what in
      List.iter
        (fun op ->
          match op with
          | L_write (pa, s) ->
            Machine.write_phys_bytes m pa s;
            Bytes.blit_string s 0 ram pa (String.length s)
          | L_read (pa, n) ->
            if Machine.read_phys_bytes m pa n <> Bytes.sub_string ram pa n then
              fail (lazy_print op)
          | L_u32 (pa, v) ->
            if Machine.read_phys_u32 m pa <> get_le 4 pa then fail "u32 read";
            Machine.write_phys_u32 m pa v;
            set_le 4 pa v
          | L_u16 (pa, v) ->
            if Machine.read_phys_u16 m pa <> get_le 2 pa then fail "u16 read";
            Machine.write_phys_u16 m pa v;
            set_le 2 pa v
          | L_u8 (pa, v) ->
            if Machine.read_phys_u8 m pa <> get_le 1 pa then fail "u8 read";
            Machine.write_phys_u8 m pa v;
            set_le 1 pa v
          | L_disk_write (a, s) ->
            Disk.write_image m.Machine.disk ~block:(a / bs) ~off:(a mod bs) s;
            Bytes.blit_string s 0 disk a (String.length s)
          | L_disk_read (a, n) ->
            if
              Disk.read_image m.Machine.disk ~block:(a / bs) ~off:(a mod bs)
                ~len:n
              <> Bytes.sub_string disk a n
            then fail (lazy_print op)
          | L_dma (is_write, block, pa, count) ->
            lazy_dma m ~is_write ~block ~pa ~count;
            if is_write then Bytes.blit ram pa disk (block * bs) (count * bs)
            else Bytes.blit disk (block * bs) ram pa (count * bs))
        ops;
      if ram_image m <> Bytes.to_string ram then fail "RAM image differs";
      Disk.read_image m.Machine.disk ~block:0 ~off:0 ~len:(Bytes.length disk)
      = Bytes.to_string disk)

(* DMA of never-written pages in both directions: a read of an untouched
   disk block zeroes written RAM, a write from untouched RAM zeroes a
   written block, and neither allocates the untouched side. *)
let test_lazy_dma_untouched () =
  let m = lazy_machine () in
  let bs = Disk.block_bytes in
  let pa = 0x20000 in
  Machine.write_phys_bytes m pa (String.make bs 'r');
  Disk.write_image m.Machine.disk ~block:5 ~off:0 (String.make bs 'd');
  let pages = Machine.ram_pages m in
  lazy_dma m ~is_write:false ~block:9 ~pa ~count:1;
  Alcotest.(check string) "read of an untouched block zeroes RAM"
    (String.make bs '\000') (Machine.read_phys_bytes m pa bs);
  lazy_dma m ~is_write:true ~block:5 ~pa:0x40000 ~count:1;
  Alcotest.(check string) "write from untouched RAM zeroes the block"
    (String.make bs '\000')
    (Disk.read_image m.Machine.disk ~block:5 ~off:0 ~len:bs);
  check_int "untouched RAM stays shared" pages (Machine.ram_pages m);
  check "out-of-RAM span rejected" true
    (match Machine.read_phys_bytes m (lazy_cfg.Machine.mem_bytes - 2) 4 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A store into a text page that has already been decoded, then more
   code from that page, some of it the word just patched: the page's
   decode slots are stale as a whole after the store, and step and super
   must still agree on every register, counter and byte of RAM. *)
let test_store_into_decoded_page () =
  let build a =
    let open Asm in
    li a Reg.s0 0;
    li a Reg.s1 3;
    label a "loop";
    jal a "$body";
    nop a;
    (* patch the body after its first run, and poke a data word that
       shares its page *)
    la a Reg.t0 "$patch";
    li a Reg.t1 0x24020007;  (* addiu v0, zero, 7 *)
    sw a Reg.t1 0 Reg.t0;
    la a Reg.t0 "$word";
    sw a Reg.s0 0 Reg.t0;
    addiu a Reg.s1 Reg.s1 (-1);
    bne a Reg.s1 Reg.zero "loop";
    nop a;
    halt a;
    label a "$body";
    label a "$patch";
    li a Reg.v0 1;
    addu a Reg.s0 Reg.s0 Reg.v0;
    ret a;
    label a "$word";
    nop a
  in
  let run_tier tier =
    let m, _ = setup ~cfg:{ Machine.default_config with Machine.tier } build in
    run m;
    m
  in
  let ms = run_tier Uop.Step and mb = run_tier Uop.Super in
  check_int "patched body ran after the store" (1 + 7 + 7) ms.Machine.regs.(Reg.s0);
  check "super registers/counters == step" true
    (bb_fingerprint mb = bb_fingerprint ms);
  check "super RAM == step" true (ram_image mb = ram_image ms)

(* The decode cache covers all of RAM: a loop whose halt is the last
   word of the last physical page decodes and runs, and step and super
   agree on it. *)
let test_last_page_text () =
  let build a =
    let open Asm in
    global a "_start";
    label a "_start";
    li a Reg.s0 0;
    li a Reg.s1 3;
    label a "loop";
    addiu a Reg.s0 Reg.s0 5;
    addiu a Reg.s1 Reg.s1 (-1);
    bne a Reg.s1 Reg.zero "loop";
    nop a;
    halt a
  in
  let link text_base =
    let a = Asm.create "test" in
    build a;
    Link.link ~name:"test" ~text_base ~data_base:data_va ~entry:"_start"
      [ Asm.to_obj a ]
  in
  let ram = Machine.default_config.Machine.mem_bytes in
  let len = 4 * Array.length (link text_va).Exe.text in
  let exe = link (Addr.kseg0_base + ram - len) in
  let run_tier tier =
    let m = Machine.create ~cfg:{ Machine.default_config with Machine.tier } () in
    Machine.load_exe_phys m exe ~text_pa:(ram - len)
      ~data_pa:(Addr.kseg0_pa data_va);
    m.Machine.pc <- exe.Exe.entry;
    m.Machine.npc <- exe.Exe.entry + 4;
    m.Machine.hcall_handler <-
      Some (fun m code -> if code = 0 then Machine.halt m);
    run m;
    m
  in
  let ms = run_tier Uop.Step and mb = run_tier Uop.Super in
  check_int "step: loop result" 15 ms.Machine.regs.(Reg.s0);
  check "step: last page decoded" true (Machine.decoded_pages ms >= 1);
  check "super: a block on the last page" true
    (List.exists
       (fun (b : Uop.block) -> b.Uop.bb_pa lsr Addr.page_shift = (ram - 1) lsr Addr.page_shift)
       (Machine.cached_blocks mb));
  check "super registers/counters == step" true
    (bb_fingerprint mb = bb_fingerprint ms)

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_lazy_memory_model;
      Alcotest.test_case "text on the last RAM page: step == super" `Quick
        test_last_page_text;
      Alcotest.test_case "page-lazy DMA of untouched pages" `Quick
        test_lazy_dma_untouched;
      Alcotest.test_case "store into a decoded page: step == super" `Quick
        test_store_into_decoded_page;
    ]
