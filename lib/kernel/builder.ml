(* Host-side system builder: assembles and links the kernel (instrumented
   or not), loads it and the workload programs into the machine, and plays
   the role of boot firmware by initialising kernel data structures, page
   tables and the disk directly in the loaded image.

   It also implements the kernel->host hypercalls: EXIT_ALL/PANIC, and the
   ANALYZE protocol through which the in-kernel trace buffer is handed to
   the host-side analysis program in chunks during trace-analysis mode
   (the host stands in for the user-level analysis program of Figure 1;
   the kernel keeps running — and keeps taking device interrupts, whose
   lost trace is the "dirt" of §4.3). *)

open Systrace_isa
open Systrace_machine
open Systrace_tracing
open Systrace_epoxie

type program = {
  pname : string;
  modules : Objfile.t list;
  heap_pages : int;
  is_server : bool;
  notrace : bool;
      (* run uninstrumented even on a traced system: the paper's "pick and
         choose the processes to be traced" (§3.1) *)
}

(* Convenience constructor with the common defaults. *)
let program ?(heap_pages = 4) ?(is_server = false) ?(notrace = false) pname
    modules =
  { pname; modules; heap_pages; is_server; notrace }

type file_spec = {
  fname : string;
  data : string;
  writable_bytes : int; (* extra zero-filled space after [data] *)
}

type config = {
  personality : Kcfg.personality;
  pagemap : Kcfg.pagemap;
  traced : bool;
  trace_buf_bytes : int;
  trace_slack_bytes : int;
  user_buf_pages : int;
  clock_interval : int;
  machine_cfg : Machine.config;
  seed : int;
  analysis_chunk : int;
  analysis_cycles_per_word : int;
  drain_on_entry : bool;
      (* drain user trace buffers on every kernel entry (the paper's
         design, preserves interleaving); false = flush-only-when-full
         ablation *)
}

let default_config =
  {
    personality = Kcfg.Ultrix;
    pagemap = Kcfg.Careful;
    traced = false;
    trace_buf_bytes = Kcfg.ktrace_buf_bytes_default;
    trace_slack_bytes = Kcfg.ktrace_slack_bytes;
    user_buf_pages = Abi.user_buf_pages_default;
    clock_interval = Kcfg.clock_interval_default;
    machine_cfg = Machine.default_config;
    seed = 1;
    analysis_chunk = 65536;
    analysis_cycles_per_word = 2;
    drain_on_entry = true;
  }

type proc_info = {
  pid : int;
  prog : program;
  exe : Exe.t;            (* the loaded binary *)
  orig_exe : Exe.t;       (* uninstrumented twin (same when untraced) *)
  bbs : Bbtable.t option;
}

type t = {
  cfg : config;
  machine : Machine.t;
  kernel_exe : Exe.t;
  kernel_orig : Exe.t;
  kernel_bbs : Bbtable.t option;
  mutable procs : proc_info list;
  mutable trace_sink : (int array -> int -> unit) option;
  mutable consumed : int; (* analysis progress, in words *)
  mutable panic : string option;
  mutable frame_next : int; (* physical frame allocator (pfn) *)
  free_frames : int list array; (* per colour *)
  ncolors : int;
  rng : Systrace_util.Rng.t;
  mutable next_block : int; (* disk block allocator *)
  mutable analyze_calls : int;
  mutable scratch : int array;
      (* chunk buffer reused across ANALYZE phases; sinks borrow it *)
}

exception Panic of string

(* ------------------------------------------------------------------ *)
(* User-side C runtime                                                  *)

let crt0 ~traced ~user_buf_pages : Objfile.t =
  let a = Asm.create ~no_instrument:true "crt0" in
  let open Asm in
  global a "_start";
  label a "_start";
  if traced then begin
    li a Abi.xreg_book Abi.user_book_va;
    li a Abi.xreg_cursor Abi.user_buf_va;
    li a Abi.xreg_limit (Abi.user_buf_va + (user_buf_pages * 4096) - 256)
  end;
  jal a "main";
  move a Reg.a0 Reg.v0;
  li a Reg.v0 Abi.sys_exit;
  syscall a;
  label a "$crt_hang";
  j_ a "$crt_hang";
  (* Thread entry trampoline (Mach, paper §3.6): initialise the stolen
     registers before any instrumented code runs, then call the real
     entry function (passed by the kernel in $a0, with the thread argument
     behind it untouched). *)
  global a "_thread_start";
  label a "_thread_start";
  if traced then begin
    li a Abi.xreg_book Abi.user_book_va;
    li a Abi.xreg_cursor Abi.user_buf_va;
    li a Abi.xreg_limit (Abi.user_buf_va + (user_buf_pages * 4096) - 256)
  end;
  jalr a Reg.a0;
  li a Reg.v0 Abi.sys_exit;
  move a Reg.a0 Reg.zero;
  syscall a;
  label a "$crt_thang";
  j_ a "$crt_thang";
  to_obj a

(* ------------------------------------------------------------------ *)
(* Kernel construction                                                  *)

let kernel_data_va = 0x8008_0000

let kernel_modules ~nbufs ~traced ~clock_interval ~drain_on_entry =
  [
    Kstubs.make ~traced;
    Ksched.make_boot ~traced ~clock_interval ();
    Kdata.make ~nbufs;
    Ktraceops.make ~drain_on_entry ();
    Khandlers.make ();
    Kbufcache.make ();
    Ksched.make ();
  ]

let link_kernel cfg =
  let clock_interval =
    if cfg.traced then cfg.clock_interval * Kcfg.time_dilation
    else cfg.clock_interval
  in
  let mods =
    kernel_modules ~nbufs:Kcfg.nbufs ~traced:cfg.traced ~clock_interval
      ~drain_on_entry:cfg.drain_on_entry
  in
  let orig =
    Link.link ~name:"kernel" ~text_base:Kcfg.kernel_text_va
      ~data_base:kernel_data_va ~entry:"_kboot" mods
  in
  if not cfg.traced then (orig, orig, None)
  else begin
    let imods, descs = Epoxie.instrument_modules mods in
    let instr =
      Link.link ~name:"kernel" ~text_base:Kcfg.kernel_text_va
        ~data_base:kernel_data_va ~entry:"_kboot"
        (imods @ [ Runtime.make Runtime.Kernel ])
    in
    let bbs = Bbmap.build ~instrumented:instr ~original:orig descs in
    (* Flag the idle loop's blocks (by original address) so the parser's
       idle-instruction counter works. *)
    Bbtable.flag_orig_range bbs
      ~lo:(Exe.symbol orig "kidle_loop")
      ~hi:(Exe.symbol orig "kidle_end")
      Bbtable.flag_idle;
    (instr, orig, Some bbs)
  end

let link_program cfg (p : program) =
  let crt_plain = crt0 ~traced:false ~user_buf_pages:cfg.user_buf_pages in
  let orig =
    Link.link ~name:p.pname ~text_base:Kcfg.user_text_va
      ~data_base:Kcfg.user_data_va ~entry:"_start"
      (crt_plain :: p.modules)
  in
  if (not cfg.traced) || p.notrace then (orig, orig, None)
  else begin
    let imods, descs = Epoxie.instrument_modules p.modules in
    let crt_traced = crt0 ~traced:true ~user_buf_pages:cfg.user_buf_pages in
    let instr =
      Link.link ~name:p.pname ~text_base:Kcfg.user_text_va
        ~data_base:Kcfg.user_data_va ~entry:"_start" ~traced:true
        ((crt_traced :: imods) @ [ Runtime.make Runtime.User ])
    in
    let bbs = Bbmap.build ~instrumented:instr ~original:orig descs in
    (instr, orig, Some bbs)
  end

(* ------------------------------------------------------------------ *)
(* Boot-time memory initialisation                                      *)

let kseg0 pa = pa + 0x8000_0000

let poke t sym_name v =
  let va = Exe.symbol t.kernel_exe sym_name in
  Machine.write_phys_u32 t.machine (Addr.kseg0_pa va) v

let poke_off t sym_name off v =
  let va = Exe.symbol t.kernel_exe sym_name + off in
  Machine.write_phys_u32 t.machine (Addr.kseg0_pa va) v

let peek t sym_name =
  let va = Exe.symbol t.kernel_exe sym_name in
  Machine.read_phys_u32 t.machine (Addr.kseg0_pa va)

let peek_off t sym_name off =
  let va = Exe.symbol t.kernel_exe sym_name + off in
  Machine.read_phys_u32 t.machine (Addr.kseg0_pa va)

(* Frame allocation honouring the page-mapping policy (paper §4.2): the
   careful policy colours frames against the (physically indexed) cache;
   the random policy picks any free frame. *)
let alloc_frame t ~vpn =
  match t.cfg.pagemap with
  | Kcfg.Careful -> (
    let color = vpn mod t.ncolors in
    match t.free_frames.(color) with
    | f :: rest ->
      t.free_frames.(color) <- rest;
      f
    | [] -> failwith "alloc_frame: out of coloured frames")
  | Kcfg.Random ->
    let color = Systrace_util.Rng.int t.rng t.ncolors in
    let rec steal c tries =
      if tries = 0 then failwith "alloc_frame: out of frames"
      else
        match t.free_frames.(c) with
        | f :: rest ->
          t.free_frames.(c) <- rest;
          f
        | [] -> steal ((c + 1) mod t.ncolors) (tries - 1)
    in
    steal color t.ncolors

(* A page-table write: PTs live in physical frames recorded per pid. *)
let pte_word ?(valid = true) ?(global = false) pfn =
  (pfn lsl 12)
  lor (if valid then 0x600 else 0)
  lor if global then 0x100 else 0

(* ------------------------------------------------------------------ *)

let load_program t (pi : proc_info) ~heap_pages =
  let m = t.machine in
  let pid = pi.pid in
  let exe = pi.exe in
  (* Page-table pages for this process, lazily created. *)
  let pt_frames : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let pt_base = Kcfg.pt_base_va pid in
  let pt_frame_for vpn =
    let ptpage = vpn lsr 10 in
    match Hashtbl.find_opt pt_frames ptpage with
    | Some f -> f
    | None ->
      let f = t.frame_next in
      t.frame_next <- t.frame_next + 1;
      Hashtbl.add pt_frames ptpage f;
      (* root entry for this PT page (global mapping) *)
      let pt_va = pt_base + (ptpage lsl 12) in
      let root_idx = (pt_va - 0xC000_0000) lsr 12 in
      poke_off t "kroot" (root_idx * 4) (pte_word ~global:true f);
      f
  in
  let set_pte vpn w =
    let f = pt_frame_for vpn in
    let slot_pa = (f lsl 12) + ((vpn land 0x3FF) * 4) in
    Machine.write_phys_u32 m slot_pa w
  in
  (* Map [npages] pages at [va]; returns the first frame's pfn. *)
  let map_region va npages =
    let first = ref (-1) in
    for k = 0 to npages - 1 do
      let vpn = Addr.vpn va + k in
      let pfn = alloc_frame t ~vpn in
      if !first < 0 then first := pfn;
      set_pte vpn (pte_word pfn)
    done;
    !first
  in
  let pages_for bytes = (bytes + Addr.page_mask) / Addr.page_size in
  (* Text *)
  let text_pages = pages_for (Exe.text_size_bytes exe) in
  ignore (map_region exe.Exe.text_base text_pages);
  (* copy text page by page through the page table *)
  let copy_bytes va (s : string) =
    String.iteri
      (fun i c ->
        let vpn = Addr.vpn (va + i) in
        let f = pt_frame_for vpn in
        let slot_pa = (f lsl 12) + ((vpn land 0x3FF) * 4) in
        let pte = Machine.read_phys_u32 m slot_pa in
        let pa = ((pte lsr 12) lsl 12) lor Addr.page_offset (va + i) in
        Machine.write_phys_u8 m pa (Char.code c))
      s
  in
  let text_bytes = Buffer.create 4096 in
  Array.iter
    (fun w ->
      Buffer.add_char text_bytes (Char.chr (w land 0xFF));
      Buffer.add_char text_bytes (Char.chr ((w lsr 8) land 0xFF));
      Buffer.add_char text_bytes (Char.chr ((w lsr 16) land 0xFF));
      Buffer.add_char text_bytes (Char.chr ((w lsr 24) land 0xFF)))
    exe.Exe.text;
  copy_bytes exe.Exe.text_base (Buffer.contents text_bytes);
  (* Data + heap *)
  let data_pages = pages_for (Bytes.length exe.Exe.data) + heap_pages in
  ignore (map_region exe.Exe.data_base (max data_pages 1));
  copy_bytes exe.Exe.data_base (Bytes.to_string exe.Exe.data);
  let heap_start =
    exe.Exe.data_base
    + (pages_for (Bytes.length exe.Exe.data) * Addr.page_size)
  in
  (* Stack *)
  ignore
    (map_region
       (Kcfg.user_stack_top - (Kcfg.user_stack_pages * Addr.page_size))
       Kcfg.user_stack_pages);
  (* Trace pages: premapped for Ultrix traced programs (flag in the
     executable); Mach maps them on first touch. *)
  let traced_now =
    t.cfg.traced && exe.Exe.traced && t.cfg.personality = Kcfg.Ultrix
  in
  if traced_now then
    ignore (map_region Abi.user_book_va (1 + t.cfg.user_buf_pages));
  (* Make sure PT pages exist for the trace region and heap under Mach
     (PTEs stay invalid; the fault path fills them). *)
  if t.cfg.traced && t.cfg.personality = Kcfg.Mach then
    ignore (pt_frame_for (Addr.vpn Abi.user_book_va));
  (* PCB *)
  let pcb_off = pid * Kcfg.pcb_size in
  let pcb fld v = poke_off t "pcbs" (pcb_off + fld) v in
  pcb (Kcfg.pcb_reg Reg.sp) (Kcfg.user_stack_top - 16);
  pcb Kcfg.pcb_epc exe.Exe.entry;
  pcb Kcfg.pcb_status
    (0xC lor (1 lsl (8 + Addr.irq_clock)) lor (1 lsl (8 + Addr.irq_disk)));
  pcb Kcfg.pcb_state 1;
  pcb Kcfg.pcb_traced (if traced_now then 1 else 0);
  pcb Kcfg.pcb_waitchan (-1);
  pcb Kcfg.pcb_brk heap_start;
  pcb Kcfg.pcb_context pt_base;
  pcb Kcfg.pcb_asid (pid + 1);
  (match Exe.symbol_opt exe "trt::$text_start" with
  | Some lo ->
    pcb Kcfg.pcb_trt_lo lo;
    pcb Kcfg.pcb_trt_hi (Exe.text_limit exe)
  | None ->
    pcb Kcfg.pcb_trt_lo 0;
    pcb Kcfg.pcb_trt_hi 0);
  (* Under Ultrix this area is the fd table (-1 = free slot); under Mach
     fds live in the UX server and the same words hold the per-thread
     trace-page PTEs, which must start invalid (0). *)
  (match t.cfg.personality with
  | Kcfg.Ultrix | Kcfg.Tunix ->
    for fd = 0 to Kcfg.max_fds - 1 do
      pcb (Kcfg.pcb_fds + (fd * Kcfg.pcb_fd_stride)) 0xFFFFFFFF
    done
  | Kcfg.Mach ->
    for k = 0 to (Kcfg.max_fds * Kcfg.pcb_fd_stride / 4) - 1 do
      pcb (Kcfg.pcb_fds + (k * 4)) 0
    done);
  if pi.prog.is_server then poke t "kserver_pid" pid

(* Deterministic file layout, shared with programs (e.g. the UX server)
   that need the disk plan baked in at build time. *)
let file_plan (files : file_spec list) =
  let next = ref 1 in
  List.map
    (fun f ->
      let total = String.length f.data + f.writable_bytes in
      let blocks = max 1 ((total + Disk.block_bytes - 1) / Disk.block_bytes) in
      let start = !next in
      next := !next + blocks;
      (f.fname, start, total))
    files

(* ------------------------------------------------------------------ *)

let add_file t (f : file_spec) ~index =
  let total = String.length f.data + f.writable_bytes in
  let blocks = max 1 ((total + Disk.block_bytes - 1) / Disk.block_bytes) in
  let start = t.next_block in
  t.next_block <- t.next_block + blocks;
  Disk.write_image t.machine.Machine.disk ~block:start ~off:0 f.data;
  (* filetab entry *)
  let off = index * Kcfg.file_entry_size in
  let name16 =
    let b = Bytes.make 16 '\000' in
    String.iteri (fun i c -> if i < 15 then Bytes.set b i c) f.fname;
    Bytes.to_string b
  in
  let base = Exe.symbol t.kernel_exe "filetab" + off in
  Machine.write_phys_bytes t.machine (Addr.kseg0_pa base) name16;
  poke_off t "filetab" (off + Kcfg.file_start_block) start;
  poke_off t "filetab" (off + Kcfg.file_size_bytes) total

(* ------------------------------------------------------------------ *)

(* Read [chunk] trace words starting at physical address [pa] into a
   scratch array reused across every ANALYZE phase and final drain.  The
   sink contract (Sink.t) is that chunk arrays are borrowed for the call,
   so a streamed run allocates one chunk buffer total, not one per phase. *)
let read_chunk t pa chunk =
  if Array.length t.scratch < chunk then
    t.scratch <- Array.make (max chunk t.cfg.analysis_chunk) 0;
  let words = t.scratch in
  let m = t.machine in
  for k = 0 to chunk - 1 do
    Array.unsafe_set words k (Machine.read_phys_u32 m (pa + (k * 4)))
  done;
  words

let hcall_handler t (m : Machine.t) code =
  if code = Abi.hc_halt || code = Abi.hc_exit_all then begin
    (* The cursor is parked to ktrace_cursor_home only on return to user,
       so the final kernel entry's records (and any exit-time drain) still
       sit between the parked value and the live register.  Park it one
       last time so drain_final captures the whole tail. *)
    if t.cfg.traced && peek t "ktrace_on" = 1 then
      poke t "ktrace_cursor_home" m.Machine.regs.(Abi.xreg_cursor);
    Machine.halt m
  end
  else if code = Abi.hc_panic then begin
    let msg =
      Printf.sprintf
        "kernel panic: a0=%d a1=0x%x epc=0x%x cause=0x%x badva=0x%x \
         curpid=%d cycles=%d"
        m.Machine.regs.(Reg.a0) m.Machine.regs.(Reg.a1) m.Machine.epc
        m.Machine.cause m.Machine.badvaddr (peek t "curpid")
        m.Machine.cycles
    in
    t.panic <- Some msg;
    Machine.halt m
  end
  else if code = Abi.hc_analyze then begin
    t.analyze_calls <- t.analyze_calls + 1;
    let buf_base = peek t "ktrace_buf_base" in
    let saved = peek t "ktrace_saved_cursor" in
    let total = (saved - buf_base) / 4 in
    let remaining = total - t.consumed in
    let chunk = min remaining t.cfg.analysis_chunk in
    if chunk > 0 then begin
      let pa = Addr.kseg0_pa buf_base + (t.consumed * 4) in
      let words = read_chunk t pa chunk in
      (match t.trace_sink with
      | Some sink -> sink words chunk
      | None -> ());
      t.consumed <- t.consumed + chunk
    end;
    let left = remaining - chunk in
    m.Machine.regs.(Reg.v0) <- left;
    m.Machine.regs.(Reg.v1) <- chunk * t.cfg.analysis_cycles_per_word;
    if left = 0 then t.consumed <- 0
  end
  else if code = Abi.hc_debug then ()
  else failwith (Printf.sprintf "unknown hcall %d" code)

(* ------------------------------------------------------------------ *)

let build ?(cfg = default_config) ~programs ~files () =
  let kernel_exe, kernel_orig, kernel_bbs = link_kernel cfg in
  let machine = Machine.create ~cfg:cfg.machine_cfg () in
  let ncolors =
    max 1 (cfg.machine_cfg.Machine.dcache_bytes / Addr.page_size)
  in
  let first_frame = Kcfg.frames_base_pa lsr 12 in
  let last_frame = (Kcfg.frames_limit_pa lsr 12) - 1 in
  let free = Array.make ncolors [] in
  for f = last_frame downto first_frame do
    free.(f mod ncolors) <- f :: free.(f mod ncolors)
  done;
  let t =
    {
      cfg;
      machine;
      kernel_exe;
      kernel_orig;
      kernel_bbs;
      procs = [];
      trace_sink = None;
      consumed = 0;
      panic = None;
      frame_next = first_frame;
      free_frames = free;
      ncolors;
      rng = Systrace_util.Rng.create cfg.seed;
      next_block = 1;
      analyze_calls = 0;
      scratch = [||];
    }
  in
  (* Bump allocator for PT/trace frames comes from the high end to stay
     clear of the coloured pool: instead, reserve the first 256 frames of
     the region for the bump allocator and remove them from the pool. *)
  let bump_reserve = 256 in
  Array.iteri
    (fun c l ->
      free.(c) <- List.filter (fun f -> f >= first_frame + bump_reserve) l)
    free;
  t.frame_next <- first_frame;
  (* Load the kernel. *)
  Machine.load_exe_phys machine kernel_exe ~text_pa:Kcfg.kernel_text_pa
    ~data_pa:(Addr.kseg0_pa kernel_data_va);
  machine.Machine.pc <- kernel_exe.Exe.entry;
  machine.Machine.npc <- kernel_exe.Exe.entry + 4;
  machine.Machine.hcall_handler <- Some (hcall_handler t);
  (* Idle-loop range for ground-truth idle counting. *)
  machine.Machine.idle_lo <- Exe.symbol kernel_exe "kidle_loop";
  machine.Machine.idle_hi <- Exe.symbol kernel_exe "kidle_end";
  (* Kernel tracing state. *)
  let buf_va = kseg0 Kcfg.ktrace_buf_pa in
  poke t "ktrace_buf_base" buf_va;
  poke t "ktrace_cursor_home" buf_va;
  poke t "ktrace_real_limit"
    (buf_va + cfg.trace_buf_bytes - cfg.trace_slack_bytes);
  poke t "ktrace_limit_home"
    (buf_va + cfg.trace_buf_bytes - cfg.trace_slack_bytes);
  let discard = Exe.symbol kernel_exe "ktrace_discard" in
  poke t "ktrace_discard_base" discard;
  poke t "ktrace_discard_end" (discard + 4096 - 256);
  poke t "ktrace_on" (if cfg.traced then 1 else 0);
  poke t "kpersonality"
    (match cfg.personality with Kcfg.Ultrix -> 0 | Kcfg.Mach -> 1 | Kcfg.Tunix -> 0);
  (* The trace region only exists on traced systems: a zero page count
     disables the Mach fault path and the per-thread remap loop. *)
  poke t "ktrace_region_pages" (if cfg.traced then 1 + cfg.user_buf_pages else 0);
  poke t "ktrace_region_end"
    (if cfg.traced then
       Abi.user_book_va + ((1 + cfg.user_buf_pages) * 4096)
     else Abi.user_book_va);
  (* Buffer cache headers *)
  let bufpages = Exe.symbol kernel_exe "bufpages" in
  for i = 0 to Kcfg.nbufs - 1 do
    let off = i * Kcfg.buf_entry_size in
    poke_off t "bufhdrs" (off + Kcfg.buf_block) 0xFFFFFFFF;
    poke_off t "bufhdrs" (off + Kcfg.buf_state) 0;
    poke_off t "bufhdrs" (off + Kcfg.buf_page) (bufpages + (i * 4096))
  done;
  (* Files *)
  List.iteri (fun i f -> add_file t f ~index:i) files;
  poke t "nfiles" (List.length files);
  (* Programs *)
  let nworkload = ref 0 in
  List.iteri
    (fun pid (p : program) ->
      let exe, orig_exe, bbs = link_program cfg p in
      let pi = { pid; prog = p; exe; orig_exe; bbs } in
      load_program t pi ~heap_pages:p.heap_pages;
      if not p.is_server then incr nworkload;
      t.procs <- t.procs @ [ pi ])
    programs;
  poke t "knworkload" !nworkload;
  poke t "kframe_next" t.frame_next;
  (* Start with the first process. *)
  poke t "curpid" 0;
  let pcb0 = Exe.symbol kernel_exe "pcbs" in
  poke t "curpcb" pcb0;
  t

(* ------------------------------------------------------------------ *)

let run t ~max_insns =
  let r = Machine.run t.machine ~max_insns in
  (match t.panic with Some msg -> raise (Panic msg) | None -> ());
  r

let run_to_halt t =
  match run t ~max_insns:2_000_000_000 with
  | Machine.Halt -> ()
  | Machine.Limit ->
    failwith "Builder.run_to_halt: system did not halt within 2e9 instructions"

(* Processes without a table ran uninstrumented (§3.1 selective tracing):
   they write no user trace, so the parser never needs one for them. *)
let parser ?recover t =
  match t.kernel_bbs with
  | None -> invalid_arg "Builder.parser: untraced system"
  | Some kernel_bbs ->
    let p = Parser.create ?recover ~kernel_bbs () in
    List.iter
      (fun pi -> Option.iter (Parser.register_pid p ~pid:pi.pid) pi.bbs)
      t.procs;
    p

(* Hand any trace left in the in-kernel buffer to the sink (end of run),
   in [analysis_chunk]-sized pieces like the ANALYZE hcall path — so peak
   resident trace words stays O(chunk) even when the whole run fits the
   buffer and no ANALYZE phase ever fired. *)
let drain_final t =
  let base = peek t "ktrace_buf_base" in
  let cursor = peek t "ktrace_cursor_home" in
  let total = (cursor - base) / 4 in
  while total - t.consumed > 0 do
    let chunk = min (total - t.consumed) t.cfg.analysis_chunk in
    let pa = Addr.kseg0_pa base + (t.consumed * 4) in
    let words = read_chunk t pa chunk in
    (match t.trace_sink with
    | Some sink -> sink words chunk
    | None -> ());
    t.consumed <- t.consumed + chunk
  done;
  t.consumed <- 0

(* The extracted page map as an open-addressing int table (linear
   probing, Fibonacci hashing, load factor at most 1/2): the trace-driven
   simulator looks a page up per reference, so a lookup allocates nothing
   — no tuple key, no option.  Keys are [(pid lsl 20) lor vpn] for kuseg
   pages and the bare vpn for kseg2 pages (>= 0xC0000, above every kuseg
   key of pid 0); values are pfns; an empty slot's key is -1. *)
type pagetab = { pt_keys : int array; pt_pfns : int array; pt_shift : int }

let[@inline] pagetab_hash pt k = (k * 0x1E3779B97F4A7C15) lsr pt.pt_shift

let pagetab_of_hashtbl h =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * Hashtbl.length h do incr bits done;
  let pt =
    {
      pt_keys = Array.make (1 lsl !bits) (-1);
      pt_pfns = Array.make (1 lsl !bits) 0;
      pt_shift = 63 - !bits;
    }
  in
  let mask = (1 lsl !bits) - 1 in
  Hashtbl.iter
    (fun k pfn ->
      let i = ref (pagetab_hash pt k) in
      while pt.pt_keys.(!i) >= 0 do i := (!i + 1) land mask done;
      pt.pt_keys.(!i) <- k;
      pt.pt_pfns.(!i) <- pfn)
    h;
  pt

let rec pagetab_probe pt k i =
  let key = Array.unsafe_get pt.pt_keys i in
  if key = k then Array.unsafe_get pt.pt_pfns i
  else if key < 0 then -1
  else pagetab_probe pt k ((i + 1) land (Array.length pt.pt_keys - 1))

(* The pfn mapped at key [k], or -1. *)
let pagetab_find pt k = pagetab_probe pt k (pagetab_hash pt k)

(* Extract the virtual-to-physical page map from the running system, as
   the traced Ultrix and Mach kernels offered (paper, §4.2).  Returns a
   translation function for the trace-driven simulator (-1 for an
   unmapped page): kuseg pages are looked up per pid through the linear
   page tables; kseg2 pages through the root table. *)
let extract_pagemap t =
  let m = t.machine in
  let pages : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let root_base = Addr.kseg0_pa (Exe.symbol t.kernel_exe "kroot") in
  for i = 0 to Kcfg.kseg2_span_pages - 1 do
    let pte = Machine.read_phys_u32 m (root_base + (i * 4)) in
    if pte land 0x200 <> 0 then
      Hashtbl.replace pages ((0xC000_0000 lsr 12) + i) (pte lsr 12)
  done;
  List.iter
    (fun (pi : proc_info) ->
      let pid = pi.pid in
      let pt_base = Kcfg.pt_base_va pid in
      for ptpage = 0 to (Kcfg.pt_stride lsr 12) - 1 do
        let pt_va = pt_base + (ptpage lsl 12) in
        match Hashtbl.find_opt pages (pt_va lsr 12) with
        | None -> ()
        | Some frame ->
          for slot = 0 to 1023 do
            let pte = Machine.read_phys_u32 m ((frame lsl 12) + (slot * 4)) in
            if pte land 0x200 <> 0 then
              Hashtbl.replace pages
                ((pid lsl 20) lor ((ptpage lsl 10) + slot))
                (pte lsr 12)
          done
      done)
    t.procs;
  let tab = pagetab_of_hashtbl pages in
  fun pid va ->
    if va < 0x8000_0000 then begin
      let pfn = if pid < 0 then -1 else pagetab_find tab ((pid lsl 20) lor (va lsr 12)) in
      if pfn >= 0 then (pfn lsl 12) lor (va land 0xFFF) else -1
    end
    else if va >= 0xC000_0000 then begin
      let pfn = pagetab_find tab (va lsr 12) in
      if pfn >= 0 then (pfn lsl 12) lor (va land 0xFFF) else -1
    end
    else va land 0x1FFF_FFFF

let console t = Machine.console_contents t.machine

let server_pids t =
  List.filter_map
    (fun pi -> if pi.prog.is_server then Some pi.pid else None)
    t.procs

let proc t pid = List.find (fun p -> p.pid = pid) t.procs

let tlbdropins t = peek t "ktlbdropins"
let ticks t = peek t "kticks"
