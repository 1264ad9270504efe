(* What every workload shares: metrics and the result line, the work
   directory, host facts, process memory, and the timed-pass loop. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What a workload run hands back to [Main]. *)
type result = {
  checks : Check.t;
  end_to_end : metric list;  (* the BENCHMARK.json end_to_end names *)
  per_layer : metric list;  (* the BENCHMARK.json per_layer names *)
  report : metric list;  (* every figure the run measured, by its own name *)
}

(* Scratch files (stored traces, the daemon's control socket, spans)
   live here, relative to the checkout root the benchmark runs from. *)
let work_dir = Filename.concat "perfbench" "_run"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755

let work_file name =
  Filename.concat work_dir (Printf.sprintf "%d-%s" (Unix.getpid ()) name)

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

(* Read to end of file (/proc files report no length). *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let b = Buffer.create 4096 in
      let rec go () =
        match Buffer.add_channel b ic 4096 with
        | () -> go ()
        | exception End_of_file -> Buffer.contents b
      in
      go ())

let file_size path = (Unix.stat path).Unix.st_size

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds (user + system) this process has used, all threads. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds another process has used, all threads, from /proc (in
   clock ticks of 1/100 s, Linux's USER_HZ). *)
let cpu_of pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line *)
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

(* Host time of [f]: its result, wall seconds and CPU seconds.  The
   end-to-end metrics use CPU seconds: on a shared host whose cores are
   taken away at times (steal), wall time swings with the neighbours
   while the work done does not; on an idle host the two agree for the
   single-threaded journeys. *)
type 'a clocked = { r : 'a; wall : float; cpu_s : float }

let clocked f =
  let c0 = cpu () and t0 = now () in
  let r = f () in
  { r; wall = now () -. t0; cpu_s = cpu () -. c0 }

(* Set up [times] times and keep the last result; the median set-up CPU
   time (plus [extra_cpu] of the result: CPU another process spent on
   the set-up).  Each earlier result is [release]d and collected before
   the next set-up starts, so set-ups never overlap in memory. *)
let setups ?(release = ignore) ?(extra_cpu = fun _ -> 0.0) ~times f =
  let last = ref None and ts = ref [] in
  for _ = 1 to times do
    Option.iter release !last;
    last := None;
    Gc.full_major ();
    let c = clocked f in
    last := Some c.r;
    ts := (c.cpu_s +. extra_cpu c.r) :: !ts
  done;
  (Option.get !last, Span.median !ts)

(* Run [f k] for k = 1, 2, ... until [seconds] have passed and at least
   [min_passes] passes are done; the results in pass order. *)
let passes ~seconds ~min_passes f =
  let t0 = now () in
  let rec go k acc =
    if k > min_passes && now () -. t0 >= seconds then List.rev acc
    else go (k + 1) (f k :: acc)
  in
  go 1 []

(* VmHWM (peak resident set) of a process, in MB; "self" for this one. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      find ())

(* The checked-out commit, read from .git without running git; None
   outside a git work tree. *)
let commit () =
  let git = ".git" in
  try
    let head = String.trim (read_file (Filename.concat git "HEAD")) in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let r = String.sub head 5 (String.length head - 5) in
      let loose = Filename.concat git r in
      if Sys.file_exists loose then Some (String.trim (read_file loose))
      else
        String.split_on_char '\n' (read_file (Filename.concat git "packed-refs"))
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ sha; name ] when name = r -> Some sha
               | _ -> None)
    end
    else Some head
  with Sys_error _ -> None

(* Digest of the program's sources, so results from a checkout that is
   not a git work tree still say which code they measured. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
           then [ p ]
           else [])
  in
  let all = List.concat_map files [ "lib"; "bin" ] in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> p ^ read_file p) all)))

let nproc () = Domain.recommended_domain_count ()

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string m.name)
           (json_float m.value) (Span.json_string m.unit_))
       ms)

let print_report ms =
  List.iter
    (fun m -> Printf.printf "  %-36s %14.6g %s\n" m.name m.value m.unit_)
    ms
