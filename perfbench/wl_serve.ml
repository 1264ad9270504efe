(* serve-ingest: the daemon journey.

   [systrace serve --pipeline parse -w egrep --os mach] runs as its own
   process; this process is the load generator, with 2 connections,
   replaying the stored egrep/Mach trace (143k words) over loopback TCP.
     phase 1  open loop for --seconds (at least 200 streams): seeded
              Poisson arrivals at a fixed offered rate (--rate, about
              half the closed-loop capacity of a quiet 2-core host); one
              stream in ten is cut at a seeded byte offset, so the
              torn-stream diagnosis path runs too; latency is measured
              from each stream's due time to its reply.  The daemon's
              CPU time, words and memory in this phase are the gated
              figures: with fewer streams overlapping they are steadier
              than under saturation.
     phase 2  closed loop: both connections send back to back, a fixed
              number of streams (10 per second of --seconds)
   Neither the machine nor the memory-system simulator runs in a pass:
   parse, wire decode and bounded-queue drain set the numbers. *)

open Systrace
module Client = Systrace_serve.Client
module Parser = Tracing.Parser

let cli = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "systrace_cli.exe"))
let connections = 2

let closed_per_second = 10.0

type daemon = { pid : int; port : int; ctl : string; out : Unix.file_descr }

(* Read the daemon's start-up lines until it reports its workers, which
   it prints once every listener is bound. *)
let await_ready out pid =
  let deadline = Common.now () +. 60.0 in
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec lines () =
    let text = Buffer.contents buf in
    let ls = String.split_on_char '\n' text in
    if List.exists (fun l -> String.starts_with ~prefix:"workers " l) ls then ls
    else begin
      let left = deadline -. Common.now () in
      if left <= 0.0 then failwith "daemon not ready after 60s";
      match Unix.select [ out ] [] [] left with
      | [], _, _ -> lines ()
      | _ -> (
        match Unix.read out chunk 0 (Bytes.length chunk) with
        | 0 -> failwith (Printf.sprintf "daemon %d exited during start-up" pid)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          lines ())
    end
  in
  List.find_map
    (fun l -> Scanf.sscanf_opt l "tcp 127.0.0.1:%d" (fun p -> p))
    (lines ())
  |> function
  | Some p -> p
  | None -> failwith "daemon reported no TCP port"

let ctl_request ctl cmd =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX ctl);
      ignore (Unix.write_substring fd (cmd ^ "\n") 0 (String.length cmd + 1));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let b = Buffer.create 512 and chunk = Bytes.create 512 in
      let rec go () =
        match Unix.read fd chunk 0 512 with
        | 0 -> Buffer.contents b
        | n ->
          Buffer.add_subbytes b chunk 0 n;
          go ()
      in
      go ())

(* Daemons not yet stopped: killed and reaped at exit, whatever way the
   benchmark ends short of SIGKILL. *)
let live = ref []

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () -> List.iter kill_and_reap !live);
  let leave = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm leave;
  Sys.set_signal Sys.sigint leave

(* The daemon's stderr goes to a log in the work directory, so it never
   holds the benchmark's own output open. *)
let start_daemon ~seed =
  if not (Sys.file_exists cli) then failwith (cli ^ " not built");
  let ctl = Common.work_file "serve.ctl" in
  Common.remove_quietly ctl;
  let out, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let log =
    Unix.openfile (Common.work_file "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--tcp"; "0"; "--ctl"; ctl; "--pipeline"; "parse"; "-w"; "egrep";
         "--os"; "mach"; "--seed"; string_of_int seed |]
      null out_w log
  in
  live := pid :: !live;
  List.iter Unix.close [ out_w; null; log ];
  match await_ready out pid with
  | port -> { pid; port; ctl; out }
  | exception e ->
    kill_and_reap pid;
    Unix.close out;
    raise e

(* Ask for a graceful shutdown; kill the daemon if it has not exited
   within 10 s.  Always reaps it. *)
let stop_daemon d =
  (try ignore (ctl_request d.ctl "shutdown") with Unix.Unix_error _ -> ());
  let deadline = Common.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Common.now () < deadline ->
      Unix.sleepf 0.02;
      reap ()
    | 0, _ -> kill_and_reap d.pid
    | _ -> live := List.filter (( <> ) d.pid) !live
  in
  reap ();
  Unix.close d.out;
  Common.remove_quietly d.ctl;
  let log = Common.work_file "serve.log" in
  if Sys.file_exists log && Common.file_size log = 0 then Common.remove_quietly log

type setup = {
  cap : Systems.capture;
  path : string;  (* the stored v3 trace *)
  words : int array;  (* read back from the store *)
  daemon : daemon;
}

let setup ~seed () =
  let cap = Systems.capture ~seed Validate.Mach "egrep" in
  let path = Common.work_file "egrep.strc" in
  ignore (Span.with_ "tracing.store_write" (fun () -> Systems.store cap path) : int);
  let words = Span.with_ "tracing.store_read" (fun () -> Tracing.Tracefile.load path) in
  let daemon = Span.with_ "serve.daemon_start" (fun () -> start_daemon ~seed) in
  { cap; path; words; daemon }

(* The diagnoses the known defect adds to every clean stream of this
   trace: the daemon's parse pipeline calls [Parser.finish] without the
   UX server's live pid, so the server's last, still-open block is
   reported incomplete.  Counted from a local parse with and without
   [~live]; 0 if the two agree. *)
let defect_diagnoses ~seed s =
  let sys = Systems.analysis_system ~seed s.cap in
  let live = Systems.live_pids sys in
  let errors live =
    let p = Systems.parser ~recover:true sys in
    Parser.feed p s.words ~len:(Array.length s.words);
    Parser.finish ?live p;
    Parser.errors p
  in
  let clean = errors (Some live) and spurious = errors None in
  let is_defect (e : Parser.error) =
    match e.Parser.source with
    | Parser.User pid -> List.mem pid live && String.starts_with ~prefix:"finish:" e.Parser.message
    | _ -> false
  in
  List.iter (fun e -> Printf.printf "known defect: %s\n" (Parser.describe e)) spurious;
  (clean, if List.for_all is_defect spurious then List.length spurious else 0)

(* One clean stream over its own connection. *)
let clean addr words ~defect =
  let n = Array.length words in
  try
    let fd = Client.connect addr in
    let st =
      try
        Span.with_ "serve.send" (fun () ->
            let st = Client.start fd in
            Client.send st words ~off:0 ~len:n;
            st)
      with e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    in
    Check.clean_reply ~sent:n ~defect (Span.with_ "serve.reply_wait" (fun () -> Client.finish_stream st))
  with e -> Check.Bad ("clean stream: " ^ Printexc.to_string e)

(* A stream cut short: the first [cut] bytes of the encoded stream. *)
let torn addr bytes cut =
  try
    Check.torn_reply
      (Span.with_ "serve.send_raw" (fun () -> Client.send_raw addr (String.sub bytes 0 cut)))
  with e -> Check.Bad ("torn stream: " ^ Printexc.to_string e)

(* The load generator's connections are threads of one domain: its own
   work is light, and a second domain would contend with the daemon's
   for the cores. *)
let on_connections f = List.iter Thread.join (List.init connections (fun _ -> Thread.create f ()))

type stream = { due : float; start : float; stop : float; verdict : Check.verdict }

(* Phase 1: [n] streams due at seeded Poisson arrival times; a stream
   waits for a free connection if both are busy, and that wait counts
   in its latency. *)
let open_loop ~rate ~seed ~n addr words ~defect =
  let rng = Random.State.make [| seed; 1 |] in
  let bytes = Systrace_serve.Wire.encode words in
  let t = ref 0.0 in
  let plan =
    Array.init n (fun i ->
        t := !t -. (log (1.0 -. Random.State.float rng 1.0) /. rate);
        let cut = if i mod 10 = 9 then 1 + Random.State.int rng (String.length bytes - 1) else 0 in
        (!t, cut))
  in
  let t0 = Common.now () in
  let next = Atomic.make 0 in
  let out = Array.make n None in
  on_connections (fun () ->
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let due = t0 +. fst plan.(i) and cut = snd plan.(i) in
          let wait = due -. Common.now () in
          if wait > 0.0 then Unix.sleepf wait;
          let start = Common.now () in
          let verdict =
            Span.with_ ~key:(Printf.sprintf "stream-%d" i) "loadgen.stream" (fun () ->
                if cut > 0 then torn addr bytes cut else clean addr words ~defect)
          in
          out.(i) <- Some { due; start; stop = Common.now (); verdict };
          go ()
        end
      in
      go ());
  (t0, fst plan.(n - 1), Array.map Option.get out)

(* Phase 2: both connections stream back to back until [n] streams are
   done (a fixed count, so the operations attempted do not depend on
   speed); the verdicts, and the time from the start to the last reply. *)
let closed_loop ~n addr words ~defect =
  let t0 = Common.now () in
  let next = Atomic.make 0 in
  let lock = Mutex.create () and verdicts = ref [] and last = ref t0 in
  on_connections (fun () ->
      while Atomic.fetch_and_add next 1 < n do
        let v =
          Span.with_ ~key:"closed" "loadgen.closed_stream" (fun () -> clean addr words ~defect)
        in
        let t = Common.now () in
        Mutex.protect lock (fun () ->
            verdicts := v :: !verdicts;
            last := Float.max !last t)
      done);
  (!verdicts, !last -. t0)

let stat stats key =
  match List.assoc_opt key stats with
  | Some v -> float_of_string v
  | None -> failwith ("daemon stats lack " ^ key)

let run ~rate ~seed ~seconds ~trace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let checks = Check.create () in
  let m = Common.metric in
  let s, setup_s =
    Common.setups ~times:(if trace then 1 else 3)
      ~release:(fun s -> stop_daemon s.daemon)
      ~extra_cpu:(fun s -> Common.cpu_of s.daemon.pid)
      (setup ~seed)
  in
  Fun.protect ~finally:(fun () ->
      stop_daemon s.daemon;
      Common.remove_quietly s.path)
  @@ fun () ->
  let parses =
    if trace then [ (0, Systems.null_parse (Systems.analysis_system ~seed s.cap) s.cap.Systems.chunks) ]
    else []
  in
  let clean_diags, defect = defect_diagnoses ~seed s in
  if clean_diags <> [] then Check.problem checks "the stored trace has diagnoses with ~live";
  let addr = Client.Tcp ("127.0.0.1", s.daemon.port) in
  let nwords = Array.length s.words in
  let daemon_stats () =
    Span.with_ "serve.ctl_stats" (fun () -> ctl_request s.daemon.ctl "stats")
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with [ k; v ] -> Some (k, v) | _ -> None)
  in
  let daemon_rss () = Common.peak_rss_mb (string_of_int s.daemon.pid) in
  Atomic.set Span.current_pass 1;
  let n = max 200 (int_of_float (rate *. seconds)) in
  let open_cpu0 = Common.cpu_of s.daemon.pid in
  let t0, last_due, streams = open_loop ~rate ~seed ~n addr s.words ~defect in
  let open_cpu = Common.cpu_of s.daemon.pid -. open_cpu0 in
  let open_words = stat (daemon_stats ()) "words_in" and open_rss = daemon_rss () in
  Array.iter (fun st -> Check.record checks st.verdict) streams;
  let closed_n = max 100 (int_of_float (closed_per_second *. seconds)) in
  (* traced: half the closed loop untraced, for the overhead *)
  let untraced_rate =
    if not trace then None
    else begin
      Span.enabled := false;
      let vs, dt = closed_loop ~n:(closed_n / 2) addr s.words ~defect in
      Span.enabled := true;
      List.iter (Check.record checks) vs;
      Some (float_of_int (List.length vs) /. dt)
    end
  in
  let daemon_cpu0 = Common.cpu_of s.daemon.pid in
  let c = Common.clocked (fun () ->
      closed_loop ~n:(if trace then closed_n / 2 else closed_n) addr s.words ~defect) in
  let vs, dt = c.Common.r in
  let daemon_cpu = Common.cpu_of s.daemon.pid -. daemon_cpu0 in
  List.iter (Check.record checks) vs;
  let ingest = float_of_int (List.length vs * nwords) /. dt in
  let stats = daemon_stats () and rss = daemon_rss () in
  let torn_count = n / 10 in
  if stat stats "streams_faulted" <> float_of_int torn_count then
    Check.problem checks
      (Printf.sprintf "daemon counts %.0f faulted streams, %d were torn"
         (stat stats "streams_faulted") torn_count);
  if stat stats "words_dropped" <> 0.0 then Check.problem checks "daemon dropped words";
  let lat = Array.to_list (Array.map (fun st -> st.stop -. st.due) streams) in
  let late = Array.to_list (Array.map (fun st -> st.start -. st.due) streams) in
  let last_stop = Array.fold_left (fun a st -> Float.max a st.stop) t0 streams in
  let error_rate = Check.error_rate checks in
  let serve_report =
    [
      m "stream_p50_s" "s" (Span.percentile lat 50.0);
      m "stream_p95_s" "s" (Span.percentile lat 95.0);
      m "stream_samples" "count" (float_of_int n);
      m "ingest_mwords_per_s" "Mwords/s" (ingest /. 1e6);
      m "closed_streams" "count" (float_of_int (List.length vs));
      m "closed_daemon_cpu_per_stream_s" "s" (daemon_cpu /. float_of_int (List.length vs));
      m "closed_loadgen_cpu_per_stream_s" "s" (c.Common.cpu_s /. float_of_int (List.length vs));
      m "peak_rss_mb.whole_run" "MB" rss;
      m "error_rate" "frac" error_rate;
      m "loadgen.late_p50_s" "s" (Span.percentile late 50.0);
      m "loadgen.late_p95_s" "s" (Span.percentile late 95.0);
      m "loadgen.service_p50_s" "s"
        (Span.median (Array.to_list (Array.map (fun st -> st.stop -. st.start) streams)));
      m "loadgen.offered_per_s" "1/s" (float_of_int n /. last_due);
      m "loadgen.completed_per_s" "1/s" (float_of_int n /. (last_stop -. t0));
      m "serve.drain_p50_s" "s" (stat stats "drain_p50_s");
      m "serve.drain_p99_s" "s" (stat stats "drain_p99_s");
      m "serve.peak_resident_words" "words" (stat stats "peak_resident_words");
      m "serve.drains" "count" (stat stats "drains");
      m "serve.diagnoses" "count" (stat stats "diagnoses");
      m "serve.streams_faulted" "count" (stat stats "streams_faulted");
      m "serve.words_dropped" "words" (stat stats "words_dropped");
    ]
  in
  if not trace then
    {
      Common.checks;
      end_to_end =
        [
          m "setup_s" "s" setup_s;
          m "result_cpu_s" "s" (open_cpu /. float_of_int n);
          m "mwords_per_cpu_s" "Mwords/s" (open_words /. open_cpu /. 1e6);
          m "peak_rss_mb" "MB" open_rss;
          m "success_rate" "frac" (1.0 -. error_rate);
        ];
      per_layer = [];
      report = serve_report;
    }
  else begin
    let l =
      Layers.create ~passes:1 (Span.all ())
        ~machines:[ (0, s.cap.Systems.counts) ]
        ~drains:[ (0, s.cap.Systems.drains) ]
        ~parses
    in
    let overhead =
      Option.get untraced_rate /. (float_of_int (List.length vs) /. dt) -. 1.0
    in
    let per_layer = Layers.common l ~overhead ~uncovered:"loadgen.stream" in
    let mean name =
      let ss = List.filter (fun x -> x.Span.name = name) l.Layers.spans in
      List.fold_left (fun a x -> a +. Span.duration x) 0.0 ss /. float_of_int (max 1 (List.length ss))
    in
    {
      Common.checks;
      end_to_end = [];
      per_layer;
      report =
        per_layer @ serve_report
        @ [
            m "serve.send_s" "s" (mean "serve.send");
            m "serve.reply_wait_s" "s" (mean "serve.reply_wait");
            m "serve.send_raw_s" "s" (mean "serve.send_raw");
          ]
        @ Layers.counts l @ Layers.span_table l;
    }
  end
