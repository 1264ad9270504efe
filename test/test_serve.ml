(* The trace-ingest daemon: wire protocol totality, bounded-queue
   backpressure, loopback round trips, lossy-mode loss accounting, and
   the fault-injection client suite (torn frames, truncation, abrupt
   disconnect) — the daemon must survive all of it with structured
   diagnoses, no exceptions, no hangs, and no leaked descriptors. *)

open Systrace

module Wire = Serve.Wire
module Bqueue = Serve.Bqueue
module Server = Serve.Server
module Client = Serve.Client

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Bqueue                                                              *)

let test_bqueue_basics () =
  let q = Bqueue.create ~slots:4 ~slot_words:8 in
  check_int "capacity" 32 (Bqueue.capacity_words q);
  check_bool "fresh empty" true (Bqueue.is_empty q);
  check_bool "fresh pop" true (Bqueue.pop q = None);
  (* fill one slot exactly: it queues itself *)
  (match Bqueue.reserve q with
  | Some (buf, off, space) ->
    check_int "fresh offset" 0 off;
    check_int "fresh space" 8 space;
    for i = 0 to 7 do
      buf.(i) <- 100 + i
    done;
    Bqueue.commit q 8
  | None -> Alcotest.fail "fresh queue full");
  check_int "one queued" 1 (Bqueue.queued q);
  (* partial tail is invisible until flush *)
  (match Bqueue.reserve q with
  | Some (buf, off, _) ->
    buf.(off) <- 200;
    Bqueue.commit q 1
  | None -> Alcotest.fail "queue full at 1/4");
  check_int "still one queued" 1 (Bqueue.queued q);
  check_int "resident" 9 (Bqueue.resident_words q);
  Bqueue.flush q;
  check_int "flushed tail queued" 2 (Bqueue.queued q);
  (match Bqueue.pop q with
  | Some (buf, len) ->
    check_int "first len" 8 len;
    check_int "first word" 100 buf.(0)
  | None -> Alcotest.fail "nothing to pop");
  (match Bqueue.pop q with
  | Some (buf, len) ->
    check_int "second len" 1 len;
    check_int "second word" 200 buf.(0)
  | None -> Alcotest.fail "no second chunk");
  check_bool "drained empty" true (Bqueue.is_empty q);
  check_int "peak" 9 (Bqueue.peak_words q);
  (* fill to the brim: reserve must refuse *)
  let wrote = ref 0 in
  let rec fill () =
    match Bqueue.reserve q with
    | Some (_, _, space) ->
      Bqueue.commit q space;
      wrote := !wrote + space;
      fill ()
    | None -> ()
  in
  fill ();
  check_int "full at capacity" 32 !wrote;
  check_int "full resident" 32 (Bqueue.resident_words q);
  check_bool "full refuses" true (Bqueue.reserve q = None);
  ignore (Bqueue.pop q);
  check_bool "pop reopens" true (Bqueue.reserve q <> None)

(* A reset queue is a fresh one: whatever a stream left queued, in its
   tail or in its peak, the next stream on the recycled queue sees the
   same offers, chunks and peak as on a new queue of the same shape. *)
let test_bqueue_reset () =
  let produce q n =
    match Bqueue.reserve q with
    | Some (buf, off, space) ->
      let k = min n space in
      for i = 0 to k - 1 do
        buf.(off + i) <- 1000 + i
      done;
      Bqueue.commit q k;
      Some (off, space)
    | None -> None
  in
  let script q =
    let offers = List.map (produce q) [ 5; 8; 3 ] in
    Bqueue.flush q;
    let chunks = ref [] in
    let rec drain () =
      match Bqueue.pop q with
      | Some (buf, len) ->
        chunks := Array.to_list (Array.sub buf 0 len) :: !chunks;
        drain ()
      | None -> ()
    in
    drain ();
    (offers, List.rev !chunks, Bqueue.peak_words q)
  in
  let q = Bqueue.create ~slots:4 ~slot_words:8 in
  (* a stream that ends mid-slot with two slots still queued *)
  List.iter (fun n -> ignore (produce q n)) [ 8; 8; 8; 3 ];
  ignore (Bqueue.pop q);
  check_int "left queued" 2 (Bqueue.queued q);
  Bqueue.reset q;
  check_bool "reset empty" true (Bqueue.is_empty q);
  check_int "reset queued" 0 (Bqueue.queued q);
  check_int "reset resident" 0 (Bqueue.resident_words q);
  check_int "reset peak" 0 (Bqueue.peak_words q);
  check_bool "reset pop" true (Bqueue.pop q = None);
  check_bool "reset queue behaves as a fresh one" true
    (script q = script (Bqueue.create ~slots:4 ~slot_words:8))

(* Random interleaving of produce/pop against a reference model: FIFO
   word order exactly preserved, resident words never above capacity. *)
let prop_bqueue_order =
  QCheck.Test.make ~count:200 ~name:"bqueue preserves order within bounds"
    QCheck.(
      pair
        (pair (int_range 2 5) (int_range 1 16))
        (list_of_size Gen.(int_range 1 60) (int_range 0 20)))
    (fun ((slots, slot_words), ops) ->
      let q = Bqueue.create ~slots ~slot_words in
      let next = ref 0 in
      let popped = ref [] in
      let pop1 () =
        match Bqueue.pop q with
        | Some (buf, len) ->
          for i = 0 to len - 1 do
            popped := buf.(i) :: !popped
          done
        | None -> ()
      in
      List.iter
        (fun op ->
          if op = 0 then Bqueue.flush q
          else if op mod 2 = 1 then pop1 ()
          else begin
            (* produce up to [op] words, stopping at backpressure *)
            let want = ref op in
            let stop = ref false in
            while !want > 0 && not !stop do
              match Bqueue.reserve q with
              | Some (buf, off, space) ->
                let k = min space !want in
                for i = 0 to k - 1 do
                  buf.(off + i) <- !next + i
                done;
                Bqueue.commit q k;
                next := !next + k;
                want := !want - k
              | None -> stop := true
            done
          end;
          if Bqueue.resident_words q > Bqueue.capacity_words q then
            QCheck.Test.fail_reportf "resident %d > capacity %d"
              (Bqueue.resident_words q)
              (Bqueue.capacity_words q))
        ops;
      Bqueue.flush q;
      let rec drain () =
        match Bqueue.pop q with
        | Some (buf, len) ->
          for i = 0 to len - 1 do
            popped := buf.(i) :: !popped
          done;
          drain ()
        | None -> ()
      in
      drain ();
      let got = List.rev !popped in
      got = List.init !next (fun i -> i)
      && Bqueue.peak_words q <= Bqueue.capacity_words q)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

(* Decode a byte string through the incremental decoder, feeding it in
   pieces of the given sizes (cycled) and collecting into chunks of
   [dst_cap]; returns the words, the final status, and the eof
   classification.  Never raises whatever the input. *)
let decode_pieces ?(dst_cap = 97) bytes sizes =
  let src = Bytes.of_string bytes in
  let d = Wire.decoder () in
  let out = ref [] in
  let dst = Array.make dst_cap 0 in
  let pos = ref 0 in
  let n = Bytes.length src in
  let sizes = if sizes = [] then [ n ] else sizes in
  let szs = ref sizes in
  let next_size () =
    match !szs with
    | [] ->
      szs := sizes;
      List.hd sizes
    | s :: tl ->
      szs := tl;
      s
  in
  let last = ref Wire.Need_more in
  while !pos < n && (match !last with Wire.Fault _ -> false | _ -> true) do
    let len = min (max 1 (next_size ())) (n - !pos) in
    let src_pos = ref !pos in
    let src_len = !pos + len in
    let continue = ref true in
    while !continue do
      let dst_pos = ref 0 in
      let st =
        Wire.decode d ~src ~src_pos ~src_len ~dst ~dst_pos ~dst_len:dst_cap
      in
      for i = 0 to !dst_pos - 1 do
        out := dst.(i) :: !out
      done;
      last := st;
      match st with
      | Wire.Need_more -> continue := false
      | Wire.Fault _ -> continue := false
      | Wire.Stream_end -> if !src_pos >= src_len then continue := false
      | Wire.Dst_full | Wire.Frame_end -> ()
    done;
    pos := !src_pos
  done;
  (Array.of_list (List.rev !out), !last, Wire.eof_error d)

let gen_words =
  QCheck.Gen.(
    array_size (int_range 0 400)
      (oneof
         [
           int_range 0 0xFFFF;
           int_range 0x7FFFFFF0 0x8000000F;  (* around the sign bit *)
           int_range 0xFFFF0000 0xFFFFFFFF;
         ]))

let prop_wire_roundtrip =
  QCheck.Test.make ~count:300 ~name:"wire roundtrip under any re-chunking"
    QCheck.(
      make
        Gen.(
          triple gen_words (int_range 1 200)
            (list_size (int_range 1 12) (int_range 1 37))))
    (fun (ws, frame_words, sizes) ->
      let bytes = Wire.encode ~frame_words ws in
      let got, _, eof = decode_pieces bytes sizes in
      got = ws && eof = None)

let prop_wire_torn =
  QCheck.Test.make ~count:300 ~name:"torn wire stream: prefix + diagnosis"
    QCheck.(
      make
        Gen.(
          triple gen_words (int_range 1 100)
            (pair (int_range 0 10000) (int_range 1 23))))
    (fun (ws, frame_words, (cut_raw, piece)) ->
      let bytes = Wire.encode ~frame_words ws in
      let cut = cut_raw mod (String.length bytes + 1) in
      let torn = String.sub bytes 0 cut in
      let got, _, eof = decode_pieces torn [ piece ] in
      (* decoded words are a prefix of the original, and a cut anywhere
         before the end is classified as a structured diagnosis *)
      Array.length got <= Array.length ws
      && got = Array.sub ws 0 (Array.length got)
      && if cut = String.length bytes then eof = None else eof <> None)

let test_wire_faults () =
  (* bad magic *)
  let b = Buffer.create 16 in
  Buffer.add_int32_le b 0xDEADBEEFl;
  let _, st, _ = decode_pieces (Buffer.contents b) [ 4 ] in
  (match st with
  | Wire.Fault e ->
    check_bool "bad magic names state" true (e.Wire.state = "stream header")
  | _ -> Alcotest.fail "bad magic not a fault");
  (* unknown frame kind *)
  let b = Buffer.create 16 in
  Wire.put_magic b;
  Buffer.add_int32_le b (Int32.of_int ((7 lsl 24) lor 3));
  let _, st, _ = decode_pieces (Buffer.contents b) [ 3 ] in
  (match st with
  | Wire.Fault e -> check_bool "kind fault" true (e.Wire.state = "frame header")
  | _ -> Alcotest.fail "unknown kind not a fault");
  (* END with a nonzero count *)
  let b = Buffer.create 16 in
  Wire.put_magic b;
  Buffer.add_int32_le b (Int32.of_int ((1 lsl 24) lor 5));
  let _, st, _ = decode_pieces (Buffer.contents b) [ 5 ] in
  (match st with
  | Wire.Fault e -> check_bool "end fault" true (e.Wire.state = "END frame")
  | _ -> Alcotest.fail "bad END not a fault");
  (* trailing garbage after END *)
  let bytes = Wire.encode [| 1; 2; 3 |] ^ "zz" in
  let got, st, _ = decode_pieces bytes [ 7 ] in
  check_int "words before trailing garbage" 3 (Array.length got);
  (match st with
  | Wire.Fault e ->
    check_bool "trailing fault" true (e.Wire.state = "after END")
  | _ -> Alcotest.fail "trailing garbage not a fault");
  (* out-of-range word refused at the encoder *)
  Alcotest.check_raises "encoder refuses 2^32"
    (Invalid_argument
       "Wire.put_words: word 0 = 0x100000000 outside 32-bit range")
    (fun () -> ignore (Wire.encode [| 1 lsl 32 |]))

(* ------------------------------------------------------------------ *)
(* The daemon over loopback sockets                                    *)

let tmp_name tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "systrace_%s_%d.sock" tag (Unix.getpid ()))

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Poll aggregated counters until no stream is active (abrupt
   disconnects finish asynchronously to the client's close). *)
let quiesce t =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let s = Server.stats t in
    if s.Server.streams_active = 0 then s
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "daemon did not quiesce"
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let with_server cfg f =
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let fixture_words = lazy (Tracing.Tracefile.load "fixture_v3.strc")

let test_loopback_roundtrip () =
  let path = tmp_name "rt" in
  let cfg =
    {
      (Server.default_config Server.scan_pipeline) with
      Server.unix_path = Some path;
      tcp = Some ("127.0.0.1", 0);
      workers = 2;
    }
  in
  with_server cfg (fun t ->
      let words = Lazy.force fixture_words in
      (* over the unix socket *)
      (match Client.run (Client.Unix_path path) words with
      | Some r ->
        check_int "unix words echoed" (Array.length words) r.Client.r_words;
        check_int "unix lossless" 0 r.Client.r_dropped_words
      | None -> Alcotest.fail "unix stream rejected");
      (* over TCP, ephemeral port *)
      let port =
        match Server.tcp_port t with
        | Some p -> p
        | None -> Alcotest.fail "no tcp port"
      in
      (match Client.run (Client.Tcp ("127.0.0.1", port)) words with
      | Some r ->
        check_int "tcp words echoed" (Array.length words) r.Client.r_words
      | None -> Alcotest.fail "tcp stream rejected");
      let s = quiesce t in
      check_int "two streams" 2 s.Server.streams_total;
      check_int "all words in" (2 * Array.length words) s.Server.words_in;
      check_int "all words analyzed" (2 * Array.length words)
        s.Server.words_analyzed;
      check_int "no faulted streams" 0 s.Server.streams_faulted;
      (* the scan pipeline matches the offline checker on this fixture *)
      let sc = Tracing.Parser.scanner () in
      Tracing.Parser.scan_feed sc words ~len:(Array.length words);
      let offline = List.length (Tracing.Parser.scan_finish sc) in
      check_int "scan diagnoses match offline scan" (2 * offline)
        s.Server.diagnoses)

(* A deliberately slow consumer behind Sink.batching: the bounded queue
   must cap resident words, and lossless mode must deliver every word in
   order however hard the client pushes. *)
let test_backpressure_lossless () =
  let received = Buffer.create 4096 in
  let mu = Mutex.create () in
  let factory () =
    let slow =
      Tracing.Sink.make (fun ws ~len ->
          Unix.sleepf 0.001;
          Mutex.lock mu;
          for i = 0 to len - 1 do
            Buffer.add_string received (string_of_int ws.(i));
            Buffer.add_char received ','
          done;
          Mutex.unlock mu)
    in
    {
      Server.sink = Tracing.Sink.batching ~words:128 slow;
      diagnoses = (fun () -> 0);
    }
  in
  let path = tmp_name "bp" in
  let cfg =
    {
      (Server.default_config factory) with
      Server.unix_path = Some path;
      workers = 1;
      queue_slots = 2;
      slot_words = 256;
    }
  in
  with_server cfg (fun t ->
      let n = 20_000 in
      let words = Array.init n (fun i -> (i * 7) land 0xFFFFFFFF) in
      (match Client.run (Client.Unix_path path) words with
      | Some r ->
        check_int "lossless: nothing dropped" 0 r.Client.r_dropped_words;
        check_int "lossless: every word" n r.Client.r_words
      | None -> Alcotest.fail "stream rejected");
      let s = quiesce t in
      check_int "analyzed everything" n s.Server.words_analyzed;
      check_bool
        (Printf.sprintf "peak resident %d within queue capacity %d"
           s.Server.peak_resident_words (2 * 256))
        true
        (s.Server.peak_resident_words <= 2 * 256);
      let expect =
        String.concat "" (List.init n (fun i -> string_of_int words.(i) ^ ","))
      in
      check_bool "delivered in order, nothing lost" true
        (Buffer.contents received = expect))

(* Lossy mode: a client outrunning a slow pipeline loses words, but the
   books balance — words in = analyzed + dropped, and dropped frames are
   flagged (the paper's lost-reference accounting, one level up). *)
let test_lossy_accounting () =
  let factory () =
    {
      Server.sink = Tracing.Sink.make (fun _ ~len:_ -> Unix.sleepf 0.005);
      diagnoses = (fun () -> 0);
    }
  in
  let path = tmp_name "lossy" in
  let cfg =
    {
      (Server.default_config factory) with
      Server.unix_path = Some path;
      workers = 1;
      queue_slots = 2;
      slot_words = 64;
      lossy = true;
    }
  in
  with_server cfg (fun t ->
      let n = 50_000 in
      let words = Array.init n (fun i -> i land 0xFFFFFFFF) in
      (match Client.run (Client.Unix_path path) words with
      | Some r ->
        check_int "every sent word decoded" n r.Client.r_words;
        check_bool "some words dropped" true (r.Client.r_dropped_words > 0);
        check_bool "dropped frames flagged" true
          (r.Client.r_dropped_frames > 0)
      | None -> Alcotest.fail "stream rejected");
      let s = quiesce t in
      check_int "loss accounting balances" s.Server.words_in
        (s.Server.words_analyzed + s.Server.words_dropped))

(* The fault-injection client suite: torn frames (byte-level cuts at
   Rng-chosen offsets), abrupt disconnects, and word-level truncation
   faults.  The daemon must answer every well-formed stream afterwards,
   classify every cut as a structured diagnosis, and leak nothing. *)
let test_torn_frames_and_disconnects () =
  let path = tmp_name "torn" in
  let cfg =
    {
      (Server.default_config Server.null_pipeline) with
      Server.unix_path = Some path;
      workers = 2;
    }
  in
  let baseline_fds = open_fds () in
  with_server cfg (fun t ->
      let rng = Systrace_util.Rng.create 42 in
      let words = Array.init 1_000 (fun i -> (i * 13) land 0xFFFFFFFF) in
      let bytes = Wire.encode ~frame_words:97 words in
      let cuts = ref 0 in
      for _ = 1 to 20 do
        let cut = Systrace_util.Rng.int rng (String.length bytes) in
        if cut < String.length bytes then incr cuts;
        (* send_raw half-closes and waits for the reply; a cut stream
           must come back as a structured "err" line, never a hang *)
        match Client.send_raw (Client.Unix_path path) (String.sub bytes 0 cut) with
        | Some line ->
          check_bool "torn stream answered with err" true
            (String.length line >= 3 && String.sub line 0 3 = "err")
        | None -> ()
      done;
      (* abrupt disconnects: close mid-stream without half-close *)
      for _ = 1 to 5 do
        let fd = Client.connect (Client.Unix_path path) in
        let cut = 4 + Systrace_util.Rng.int rng (String.length bytes - 4) in
        (try
           ignore (Unix.write_substring fd (String.sub bytes 0 cut) 0 cut)
         with Unix.Unix_error _ -> ());
        Unix.close fd
      done;
      (* word-level truncation via the Faults machinery: still a valid
         wire stream, so the reply is "ok" and the loss is upstream *)
      (match
         Systrace_tracing.Faults.inject_one rng Systrace_tracing.Faults.Truncate
           (Lazy.force fixture_words)
       with
      | Some (truncated, _) -> (
        match Client.run (Client.Unix_path path) truncated with
        | Some r ->
          check_int "truncated words all ingested" (Array.length truncated)
            r.Client.r_words
        | None -> Alcotest.fail "truncated stream rejected")
      | None -> ());
      let s = quiesce t in
      check_bool
        (Printf.sprintf "every cut diagnosed (%d faulted / %d cut)"
           s.Server.streams_faulted !cuts)
        true
        (s.Server.streams_faulted >= !cuts);
      (* the daemon still serves clean streams after the abuse *)
      match Client.run (Client.Unix_path path) words with
      | Some r -> check_int "alive after abuse" 1_000 r.Client.r_words
      | None -> Alcotest.fail "daemon dead after fault suite");
  (* every accepted connection's descriptor is back *)
  check_int "no leaked file descriptors" baseline_fds (open_fds ())

(* One worker recycles a finished connection's queue and buffers for its
   next one: after a torn stream, a clean stream gets a clean reply, and
   the counters it leaves are its own stream's. *)
let test_recycled_connection_starts_clean () =
  let path = tmp_name "recycle" in
  let cfg =
    {
      (Server.default_config Server.null_pipeline) with
      Server.unix_path = Some path;
      workers = 1;
    }
  in
  let baseline_fds = open_fds () in
  with_server cfg (fun t ->
      let torn = Array.init 3_000 (fun i -> (i * 31) land 0xFFFFFFFF) in
      let bytes = Wire.encode ~frame_words:1_000 torn in
      (match
         Client.send_raw (Client.Unix_path path)
           (String.sub bytes 0 ((2 * String.length bytes) / 3))
       with
      | Some line ->
        check_bool "torn stream answered with err" true
          (String.length line >= 3 && String.sub line 0 3 = "err")
      | None -> Alcotest.fail "torn stream got no reply");
      let first = quiesce t in
      let clean = Array.init 5_000 (fun i -> (i * 7) land 0xFFFFFFFF) in
      (match Client.run (Client.Unix_path path) clean with
      | Some r ->
        check_int "clean reply: every word" 5_000 r.Client.r_words;
        check_int "clean reply: no dropped words" 0 r.Client.r_dropped_words;
        check_int "clean reply: no dropped frames" 0 r.Client.r_dropped_frames;
        check_int "clean reply: no diagnoses" 0 r.Client.r_diagnoses
      | None -> Alcotest.fail "clean stream after a torn one rejected");
      let s = quiesce t in
      check_int "one faulted stream" 1 s.Server.streams_faulted;
      check_int "clean stream's words analyzed" 5_000
        (s.Server.words_analyzed - first.Server.words_analyzed);
      check_bool
        (Printf.sprintf "peak resident %d is one stream's (<= 5000)"
           s.Server.peak_resident_words)
        true
        (s.Server.peak_resident_words > 0
        && s.Server.peak_resident_words <= 5_000));
  check_int "no leaked file descriptors" baseline_fds (open_fds ())

(* One request on the control socket at [ctl], its whole reply. *)
let ctl_ask ctl cmd =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX ctl);
      ignore (Unix.write_substring fd (cmd ^ "\n") 0 (String.length cmd + 1));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let b = Buffer.create 256 in
      let chunk = Bytes.create 256 in
      let rec go () =
        match Unix.read fd chunk 0 256 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes b chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ();
      Buffer.contents b)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let ctl_config tag =
  let path = tmp_name (tag ^ "_d") in
  let ctl = tmp_name (tag ^ "_c") in
  ( path,
    ctl,
    {
      (Server.default_config Server.null_pipeline) with
      Server.unix_path = Some path;
      ctl_path = Some ctl;
    } )

let test_ctl_stats_shutdown () =
  let path, ctl, cfg = ctl_config "ctl" in
  let t = Server.start cfg in
  let ask = ctl_ask ctl in
  ignore (Client.run (Client.Unix_path path) [| 1; 2; 3 |]);
  let reply = ask "stats" in
  check_bool "stats reply lists totals" true (contains reply "streams_total 1");
  check_bool "stats reply lists words" true (contains reply "words_in 3");
  let bad = ask "frobnicate" in
  check_bool "unknown command refused" true
    (String.length bad >= 3 && String.sub bad 0 3 = "err");
  check_bool "shutdown acknowledged" true (String.trim (ask "shutdown") = "ok");
  (* the daemon exits on its own after a ctl shutdown *)
  Server.wait t;
  check_bool "socket path unlinked after wait" false (Sys.file_exists path)

(* A stream's reply is its acknowledgement: stats asked for after the
   client has read it must already count the stream and its words, both
   in-process and over the control socket. *)
let test_stats_after_reply () =
  let path, ctl, cfg = ctl_config "ack" in
  with_server cfg (fun t ->
      for round = 1 to 30 do
        let words = Array.init round (fun i -> i) in
        (match Client.run (Client.Unix_path path) words with
        | Some r -> check_int "words echoed" round r.Client.r_words
        | None -> Alcotest.fail "stream rejected");
        let total = round * (round + 1) / 2 in
        let s = Server.stats t in
        check_int "streams_total after the reply" round s.Server.streams_total;
        check_int "words_in after the reply" total s.Server.words_in;
        let reply = ctl_ask ctl "stats" in
        if
          not
            (contains reply (Printf.sprintf "streams_total %d\n" round)
            && contains reply (Printf.sprintf "words_in %d\n" total))
        then Alcotest.failf "round %d: stats reply %S" round reply
      done)

(* A clean Mach stream ends with the UX server still blocked in
   receive, inside an open block: the parse pipeline must be told the
   server is live, or every clean stream reports that block as
   incomplete. *)
let test_parse_pipeline_clean_mach () =
  let module B = Systrace_kernel.Builder in
  let e = Workloads.Suite.find "egrep" in
  let words, run =
    capture_trace ~os:Mach [ e.Workloads.Suite.program () ] e.Workloads.Suite.files
  in
  let sys = run.system in
  let parser () =
    let p =
      Tracing.Parser.create ~recover:true
        ~kernel_bbs:(Option.get sys.B.kernel_bbs) ()
    in
    List.iter
      (fun (pi : B.proc_info) ->
        Tracing.Parser.register_pid p ~pid:pi.pid (Option.get pi.bbs))
      sys.B.procs;
    p
  in
  let path = tmp_name "parse" in
  let cfg =
    {
      (Server.default_config
         (Server.to_parser_pipeline ~live:(B.server_pids sys) parser))
      with
      Server.unix_path = Some path;
    }
  in
  with_server cfg (fun _ ->
      match Client.run (Client.Unix_path path) words with
      | Some r ->
        check_int "every word parsed" (Array.length words) r.Client.r_words;
        check_int "clean stream: no diagnoses" 0 r.Client.r_diagnoses
      | None -> Alcotest.fail "stream rejected")

let tests =
  [
    Alcotest.test_case "bqueue basics" `Quick test_bqueue_basics;
    Alcotest.test_case "bqueue reset" `Quick test_bqueue_reset;
    QCheck_alcotest.to_alcotest prop_bqueue_order;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_wire_torn;
    Alcotest.test_case "wire faults are structured" `Quick test_wire_faults;
    Alcotest.test_case "loopback roundtrip (unix + tcp)" `Quick
      test_loopback_roundtrip;
    Alcotest.test_case "lossless backpressure bounds residency" `Quick
      test_backpressure_lossless;
    Alcotest.test_case "lossy mode balances the books" `Quick
      test_lossy_accounting;
    Alcotest.test_case "torn frames, disconnects, no fd leaks" `Quick
      test_torn_frames_and_disconnects;
    Alcotest.test_case "recycled connection starts clean" `Quick
      test_recycled_connection_starts_clean;
    Alcotest.test_case "control socket stats and shutdown" `Quick
      test_ctl_stats_shutdown;
    Alcotest.test_case "stats count a stream once it is acknowledged" `Quick
      test_stats_after_reply;
    Alcotest.test_case "parse pipeline: clean egrep/Mach stream" `Quick
      test_parse_pipeline_clean_mach;
  ]
