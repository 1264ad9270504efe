(* On-disk trace files.

   The Tunix system "produced a collection of single and multi-task
   user-level traces on tape, which were made available to the community"
   (paper §3.4).  This module is the tape: a captured in-kernel trace is
   written to a host file and can be re-analyzed offline — against the
   paper's design philosophy for LONG traces ("trace analysis that must be
   done off-line against stored traces is unacceptable" for 64MB-a-phase
   volumes), but exactly right for sharing and for replay studies.

   Three formats behind one magic:
     version 1: "STRC", version, word count, words as little-endian 32-bit
     version 2: "STRC", version, word count, compressed byte count, then
                the {!Compress} delta/varint + LZSS stream
     version 3: "STRC", version, word count, payload byte count, then
                independently compressed blocks, then an index trailer:
                one 17-byte entry per block (word offset, file offset,
                packed length, codec byte, CRC-32 of the packed bytes)
                followed by a 12-byte footer (block count, CRC-32 of the
                index bytes, "SIDX").
   [load] dispatches on the version, so consumers never care which way a
   trace was dumped; v1/v2 files keep loading byte-identically forever.
   The writer produces v1 (uncompressed) and v3 (compressed); v2 is read
   only.

   Version 3 exists because v2 is decode-forward-only: one sequential
   decoder, no seeking, and a single shared predictor chain from the
   first word to the last.  v3 blocks are self-contained — each one
   chooses its own codec (semantic preconditioning, plain delta/varint,
   or raw words, whichever packed smallest; see {!Compress}) and resets
   every predictor — so the index lets [fold_words ?from ?until] seek to
   the covering block, [fold_blocks_parallel] decode blocks concurrently
   on the domain pool, and `systrace slice` cut a window without a full
   decode.

   Robustness contract (defensive tracing, §4.3, extended to the stored
   form): [load] and [fold_words] on ANY byte sequence either return
   words or raise {!Bad_file} — never [End_of_file], [Invalid_argument],
   or an attacker-sized allocation.  Header counts are validated against
   both a hard cap (the same 2^26-word bound as [Compress.decode]) and
   the actual file size before any buffer is allocated; the v3 index is
   CRC-checked and every entry validated (offsets contiguous from the
   first block to the trailer, word offsets strictly increasing, codecs
   known) before a single block is read, and each block's own CRC is
   checked before it is decoded.  [save] and [write] refuse words
   outside the 32-bit trace-word range instead of silently truncating
   them through [Int32.of_int], so a corrupted in-memory buffer cannot
   round-trip into a "valid" trace file. *)

let magic = "STRC"
let index_magic = "SIDX"

exception Bad_file of string

(* Same bound as [Compress.max_decoded_words]: far beyond any real
   capture (the paper's largest kernel buffer is 64 MB = 2^24 words). *)
let max_words = 1 lsl 26

(* v3 block geometry: 64K words (256KB raw) balances seek granularity,
   per-block predictor warmup, and parallel-decode grain.  One index
   entry per block = 17 bytes per 256KB of trace, noise. *)
let v3_block_words = 65536
let v3_entry_bytes = 17
let v3_footer_bytes = 12

(* ------------------------------------------------------------------ *)
(* v3 block codecs                                                     *)

(* Codec byte, recorded per block in the index:
     0 = delta/varint (fresh predictor) + LZSS  — the v2 stages
     1 = semantic preconditioning + LZSS        — the usual winner
     2 = raw little-endian words + LZSS         — incompressible fallback
   The packer tries 1 and 0 and keeps the smaller; if even that beat
   nothing (packed >= raw bytes) it tries 2.  The choice is recorded on
   the wire, so the reader never guesses. *)

let v3_pack_block (block : int array) ~len : int * string =
  let sem = Compress.lzss_pack (Compress.encode_semantic block ~pos:0 ~len) in
  let plain =
    let buf = Buffer.create ((len * 2) + 64) in
    let e = Compress.encoder () in
    Compress.encode_chunk e buf block ~len;
    Compress.encode_finish e buf;
    Compress.lzss_pack (Buffer.contents buf)
  in
  let codec, best =
    if String.length sem <= String.length plain then (1, sem) else (0, plain)
  in
  if String.length best >= len * 4 then begin
    let raw = Bytes.create (len * 4) in
    for i = 0 to len - 1 do
      Bytes.set_int32_le raw (i * 4) (Int32.of_int block.(i))
    done;
    let z = Compress.lzss_pack (Bytes.unsafe_to_string raw) in
    if String.length z < String.length best then (2, z) else (codec, best)
  end
  else (codec, best)

(* Decode one block's packed bytes back to exactly [expect] words.
   Every stage is bounded by [expect], so a lying index entry surfaces
   as [Compress.Corrupt] before an oversized allocation. *)
let v3_decode_block ~codec ~expect (z : string) : int array =
  match codec with
  | 0 ->
    let limit = (expect * Compress.max_delta_bytes_per_word) + 16 in
    Compress.decode ~expect (Compress.lzss_unpack ~limit z)
  | 1 ->
    (* body worst case: <= 5 run-token bytes + 10 stream bytes per word,
       plus the fixed header varints *)
    let limit = (expect * 15) + 64 in
    Compress.decode_semantic ~expect (Compress.lzss_unpack ~limit z)
  | 2 ->
    let s = Compress.lzss_unpack ~limit:(expect * 4) z in
    if String.length s <> expect * 4 then
      raise (Compress.Corrupt "raw block length mismatch");
    Array.init expect (fun i ->
        Int32.to_int (String.get_int32_le s (i * 4)) land 0xFFFFFFFF)
  | c -> raise (Compress.Corrupt (Printf.sprintf "unknown block codec %d" c))

(* ------------------------------------------------------------------ *)
(* v3 index                                                            *)

type v3_entry = {
  e_word_off : int;  (* stream index of the block's first word *)
  e_file_off : int;  (* absolute byte offset of the packed block *)
  e_len : int;       (* packed byte length *)
  e_codec : int;
  e_crc : int;       (* CRC-32 of the packed bytes *)
}

let v3_entry_write buf e =
  let b = Bytes.create v3_entry_bytes in
  Bytes.set_int32_le b 0 (Int32.of_int e.e_word_off);
  Bytes.set_int32_le b 4 (Int32.of_int e.e_file_off);
  Bytes.set_int32_le b 8 (Int32.of_int e.e_len);
  Bytes.set b 12 (Char.chr e.e_codec);
  Bytes.set_int32_le b 13 (Int32.of_int e.e_crc);
  Buffer.add_bytes buf b

(* Parse and fully validate a v3 trailer.  Nothing is allocated
   proportional to any header field before that field has been proven
   consistent with the actual file length. *)
let v3_read_index ic ~file_len ~path ~n =
  let bad fmt =
    Printf.ksprintf (fun m -> raise (Bad_file (path ^ ": " ^ m))) fmt
  in
  let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF in
  let lenb = Bytes.create 4 in
  really_input ic lenb 0 4;
  let payload = Int32.to_int (Bytes.get_int32_le lenb 0) in
  if payload < 0 then bad "negative payload";
  if file_len < 16 + v3_footer_bytes then bad "truncated: no index footer";
  if payload > file_len - 16 - v3_footer_bytes then
    bad "truncated: header claims %d payload bytes, file holds %d" payload
      (file_len - 16 - v3_footer_bytes);
  seek_in ic (file_len - v3_footer_bytes);
  let fb = Bytes.create v3_footer_bytes in
  really_input ic fb 0 v3_footer_bytes;
  if Bytes.sub_string fb 8 4 <> index_magic then
    bad "bad index footer magic";
  let nblocks = u32 fb 0 in
  let index_crc = u32 fb 4 in
  if nblocks > max_words then bad "index claims %d blocks" nblocks;
  let index_bytes = file_len - 16 - payload - v3_footer_bytes in
  if nblocks * v3_entry_bytes <> index_bytes then
    bad "index size mismatch: %d blocks need %d bytes, trailer holds %d"
      nblocks (nblocks * v3_entry_bytes) index_bytes;
  if nblocks = 0 && (n <> 0 || payload <> 0) then
    bad "empty index for %d words, %d payload bytes" n payload;
  if nblocks > 0 && n = 0 then bad "%d blocks for zero words" nblocks;
  seek_in ic (16 + payload);
  let ib = really_input_string ic index_bytes in
  if Compress.crc32 ib <> index_crc then bad "index CRC mismatch";
  let entries =
    Array.init nblocks (fun k ->
        let b = Bytes.unsafe_of_string ib in
        let off = k * v3_entry_bytes in
        {
          e_word_off = u32 b off;
          e_file_off = u32 b (off + 4);
          e_len = u32 b (off + 8);
          e_codec = Char.code (Bytes.get b (off + 12));
          e_crc = u32 b (off + 13);
        })
  in
  (* Offsets must tile the payload exactly — no gaps, no overlaps, no
     block reaching past EOF — and word offsets must start at 0 and
     strictly increase below the word count. *)
  let fo = ref 16 in
  Array.iteri
    (fun k e ->
      if e.e_file_off <> !fo then
        bad "block %d at offset %d, expected %d (overlap or gap)" k
          e.e_file_off !fo;
      if e.e_len < 0 || e.e_file_off + e.e_len > 16 + payload then
        bad "block %d reaches past the payload" k;
      fo := e.e_file_off + e.e_len;
      let expected_word_off = if k = 0 then 0 else -1 in
      if k = 0 && e.e_word_off <> expected_word_off then
        bad "first block at word offset %d" e.e_word_off;
      if k > 0 && e.e_word_off <= entries.(k - 1).e_word_off then
        bad "block %d word offset %d not increasing" k e.e_word_off;
      if e.e_word_off >= n then
        bad "block %d word offset %d beyond word count %d" k e.e_word_off n;
      if e.e_codec > 2 then bad "block %d has unknown codec %d" k e.e_codec)
    entries;
  if nblocks > 0 && !fo <> 16 + payload then
    bad "blocks cover %d payload bytes, header claims %d" (!fo - 16) payload;
  (payload, entries)

(* Words covered by entry [k]: up to the next block's offset (or the
   file's word count for the last block). *)
let v3_entry_words entries ~n k =
  let e = entries.(k) in
  let next =
    if k + 1 < Array.length entries then entries.(k + 1).e_word_off else n
  in
  next - e.e_word_off

(* Read and decode block [k], checking its CRC first. *)
let v3_read_block ic entries ~n ~path k =
  let bad fmt =
    Printf.ksprintf (fun m -> raise (Bad_file (path ^ ": " ^ m))) fmt
  in
  let e = entries.(k) in
  seek_in ic e.e_file_off;
  let z = really_input_string ic e.e_len in
  if Compress.crc32 z <> e.e_crc then bad "block %d CRC mismatch" k;
  let expect = v3_entry_words entries ~n k in
  try v3_decode_block ~codec:e.e_codec ~expect z
  with Compress.Corrupt msg -> bad "block %d: %s" k msg

(* ------------------------------------------------------------------ *)
(* The writer.

   One write path for every format written: [save] is [open_writer] +
   one [write] + [close_writer].  The writer accepts ANALYZE-phase
   chunks as they arrive and patches the header counts on close; peak
   memory is O(block), not O(trace).  Version 1 appends raw words as
   they come.  Version 3 buffers words (not bytes): every
   [v3_block_words] it packs a self-contained block, appends it to the
   file and its entry to the in-memory index, which [close_writer]
   writes as the trailer.  Block boundaries depend only on the word
   stream, never on how calls chunked it, so a chunked write is
   byte-identical to [save] of the concatenation.  Version 2 is read
   only: v3 replaced it, and the readers keep loading old v2 files. *)

type writer = {
  w_oc : out_channel;
  w_version : int;  (* 1 or 3 *)
  (* v3 state *)
  w_block : int array;  (* words awaiting a block flush *)
  mutable w_fill : int;
  w_index : Buffer.t;  (* index entries of the flushed blocks *)
  mutable w_nblocks : int;
  (* common *)
  mutable w_payload : int;  (* payload bytes written so far *)
  mutable w_words : int;
  mutable w_closed : bool;
}

let open_writer ?(compress = false) path =
  let version = if compress then 3 else 1 in
  let oc = open_out_bin path in
  output_string oc magic;
  (* word count (and v3 payload size) are patched by [close_writer] *)
  let hdr = Bytes.make (if compress then 12 else 8) '\000' in
  Bytes.set_int32_le hdr 0 (Int32.of_int version);
  output_bytes oc hdr;
  {
    w_oc = oc;
    w_version = version;
    w_block = (if compress then Array.make v3_block_words 0 else [||]);
    w_fill = 0;
    w_index = Buffer.create (if compress then 1024 else 16);
    w_nblocks = 0;
    w_payload = 0;
    w_words = 0;
    w_closed = false;
  }

let writer_flush_v3 w =
  if w.w_fill > 0 then begin
    let len = w.w_fill in
    w.w_fill <- 0;
    let codec, z = v3_pack_block w.w_block ~len in
    v3_entry_write w.w_index
      {
        e_word_off = w.w_words - len;
        e_file_off = 16 + w.w_payload;
        e_len = String.length z;
        e_codec = codec;
        e_crc = Compress.crc32 z;
      };
    w.w_nblocks <- w.w_nblocks + 1;
    output_string w.w_oc z;
    w.w_payload <- w.w_payload + String.length z
  end

(* Reject words outside the 32-bit trace-word range, naming the first by
   its stream index ([first] + position), and a stream past the cap. *)
let check_words ~first (words : int array) ~len =
  for i = 0 to len - 1 do
    let v = words.(i) in
    if v < 0 || v > 0xFFFFFFFF then
      invalid_arg
        (Printf.sprintf
           "Tracefile.write: word %d (0x%x) outside the 32-bit trace-word \
            range"
           (first + i) v)
  done;
  if first + len > max_words then
    invalid_arg
      (Printf.sprintf "Tracefile.write: trace exceeds the %d-word cap"
         max_words)

let write w (words : int array) ~len =
  if w.w_closed then invalid_arg "Tracefile.write: writer is closed";
  check_words ~first:w.w_words words ~len;
  if w.w_version = 3 then begin
    (* fill the pending block; flush whenever it reaches the block size,
       so boundaries depend only on the word stream *)
    let pos = ref 0 in
    while !pos < len do
      let k = min (v3_block_words - w.w_fill) (len - !pos) in
      Array.blit words !pos w.w_block w.w_fill k;
      w.w_fill <- w.w_fill + k;
      w.w_words <- w.w_words + k;
      pos := !pos + k;
      if w.w_fill = v3_block_words then writer_flush_v3 w
    done
  end
  else begin
    let buf = Bytes.create (len * 4) in
    for i = 0 to len - 1 do
      Bytes.set_int32_le buf (i * 4) (Int32.of_int words.(i))
    done;
    output_bytes w.w_oc buf;
    w.w_words <- w.w_words + len
  end

let close_writer w =
  if not w.w_closed then begin
    w.w_closed <- true;
    Fun.protect
      ~finally:(fun () -> close_out w.w_oc)
      (fun () ->
        if w.w_version = 3 then begin
          writer_flush_v3 w;
          (* trailer: index entries, then block count + index CRC + magic
             — so an empty trace is a header plus an empty trailer, and
             still a structurally valid v3 file *)
          let ib = Buffer.contents w.w_index in
          output_string w.w_oc ib;
          let fb = Bytes.create v3_footer_bytes in
          Bytes.set_int32_le fb 0 (Int32.of_int w.w_nblocks);
          Bytes.set_int32_le fb 4 (Int32.of_int (Compress.crc32 ib));
          Bytes.blit_string index_magic 0 fb 8 4;
          output_bytes w.w_oc fb
        end;
        seek_out w.w_oc 8;
        let tl = Bytes.create (if w.w_version = 1 then 4 else 8) in
        Bytes.set_int32_le tl 0 (Int32.of_int w.w_words);
        if w.w_version <> 1 then
          Bytes.set_int32_le tl 4 (Int32.of_int w.w_payload);
        output_bytes w.w_oc tl)
  end;
  w.w_words

let save ?compress path (words : int array) =
  (* checked before the file is opened, so a bad word leaves whatever
     is at [path] untouched *)
  check_words ~first:0 words ~len:(Array.length words);
  let w = open_writer ?compress path in
  Fun.protect
    ~finally:(fun () -> ignore (close_writer w : int))
    (fun () -> write w words ~len:(Array.length words))

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)

(* Shared header parse: returns (version, word count, file length).
   Raises [Bad_file] on anything structurally wrong. *)
let read_header ic ~path =
  let bad fmt =
    Printf.ksprintf (fun m -> raise (Bad_file (path ^ ": " ^ m))) fmt
  in
  let file_len = in_channel_length ic in
  let m = really_input_string ic 4 in
  if m <> magic then bad "not a trace file";
  let hdr = Bytes.create 8 in
  really_input ic hdr 0 8;
  let v = Int32.to_int (Bytes.get_int32_le hdr 0) in
  let n = Int32.to_int (Bytes.get_int32_le hdr 4) in
  if n < 0 then bad "negative length";
  if n > max_words then bad "word count %d exceeds the %d-word cap" n max_words;
  (v, n, file_len)

let load path : int array =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let bad fmt =
        Printf.ksprintf (fun m -> raise (Bad_file (path ^ ": " ^ m))) fmt
      in
      try
        let v, n, file_len = read_header ic ~path in
        match v with
        | 1 ->
          (* Validate the count against the bytes actually present before
             allocating [n * 4]: a corrupt count must not cost memory. *)
          if file_len - 12 < n * 4 then
            bad "truncated: header claims %d words, file holds %d bytes of \
                 payload"
              n (file_len - 12);
          let buf = Bytes.create (n * 4) in
          really_input ic buf 0 (n * 4);
          Array.init n (fun i ->
              Int32.to_int (Bytes.get_int32_le buf (i * 4)) land 0xFFFFFFFF)
        | 2 ->
          let lenb = Bytes.create 4 in
          really_input ic lenb 0 4;
          let len = Int32.to_int (Bytes.get_int32_le lenb 0) in
          if len < 0 then bad "negative payload";
          if file_len - 16 < len then
            bad "truncated: header claims %d payload bytes, file holds %d" len
              (file_len - 16);
          let payload = really_input_string ic len in
          (try Compress.unpack ~expect:n payload
           with Compress.Corrupt msg -> bad "%s" msg)
        | 3 ->
          let _payload, entries = v3_read_index ic ~file_len ~path ~n in
          let out = Array.make n 0 in
          Array.iteri
            (fun k e ->
              let words = v3_read_block ic entries ~n ~path k in
              Array.blit words 0 out e.e_word_off (Array.length words))
            entries;
          out
        | v -> bad "version %d unsupported" v
      with
      | End_of_file -> bad "truncated file"
      | Invalid_argument _ -> bad "malformed header")

(* Exceptions raised by the caller's [f] must escape the folds as
   themselves, not be swallowed into [Bad_file] by the totality net
   below. *)
exception Escape of exn

(* Raised internally when [?until] is satisfied: the remaining tail is
   not read (that is the point of stopping early), so a corrupt tail
   past the window goes unreported. *)
exception Early_stop

let check_window ~from ~until =
  if from < 0 then invalid_arg "Tracefile: negative ?from";
  match until with
  | Some u when u < from -> invalid_arg "Tracefile: ?until before ?from"
  | _ -> ()

let fold_words ?(chunk_words = 65536) ?(from = 0) ?until path ~init ~f =
  if chunk_words <= 0 then
    invalid_arg "Tracefile.fold_words: chunk_words must be positive";
  check_window ~from ~until;
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let bad fmt =
        Printf.ksprintf (fun m -> raise (Bad_file (path ^ ": " ^ m))) fmt
      in
      let acc = ref init in
      let apply chunk len =
        match f !acc chunk ~len with
        | a -> acc := a
        | exception e -> raise (Escape e)
      in
      try
        let v, n, file_len = read_header ic ~path in
        let until = match until with Some u -> min u n | None -> n in
        let from = min from n in
        (match v with
        | 1 ->
          if file_len - 12 < n * 4 then
            bad
              "truncated: header claims %d words, file holds %d bytes of \
               payload"
              n (file_len - 12);
          (* raw words: seek straight to the window *)
          seek_in ic (12 + (from * 4));
          let want = until - from in
          let chunk = Array.make (max 1 (min chunk_words (max want 1))) 0 in
          let buf = Bytes.create (Array.length chunk * 4) in
          let remaining = ref want in
          while !remaining > 0 do
            let k = min (Array.length chunk) !remaining in
            really_input ic buf 0 (k * 4);
            for i = 0 to k - 1 do
              chunk.(i) <-
                Int32.to_int (Bytes.get_int32_le buf (i * 4)) land 0xFFFFFFFF
            done;
            apply chunk k;
            remaining := !remaining - k
          done
        | 2 ->
          let lenb = Bytes.create 4 in
          really_input ic lenb 0 4;
          let len = Int32.to_int (Bytes.get_int32_le lenb 0) in
          if len < 0 then bad "negative payload";
          if file_len - 16 < len then
            bad "truncated: header claims %d payload bytes, file holds %d" len
              (file_len - 16);
          (* forward-only stream: decode from the start, emit only the
             window, stop once [until] words have been seen — unless the
             window runs to the end, which decodes the whole stream so
             its end-of-stream checks run, as in [load] *)
          let chunk = Array.make chunk_words 0 in
          let fill = ref 0 in
          let seen = ref 0 in
          let flush () =
            if !fill > 0 then begin
              let k = !fill in
              fill := 0;
              apply chunk k
            end
          in
          let emit_word w =
            if !seen >= from && !seen < until then begin
              chunk.(!fill) <- w;
              incr fill;
              if !fill = chunk_words then flush ()
            end;
            incr seen;
            if !seen >= until && until < n then begin
              flush ();
              raise Early_stop
            end
          in
          let d = Compress.decoder ~expect:n ~emit:emit_word () in
          let lz_limit = (n * Compress.max_delta_bytes_per_word) + 16 in
          let z =
            Compress.lz_decoder ~limit:lz_limit ~emit:(Compress.decode_byte d)
              ()
          in
          (try
             let left = ref len in
             while !left > 0 do
               let k = min !left 65536 in
               let s = really_input_string ic k in
               Compress.lz_decode_bytes z s ~pos:0 ~len:k;
               left := !left - k
             done;
             Compress.lz_decode_finish z;
             Compress.decode_finish d
           with
          | Compress.Corrupt msg -> bad "%s" msg
          | Early_stop -> ());
          flush ()
        | 3 ->
          let _payload, entries = v3_read_index ic ~file_len ~path ~n in
          let nblocks = Array.length entries in
          (* binary search for the block covering [from] *)
          let first =
            let lo = ref 0 and hi = ref nblocks in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              let e = entries.(mid) in
              if e.e_word_off + v3_entry_words entries ~n mid <= from then
                lo := mid + 1
              else hi := mid
            done;
            !lo
          in
          let k = ref first in
          while
            !k < nblocks && entries.(!k).e_word_off < until
          do
            let e = entries.(!k) in
            let words = v3_read_block ic entries ~n ~path !k in
            let nw = Array.length words in
            (* clip the block to the window, then re-chunk *)
            let lo = max 0 (from - e.e_word_off) in
            let hi = min nw (until - e.e_word_off) in
            let pos = ref lo in
            while !pos < hi do
              let c = min chunk_words (hi - !pos) in
              let slice =
                if !pos = 0 && c = nw then words else Array.sub words !pos c
              in
              apply slice c;
              pos := !pos + c
            done;
            incr k
          done
        | v -> bad "version %d unsupported" v);
        !acc
      with
      | Escape e -> raise e
      | End_of_file -> bad "truncated file"
      | Invalid_argument _ -> bad "malformed header")

(* Parallel block decode.  v3 blocks are self-contained, so they decode
   concurrently on the domain pool; [f] still runs on the calling domain
   in stream order, so the fold is observationally identical to
   {!fold_words} — only the decode is parallel.  Blocks are read and
   decoded in batches of a few per worker, so peak memory is
   O(jobs * block), not O(trace).  v1/v2 files fall back to the
   sequential reader unchanged. *)
let fold_blocks_parallel ?jobs path ~init ~f =
  let jobs =
    match jobs with Some j -> j | None -> Systrace_util.Pool.default_jobs ()
  in
  if jobs <= 0 then
    invalid_arg "Tracefile.fold_blocks_parallel: jobs must be positive";
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let bad fmt =
        Printf.ksprintf (fun m -> raise (Bad_file (path ^ ": " ^ m))) fmt
      in
      try
        let v, n, file_len = read_header ic ~path in
        if v <> 3 then begin
          close_in ic;
          fold_words path ~init ~f
        end
        else begin
          let _payload, entries = v3_read_index ic ~file_len ~path ~n in
          let nblocks = Array.length entries in
          let acc = ref init in
          let apply chunk len =
            match f !acc chunk ~len with
            | a -> acc := a
            | exception e -> raise (Escape e)
          in
          let batch = max 1 (jobs * 2) in
          let k = ref 0 in
          while !k < nblocks do
            let b = min batch (nblocks - !k) in
            (* read the packed bytes sequentially (one channel), decode
               on the pool, then fold in order *)
            let packed =
              List.init b (fun i ->
                  let e = entries.(!k + i) in
                  seek_in ic e.e_file_off;
                  (!k + i, really_input_string ic e.e_len))
            in
            let decoded =
              try
                Systrace_util.Pool.map ~jobs
                  (fun (idx, z) ->
                    let e = entries.(idx) in
                    if Compress.crc32 z <> e.e_crc then
                      raise
                        (Compress.Corrupt
                           (Printf.sprintf "block %d CRC mismatch" idx));
                    v3_decode_block ~codec:e.e_codec
                      ~expect:(v3_entry_words entries ~n idx)
                      z)
                  packed
              with Compress.Corrupt msg -> bad "%s" msg
            in
            List.iter (fun words -> apply words (Array.length words)) decoded;
            k := !k + b
          done;
          !acc
        end
      with
      | Escape e -> raise e
      | End_of_file -> bad "truncated file"
      | Invalid_argument _ -> bad "malformed header")

(* Extract the window [from, until) of a stored trace into a fresh v3
   trace file, decoding only the covering blocks (the `systrace slice`
   back end).  Returns the number of words written. *)
let slice ?from ?until src dst =
  let w = open_writer ~compress:true dst in
  Fun.protect
    ~finally:(fun () -> ignore (close_writer w : int))
    (fun () ->
      fold_words ?from ?until src ~init:() ~f:(fun () words ~len ->
          write w words ~len));
  w.w_words
