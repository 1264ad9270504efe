(* Delta/varint compression of trace word streams.

   The paper's trace volumes are the central engineering constraint: a
   64 MB kernel buffer holds about two seconds of execution, and §3.5
   justifies the one-word format because "it makes the trace more concise,
   so the trace takes less space and less time to write".  When a trace
   leaves the machine — the Tunix tapes of §3.4, or this repository's
   `systrace dump` — the same pressure applies to the stored bytes.

   The scheme here is the classic address-trace compressor in the PDATS
   family (Johnson & Ha, 1994): consecutive trace words are highly
   correlated — block records repeat around loops, data addresses walk
   arrays in fixed strides, markers cluster — so we store the difference
   from the previous word, zigzag-mapped to favour small magnitudes,
   varint-encoded (7 bits per byte), with a run-length extension for
   repeated deltas (a stride walking an array becomes a single token).

   Token format, self-describing:
     varint( zigzag(delta) * 2 + has_run )
     if has_run: varint(extra)     -- the delta repeats [extra] more times

   The format is lossless and order-preserving: [decode (encode w) = w]
   for every word sequence, checked by a qcheck property and by a
   roundtrip of a real captured trace in the test suite. *)

(* Deltas are differences of 32-bit words, reduced to the signed 32-bit
   range so that a wraparound (e.g. a marker in kseg1 followed by a low
   user text address) still yields a small-ish magnitude. *)
let mask32 = 0xFFFFFFFF

let delta32 cur prev =
  let d = (cur - prev) land mask32 in
  if d land 0x80000000 <> 0 then d - 0x100000000 else d

let zigzag d = if d < 0 then ((-d) lsl 1) - 1 else d lsl 1
let unzigzag z = if z land 1 = 1 then -((z + 1) lsr 1) else z lsr 1

let put_varint buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7F)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

exception Corrupt of string

(* The one delta/varint encoder, incremental: callers may hand it a
   stream one chunk at a time.  The state carried across calls is the
   previous raw word plus the pending maximal-delta run, so the emitted
   bytes are identical no matter how the words were split into chunks.
   [encode] below is the whole-array wrapper. *)

type encoder = {
  mutable e_prev : int;  (* last raw word seen *)
  mutable e_delta : int;  (* delta shared by the pending run *)
  mutable e_count : int;  (* pending run length; 0 = nothing pending *)
}

let encoder () = { e_prev = 0; e_delta = 0; e_count = 0 }

let encoder_flush e buf =
  if e.e_count > 0 then begin
    if e.e_count > 1 then begin
      put_varint buf ((zigzag e.e_delta lsl 1) lor 1);
      put_varint buf (e.e_count - 1)
    end
    else put_varint buf (zigzag e.e_delta lsl 1);
    e.e_count <- 0
  end

let encode_chunk e buf (words : int array) ~len =
  for k = 0 to len - 1 do
    let w = words.(k) in
    let d = delta32 w e.e_prev in
    e.e_prev <- w;
    if e.e_count > 0 && d = e.e_delta then e.e_count <- e.e_count + 1
    else begin
      encoder_flush e buf;
      e.e_delta <- d;
      e.e_count <- 1
    end
  done

let encode_finish = encoder_flush

let encode (words : int array) : string =
  let n = Array.length words in
  let buf = Buffer.create ((n * 2) + 16) in
  let e = encoder () in
  encode_chunk e buf words ~len:n;
  encode_finish e buf;
  Buffer.contents buf

(* Without this bound a hostile run-length token could claim a
   multi-billion-word run and exhaust memory before any structural check
   fires; 2^26 words (256 MiB decoded) is beyond any real capture — the
   paper's largest kernel buffer is 64 MB — and callers with a trusted
   word count should pass [?expect], which bounds the decode exactly. *)
let max_decoded_words = 1 lsl 26

(* Incremental decoder: a byte-at-a-time state machine over the varint
   token stream, emitting words through a callback so the caller never
   holds more than its own chunk.  The carried state is the partially
   accumulated varint (acc/shift), a completed run token still waiting
   for its count varint, and the predictor word.  The checks — and their
   messages — are the batch decoder's, in the same order. *)

type decoder = {
  d_emit : int -> unit;
  d_limit : int;
  d_expect : int option;
  mutable d_acc : int;  (* varint accumulated so far *)
  mutable d_shift : int;  (* next continuation byte's shift; 0 = idle *)
  mutable d_tok : int;  (* run token awaiting its count varint; -1 = none *)
  mutable d_prev : int;
  mutable d_emitted : int;
}

let decoder ?expect ~emit () =
  let limit = match expect with Some e -> e | None -> max_decoded_words in
  {
    d_emit = emit;
    d_limit = limit;
    d_expect = expect;
    d_acc = 0;
    d_shift = 0;
    d_tok = -1;
    d_prev = 0;
    d_emitted = 0;
  }

let decoder_run d delta count =
  d.d_emitted <- d.d_emitted + count;
  if d.d_emitted > d.d_limit then
    raise (Corrupt (Printf.sprintf "decoded stream exceeds %d words" d.d_limit));
  for _ = 1 to count do
    d.d_prev <- (d.d_prev + delta) land mask32;
    d.d_emit d.d_prev
  done

let decode_byte d c =
  if d.d_shift > 62 then raise (Corrupt "varint overflow");
  let b = Char.code c in
  let acc = d.d_acc lor ((b land 0x7F) lsl d.d_shift) in
  if acc < 0 then raise (Corrupt "varint overflow");
  if b land 0x80 <> 0 then begin
    d.d_acc <- acc;
    d.d_shift <- d.d_shift + 7
  end
  else begin
    d.d_acc <- 0;
    d.d_shift <- 0;
    if d.d_tok >= 0 then begin
      (* [acc] is the extra-repeat count of the pending run token *)
      let tok = d.d_tok in
      d.d_tok <- -1;
      decoder_run d (unzigzag (tok lsr 1)) (acc + 1)
    end
    else if acc land 1 = 1 then d.d_tok <- acc
    else decoder_run d (unzigzag (acc lsr 1)) 1
  end

let decode_bytes d (s : string) ~pos ~len =
  for i = pos to pos + len - 1 do
    decode_byte d s.[i]
  done

let decode_finish d =
  if d.d_shift > 0 || d.d_tok >= 0 then raise (Corrupt "truncated varint");
  match d.d_expect with
  | Some e when e <> d.d_emitted ->
    raise (Corrupt (Printf.sprintf "decoded %d words, expected %d" d.d_emitted e))
  | _ -> ()

(* Words are decoded straight into the result array.  It starts at a
   size the input can plausibly fill (never above [expect], which the
   decoder cannot exceed), so a lying [expect] costs no up-front
   allocation, and doubles when runs outgrow it. *)
let decode ?expect (s : string) : int array =
  let len = String.length s in
  let bound = match expect with Some e -> max e 0 | None -> max_int in
  let out = ref (Array.make (min bound ((2 * len) + 16)) 0) in
  let n = ref 0 in
  let d =
    decoder ?expect
      ~emit:(fun w ->
        if !n = Array.length !out then begin
          let grown = Array.make (min bound (2 * !n)) 0 in
          Array.blit !out 0 grown 0 !n;
          out := grown
        end;
        Array.unsafe_set !out !n w;
        incr n)
      ()
  in
  decode_bytes d s ~pos:0 ~len;
  decode_finish d;
  if !n = Array.length !out then !out else Array.sub !out 0 !n

(* ------------------------------------------------------------------ *)
(* LZSS layer.

   Delta/varint alone only exploits *constant* strides; the dominant
   redundancy in a real system trace is repeating delta *sequences* —
   every loop iteration emits the same few block-record deltas.  The
   Mache compressor (Samples 1989) attacked exactly this by piping the
   per-stream deltas through LZ, and the paper's community shipped its
   Tunix tapes through compress(1).  This is that second stage: LZSS with
   a 32KB window over the delta byte stream.

   Wire format: groups of exactly 8 items, each group led by a control
   byte (bit i set = item i is a match).  A literal is one raw byte; a
   match is a 2-byte little-endian back-distance (1..65535, <= bytes
   emitted) and a 1-byte length-minus-4 (matches span 4..259 bytes and
   may self-overlap, RLE-style).  A distance of 0 is a padding item the
   decoder skips: the packer fills the final group with them so every
   complete stream is group-aligned — which makes the concatenation of
   complete streams itself a valid stream, the property version-2
   {!Tracefile} files written in ~1 MB LZSS blocks rely on. *)

let lz_min_match = 4
let lz_max_match = 259
let lz_max_dist = 65535
let lz_hist_size = 65536 (* power of two > lz_max_dist *)
let lz_hash_bits = 15

(* Match-finder tuning.  [lz_max_tries] bounds the hash-chain walk per
   position; [lz_nice_len] is the "good enough" length — once a match
   this long is found the walk stops, because the marginal ratio gain of
   a longer one never pays for the remaining chain probes on trace
   deltas (loop bodies repeat in short bursts, not megabyte runs).
   [lz_max_insert] caps how many positions inside an emitted match are
   registered in the hash chains: trace matches average ~8 bytes, and
   hashing every covered byte was the single largest cost in the packer
   while the tail positions of a match add chain depth, not new matches
   (measured: full insertion buys ~0.5% ratio for ~25% more time). *)
let lz_max_tries = 16
let lz_nice_len = 64
let lz_max_insert = 2

(* Unaligned 16-bit load: an unboxed compiler intrinsic, so the match
   scan compares two bytes per step and the 4-byte hash needs two loads
   instead of four.  Native-endian, which only perturbs hash bucketing
   (which match gets chosen), never decoded bytes — the emitted token
   format is byte-order-defined. *)
external get16u : string -> int -> int = "%caml_string_get16u"

(* Per-domain scratch for the LZSS stage.  A v3 file packs and unpacks
   one block after another; the match finder's hash head and chain, the
   packer's output buffer, the unpacker's history ring and its output
   are reused from block to block instead of being allocated for each.
   Domains never share one, but the systhreads of one domain do: the
   codecs must not run in two threads of one domain at once.  Nothing
   returned to a caller aliases the scratch.  Buffers beyond
   [scratch_cap] (whole-trace v2 payloads) are allocated for the one
   call and not kept. *)
type lz_scratch = {
  head : int array;
  mutable chain : int array;
  mutable packed : Bytes.t;
  ring : Bytes.t;
  mutable unpacked : Bytes.t;
}

let scratch_cap = 1 lsl 20

let lz_scratch =
  Domain.DLS.new_key (fun () ->
      {
        head = Array.make (1 lsl lz_hash_bits) (-1);
        chain = [||];
        packed = Bytes.empty;
        ring = Bytes.create lz_hist_size;
        unpacked = Bytes.empty;
      })

let lzss_pack (src : string) : string =
  let n = String.length src in
  let sc = Domain.DLS.get lz_scratch in
  (* Exact worst case: all-literal output is [n] item bytes plus one
     control byte per 8 items, and the tail pad adds at most 7 dist-0
     items (21 bytes) plus one control byte — so a fixed buffer of
     [n + n/8 + 32] can never overflow and the hot loop carries no
     growth checks at all. *)
  let out =
    let need = n + (n lsr 3) + 32 in
    if Bytes.length sc.packed >= need then sc.packed
    else begin
      let b = Bytes.create need in
      if need <= scratch_cap then sc.packed <- b;
      b
    end
  in
  let o = ref 0 in
  (* pending group: control byte is patched in place when the group
     closes, so items stream straight into [out] with no staging buffer *)
  let ctrl_pos = ref 0 and ctrl = ref 0 and nitems = ref 0 in
  let close_group () =
    Bytes.unsafe_set out !ctrl_pos (Char.unsafe_chr !ctrl);
    ctrl := 0;
    nitems := 0
  in
  let add_literal c =
    if !nitems = 0 then begin
      ctrl_pos := !o;
      incr o
    end;
    Bytes.unsafe_set out !o c;
    incr o;
    incr nitems;
    if !nitems = 8 then close_group ()
  in
  let add_match dist len =
    if !nitems = 0 then begin
      ctrl_pos := !o;
      incr o
    end;
    ctrl := !ctrl lor (1 lsl !nitems);
    Bytes.unsafe_set out !o (Char.unsafe_chr (dist land 0xFF));
    Bytes.unsafe_set out (!o + 1) (Char.unsafe_chr (dist lsr 8));
    Bytes.unsafe_set out (!o + 2) (Char.unsafe_chr (len - lz_min_match));
    o := !o + 3;
    incr nitems;
    if !nitems = 8 then close_group ()
  in
  let hmask = (1 lsl lz_hash_bits) - 1 in
  let head = sc.head in
  Array.fill head 0 (Array.length head) (-1);
  (* every chain slot read was written by this call's [insert] first,
     so a reused chain needs no clearing *)
  let chain =
    if Array.length sc.chain >= n then sc.chain
    else begin
      let c = Array.make n (-1) in
      if n <= scratch_cap then sc.chain <- c;
      c
    end
  in
  (* 4-byte multiplicative hash (Fibonacci constant); one multiply on
     the packed word beats the per-byte mix it replaces, and quality is
     equivalent for chain bucketing.  Caller guarantees [i + 4 <= n]. *)
  let hash i =
    ((get16u src i lor (get16u src (i + 2) lsl 16)) * 0x9E3779B1)
    lsr 16
    land hmask
  in
  (* last position with 4 bytes of lookahead, i.e. the last hashable one *)
  let hash_end = n - lz_min_match in
  let insert i =
    if i <= hash_end then begin
      let h = hash i in
      Array.unsafe_set chain i (Array.unsafe_get head h);
      Array.unsafe_set head h i
    end
  in
  let i = ref 0 in
  while !i < n do
    let best_len = ref 0 and best_pos = ref (-1) in
    if !i + lz_min_match <= n then begin
      let pos = !i in
      let lim = if lz_max_match < n - pos then lz_max_match else n - pos in
      let nice = if lz_nice_len < lim then lz_nice_len else lim in
      (* chains run newest-to-oldest, so the first candidate past the
         window ends the walk — no per-candidate distance re-check *)
      let min_pos = pos - lz_max_dist in
      let cand = ref (Array.unsafe_get head (hash pos)) in
      let tries = ref lz_max_tries in
      let continue = ref true in
      while !continue && !cand >= min_pos && !cand >= 0 && !tries > 0 do
        let c = !cand in
        (* quick reject: a candidate that can't beat [best_len] differs
           at offset [best_len]; one compare skips the whole scan.
           [best_len < nice <= lim] here, so both indices are in range. *)
        if
          !best_len = 0
          || String.unsafe_get src (c + !best_len)
             = String.unsafe_get src (pos + !best_len)
        then begin
          (* two bytes per compare; the trailing odd byte is settled by
             one final char test (the 16-bit miss pins the mismatch to
             one of the two bytes, so the char test is exact) *)
          let k = ref 0 in
          while !k + 1 < lim && get16u src (c + !k) = get16u src (pos + !k) do
            k := !k + 2
          done;
          if
            !k < lim
            && String.unsafe_get src (c + !k) = String.unsafe_get src (pos + !k)
          then incr k;
          if !k > !best_len then begin
            best_len := !k;
            best_pos := c;
            if !k >= nice then continue := false
          end
        end;
        cand := Array.unsafe_get chain c;
        decr tries
      done
    end;
    if !best_len >= lz_min_match then begin
      add_match (!i - !best_pos) !best_len;
      (* register covered positions, bounds check hoisted; for matches
         longer than [lz_max_insert] only the head region is hashed —
         the tail of a long repeat adds chain depth, not new matches *)
      let ins = if !best_len < lz_max_insert then !best_len else lz_max_insert in
      let stop =
        if !i + ins - 1 < hash_end then !i + ins - 1 else hash_end
      in
      for k = !i to stop do
        let h = hash k in
        Array.unsafe_set chain k (Array.unsafe_get head h);
        Array.unsafe_set head h k
      done;
      i := !i + !best_len
    end
    else begin
      add_literal (String.unsafe_get src !i);
      insert !i;
      incr i
    end
  done;
  (* group-align the tail with padding items (dist-0 matches, skipped by
     the decoder), so complete streams concatenate into valid streams *)
  if !nitems > 0 then begin
    while !nitems < 8 do
      ctrl := !ctrl lor (1 lsl !nitems);
      Bytes.unsafe_set out !o '\000';
      Bytes.unsafe_set out (!o + 1) '\000';
      Bytes.unsafe_set out (!o + 2) '\000';
      o := !o + 3;
      incr nitems
    done;
    close_group ()
  end;
  Bytes.sub_string out 0 !o

(* The LZSS stage expands at most ~65x (a 4-byte match token yields up to
   259 bytes), but a hostile stream still reaches gigabytes from a modest
   input; [limit] bounds the decompressed size so corruption surfaces as
   [Corrupt] before the allocation, not as OOM.  The default admits the
   largest stream {!decode} would accept anyway. *)
let max_delta_bytes_per_word = 10 (* 5-byte token + 5-byte run varint *)

(* Incremental LZSS decoder.  Matches reach back at most [lz_max_dist]
   bytes, so a 64K ring of recent output is a complete history — the
   decoder never holds the decompressed stream, only the ring plus a
   partially read group (control byte, item index, up to two buffered
   bytes of a split match token).  A chunk boundary may fall anywhere,
   including inside a token.  Dist-0 match items are the packer's
   group-alignment padding and emit nothing; end-of-input between items
   is still accepted for leniency, though the packer always ends on a
   group boundary. *)

type lz_decoder = {
  z_emit : char -> unit;
  z_limit : int;
  z_hist : Bytes.t;  (* ring of the last [lz_hist_size] output bytes *)
  z_tok : Bytes.t;  (* partially received match token *)
  mutable z_ctrl : int;
  mutable z_item : int;  (* 8 = between groups: next byte is a control *)
  mutable z_ntok : int;
  mutable z_total : int;  (* output bytes emitted so far *)
}

let lz_default_limit = max_decoded_words * max_delta_bytes_per_word

(* Every ring byte a match reads was written by the same stream first
   (a distance is at most [lz_max_dist] < [lz_hist_size]), so a reused
   ring needs no clearing. *)
let lz_decoder_on hist ~limit ~emit =
  {
    z_emit = emit;
    z_limit = limit;
    z_hist = hist;
    z_tok = Bytes.create 3;
    z_ctrl = 0;
    z_item = 8;
    z_ntok = 0;
    z_total = 0;
  }

let lz_decoder ?(limit = lz_default_limit) ~emit () =
  lz_decoder_on (Bytes.create lz_hist_size) ~limit ~emit

let lz_out z c =
  if z.z_total >= z.z_limit then
    raise (Corrupt (Printf.sprintf "LZSS stream exceeds %d bytes" z.z_limit));
  Bytes.set z.z_hist (z.z_total land (lz_hist_size - 1)) c;
  z.z_total <- z.z_total + 1;
  z.z_emit c

let lz_decode_byte z c =
  if z.z_item >= 8 then begin
    z.z_ctrl <- Char.code c;
    z.z_item <- 0
  end
  else if z.z_ctrl land (1 lsl z.z_item) <> 0 then begin
    Bytes.set z.z_tok z.z_ntok c;
    z.z_ntok <- z.z_ntok + 1;
    if z.z_ntok = 3 then begin
      z.z_ntok <- 0;
      z.z_item <- z.z_item + 1;
      let dist =
        Char.code (Bytes.get z.z_tok 0)
        lor (Char.code (Bytes.get z.z_tok 1) lsl 8)
      in
      let len = Char.code (Bytes.get z.z_tok 2) + lz_min_match in
      let start = z.z_total - dist in
      if dist = 0 then () (* padding item: group alignment, emits nothing *)
      else if start < 0 then raise (Corrupt "bad LZSS distance")
      else
        (* may self-overlap: copy byte-at-a-time through the ring *)
        for k = 0 to len - 1 do
          lz_out z (Bytes.get z.z_hist ((start + k) land (lz_hist_size - 1)))
        done
    end
  end
  else begin
    lz_out z c;
    z.z_item <- z.z_item + 1
  end

let lz_decode_bytes z (s : string) ~pos ~len =
  for i = pos to pos + len - 1 do
    lz_decode_byte z s.[i]
  done

let lz_decode_finish z =
  if z.z_ntok > 0 then raise (Corrupt "truncated LZSS stream")

(* Whole-stream unpack: the incremental decoder, run on the domain's
   ring and writing into the domain's output buffer; only the sized
   result is fresh. *)
let lzss_unpack ?(limit = lz_default_limit) (src : string) : string =
  let sc = Domain.DLS.get lz_scratch in
  let out = ref sc.unpacked and o = ref 0 in
  let emit c =
    if !o = Bytes.length !out then begin
      (* a fresh buffer starts at 3x the packed size, a typical ratio *)
      let b = Bytes.create (max (2 * !o) ((3 * String.length src) + 16)) in
      Bytes.blit !out 0 b 0 !o;
      if Bytes.length b <= scratch_cap then sc.unpacked <- b;
      out := b
    end;
    Bytes.unsafe_set !out !o c;
    incr o
  in
  let z = lz_decoder_on sc.ring ~limit ~emit in
  lz_decode_bytes z src ~pos:0 ~len:(String.length src);
  lz_decode_finish z;
  Bytes.sub_string !out 0 !o

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected 0xEDB88320), table-driven.

   The v3 {!Tracefile} trailer stores one CRC per compressed block plus
   one over the index itself, so a seeking reader can tell "this block
   rotted on disk" apart from "this index is lying" before it decodes
   anything.  Plain OCaml ints; the 32-bit result is always
   non-negative. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_update crc (s : string) ~pos ~len =
  let t = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_update 0 s ~pos:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Semantic preconditioning (v3 codec 1).

   The delta stage above treats the trace as one undifferentiated word
   sequence, so every kernel-word/user-word/marker interleave lands a
   huge delta that costs 5 varint bytes and breaks the run detector.
   But trace words HAVE structure the generic stage cannot see (the HMTT
   "semantic gap"): markers cluster in a 64KB window, basic-block words
   walk program text in small PC deltas, data addresses walk arrays in
   fixed strides — each a beautifully compressible stream on its own,
   ruined only by being shuffled together.

   So: classify each word by the address-space region that produced it
   (plus the drain protocol's count words, which are small integers, not
   addresses), run-length encode the class sequence, and delta/varint
   each class's words against its OWN predecessor.  PC-deltas stay small
   because no data address intervenes; array strides become run tokens
   because the stride is uninterrupted.  The classifier is heuristic and
   encoder-only — the class runs are recorded on the wire, so a
   misclassified word costs ratio, never correctness, and the decoder
   needs no block tables.

   Body layout (before the LZSS stage):

     varint(nruns)
     nruns x varint((run_length - 1) * 8 + class)
     nclasses x varint(stream_bytes)
     the class streams, concatenated in class order

   Each class stream is exactly the incremental {!encoder}'s token
   stream, started fresh (prev = 0), so blocks decode independently. *)

let n_classes = 6

(* Classes: 0 markers, 1 drain-count words, 2 user text (bb records),
   3 user data/stack, 4 kseg0 (kernel text + data), 5 kseg1/kseg2
   (devices, page tables).  The split points are the address-space
   layout of the traced system; a foreign trace still round-trips, just
   with whatever ratio its own layout earns. *)
let class_of ~count_next w =
  if count_next then 1
  else if Format_.is_marker w then 0
  else if w < 0x10000000 then 2
  else if w < 0x80000000 then 3
  else if w < 0xA0000000 then 4
  else 5

let encode_semantic (words : int array) ~pos ~len : string =
  let runs = Buffer.create 256 in
  let streams = Array.init n_classes (fun _ -> Buffer.create 256) in
  let encs = Array.init n_classes (fun _ -> encoder ()) in
  let nruns = ref 0 in
  let run_class = ref (-1) and run_len = ref 0 in
  let close_run () =
    if !run_len > 0 then begin
      put_varint runs (((!run_len - 1) lsl 3) lor !run_class);
      incr nruns
    end
  in
  let count_next = ref false in
  for i = pos to pos + len - 1 do
    let w = words.(i) in
    let c = class_of ~count_next:!count_next w in
    count_next :=
      (not !count_next) && Format_.is_marker w
      && Format_.marker_kind w = Format_.kind_drain;
    if c = !run_class then incr run_len
    else begin
      close_run ();
      run_class := c;
      run_len := 1
    end;
    let e = encs.(c) and buf = streams.(c) in
    let d = delta32 w e.e_prev in
    e.e_prev <- w;
    if e.e_count > 0 && d = e.e_delta then e.e_count <- e.e_count + 1
    else begin
      encoder_flush e buf;
      e.e_delta <- d;
      e.e_count <- 1
    end
  done;
  close_run ();
  Array.iteri (fun c e -> encoder_flush e streams.(c)) encs;
  let out =
    Buffer.create
      (Buffer.length runs
      + Array.fold_left (fun a b -> a + Buffer.length b) 64 streams)
  in
  put_varint out !nruns;
  Buffer.add_buffer out runs;
  Array.iter (fun b -> put_varint out (Buffer.length b)) streams;
  Array.iter (fun b -> Buffer.add_buffer out b) streams;
  Buffer.contents out

(* The decoder's per-run and per-class arrays, reused block to block
   like {!lz_scratch} (and kept only up to [scratch_cap] words). *)
type sem_scratch = { mutable runs : int array; cls : int array array }

let sem_scratch =
  Domain.DLS.new_key (fun () ->
      { runs = [||]; cls = Array.make n_classes [||] })

let reuse_ints a n =
  if Array.length a >= n then a else Array.make (max n 1) 0

let decode_semantic ~expect (s : string) : int array =
  let n = String.length s in
  let sc = Domain.DLS.get sem_scratch in
  let p = ref 0 in
  let get_varint () =
    let acc = ref 0 and shift = ref 0 and fin = ref false in
    while not !fin do
      if !p >= n then raise (Corrupt "semantic block: truncated varint");
      if !shift > 62 then raise (Corrupt "semantic block: varint overflow");
      let b = Char.code s.[!p] in
      incr p;
      acc := !acc lor ((b land 0x7F) lsl !shift);
      if !acc < 0 then raise (Corrupt "semantic block: varint overflow");
      if b land 0x80 = 0 then fin := true else shift := !shift + 7
    done;
    !acc
  in
  let nruns = get_varint () in
  if nruns > expect then
    raise
      (Corrupt
         (Printf.sprintf "semantic block: %d runs for %d words" nruns expect));
  (* one word per run: its length above 3 bits of class *)
  let runs = reuse_ints sc.runs nruns in
  if Array.length runs <= scratch_cap then sc.runs <- runs;
  let counts = Array.make n_classes 0 in
  let total = ref 0 in
  for r = 0 to nruns - 1 do
    let tok = get_varint () in
    let c = tok land 7 and l = (tok lsr 3) + 1 in
    if c >= n_classes then raise (Corrupt "semantic block: bad class");
    runs.(r) <- (l lsl 3) lor c;
    counts.(c) <- counts.(c) + l;
    total := !total + l;
    if !total > expect then
      raise
        (Corrupt
           (Printf.sprintf "semantic block: runs cover %d words, expected %d"
              !total expect))
  done;
  if !total <> expect then
    raise
      (Corrupt
         (Printf.sprintf "semantic block: runs cover %d words, expected %d"
            !total expect));
  let lens = Array.init n_classes (fun _ -> get_varint ()) in
  let start = Array.make n_classes 0 in
  let off = ref !p in
  Array.iteri
    (fun c l ->
      start.(c) <- !off;
      if l < 0 || !off + l > n then
        raise (Corrupt "semantic block: stream lengths exceed block");
      off := !off + l)
    lens;
  if !off <> n then raise (Corrupt "semantic block: trailing bytes");
  (* decode each class stream into its own array, then interleave *)
  let cls_words =
    Array.init n_classes (fun c ->
        let out = reuse_ints sc.cls.(c) counts.(c) in
        if Array.length out <= scratch_cap then sc.cls.(c) <- out;
        let k = ref 0 in
        let d = decoder ~expect:counts.(c) ~emit:(fun w ->
            out.(!k) <- w;
            incr k) ()
        in
        decode_bytes d s ~pos:start.(c) ~len:lens.(c);
        decode_finish d;
        out)
  in
  let idx = Array.make n_classes 0 in
  let out = Array.make (max expect 1) 0 in
  let o = ref 0 in
  for r = 0 to nruns - 1 do
    let c = runs.(r) land 7 and l = runs.(r) lsr 3 in
    let i = idx.(c) in
    Array.blit cls_words.(c) i out !o l;
    idx.(c) <- i + l;
    o := !o + l
  done;
  if expect = 0 then [||] else out

(* ------------------------------------------------------------------ *)

let pack (words : int array) : string = lzss_pack (encode words)

let unpack ?expect (s : string) : int array =
  let limit =
    match expect with
    | Some e -> (e * max_delta_bytes_per_word) + 16
    | None -> max_decoded_words * max_delta_bytes_per_word
  in
  decode ?expect (lzss_unpack ~limit s)

let ratio (words : int array) : float =
  if Array.length words = 0 then 1.0
  else
    float_of_int (String.length (pack words))
    /. float_of_int (4 * Array.length words)
