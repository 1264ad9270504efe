(** Lossless delta/varint compression of trace word streams, in the PDATS
    family of address-trace compressors: consecutive trace words are
    highly correlated (blocks repeat around loops, data addresses walk
    fixed strides), so each word is stored as a zigzag-varint delta from
    its predecessor, with a run-length extension for repeated strides.

    Used by {!Tracefile}: the delta/varint stage is one of the version-3
    block codecs, and both stages make up the payload of the legacy
    version-2 files the reader still loads.  The [compression] bench
    experiment measures the density win over the raw one-word format
    (paper §3.5: "the trace takes less space and less time to write").

    The whole-buffer codecs ({!lzss_pack}, {!lzss_unpack}, {!unpack},
    {!decode_semantic}) reuse per-domain scratch between calls, so they
    may run in parallel domains but not in two threads of one domain at
    once. *)

exception Corrupt of string
(** Raised by {!decode} on malformed input (truncated or oversized
    varints, word-count mismatch). *)

val encode : int array -> string
(** Delta/varint stage alone: {!encoder}, one {!encode_chunk},
    {!encode_finish}.  Total; never raises. *)

val decode : ?expect:int -> string -> int array
(** Inverse of {!encode}: [decode (encode w) = w] for all [w].
    [?expect] both checks the decoded word count and bounds the decode
    exactly; without it, hostile run-length tokens are cut off at 2^26
    words so corrupt input cannot exhaust memory (fuzzed in the test
    suite).
    @raise Corrupt on malformed input. *)

val lzss_pack : string -> string
(** LZSS stage alone (32KB window, 4..259-byte possibly-overlapping
    matches): catches the repeating delta {e sequences} that loops emit,
    which the delta stage's run-length extension cannot (Mache-style
    second stage). Total; never raises. *)

val lzss_unpack : ?limit:int -> string -> string
(** Inverse of {!lzss_pack}.  [limit] bounds the decompressed size (in
    bytes) so a hostile stream surfaces as {!Corrupt} before the
    allocation, not as OOM; the default admits the largest stream
    {!decode} would accept anyway.
    @raise Corrupt on malformed input or when the output exceeds
    [limit]. *)

val pack : int array -> string
(** Both stages: [lzss_pack (encode words)] — the payload of a
    version-2 {!Tracefile}. *)

val unpack : ?expect:int -> string -> int array
(** Inverse of {!pack}.  With [?expect], both stages are bounded by the
    expected word count (the LZSS stage by the largest delta stream that
    many words can occupy), so a lying header cannot force an oversized
    allocation.
    @raise Corrupt on malformed input. *)

val ratio : int array -> float
(** {!pack}ed bytes over raw bytes ([4 * length]); 1.0 for the empty
    stream. *)

(** {1 Semantic preconditioning (v3 codec)}

    The delta stage treats the trace as one undifferentiated sequence,
    so every kernel/user/marker interleave lands a huge delta and breaks
    the run detector.  Trace words have structure generic LZ cannot see
    (the HMTT "semantic gap"): {!encode_semantic} classifies each word
    by the address-space region that produced it (markers, drain counts,
    user text, user data, kseg0, kseg1/2), run-length encodes the class
    sequence, and delta/varint-encodes each class against its own
    predecessor — PC deltas stay small, array strides become run tokens.
    The classifier is heuristic and encoder-only: class runs are
    recorded on the wire, so a misclassified word costs ratio, never
    correctness.  Used by the version-3 {!Tracefile} blocks (with the
    LZSS stage on top). *)

val encode_semantic : int array -> pos:int -> len:int -> string
(** Precondition [words.(pos .. pos+len-1)].  Self-contained: each call
    starts every per-class predictor fresh, so v3 blocks decode
    independently.  Total; never raises (beyond [Invalid_argument] on a
    bad slice). *)

val decode_semantic : expect:int -> string -> int array
(** Inverse of {!encode_semantic}.  [expect] is the exact word count
    (v3 readers know it from the block index); every structural field —
    run totals, per-class stream lengths, trailing bytes — is validated
    against it before any oversized allocation.
    @raise Corrupt on malformed input. *)

(** {1 CRC-32}

    IEEE 802.3 CRC-32 over bytes, for the v3 {!Tracefile} block index:
    one CRC per compressed block plus one over the index itself, so a
    seeking reader can tell a rotted block from a lying index before it
    decodes anything. *)

val crc32 : string -> int
(** CRC-32 of a whole string; always in [0, 0xFFFFFFFF]. *)

val crc32_update : int -> string -> pos:int -> len:int -> int
(** Incremental form: [crc32_update 0 s ~pos:0 ~len] over successive
    slices chains to {!crc32} of the concatenation. *)

(** {1 Incremental interfaces}

    The streaming trace pipeline ({!Tracefile.open_writer},
    {!Tracefile.fold_words}, [Sink.to_file]) never holds a whole trace;
    these carry the codec state across chunk boundaries.  {!encode}
    and {!decode} above are thin wrappers over them, so chunked and
    whole-array use share one code path: feeding the same words in any
    chunking produces byte-identical output (qcheck-enforced). *)

type encoder
(** Delta/varint encoder state: the previous raw word plus the pending
    maximal-delta run. *)

val encoder : unit -> encoder

val encode_chunk : encoder -> Buffer.t -> int array -> len:int -> unit
(** Encode [words.(0 .. len-1)], appending tokens to the buffer.  A run
    still open at the end of the chunk stays pending — it may continue
    into the next chunk — so the buffer trails the input by at most one
    token. *)

val encode_finish : encoder -> Buffer.t -> unit
(** Flush the pending run.  The concatenation of every chunk's bytes
    plus this tail equals [encode] of the concatenated words. *)

type decoder
(** Delta/varint decoder state: partial varint, pending run token,
    predictor word, emitted count. *)

val decoder : ?expect:int -> emit:(int -> unit) -> unit -> decoder
(** Words are pushed to [emit] as their tokens complete.  [?expect]
    bounds the decode exactly and is checked by {!decode_finish};
    without it the 2^26-word cap applies, as in {!decode}. *)

val decode_byte : decoder -> char -> unit
(** @raise Corrupt as {!decode} would (varint overflow, word cap). *)

val decode_bytes : decoder -> string -> pos:int -> len:int -> unit

val decode_finish : decoder -> unit
(** @raise Corrupt on a token split by end-of-input ("truncated
    varint") or an [?expect] word-count mismatch. *)

type lz_decoder
(** LZSS decoder state: a 64K ring of recent output (a complete history
    — matches reach back at most 65535 bytes) plus the partially read
    group, so memory stays O(1) regardless of stream size. *)

val lz_decoder : ?limit:int -> emit:(char -> unit) -> unit -> lz_decoder
(** Decompressed bytes are pushed to [emit] as they are recovered.
    [limit] bounds the total output as in {!lzss_unpack}. *)

val lz_decode_byte : lz_decoder -> char -> unit
(** @raise Corrupt as {!lzss_unpack} would (bad distance, output
    limit). *)

val lz_decode_bytes : lz_decoder -> string -> pos:int -> len:int -> unit

val lz_decode_finish : lz_decoder -> unit
(** @raise Corrupt when end-of-input splits a match token ("truncated
    LZSS stream"). *)

val max_delta_bytes_per_word : int
(** Worst-case delta/varint bytes one word can occupy; [expect *
    max_delta_bytes_per_word] bounds the LZSS stage of an [expect]-word
    decode (used by {!Tracefile}'s streaming reader). *)
