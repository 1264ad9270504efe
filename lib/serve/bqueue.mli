(** Bounded chunk queue: the per-connection backpressure buffer of
    `systrace serve`.

    A ring of preallocated word-array slots sits between a connection's
    wire decoder (producer) and its analysis pipeline (consumer).  The
    producer decodes socket bytes straight into the open tail slot
    ({!reserve}/{!commit} — no intermediate array); when a slot fills it
    is queued and the next one opens; when every slot is queued the ring
    is full and {!reserve} returns [None] — the server stops reading
    that socket and the client feels TCP backpressure (or, in lossy
    mode, the server drops and counts, the paper's lost-reference
    accounting).  The consumer {!pop}s whole slots in FIFO order.

    Resident trace words are therefore bounded by
    [slots * slot_words] ({!capacity_words}) however fast the client
    sends, and the queued word sequence is exactly the decoded sequence
    — nothing reordered, nothing silently dropped ({!peak_words} and the
    test suite's qcheck property pin both).

    Single-owner discipline: a queue belongs to the one worker domain
    that owns its connection; operations are not thread-safe.  A popped
    slot's array is borrowed — it is reused by the producer once the
    tail wraps back around — so the consumer must finish with it (or
    copy) before the next {!reserve}/{!commit}, which is exactly the
    {!Systrace_tracing.Sink} borrowing contract. *)

type t

val create : slots:int -> slot_words:int -> t
(** @raise Invalid_argument unless [slots >= 2] and [slot_words >= 1]
    (one slot could never queue while filling). *)

val reset : t -> unit
(** Empty the queue and zero its {!peak_words}, keeping its slots: the
    queue is then indistinguishable from a fresh {!create} of the same
    shape, for the next stream to reuse.  Words still queued are
    discarded. *)

val capacity_words : t -> int
val slot_words : t -> int

val reserve : t -> (int array * int * int) option
(** [reserve q] is [Some (buf, off, space)] — write decoded words to
    [buf.(off .. off+space-1)] then {!commit} how many — or [None] when
    the ring is full (backpressure point). *)

val commit : t -> int -> unit
(** Account [n] words just written at the reserved position.  When the
    tail slot reaches [slot_words] it is queued for the consumer.
    @raise Invalid_argument if [n] exceeds the reserved space. *)

val flush : t -> unit
(** Queue the partially-filled tail slot, if any — called when the
    producer has nothing pending, so trickling input reaches analysis
    without waiting for a full slot.  No-op on an empty tail.  Never
    fails: a non-empty tail implies a free ring position. *)

val pop : t -> (int array * int) option
(** Oldest queued slot as [(buf, len)], or [None] if nothing is queued
    (a partial tail is not visible until {!flush}).  The array is
    borrowed until the producer's next {!reserve}/{!commit}. *)

val queued : t -> int
(** Slots queued for the consumer. *)

val is_empty : t -> bool
(** No queued slot and an empty tail: every committed word was popped. *)

val resident_words : t -> int
(** Words currently resident (queued + open tail). *)

val peak_words : t -> int
(** High-water mark of {!resident_words} — the per-stream "peak resident
    words" counter served by the stats endpoint. *)
