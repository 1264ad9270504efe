(* Bounded chunk ring between a connection's wire decoder and its sink
   pipeline.  All slot arrays are allocated once at [create]; the steady
   state allocates nothing — the decoder writes into the open tail slot
   in place and the consumer borrows queued slots. *)

type t = {
  slots : int array array;  (* ring of preallocated word buffers *)
  lens : int array;  (* committed length of each queued slot *)
  slot_words : int;
  mutable head : int;  (* oldest queued slot index *)
  mutable queued : int;  (* closed slots awaiting pop *)
  mutable tail_fill : int;  (* words committed to the open tail slot *)
  mutable resident : int;  (* queued words + tail_fill *)
  mutable peak : int;
}

let create ~slots ~slot_words =
  if slots < 2 then invalid_arg "Bqueue.create: need at least 2 slots";
  if slot_words < 1 then invalid_arg "Bqueue.create: need at least 1 word/slot";
  {
    slots = Array.init slots (fun _ -> Array.make slot_words 0);
    lens = Array.make slots 0;
    slot_words;
    head = 0;
    queued = 0;
    tail_fill = 0;
    resident = 0;
    peak = 0;
  }

let reset q =
  q.head <- 0;
  q.queued <- 0;
  q.tail_fill <- 0;
  q.resident <- 0;
  q.peak <- 0

let nslots q = Array.length q.slots
let capacity_words q = nslots q * q.slot_words
let slot_words q = q.slot_words
let queued q = q.queued
let is_empty q = q.queued = 0 && q.tail_fill = 0
let resident_words q = q.resident
let peak_words q = q.peak

(* The open tail slot sits just past the queued region of the ring. *)
let tail_index q = (q.head + q.queued) mod nslots q

let reserve q =
  (* Full means every slot is queued; while queued < slots the tail
     position is free and [commit] keeps tail_fill < slot_words, so the
     offered space is always positive. *)
  if q.queued >= nslots q then None
  else
    let ti = tail_index q in
    Some (q.slots.(ti), q.tail_fill, q.slot_words - q.tail_fill)

let close_tail q =
  let ti = tail_index q in
  q.lens.(ti) <- q.tail_fill;
  q.queued <- q.queued + 1;
  q.tail_fill <- 0

let commit q n =
  if n < 0 || n > q.slot_words - q.tail_fill then
    invalid_arg "Bqueue.commit: more words than reserved";
  q.tail_fill <- q.tail_fill + n;
  q.resident <- q.resident + n;
  if q.resident > q.peak then q.peak <- q.resident;
  if q.tail_fill = q.slot_words then close_tail q

let flush q = if q.tail_fill > 0 then close_tail q

let pop q =
  if q.queued = 0 then None
  else begin
    let h = q.head in
    let buf = q.slots.(h) and len = q.lens.(h) in
    q.head <- (h + 1) mod nslots q;
    q.queued <- q.queued - 1;
    q.resident <- q.resident - len;
    Some (buf, len)
  end
