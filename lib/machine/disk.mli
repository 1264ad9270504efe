(** Disk device with DMA and a small in-order request queue (depth 4 — what
    lets the kernel issue asynchronous read-ahead).  Completions raise the
    disk interrupt line and park the finished block number until acked. *)

type request = {
  block : int;
  paddr : int;
  count : int;
  is_write : bool;
  complete_at : int;
}

type image
(** The disk's contents, block by block; a block never written shares
    one zero block, so an image costs only the blocks a run writes. *)

type t = {
  image : image;
  block_bytes : int;
  seek_cycles : int;
  per_block_cycles : int;
  queue_depth : int;
  mutable queue : request list;
  mutable done_blocks : int list;
  mutable reg_block : int;
  mutable reg_addr : int;
  mutable reg_count : int;
  mutable reads : int;
  mutable writes : int;
}

val block_bytes : int

val create :
  ?blocks:int -> ?seek_cycles:int -> ?per_block_cycles:int -> unit -> t

val nblocks : t -> int

val write_image : t -> block:int -> off:int -> string -> unit
val read_image : t -> block:int -> off:int -> len:int -> string
(** Host-side access to the bytes [off] bytes into [block] onward; a span
    may cross block ends.
    @raise Invalid_argument if the span leaves the image. *)

val busy : t -> bool
val submit : t -> now:int -> is_write:bool -> bool
val next_event : t -> int
val poll :
  t ->
  now:int ->
  to_ram:(int -> Bytes.t -> unit) ->
  from_ram:(int -> Bytes.t -> unit) ->
  int
(** Complete every request due by [now], moving its blocks by DMA one
    {!block_bytes} block at a time: a read calls [to_ram pa blk] to copy
    block [blk] into memory at [pa], a write calls [from_ram pa blk] to
    fill [blk] from memory at [pa]; [from_ram] must fill all of [blk].
    Returns how many requests completed. *)

val done_block : t -> int
val ack : t -> unit
val has_done : t -> bool
