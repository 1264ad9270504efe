(* Disk device with DMA and a small request queue.

   Requests complete strictly in order; each takes a seek time plus a
   per-block transfer time.  The queue depth (4) is what lets the kernel
   issue asynchronous read-ahead — the behaviour behind the compress
   prediction error in the paper's Figure 3.  On completion the device
   raises its interrupt line and parks the finished block number until the
   kernel acks it. *)

type request = {
  block : int;
  paddr : int;
  count : int;
  is_write : bool;
  complete_at : int;
}

(* The image is a table of blocks.  Every block never written is the one
   shared, read-only [zero_block]; the first write to a block (host-side
   or DMA) gives it its own bytes. *)
type image = Bytes.t array

type t = {
  image : image;
  block_bytes : int;
  seek_cycles : int;
  per_block_cycles : int;
  queue_depth : int;
  mutable queue : request list;      (* ascending complete_at *)
  mutable done_blocks : int list;    (* completed, not yet acked *)
  (* staged register values *)
  mutable reg_block : int;
  mutable reg_addr : int;
  mutable reg_count : int;
  mutable reads : int;
  mutable writes : int;
}

let block_bytes = 4096
let zero_block = Bytes.make block_bytes '\000'

let create ?(blocks = 2048) ?(seek_cycles = 20000) ?(per_block_cycles = 4000)
    () =
  {
    image = Array.make blocks zero_block;
    block_bytes;
    seek_cycles;
    per_block_cycles;
    queue_depth = 4;
    queue = [];
    done_blocks = [];
    reg_block = 0;
    reg_addr = 0;
    reg_count = 1;
    reads = 0;
    writes = 0;
  }

let nblocks t = Array.length t.image

(* Block [b] for writing, given its own bytes on its first write. *)
let block_w t b =
  let blk = t.image.(b) in
  if blk != zero_block then blk
  else begin
    let blk = Bytes.make block_bytes '\000' in
    t.image.(b) <- blk;
    blk
  end

(* [f b o pos n] for each block piece of the [len] image bytes starting
   [off] bytes into [block]: [n] bytes at offset [o] of block [b], the
   [pos]th byte of the span onward. *)
let iter_span t ~block ~off ~len f =
  let a = (block * block_bytes) + off in
  if a < 0 || len < 0 || a + len > nblocks t * block_bytes then
    invalid_arg "Disk: span outside the image";
  let pos = ref 0 in
  while !pos < len do
    let x = a + !pos in
    let n = min (block_bytes - (x mod block_bytes)) (len - !pos) in
    f (x / block_bytes) (x mod block_bytes) !pos n;
    pos := !pos + n
  done

(* Host-side access to disk contents (setting up input files, reading
   outputs). *)
let write_image t ~block ~off data =
  iter_span t ~block ~off ~len:(String.length data) (fun b o pos n ->
      Bytes.blit_string data pos (block_w t b) o n)

let read_image t ~block ~off ~len =
  let out = Bytes.create (max len 0) in
  iter_span t ~block ~off ~len (fun b o pos n ->
      Bytes.blit t.image.(b) o out pos n);
  Bytes.unsafe_to_string out

let busy t = List.length t.queue >= t.queue_depth

(* Submit the staged request. Returns [false] if the queue is full (the
   kernel must retry; in practice it checks DISK_STATUS first). *)
let submit t ~now ~is_write =
  if busy t then false
  else begin
    let prev_done =
      match List.rev t.queue with r :: _ -> r.complete_at | [] -> now
    in
    let start = max now prev_done in
    let complete_at =
      start + t.seek_cycles + (t.reg_count * t.per_block_cycles)
    in
    let r =
      {
        block = t.reg_block;
        paddr = t.reg_addr;
        count = t.reg_count;
        is_write;
        complete_at;
      }
    in
    if is_write then t.writes <- t.writes + 1 else t.reads <- t.reads + 1;
    t.queue <- t.queue @ [ r ];
    true
  end

(* Next completion time, or max_int if idle. *)
let next_event t =
  match t.queue with [] -> max_int | r :: _ -> r.complete_at

(* Process completions up to [now], moving each block by DMA: [to_ram pa
   blk] copies a block's bytes into memory at [pa], [from_ram pa blk]
   fills a block from memory.  Returns the number of requests that
   completed (each raises the interrupt line). *)
let poll t ~now ~to_ram ~from_ram =
  let rec go n =
    match t.queue with
    | r :: rest when r.complete_at <= now ->
      t.queue <- rest;
      for i = 0 to r.count - 1 do
        let pa = r.paddr + (i * block_bytes) in
        if r.is_write then from_ram pa (block_w t (r.block + i))
        else to_ram pa t.image.(r.block + i)
      done;
      t.done_blocks <- t.done_blocks @ [ r.block ];
      go (n + 1)
    | _ -> n
  in
  go 0

(* Completed-but-unacked request at the head, if any. *)
let done_block t = match t.done_blocks with b :: _ -> b | [] -> -1

let ack t =
  match t.done_blocks with
  | _ :: rest -> t.done_blocks <- rest
  | [] -> ()

let has_done t = t.done_blocks <> []
