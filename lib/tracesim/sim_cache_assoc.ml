(* Set-associative cache model for trace-replay studies.

   The DECstation 5000/200 the paper traces has direct-mapped caches, and
   the validation model (a 1-way instance of this one) matches it.  But
   the point of collecting complete system traces was to drive studies of
   memory systems *other* than the host's — the companion work ([7], Chen &
   Bershad SOSP'93) replays these traces over associative organizations to
   separate conflict from capacity misses.  This model supports those
   studies: N-way set-associative, true-LRU replacement, the same
   write-through/no-write-allocate policy as the host so that a 1-way
   instance is reference-equal to a direct-mapped cache (a qcheck property
   in the test suite holds it to a direct-mapped model).

   LRU is tracked with a per-access monotonic stamp: sets are small (the
   interesting design space is 1-8 ways) so a linear scan of the set is
   both simplest and fastest here. *)

(* Write policy: the DECstation (and the validation models) are
   write-through/no-write-allocate; Write_back/write-allocate is the other
   classic organization these traces were collected to study — stores
   allocate and dirty the line, and the memory traffic is the dirty
   evictions ([writebacks]) rather than every store. *)
type policy = Write_through | Write_back

type t = {
  line_bytes : int;
  line_shift : int;   (* log2 line_bytes, cached off the hot path *)
  ways : int;
  nsets : int;
  set_mask : int;     (* nsets - 1 when nsets is a power of two, else -1 *)
  policy : policy;
  tags : int array;   (* nsets * ways, -1 = invalid *)
  stamps : int array; (* nsets * ways, last-use time *)
  dirty : bool array; (* nsets * ways (write-back only) *)
  mutable clock : int;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  mutable writebacks : int;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(policy = Write_through) ~size_bytes ~line_bytes ~ways () =
  if
    size_bytes <= 0 || line_bytes <= 0 || ways <= 0
    || size_bytes mod (line_bytes * ways) <> 0
  then invalid_arg "Sim_cache_assoc.create";
  let nsets = size_bytes / (line_bytes * ways) in
  {
    line_bytes;
    line_shift = log2 line_bytes;
    ways;
    nsets;
    set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    policy;
    tags = Array.make (nsets * ways) (-1);
    stamps = Array.make (nsets * ways) 0;
    dirty = Array.make (nsets * ways) false;
    clock = 0;
    read_hits = 0;
    read_misses = 0;
    write_hits = 0;
    write_misses = 0;
    writebacks = 0;
  }

(* The per-access index arithmetic: a shift for the line number and —
   for the universal power-of-two set count — a mask instead of a
   hardware divide, which showed up as a top cost of the
   multi-configuration sweep's fan-out. *)
let set_of t ln = if t.set_mask >= 0 then ln land t.set_mask else ln mod t.nsets

(* Scan the set for [ln]; returns the way index on hit, or the LRU way
   negated-minus-one on miss (so callers distinguish without allocation).
   Tags are unique within a set (a fill only happens when the line is
   absent), so the scan can stop at the first match and leave the stamps
   untouched; only a miss pays the LRU scan.  Hits dominate, and with the
   sweep fanning every reference out to a dozen cache units the saved
   stamp traffic is a measured win. *)
let rec probe_from t base ln w =
  if w >= t.ways then begin
    let lru = ref 0 in
    let lru_stamp = ref max_int in
    for w = 0 to t.ways - 1 do
      let s = Array.unsafe_get t.stamps (base + w) in
      if s < !lru_stamp then begin
        lru_stamp := s;
        lru := w
      end
    done;
    -1 - !lru
  end
  else if Array.unsafe_get t.tags (base + w) = ln then w
  else probe_from t base ln (w + 1)

(* A toplevel recursion rather than a local one: a local [find] would
   capture [t], [base] and [ln] in a closure allocated per access. *)
let probe t set ln = probe_from t (set * t.ways) ln 0

let touch t set w =
  t.clock <- t.clock + 1;
  t.stamps.((set * t.ways) + w) <- t.clock

(* Replace the victim way with [ln]; a dirty victim is a writeback. *)
let fill t set w ln =
  let i = (set * t.ways) + w in
  if t.dirty.(i) && t.tags.(i) >= 0 then begin
    t.writebacks <- t.writebacks + 1;
    t.dirty.(i) <- false
  end;
  t.tags.(i) <- ln

let read t pa =
  let ln = pa lsr t.line_shift in
  let set = set_of t ln in
  match probe t set ln with
  | w when w >= 0 ->
    t.read_hits <- t.read_hits + 1;
    touch t set w;
    true
  | miss ->
    let w = -1 - miss in
    t.read_misses <- t.read_misses + 1;
    fill t set w ln;
    touch t set w;
    false

(* Write_through: no write-allocate, state changes only on hit — matching
   the host machine's direct-mapped caches for 1-way instances.
   Write_back: write-allocate; the line is dirtied and a dirty victim on
   any later fill counts as a writeback. *)
let write t pa =
  let ln = pa lsr t.line_shift in
  let set = set_of t ln in
  match probe t set ln with
  | w when w >= 0 ->
    t.write_hits <- t.write_hits + 1;
    touch t set w;
    if t.policy = Write_back then t.dirty.((set * t.ways) + w) <- true;
    true
  | miss ->
    t.write_misses <- t.write_misses + 1;
    (if t.policy = Write_back then begin
       let w = -1 - miss in
       fill t set w ln;
       touch t set w;
       t.dirty.((set * t.ways) + w) <- true
     end);
    false

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.clock <- 0;
  t.read_hits <- 0;
  t.read_misses <- 0;
  t.write_hits <- 0;
  t.write_misses <- 0;
  t.writebacks <- 0
