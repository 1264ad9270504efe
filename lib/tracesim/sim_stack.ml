(* Level-tagged LRU stack for a family of nested cache geometries.

   N set-associative LRU caches that share a line size and a set count —
   differing only in associativity — and follow the host's
   write-through/no-write-allocate policy keep nested contents: a line
   enters a cache only on a read, and a read fills every member that
   missed it.  So every line a narrow member holds is held by every wider
   one (set inclusion), and a line has the same last-touch time in every
   member that holds it.  One stack of max(W) entries per set, ordered by
   last touch, therefore holds the whole family, provided each entry also
   records which members hold it.

   That record is the entry's [level]: the index of the smallest member
   holding the line.  Member m holds exactly the entries of level <= m,
   in stack order, and its LRU victim is the deepest entry it holds.
   Stack depth alone is not membership: a write hit moves a line to the
   top in the members that hold it while the members that missed do not
   allocate it, so a recently written line can sit above lines that a
   narrow member holds and it does not (DESIGN.md 5f).

   A read of a line at depth d with level l (absent: d = -1, l = N):
   - members below l miss; the miss mask is (1 lsl l) - 1;
   - each missing member m below the widest that is full evicts the
     deepest entry of level <= m, which drops to level m + 1 (still held
     by member m + 1);
   - the widest member, if it missed, evicts the bottom entry, which the
     shift drops;
   - the line moves to the top with level 0.
   A write hit moves the line to the top with its level unchanged; a
   write miss changes nothing. *)

type t = {
  line_shift : int;
  nsets : int;
  set_mask : int;             (* nsets - 1 when a power of two, else -1 *)
  ways : int array;           (* the members' associativities, ascending *)
  maxw : int;                 (* stack capacity = widest member's ways *)
  (* nsets * maxw entries, MRU first: (line lsl level_bits) lor level,
     -1 empty; empty entries are always below the occupied ones *)
  stacks : int array;
}

let level_bits = 6
let level_mask = (1 lsl level_bits) - 1

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* [n] stays well below [level_mask], so an empty entry (-1, level 63)
   never has a member's level *)
let create ~line_bytes ~nsets ~ways =
  let n = Array.length ways in
  if line_bytes <= 0 || nsets <= 0 || n = 0 || n > Sys.int_size - 2 then
    invalid_arg "Sim_stack.create";
  Array.iteri
    (fun i w ->
      if w <= 0 || (i > 0 && ways.(i - 1) >= w) then
        invalid_arg "Sim_stack.create: ways must be ascending")
    ways;
  let maxw = ways.(n - 1) in
  {
    line_shift = log2 line_bytes;
    nsets;
    set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    ways = Array.copy ways;
    maxw;
    stacks = Array.make (nsets * maxw) (-1);
  }

let base_of t ln =
  (if t.set_mask >= 0 then ln land t.set_mask else ln mod t.nsets) * t.maxw

let rec depth t base ln d =
  if d >= t.maxw then -1
  else if Array.unsafe_get t.stacks (base + d) lsr level_bits = ln then d
  else depth t base ln (d + 1)

(* Evictions of the full missing members 0..m, found in one bottom-up
   scan from depth [k].  Member m's victim is the deepest entry of level
   <= m; an entry of level lv found there is also the victim of every
   member from lv to m (each one's deepest entry), and ends at level
   m + 1.  The victims of members below lv lie above it, so the scan
   never runs off the top; [k >= 0] only guards the unsafe reads. *)
let rec demote t base k m =
  if m >= 0 && k >= 0 then begin
    let e = Array.unsafe_get t.stacks (base + k) in
    let lv = e land level_mask in
    if lv <= m then begin
      Array.unsafe_set t.stacks (base + k) (e - lv + m + 1);
      demote t base (k - 1) (lv - 1)
    end
    else demote t base (k - 1) m
  end

(* the widest member at or below [m] that is full, when the line is
   absent: a member holds min(ways, lines the set has seen), so it is
   full iff the stack holds as many lines as its ways *)
let rec full_below t base m =
  if m < 0 || Array.unsafe_get t.stacks (base + Array.unsafe_get t.ways m - 1) >= 0
  then m
  else full_below t base (m - 1)

(* move the entry at depth [d] (or, for [d] < 0, a new entry) to the top *)
let lift t base d e =
  let stop = if d < 0 then t.maxw - 1 else d in
  for k = stop downto 1 do
    Array.unsafe_set t.stacks (base + k) (Array.unsafe_get t.stacks (base + k - 1))
  done;
  Array.unsafe_set t.stacks base e

let read_slow t base ln =
  let d = depth t base ln 0 in
  let n = Array.length t.ways in
  let l =
    if d < 0 then n else Array.unsafe_get t.stacks (base + d) land level_mask
  in
  if l = 0 then begin
    if d > 0 then lift t base d (ln lsl level_bits);
    0
  end
  else begin
    (* members 0..l-1 missed; all of them are full when the line is
       present (each evicted it), else only those the stack fills *)
    let top = if l - 1 < n - 2 then l - 1 else n - 2 in
    let top = if d < 0 then full_below t base top else top in
    demote t base (t.maxw - 1) top;
    lift t base d (ln lsl level_bits);
    (1 lsl l) - 1
  end

let read t pa =
  let ln = pa lsr t.line_shift in
  let base = base_of t ln in
  (* the common case, a level-0 line already on top, is one compare *)
  if Array.unsafe_get t.stacks base = ln lsl level_bits then 0
  else read_slow t base ln

let write t pa =
  let ln = pa lsr t.line_shift in
  let base = base_of t ln in
  let d = depth t base ln 0 in
  if d < 0 then (1 lsl Array.length t.ways) - 1
  else begin
    let e = Array.unsafe_get t.stacks (base + d) in
    if d > 0 then lift t base d e;
    (1 lsl (e land level_mask)) - 1
  end

let reset t = Array.fill t.stacks 0 (Array.length t.stacks) (-1)
