(* Software-managed TLB, R3000 style.

   64 entries, fully associative, random replacement via the [Random] CP0
   register (a free-running counter cycling over 8..63, so entries 0..7 are
   "wired" and safe for the kernel to pin with tlbwi).

   EntryHi:  VPN[31:12] | ASID[11:6]
   EntryLo:  PFN[31:12] | N[11] | D[10] | V[9] | G[8]

   The trace-driven simulator in [Systrace_tracesim] has its own independent
   TLB model; this one is the "hardware". *)

type entry = {
  mutable hi : int;  (* vpn lsl 12 | asid lsl 6 *)
  mutable lo : int;  (* pfn lsl 12 | flags *)
}

(* The vpn index is an intrusive hash chain: [head.(vpn land bucket_mask)]
   is the most recently written entry in that bucket and [next.(k)] the
   entry after [k] ([-1] ends a chain, [unlinked] marks an entry in no
   chain).  Writing an entry moves it to the head of its bucket, so among
   entries for the same vpn the chain order is most-recently-written first
   — the order a match is chosen in when duplicates exist.  Plain int
   arrays: a lookup walks the chain without allocating. *)
type t = {
  entries : entry array;
  head : int array;
  next : int array;
}

let size = 64
let wired = 8

let entrylo_n = 0x800
let entrylo_d = 0x400
let entrylo_v = 0x200
let entrylo_g = 0x100

let make_entryhi ~vpn ~asid = (vpn lsl 12) lor (asid lsl 6)

let make_entrylo ?(noncacheable = false) ?(dirty = true) ?(valid = true)
    ?(global = false) ~pfn () =
  (pfn lsl 12)
  lor (if noncacheable then entrylo_n else 0)
  lor (if dirty then entrylo_d else 0)
  lor (if valid then entrylo_v else 0)
  lor if global then entrylo_g else 0

let hi_vpn hi = hi lsr 12
let hi_asid hi = (hi lsr 6) land 0x3F
let lo_pfn lo = (lo lsr 12) land 0xFFFFF
let lo_valid lo = lo land entrylo_v <> 0
let lo_dirty lo = lo land entrylo_d <> 0
let lo_global lo = lo land entrylo_g <> 0
let lo_noncacheable lo = lo land entrylo_n <> 0

let buckets = 128
let bucket_mask = buckets - 1
let unlinked = -2

let create () =
  {
    entries = Array.init size (fun _ -> { hi = 0; lo = 0 });
    head = Array.make buckets (-1);
    next = Array.make size unlinked;
  }

let reset t =
  Array.iteri
    (fun k e ->
      (* Park each entry on a distinct impossible vpn, outside the index,
         so nothing matches. *)
      e.hi <- make_entryhi ~vpn:(0xFFFFF - k) ~asid:0;
      e.lo <- 0)
    t.entries;
  Array.fill t.head 0 buckets (-1);
  Array.fill t.next 0 size unlinked

let index_remove t vpn k =
  if t.next.(k) <> unlinked then begin
    let b = vpn land bucket_mask in
    let h = t.head.(b) in
    if h = k then t.head.(b) <- t.next.(k)
    else begin
      let p = ref h in
      while t.next.(!p) <> k do p := t.next.(!p) done;
      t.next.(!p) <- t.next.(k)
    end;
    t.next.(k) <- unlinked
  end

let index_add t vpn k =
  let b = vpn land bucket_mask in
  t.next.(k) <- t.head.(b);
  t.head.(b) <- k

(* Write entry [k] with the given hi/lo (tlbwi / tlbwr). *)
let write t k ~hi ~lo =
  if k < 0 || k >= size then invalid_arg "Tlb.write: index out of range";
  let e = t.entries.(k) in
  index_remove t (hi_vpn e.hi) k;
  e.hi <- hi;
  e.lo <- lo;
  index_add t (hi_vpn hi) k

let read t k =
  if k < 0 || k >= size then invalid_arg "Tlb.read: index out of range";
  let e = t.entries.(k) in
  (e.hi, e.lo)

(* Probe for a matching entry (tlbp): matches on vpn and (global or
   asid).  Returns the entry index, or -1. *)
let rec probe_from t k ~vpn ~asid =
  if k < 0 then -1
  else
    let e = Array.unsafe_get t.entries k in
    if hi_vpn e.hi = vpn && (lo_global e.lo || hi_asid e.hi = asid) then k
    else probe_from t (Array.unsafe_get t.next k) ~vpn ~asid

let probe t ~vpn ~asid = probe_from t t.head.(vpn land bucket_mask) ~vpn ~asid

(* Lookup results, as ints so a walk allocates nothing: a hit is the
   matching entry's EntryLo (non-negative), the failures are negative. *)
let miss = -1          (* no matching entry: TLB refill *)
let invalid = -2       (* matching entry with V=0 *)
let modified = -3      (* store to a clean page *)

let lookup t ~vpn ~asid ~write:w =
  let k = probe t ~vpn ~asid in
  if k < 0 then miss
  else
    let lo = (Array.unsafe_get t.entries k).lo in
    if not (lo_valid lo) then invalid
    else if w && not (lo_dirty lo) then modified
    else lo

(* The R3000 Random register: decrements every cycle, cycling over
   [wired, size). *)
let random_index ~cycle = wired + (cycle mod (size - wired))
