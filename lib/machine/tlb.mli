(** The machine's software-managed TLB, R3000 style: 64 entries, fully
    associative, random replacement via the free-running Random register
    (entries 0..7 are wired).

    EntryHi: VPN[31:12] | ASID[11:6].
    EntryLo: PFN[31:12] | N[11] | D[10] | V[9] | G[8]. *)

type entry = { mutable hi : int; mutable lo : int }

type t = {
  entries : entry array;
  head : int array;
      (** Per vpn-hash bucket: the most recently written entry, or -1. *)
  next : int array;
      (** Per entry: the next entry in its bucket (-1 at the end, -2 when
          the entry is in no bucket, as after {!reset}). *)
}

val size : int
val wired : int

val entrylo_n : int
val entrylo_d : int
val entrylo_v : int
val entrylo_g : int

val make_entryhi : vpn:int -> asid:int -> int

val make_entrylo :
  ?noncacheable:bool ->
  ?dirty:bool ->
  ?valid:bool ->
  ?global:bool ->
  pfn:int ->
  unit ->
  int

val hi_vpn : int -> int
val hi_asid : int -> int
val lo_pfn : int -> int
val lo_valid : int -> bool
val lo_dirty : int -> bool
val lo_global : int -> bool
val lo_noncacheable : int -> bool

val create : unit -> t
val reset : t -> unit

val write : t -> int -> hi:int -> lo:int -> unit
val read : t -> int -> int * int
val probe : t -> vpn:int -> asid:int -> int
(** Index of the entry matching vpn and (global or asid), or -1.  Among
    several matches the most recently written one wins. *)

val miss : int
val invalid : int
val modified : int

val lookup : t -> vpn:int -> asid:int -> write:bool -> int
(** The matching entry's EntryLo on a hit (non-negative); otherwise
    {!miss} (no match: refill), {!invalid} (V=0) or {!modified} (store to
    a clean page).  Allocates nothing. *)

val random_index : cycle:int -> int
(** The Random register's value at a given cycle (cycles over
    [\[wired, size))). *)
