(** Level-tagged LRU stack simulating a whole family of nested cache
    geometries — same line size, same set count, ascending associativity,
    write-through/no-write-allocate — in one state update per reference.

    Each entry carries the index of the smallest member holding its line;
    member [m] holds exactly the entries tagged [<= m].  Reads fill every
    member that missed, so the members' contents stay nested under any
    mix of reads and writes (DESIGN.md 5f).  A family member with
    associativity W behaves reference-for-reference like an independent
    [Write_through] {!Sim_cache_assoc} of W ways over the same sets (a
    qcheck property in the test suite holds them together). *)

type t

val create : line_bytes:int -> nsets:int -> ways:int array -> t
(** [ways] is the family's associativities, strictly ascending; one
    element makes a single cache.
    @raise Invalid_argument on a non-ascending family or degenerate
    geometry. *)

val read : t -> int -> int
(** [read t pa] simulates one read in every member; returns a bitmask
    with bit [i] set iff member [i] (in [ways] order) missed.  Misses
    fill the line, evicting each full member's LRU line. *)

val write : t -> int -> int
(** [write t pa] simulates one no-write-allocate write in every member;
    returns the same miss bitmask.  Only the members that hold the line
    change state (an LRU touch). *)

val reset : t -> unit
