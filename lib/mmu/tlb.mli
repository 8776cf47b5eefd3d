(** TLB model: caches completed translations keyed by (VMID, ASID, page),
    invalidated by TLBI instructions.

    Set-associative with FIFO replacement inside each set: a full set
    evicts its own oldest entry; inserts never disturb other sets. *)

type key = { vmid : int; asid : int; page : int64 }
type entry = { pa_page : int64; perms : Pte.perms }

type t

val create : ?capacity:int -> unit -> t
(** [capacity] entries total, organized as power-of-two sets of (up to)
    4 ways. *)

val lookup : t -> vmid:int -> asid:int -> int64 -> (int64 * Pte.perms) option
(** Hit returns the full PA (page + offset); hits/misses are counted. *)

val insert :
  t -> vmid:int -> asid:int -> va:int64 -> pa:int64 -> perms:Pte.perms -> unit
(** Evicts the target set's oldest live entry when the set is full;
    re-inserting a cached page only refreshes it. *)

val invalidate_vmid : t -> vmid:int -> unit

val invalidate_page : t -> vmid:int -> page:int64 -> unit
(** TLBI by IPA: drop every entry caching [page] under [vmid], whatever
    its ASID (the shootdown protocol's per-page invalidation). *)

val invalidate_all : t -> unit

val nsets : t -> int
val ways : t -> int
val occupancy : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
val invalidations : t -> int
(** Entries removed by TLBI ({!invalidate_vmid}/{!invalidate_all}) — not
    by capacity eviction. *)

val hit_rate : t -> float
