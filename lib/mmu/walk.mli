(** Generic page-table walker over simulated physical memory.

    39-bit input addresses, 4 KB granule, three levels: level 1 indexes
    IA[38:30], level 2 IA[29:21], level 3 IA[20:12].  Tables live in the
    machine's memory. *)

module Memory = Arm.Memory

type fault = {
  f_level : int;
  f_ia : int64;
  f_reason : [ `Translation | `Permission ];
}

val pp_fault : Format.formatter -> fault -> unit

type translation = {
  t_pa : int64;
  t_perms : Pte.perms;
  t_level : int;  (** level at which the walk resolved (block or page) *)
}

val page_size : int
val page_base : int64 -> int64
val page_offset : int64 -> int64

val walk :
  Memory.t -> base:int64 -> ia:int64 -> is_write:bool ->
  (translation, fault) result
(** Walk the table rooted at [base] for input address [ia], checking
    permissions against the access direction.  When the memory's
    injection hook ([Memory.t.s2_inject]) takes the address, the
    walk fails with a level-1 translation fault without reading the
    tables. *)

(** A trivial bump allocator for table pages. *)
type allocator = { mutable next : int64 }

val allocator : start:int64 -> allocator
val alloc_page : allocator -> Memory.t -> int64

val map_page :
  Memory.t -> allocator -> base:int64 -> ia:int64 -> pa:int64 ->
  perms:Pte.perms -> unit
(** Install a 4 KB mapping, creating intermediate tables.
    @raise Invalid_argument when remapping over a block. *)

val map_block2 :
  Memory.t -> allocator -> base:int64 -> ia:int64 -> pa:int64 ->
  perms:Pte.perms -> unit
(** Install a 2 MB block mapping at level 2. *)

val unmap_page : Memory.t -> base:int64 -> ia:int64 -> unit

val map_range :
  Memory.t -> allocator -> base:int64 -> ia:int64 -> pa:int64 ->
  len:int64 -> perms:Pte.perms -> unit
(** Map a contiguous range with 4 KB pages. *)
