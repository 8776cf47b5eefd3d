(** Sparse physical memory: 64-bit words addressed by byte address.

    The simulator only performs aligned 64-bit accesses (the deferred
    access page is defined in 8-byte slots); unaligned addresses raise.

    Backed by 4 KB pages of flat [Bytes.t] (unboxed words, opaque to the
    GC — no write barrier or box allocation per store) behind a small
    direct-mapped page cache, so the interpreter's fetch/load/store path
    avoids a hash lookup per access. *)

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  cache_idx : int array;
  cache_pg : Bytes.t array;
  mutable mmio : (int64 * int64 * string) list;
  mutable on_write : (int64 -> unit) option;
      (** write observer (dirty-page tracking): called with the byte
          address after every stored word *)
  mutable code_lo : int64;
  mutable code_hi : int64;
  mutable code_gen : int;
}

val create : unit -> t

val read64 : t -> int64 -> int64
(** Unbacked addresses read as zero.
    @raise Invalid_argument on unaligned access. *)

val write64 : t -> int64 -> int64 -> unit
(** @raise Invalid_argument on unaligned access. *)

(** {2 Word kernels}

    Unboxed word moves between memory and a byte buffer (a register
    file's storage), for the world-switch copy loops.  An address is
    [base] plus an [int] offset; word [w] of a buffer is its bytes
    [\[8w, 8w+8)].  Each word moved is observably one {!write64} or
    {!read64} (alignment check, code-envelope invalidation, write
    observer), and none allocates.
    @raise Invalid_argument on an out-of-bounds word or unaligned
    address. *)

val store_from : t -> base:int64 -> int -> Bytes.t -> int -> unit
(** [store_from t ~base off src w] is [write64 t (base + off) v] where [v]
    is word [w] of [src]. *)

val load_into : t -> base:int64 -> int -> Bytes.t -> int -> unit
(** [load_into t ~base off dst w] stores [read64 t (base + off)] as word
    [w] of [dst]. *)

val store_words : t -> base:int64 -> int array -> Bytes.t -> int array -> unit
(** [store_words t ~base offs src words] runs
    [store_from t ~base offs.(k) src words.(k)] for every [k], in order:
    a whole copy loop, reusing the page of one word for the next. *)

val load_words : t -> base:int64 -> int array -> Bytes.t -> int array -> unit
(** [load_words t ~base offs dst words] runs
    [load_into t ~base offs.(k) dst words.(k)] for every [k], in order. *)

val copy64 : t -> src:int64 -> dst:int64 -> unit
(** [copy64 t ~src ~dst] is [write64 t dst (read64 t src)], unboxed. *)

val add_mmio_region : t -> start:int64 -> len:int64 -> name:string -> unit
(** Register a device region (left unmapped at stage 2 so accesses fault
    for emulation). *)

val mmio_region_of : t -> int64 -> string option
(** Name of the device region containing an address, if any. *)

val sorted_words : t -> (int64 * int64) list
(** Every backed, nonzero word in ascending address order — a canonical
    view of the contents (absent and stored-zero words read identically
    and are both omitted). *)

val iter_nonzero : t -> (int64 -> int64 -> unit) -> unit
(** Apply [f addr v] to every backed nonzero word, in no particular
    order (use {!sorted_words} for a canonical view). *)

val clear : t -> unit
(** Drop all backed words.  Also counts as a code change (see
    {!code_gen}): snapshot restore rewrites memory wholesale, so any
    decoded blocks are stale. *)

val zero_range : t -> start:int64 -> len:int64 -> unit
(** Zero an aligned range (page initialization).  Does not fire the
    write observer; does invalidate decoded code if the range overlaps
    the tracked envelope. *)

val track_code : t -> lo:int64 -> hi:int64 -> unit
(** Grow the tracked code envelope to cover byte range [\[lo, hi)].
    Stores landing inside the envelope bump {!code_gen}, which the
    interpreter's superblock cache checks to invalidate decoded blocks
    when code is patched at runtime. *)

val code_gen : t -> int
(** Generation counter for the tracked code envelope (monotonic). *)
