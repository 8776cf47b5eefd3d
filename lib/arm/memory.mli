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
  mutable s2_inject : int64 -> bool;
      (** stage-2 fault injection, asked before every table walk over
          this memory with the walk's input address: [true] fails the
          walk with a level-1 translation fault.  Never by default; the
          machine owning the memory arms it from its fault plan. *)
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

val holds_word : t -> base:int64 -> int -> Bytes.t -> int -> bool
(** [holds_word t ~base off b w] is whether [read64 t (base + off)]
    equals word [w] of [b], compared in place. *)

val store_words : t -> base:int64 -> int array -> Bytes.t -> int array -> unit
(** [store_words t ~base offs src words] runs
    [store_from t ~base offs.(k) src words.(k)] for every [k], in order:
    a whole copy loop, reusing the page of one word for the next. *)

val load_words : t -> base:int64 -> int array -> Bytes.t -> int array -> unit
(** [load_words t ~base offs dst words] runs
    [load_into t ~base offs.(k) dst words.(k)] for every [k], in order. *)

val store32 : t -> base:int64 -> int -> int -> unit
(** [store32 t ~base off v] stores the low 32 bits of [v] at [base + off],
    the low or high half of its aligned word by bit 2 of the address:
    one {!read64} and one {!write64} of that word, unboxed. *)

val fetch32 : t -> base:int64 -> int -> int
(** [fetch32 t ~base off] is the 32-bit word at [base + off] (an
    instruction), the low or high half of its aligned word by bit 2 of
    the address: {!store32}'s mirror, one {!read64} of that word, as an
    unboxed [int]. *)

val copy64 : t -> src:int64 -> dst:int64 -> unit
(** [copy64 t ~src ~dst] is [write64 t dst (read64 t src)], unboxed. *)

val sorted_words : t -> (int64 * int64) list
(** Every backed, nonzero word in ascending address order — a canonical
    view of the contents (absent and stored-zero words read identically
    and are both omitted). *)

val iter_nonzero_pages : t -> (int -> unit) -> unit
(** Apply [f pi] to the index ([address lsr 12]) of every backed page
    holding a nonzero word, once each, in no particular order. *)

val sorted_pages : t -> int list
(** Every backed page's index ([address lsr 12]), in the address order
    of {!sorted_words}. *)

val page_nonzero : t -> int -> Bytes.t -> int -> int
(** [page_nonzero t pi dst at] writes the nonzero words of page [pi]
    (addresses [pi lsl 12] on), ascending, into [dst] from byte [at] as
    (address, value) pairs of native-endian words, and returns the byte
    after them; [dst] needs room for 512 pairs.  Reads that page only
    and allocates nothing. *)

val store_be : t -> string -> addr:int -> value:int -> unit
(** [store_be t s ~addr ~value] is [write64 t a v], where [a] and [v] are
    the big-endian words at byte offsets [addr] and [value] of [s] (a
    snapshot image's payloads), without boxing either. *)

val nonzero_words : t -> start:int64 -> len:int64 -> (int * int64) list
(** The nonzero words of an aligned range as (address, value), in
    ascending address order; only the words returned allocate. *)

val clear : t -> unit
(** Drop all backed words.  Also counts as a code change (see
    {!code_gen}): snapshot restore rewrites memory wholesale, so any
    decoded blocks are stale. *)

val zero_range : t -> start:int64 -> len:int64 -> unit
(** Zero an aligned range (page initialization), page by page: absent
    pages are skipped, not created.  Does not fire the write observer;
    does invalidate decoded code if the range overlaps the tracked
    envelope.  Allocates nothing. *)

val track_code : t -> lo:int64 -> hi:int64 -> unit
(** Grow the tracked code envelope to cover byte range [\[lo, hi)].
    Stores landing inside the envelope bump {!code_gen}, which the
    interpreter's superblock cache checks to invalidate decoded blocks
    when code is patched at runtime. *)

val code_gen : t -> int
(** Generation counter for the tracked code envelope (monotonic). *)

(** {2 Rewinding}

    A {e mark} records a memory's contents and bookkeeping so it can be
    put back later — the differential fuzzer rewinds one booted machine
    per column instead of building a fresh one per program. *)

type mark

val mark : t -> mark
(** Record every page's nonzero words, the device regions, the write
    observer, the stage-2 injection hook and the code envelope. *)

val rewind : ?drop:(int -> Bytes.t -> unit) -> t -> mark -> unit
(** Put back the marked pages' contents, drop every page created since
    the mark, and restore the device regions, write observer, injection
    hook and code envelope.  [drop pi page] (default: ignore) is given
    each dropped page with its index, as it was left, for the caller to
    reuse with {!adopt}.  {!code_gen} is not restored: it moves forward,
    as on any code change, so no block decoded since the mark stays
    valid. *)

val adopt : t -> int -> Bytes.t -> unit
(** [adopt t pi page] backs the absent page [pi] with [page], zeroed
    first — no read can tell, and a store to [pi] then allocates
    nothing.  Does nothing if [pi] is backed already. *)
