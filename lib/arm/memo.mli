(** A small set-associative memo of an [int -> 'a] function, for small
    immutable values a hot path would otherwise rebuild on every call
    (a VM's acknowledge returns [Some vintid] for the few vintids it
    sees).  It can thrash: keys past its capacity miss and rebuild, so
    a working set the guest controls, such as the syndromes of a world
    switch, does not belong in one.

    Only non-negative keys are stored.  The table starts empty and doubles
    while misses outnumber twice its size (up to 128 slots), so a machine
    that traps a handful of times pays for a handful of entries and a hot
    one settles at a size its working set fits.  The memoized function must
    be pure and its results immutable: a hit returns the value built for
    the same key earlier. *)

type 'a t

val create : (int -> 'a) -> 'a t
(** Allocates no slots until the first lookup. *)

val clear : 'a t -> unit
(** Drop every slot, as if just created. *)

val find : 'a t -> int -> 'a
(** [find t k] is [f k] for the function [t] memoizes; allocates only on
    a miss. *)
