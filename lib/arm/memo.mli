(** A small set-associative memo of an [int -> 'a] function, for values
    the trap path would otherwise rebuild on every trap (a trap site
    raises the same syndrome each time).

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
