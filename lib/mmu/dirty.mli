(** Dirty-page tracking for pre-copy live migration.

    Models KVM's stage-2 write-protection log: {!clear} begins a round
    by write-protecting guest memory; the first store to a protected
    4 KB page takes a permission fault the host handles by marking the
    page dirty and lifting the protection.  The tracker hangs off the
    {!Arm.Memory} write observer (the simulator executes guest stores
    directly against physical memory); the caller's [on_fault] routes
    each protection fault through the ordinary trap machinery. *)

type t

val attach : ?on_fault:(int64 -> unit) -> Arm.Memory.t -> t
(** Install the tracker on a memory's write observer.  Every
    currently-backed page starts dirty, so the first round transfers
    everything.  [on_fault page] runs on the first store to each clean
    page per round — the write-protection fault. *)

val detach : t -> unit
(** Remove the write observer (tracking stops). *)

val clear : t -> unit
(** Begin a new round: mark everything clean (re-protect). *)

val dirty_count : t -> int
val dirty_pages : t -> int64 list
(** Dirty page bases, ascending. *)

val write_faults : t -> int
(** Write-protection faults taken since {!attach}, across all rounds. *)

val page_words : t -> int64 -> Bytes.t -> int -> int
(** [page_words t page dst at]: the backed, nonzero words of one page,
    ascending — what a pre-copy round transfers for that page — written
    into [dst] from byte [at] as (address, value) pairs of native-endian
    words ([dst] needs room for 512 pairs); returns the byte after them.
    Reads that page only and allocates nothing. *)
