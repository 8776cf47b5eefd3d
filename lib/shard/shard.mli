(** Deterministic sharded execution on OCaml 5 domains.

    The engine runs [jobs] independent pieces of work on up to [shards]
    domains, handing job indices out one at a time, and guarantees that
    the result array is a function of the job function alone, never of
    the shard count or of domain scheduling: job [i]'s result lands in
    slot [i], and the caller folds slots in index order.

    Two rules make that guarantee hold:

    - {b jobs must be independent}: a job may not read or write state
      another job mutates.  Per-domain simulator state is domain-local
      storage ([Domain.DLS]): [Hyp.World_switch]'s copy counter,
      {!Trace}'s sink, [Snap.Image]'s snapshot declaration,
      [Snap.Migrate]'s page staging, [Fuzz.Diff]'s template machines and
      [Arm.Insn]'s rendered instruction texts.  Jobs on different domains
      cannot observe each other through it; jobs on the {e same} domain
      run to completion one at a time, in increasing index order.
    - {b seeds must be position-independent}: any PRNG a job uses must be
      derived from [(campaign seed, job index)] via {!derive}, never from
      a stream shared across jobs, so job [i] behaves identically
      whatever [jobs] or [shards] are. *)

(** {1 Position-independent seed derivation} *)

val derive : seed:int -> index:int -> int64
(** The seed of job [index] under campaign seed [seed]:
    [mix64 (seed + (index + 1) * gamma)] with the splitmix64 golden-ratio
    increment.  Depends on nothing but the two arguments — growing the
    job count or changing the shard count never moves job [index]'s
    seed. *)

val derive_int : seed:int -> index:int -> int
(** {!derive} folded to a non-negative OCaml [int], for APIs that take
    integer seeds. *)

(** {1 Digest helpers} *)

val fnv1a_64 : ?init:int64 -> string -> int64
(** FNV-1a over a string, chainable through [init] so per-job digests
    fold into a campaign digest in index order. *)

val fnv1a_32 : string -> int
(** 32-bit FNV-1a over a string: a seed pinned to a name, stable across
    runs and OCaml runtimes. *)

(** {1 The engine} *)

val max_shards : int
(** 127: OCaml 5.1 runs at most 128 domains, the main one included, so
    this is the most it can spawn beside the main domain. *)

val map : shards:int -> jobs:int -> (int -> 'a) -> 'a array
(** [map ~shards ~jobs f] runs [f i] for every [i] in [0 .. jobs-1] on
    [min shards jobs] domains and returns the results in job-index
    order.  The calling domain is one of them, so [shards <= 1] runs
    everything on it, in index order; each further domain is spawned
    for the call and joined before it returns.  Every domain takes the
    next unclaimed index from one atomic counter until none is left.
    Results are identical whatever [shards] is, which is the engine's
    whole contract.

    If jobs raise, every other job still runs; the exception of the
    {e lowest failing job index} is re-raised in the caller with its
    backtrace, so the surfaced error is also independent of scheduling.
    @raise Invalid_argument if [shards > max_shards], before any domain
    is spawned. *)
