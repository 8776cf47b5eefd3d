(** Superblock translation cache for the interpreter hot loop.

    Straight-line code is decoded once into a flat, pre-resolved op array
    per (block-entry PC, CPU).  Blocks are validated against
    {!Memory.code_gen} (stores into the tracked code envelope invalidate
    them), and each block is a route memo: its cached actions are valid
    while its {!key} holds ({!Route_key.holds}).  Formation routes
    nothing; the first route-sensitive op executed under a key that does
    not hold re-routes the whole block, making the cache an exact
    memoization of {!Trap_rules.route}.

    This module holds the data and formation logic only; routing and
    execution live in {!Interp}, the only execution loop, which also owns
    the side-exit rules (PC divergence, mid-block code writes,
    budget/stop). *)

val fetch32 : Memory.t -> int64 -> int
(** Fetch the 32-bit instruction word at an address (words are packed
    two per 64-bit memory word). *)

val halt_marker : int
(** The parking instruction ([b .+0]) terminating loaded programs. *)

val is_plain : Insn.t -> bool
(** The constructors {!Trap_rules.route} sends to [Execute] under every
    input (loads, stores, ALU, barriers, TLBI, branches, SVC): they need
    no routing at all. *)

(** {1 Routing keys} *)

type key = {
  hcr : int64;
  vncr : int64;
  features : Features.t;
  mask : Trap_rules.nv2_mask;
  expose : Expose.Policy.t;
  el : Pstate.el;
}
(** A CPU's routing state: the representation of {!Route_key.t}, which
    builds and checks it.  Declared here because {!Cpu.t} holds the
    cache. *)

val unrouted : key
(** A key that never holds: its feature record is no CPU's. *)

type shared_key = { mutable last : key }
(** The key a memo's last miss took, for its entries that miss together
    to share ({!Route_key.share}). *)

(** {1 Blocks} *)

type op =
  | Plain of Insn.t
      (** routes to [Execute] unconditionally; no validation ever *)
  | Routed of { insn : Insn.t; mutable action : Trap_rules.action }
      (** route-sensitive; [action] is valid while the block's key holds *)

type terminal =
  | T_fallthrough  (** size cap: continue at the next PC *)
  | T_branch  (** last op rewrites PC itself *)
  | T_halt  (** next word is the halt marker *)
  | T_unknown  (** next word does not decode *)

type block = {
  entry : int64;
  ops : op array;
  term : terminal;
  mutable gen : int;
  mutable key : key;
      (** the routing state the [Routed] actions were computed under;
          {!unrouted} until the first one executes *)
}

type t
(** Per-CPU translation state: the decode cache and the superblock
    cache.  Each simulated CPU owns one (see {!Cpu.t}) — the former
    module-global decode cache was shared by every machine in the
    process, which [disassemble] could corrupt mid-run. *)

val create : ?block_slots:int -> unit -> t
(** [block_slots] (default 512) sizes the superblock cache; the decode
    cache gets twice as many slots.  A smaller cache suits a CPU that
    only ever runs short programs.
    @raise Invalid_argument unless [block_slots] is a positive power of
    two. *)

val decode : t -> int -> Encode.decoded
(** {!Encode.decode} through the per-CPU direct-mapped cache keyed by
    the instruction word (sound because decode is pure). *)

val decode_cache_size : int
(** Number of direct-mapped decode slots of a default-sized cache —
    words congruent modulo this collide on a slot (exported so tests can
    construct collisions). *)

val flush : t -> unit
(** Drop all cached blocks and decoded words. *)

val shared : t -> shared_key
(** The key shared by this cache's blocks. *)

val lookup : t -> Memory.t -> pc:int64 -> gen:int -> block
(** The cached block entered at [pc] and decoded under generation [gen],
    built fresh (unrouted) if absent or stale. *)
