(** Superblock translation cache for the interpreter hot loop.

    Straight-line code is formed once into a flat, pre-resolved op array
    per (block-entry PC, CPU), and each distinct instruction word is
    decoded once while it stays in the decode cache, which a {!flush}
    keeps (a decoded word never goes stale).  Blocks are validated
    against {!Memory.code_gen} (stores into the tracked code envelope invalidate
    them), and each block is a route memo: its cached actions are valid
    while its {!key} holds ({!Route_key.holds}).  Formation routes
    nothing; the first route-sensitive op executed under a key that does
    not hold re-routes the whole block, making the cache an exact
    memoization of {!Trap_rules.route}.

    This module holds the data and formation logic only; routing and
    execution live in {!Interp}, the only execution loop, which also owns
    the side-exit rules (PC divergence, mid-block code writes,
    budget/stop). *)

val fetch32 : Memory.t -> base:int64 -> int -> int
(** {!Memory.fetch32}: the 32-bit instruction word at [base + off]
    (words are packed two per 64-bit memory word), unboxed. *)

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
    cache gets twice as many slots.  Nothing else is allocated: block
    formation needs no scratch buffer.  A smaller cache suits a CPU that
    only ever runs short programs.
    @raise Invalid_argument unless [block_slots] is a positive power of
    two. *)

val decode : t -> int -> Encode.decoded
(** {!Encode.decode} through the per-CPU decode cache keyed by the
    instruction word (sound because decode is pure). *)

val decode_slot : t -> int -> int
(** The one decode-cache slot a word can occupy: a multiplicative hash
    of the word, so words that differ only in their register fields do
    not share one.  Two words collide when their slots are equal
    (exported so tests can construct collisions). *)

val decode_cache_size : int
(** Number of decode slots of a default-sized cache. *)

val flush : t -> unit
(** Drop all cached blocks.  Decoded words stay. *)

val forget_words : t -> unit
(** Drop all decoded words (blocks stay valid: they hold their ops).  A
    cache rewound for a whole campaign drops them between programs, so
    it does not keep old programs' words alive. *)

val shared : t -> shared_key
(** The key shared by this cache's blocks. *)

val lookup : t -> Memory.t -> Bytes.t -> int -> gen:int -> block
(** [lookup t mem file at ~gen] is the cached block entered at the
    address held in the native-endian word at byte [at] of [file] (a
    CPU's PC, {!Cpu.pc_offset} of its word file) and decoded under
    generation [gen], built fresh (unrouted) if absent or stale.  The
    address is read unboxed, so a hit allocates nothing, and a build
    allocates only its block: the ops array, one box per op and the
    block record with its entry address.  A misaligned address gets a
    fresh empty block ending {!T_unknown}, which is not cached.
    @raise Invalid_argument if the word is outside [file]. *)
