(** Superblock translation cache for the interpreter hot loop.

    Straight-line code is decoded once into a flat, pre-resolved op array
    per (block-entry PC, CPU), with trap-rule routing hoisted from
    per-instruction {!Cpu.exec} to block formation.  Blocks are validated
    against {!Memory.code_gen} (stores into the tracked code envelope
    invalidate them) and against the exact route inputs their cached
    actions were computed under (EL, raw HCR_EL2, VNCR_EL2, features,
    ablation mask, OoH exposure policy) — a mismatch re-routes in place,
    making the cache an exact memoization of {!Trap_rules.route}.

    This module holds the data and formation logic only; execution lives
    in {!Interp}, the only execution loop, which also owns the side-exit
    rules (PC divergence, mid-block code writes, budget/stop). *)

val fetch32 : Memory.t -> int64 -> int
(** Fetch the 32-bit instruction word at an address (words are packed
    two per 64-bit memory word). *)

val halt_marker : int
(** The parking instruction ([b .+0]) terminating loaded programs. *)

val is_plain : Insn.t -> bool
(** The constructors {!Trap_rules.route} sends to [Execute] under every
    input (loads, stores, ALU, barriers, TLBI, branches, SVC): they need
    no routing at all. *)

type op =
  | Plain of Insn.t
      (** routes to [Execute] unconditionally; no validation ever *)
  | Routed of { insn : Insn.t; mutable action : Trap_rules.action }
      (** route-sensitive; [action] is valid under the block key *)

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
  mutable k_el : Pstate.el;
  mutable k_hcr : int64;
  mutable k_vncr : int64;
  mutable k_features : Features.t;
  mutable k_mask : Trap_rules.nv2_mask;
  mutable k_expose : Expose.Policy.t;
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

val lookup :
  t ->
  Memory.t ->
  pc:int64 ->
  gen:int ->
  el:Pstate.el ->
  hcr:Hcr.view ->
  hcr_raw:int64 ->
  vncr:int64 ->
  features:Features.t ->
  mask:Trap_rules.nv2_mask ->
  expose:Expose.Policy.t ->
  block
(** The cached block entered at [pc] and decoded under generation [gen],
    built fresh if absent or stale. *)

val re_route :
  block ->
  el:Pstate.el ->
  hcr:Hcr.view ->
  hcr_raw:int64 ->
  vncr:int64 ->
  features:Features.t ->
  mask:Trap_rules.nv2_mask ->
  expose:Expose.Policy.t ->
  unit
(** Recompute every cached action under the current route inputs and
    rekey the block (the mid-block side-exit repair path). *)
