(** Fuzzing campaigns: the loop behind [neve_sim fuzz] and the CI smoke
    job.

    A campaign is fully determined by [(seed, n)]: the generator's PRNG
    is its only entropy source, so two same-seed runs produce
    byte-identical reports (the optional [should_stop] time budget is
    the one escape hatch, and it only truncates the program count). *)

type found = {
  f_program : int;          (** index of the diverging program *)
  f_words : int array;      (** original encoded program *)
  f_min_words : int array;  (** after shrinking *)
  f_divergences : string list;
      (** rendered reports ({!Diff.divergence_to_string}) of the
          minimized program *)
  f_repro_path : string option;  (** where the repro file was written *)
  f_streams : (string * string list) list;
      (** rendered per-column trace-event streams of the minimized
          program — the divergence's reference and disagreeing columns,
          printed side by side by {!pp_stats}.  Empty unless the
          campaign ran with [traced] *)
}

type stats = {
  s_seed : int;
  s_programs : int;              (** programs actually run *)
  s_requested : int;
  s_rule_covered : int;
  s_rule_total : int;
  s_insn_forms : string list;
  s_insn_form_total : int;
  s_aborts : int;  (** programs every column aborted on, identically *)
  s_column_traps : (string * int) list;
  s_cycles : int;  (** modeled cycles accumulated across all columns *)
  s_timed_out : bool;  (** the sim-cycle budget stopped the campaign *)
  s_found : found list;
}

val divergence_count : stats -> int

val run :
  ?should_stop:(unit -> bool) ->
  ?corpus_dir:string ->
  ?max_found:int ->
  ?traced:bool ->
  ?snap_oracle:bool ->
  ?max_cycles:int ->
  ?shards:int ->
  seed:int ->
  n:int ->
  unit ->
  stats
(** Generate and check [n] programs.  On divergence the program is
    shrunk with {!Shrink.minimize} and, when [corpus_dir] is given,
    written there as [div-seed<seed>-p<index>.repro]; after [max_found]
    divergences (default 3) the campaign keeps counting but stops
    shrinking/saving.  [max_cycles] (default 0 = unlimited) bounds the
    campaign to a deterministic budget of modeled cycles summed across
    every column run; a campaign stopped by it is marked [s_timed_out]
    — unlike [should_stop], the truncation point is part of the
    deterministic report.  [traced] (default false) replays each minimized
    divergence with tracing enabled and stores the event streams in
    [f_streams]; generation and the oracle itself stay untraced, so
    found/coverage results are identical either way.  [snap_oracle]
    (default false) adds the restore-equivalence column to every
    program: snapshot-at-k/restore/resume must match the uninterrupted
    run bit for bit ({!Diff.run_words}).

    [shards] (default 1) fans the per-program oracle runs out over that
    many domains with {!Shard.map}: generation stays serial (the coverage-directed
    generator is the campaign's one entropy stream), each program's
    oracle runs on some domain into slot [i], and the fold walks slots
    in program order — so the sharded report is byte-identical to the
    serial one.  Sharded campaigns do not consult [should_stop] (a wall
    clock cannot cut a parallel campaign at a well-defined program) and
    reject a nonzero [max_cycles] with [Invalid_argument]. *)

val replay : ?snap_oracle:bool -> int array -> string list
(** Run one encoded program through the oracle; rendered divergence
    reports, empty on agreement.  Used by corpus regression tests. *)

val pp_stats : Format.formatter -> stats -> unit
val json : stats -> Json.t
(** The stats report (no timestamps, no wall clock). *)
