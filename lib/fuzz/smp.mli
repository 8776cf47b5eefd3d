(** Multi-vCPU differential fuzzing: SMP translation programs — remaps
    racing readers, staged break-before-make with reads inside and after
    the window, SGI storms — run identically on every column of
    [Workloads.Scenario.fuzz_columns].

    Two oracles: the architectural observation stream (serve classes and
    PAs, acknowledged SGI intids) must match column 0 exactly, and the
    machine's break-before-make checker must be clean in every column —
    no stale translation after a completed shootdown, no make without a
    completed break.  A campaign is fully determined by [(seed, n)]. *)

type op =
  | Read of { cpu : int; page : int }
  | Remap of { cpu : int; page : int }
  | Staged of { cpu : int; page : int; reader : int; window_reads : int }
  | Storm of { cpu : int; bursts : int }

type prog = { p_index : int; p_ops : op list }

type report = {
  r_seed : int;
  r_programs : int;
  r_ops_per_program : int;
  r_columns : string list;
  r_shootdowns : int;
      (** completed broadcasts on the reference column, summed *)
  r_recipients : int;
  r_divergences : string list;
  r_violations : string list;
}

val finding_count : report -> int

val default_ops : int

val run : ?ops:int -> seed:int -> n:int -> unit -> report

val pp_report : Format.formatter -> report -> unit

val json : report -> Json.t
(** The report, schema [neve-smp-fuzz/1]. *)
