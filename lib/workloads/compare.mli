(** Automated paper-vs-measured comparison: runs the microbenchmarks,
    lines results up against {!Paper}'s published numbers and reports
    signed deviations — the regenerable core of EXPERIMENTS.md.  The test
    suite asserts the documented deviation bands. *)

type line = {
  l_bench : Micro.benchmark;
  l_column : string;
  l_paper : float;
  l_measured : float;
  l_deviation : float;  (** signed fraction *)
}

val cycles : ?benches:Micro.benchmark list -> unit -> line list
(** Tables 1/6, every column with a published value. *)

val traps : ?benches:Micro.benchmark list -> unit -> line list
(** Table 7. *)

val within_band : line -> bool
val pp : Format.formatter -> line list -> unit
