(** The paper's published numbers (Tables 1, 6, 7 and the Section 5
    measurements), transcribed as data for automated paper-vs-measured
    reporting and the test suite's shape assertions. *)

type micro_row = {
  m_bench : Micro.benchmark;
  m_vm : int;
  m_nested : int;
  m_nested_vhe : int;
  m_neve : int option;     (** [None] in Table 1 *)
  m_neve_vhe : int option;
  m_x86_vm : int;
  m_x86_nested : int;
}

val cycles : micro_row list
(** Tables 1 and 6. *)

type trap_row = {
  t_bench : Micro.benchmark;
  t_nested : int;
  t_nested_vhe : int;
  t_neve : int;
  t_neve_vhe : int;
  t_x86 : int;
}

val traps : trap_row list
(** Table 7. *)

val trap_return : int

val cycles_row : Micro.benchmark -> micro_row
val traps_row : Micro.benchmark -> trap_row

val deviation : paper:float -> measured:float -> float
val pp_deviation : Format.formatter -> float -> unit
