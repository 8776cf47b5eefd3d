(** Register-list scaling sweep: physical traps for one save+restore of an
    n-register context, per mechanism.  ARMv8.3 scales linearly (~2 traps
    per register); NEVE stays flat — the quantitative form of Section 6's
    "the more often a guest hypervisor accesses system registers, the
    greater potential performance benefit". *)

type point = {
  p_regs : int;
  p_traps : int;
  p_cycles : int;
}

type series = {
  s_label : string;
  s_points : point list;
}

val run : unit -> series list

val slope : point list -> float
(** Least-squares traps-per-register. *)

val pp : Format.formatter -> series list -> unit
