(** The typed error channel for the simulator.

    Guest-triggerable conditions never raise — the hypervisor layers
    inject an architectural exception (UNDEF at the right EL) instead.
    Genuine simulator bugs abort through {!Sim_fault}, which carries the
    machine context a bare [Invalid_argument] loses: which cpu, at which
    EL and PC, and what trapped recently. *)

type kind =
  | Unknown_sysreg of (int * int * int * int * int)
      (** a trapped access whose encoding maps to no known register *)
  | Bad_hvc_operand of int
      (** a paravirt hvc operand outside the form registry *)
  | Not_gich_register of string
      (** a GICv2 frame access to a register with no GICH mapping *)
  | Unknown_access_form of string
      (** paravirt registry lookup failed for a simulator-built form *)
  | Unsupported_rewrite of string
      (** the rewriter met an instruction shape it cannot encode *)
  | Invariant_broken of string
  | Oracle_divergence of string
      (** differential fuzzing: two trap mechanisms disagreed on an
          architecturally visible outcome *)
  | Bad_topology of string
      (** a machine shape that cannot be built: a CPU count outside the
          per-vCPU memory-region budget *)
  | Bad_intid of string
      (** an interrupt id outside the range its GIC path accepts; the
          guest-reachable encodings mask their intid fields, so a trip
          here is simulator misuse, not guest input *)

type context = {
  fc_cpu : int;
  fc_el : Arm.Pstate.el;
  fc_pc : int64;
  fc_trail : string list;  (** most recent traps first *)
  fc_events : string list;
      (** rendered tail of the trace ring (oldest first); empty unless
          tracing was enabled when the context was captured *)
}

exception Sim_fault of kind * context option

val trail_depth : int
(** How many of the newest trap-log entries a context carries. *)

val context_of_cpu : ?id:int -> Arm.Cpu.t -> context
(** Capture cpu/EL/PC and the last few entries of the trap log (the log
    is populated only when {!Cost.set_logging} is on). *)

val to_string : kind -> context option -> string

val sim_bug : ?id:int -> ?cpu:Arm.Cpu.t -> kind -> 'a
(** Raise {!Sim_fault}, capturing context from [cpu] when given. *)
