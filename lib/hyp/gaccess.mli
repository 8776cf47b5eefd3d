(** Guest-hypervisor access funnel.

    Every architectural interaction the guest hypervisor performs goes
    through this module as an instruction executed on the simulated CPU at
    EL1.  Under a hardware mechanism the instruction executes as written
    and the trap router does the rest; under a paravirtualized mechanism
    it is first rewritten ({!Paravirt.rewrite}), exactly as the paper's
    compile-time wrappers do (Section 4). *)

module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Sysreg = Arm.Sysreg

(** One pre-resolved register copy of a compiled world-switch sequence:
    a register-file move of the register with this dense index
    ([G_sys]), a deferred-page memory move with a precomputed address
    ([G_mem]) — both moved as unboxed words — or a replay of the
    preallocated instruction under its precomputed route
    ({!Cpu.exec_with_action}; [G_exec] — traps, disguised reads, UNDEFs
    and hardware-side-effect registers). *)
type gop =
  | G_sys of int
  | G_mem of int64
  | G_exec of Insn.t * Arm.Trap_rules.action

type gcopy = { g_op : gop; g_slot : int64 }

(** Everything instruction routing reads; a compiled plan replays
    soundly while its key holds. *)
type gkey = {
  gk_hcr : int64;
  gk_vncr : int64;
  gk_feats : Arm.Features.t;
  gk_mask : Arm.Trap_rules.nv2_mask;
  gk_expose : Expose.Policy.t;
  gk_el : Arm.Pstate.el;
}

type seq_entry = {
  se_ctx : int64;
  se_save : bool;
  se_el12 : bool;
  se_regs : Sysreg.t array;
  mutable se_plans : (gkey * gcopy array) list;
}

type t = {
  cpu : Cpu.t;
  config : Config.t;
  page_base : int64;  (** deferred access / shared page base *)
  mutable tamper : (int64 -> int64) option;
      (** one-shot fault-injection corruption of the next {!rd}/{!ld}
          result *)
  mutable seqs : seq_entry list;
      (** compiled world-switch sequences, memoized per (context,
          register set, direction, alias form) *)
}

val v : Cpu.t -> Config.t -> page_base:int64 -> t

val exec : t -> Insn.t -> unit

val data_reg : int
(** x10: carries MRS results and MSR sources through the funnel. *)

val rd : t -> Sysreg.access -> int64
val wr : t -> Sysreg.access -> int64 -> unit
val ld : t -> int64 -> int64
val st : t -> int64 -> int64 -> unit
val hvc : t -> int -> unit
val eret : t -> unit

val gich_access : t -> Sysreg.t -> is_write:bool -> unit
(** A GICv2 GICH frame access: a plain device access at EL2, a stage-2
    data abort when deprivileged (the "trivially traps" path of
    Section 4).  The value moves through {!data_reg}.  An access with no
    GICH mapping injects UNDEF when deprivileged and raises
    {!Fault.Error.Sim_fault} at EL2. *)

val gicv2_gic : t -> World_switch.gic_ops
(** vGIC accessors backed by the memory-mapped interface. *)

val ops : t -> World_switch.ops

val save_ctx : t -> el12:bool -> ctx:int64 -> Sysreg.t array -> unit
(** Save the given registers to their context slots — observably
    identical to {!World_switch.save_array} over {!ops} (with
    [vm_el1_access] when [el12] is set), but replayed through a compiled
    plan when the routing state allows: paravirt configs, pending
    fault-injection corruption and active tracing fall back to the
    interpreted loop, and copies whose route can trap replay their exact
    instruction under its route ({!Cpu.exec_with_action}); the rest move
    as unboxed words. *)

val restore_ctx : t -> el12:bool -> ctx:int64 -> Sysreg.t array -> unit
