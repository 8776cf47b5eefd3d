(** The world-switch register lists, mirroring KVM/ARM's sysreg
    save/restore sets (Linux 4.10 era).

    The {e lengths} of these lists drive exit multiplication on ARMv8.3:
    every element is a system-register access the guest hypervisor
    performs per exit, and each access traps unless NEVE removes the
    trap.  Keeping them as data makes trap-count scaling a one-line
    ablation. *)

module Sysreg = Arm.Sysreg

val el1_state : Sysreg.t list
(** The EL1 context switched between a VM and the host (non-VHE) and
    between VMs: the __sysreg_save_state set, 22 registers. *)

val el0_state : Sysreg.t list
(** EL0-accessible context (thread pointers, user SP): switched directly,
    never traps at EL1. *)

val el12_capable : Sysreg.t list
(** The subset of {!el1_state} with a VHE [_EL12] access form (16). *)

val vgic_lrs_in_use : int
(** List registers KVM uses on this hardware: 4. *)

val timer_el0_state : Sysreg.t list
(** The VM's EL1 virtual timer (EL0-accessible CNTV registers). *)

(** {1 Dense-index compiled forms}

    The lists above are the source of truth; these are what the hot
    paths consume — membership as a flat bool array, register sets as
    precomputed {!Sysreg.index} arrays. *)

val index_array : Sysreg.t list -> int array

val is_el12_capable : Sysreg.t -> bool
(** O(1) membership in {!el12_capable} (replaces a [List.mem] scan on the
    world-switch path). *)

val el1_state_arr : Sysreg.t array
val el0_state_arr : Sysreg.t array
val debug_state_arr : Sysreg.t array
val pmu_state_arr : Sysreg.t array
val timer_el0_state_arr : Sysreg.t array

val vgic_saved : Sysreg.t array array
(** [vgic_saved.(used_lrs)], for [used_lrs] in [0..Sysreg.lr_count]:
    ICH_VMCR, ICH_MISR, ICH_ELRSR and ICH_AP1R0, then the list registers
    in use, saved on exit; [vgic_restored.(used_lrs)]: ICH_VMCR, then
    the list registers in use, restored on entry. *)

val vgic_restored : Sysreg.t array array

val ctx_slot : Sysreg.t -> int
(** Byte offset of a register in a context save area; unique per
    register.  One array load keyed by {!Sysreg.index}. *)
