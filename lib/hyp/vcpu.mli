(** Virtual CPU state maintained by the host hypervisor.

    A vCPU carries two virtual register contexts: [vel2], the virtual EL2
    state of a guest hypervisor running deprivileged in it (paper
    Section 4), and [vel1], the EL1/EL0 state of the nested VM below that
    guest hypervisor as last programmed through trapped or deferred
    accesses.  It also owns fixed memory regions: a context save area for
    world-switch code and a page used as the NEVE deferred access page
    (or the paravirtualized shared memory region). *)

module Sysreg = Arm.Sysreg
module Sysreg_file = Arm.Sysreg_file

val vcpu_region_base : int64
val vcpu_region_size : int64

val vcpu_region_limit : int64
(** First fixed address above the region array (the guest hypervisor's
    virtual VTTBR root): vCPU regions must stay strictly below it. *)

val max_vcpus : int
(** Largest CPU count whose regions fit the
    [vcpu_region_base, vcpu_region_limit) address budget. *)

type t = {
  id : int;
  vel1 : Sysreg_file.t;
  vel2 : Sysreg_file.t;
  ctx_base : int64;       (** guest hypervisor's world-switch context *)
  host_ctx_base : int64;  (** host hypervisor's context area *)
  page_base : int64;      (** deferred access / shared page *)
  mutable in_vel2 : bool; (** guest hypervisor vs nested VM running *)
  mutable nested_launched : bool;
  mutable used_lrs : int; (** list registers the guest hypervisor uses *)
}

val create : id:int -> t

type mark
(** The run flags and both virtual register files, as when marked. *)

val mark : t -> mark
val rewind : t -> mark -> unit

val read_vel2 : t -> Sysreg.t -> int64
val write_vel2 : t -> Sysreg.t -> int64 -> unit
val read_vel1 : t -> Sysreg.t -> int64
val write_vel1 : t -> Sysreg.t -> int64 -> unit

val guest_is_vhe : t -> bool
(** The guest hypervisor's own virtual HCR_EL2.E2H bit. *)

val pp : Format.formatter -> t -> unit

(** Why a nested VM exited — the reason the host forwards to the guest
    hypervisor along with the virtual EL2 exception. *)
type nested_exit =
  | Exit_hypercall
  | Exit_mmio of { addr : int64; is_write : bool }
  | Exit_virq of int
  | Exit_sgi of { target : int; intid : int; rt : int }
  | Exit_wfi
  | Exit_hyp_insn of { access : Arm.Sysreg.access; rt : int; is_read : bool }
      (** recursive virtualization (Section 6.2): the nested VM is itself
          a hypervisor and executed a hypervisor instruction *)
  | Exit_hyp_eret

val exit_name : nested_exit -> string
