(** Turtles-style nested virtualization on the VT-x model: the x86
    baseline of the paper's comparison (Tables 1, 6, 7; Figure 2).

    One VMCS per edge, as in KVM: vmcs01 (L0 running L1), vmcs12 (L1's
    VMCS for L2, shadow-linked so L1's vmread/vmwrite mostly do not exit)
    and vmcs02 (the merged VMCS L0 actually runs L2 with). *)

type t = {
  vtx : Vtx.t;
  vmcs01 : Vmcs.t;
  vmcs12 : Vmcs.t;
  vmcs02 : Vmcs.t;
  mutable l2_running : bool;
  mutable nested : bool;
  mutable pending_intid : int;
  mutable exits_l1 : int;  (** exits taken while emulating for L1 *)
}

val table : t -> Cost.table

val create : ?table:Cost.table -> nested:bool -> unit -> t
(** Build and enter a (possibly nested) x86 VM. *)

val hypercall : t -> unit
val device_io : t -> unit

val send_ipi : sender:t -> receiver:t -> unit
(** Sender exits on the APIC ICR write; the receiver takes the external
    interrupt. *)

val eoi : t -> unit
(** APICv: no exit, the paper's constant 316 cycles. *)
