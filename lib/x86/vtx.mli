(** Intel VT-x machine model: root/non-root transitions over a current
    VMCS, with the properties the paper compares against — coalesced
    state save/restore, VMCS shadowing, and exit-free APICv EOI. *)

type exit_reason =
  | Exit_vmcall
  | Exit_io
  | Exit_ext_interrupt
  | Exit_vmresume      (** L1 executed vmlaunch/vmresume *)
  | Exit_vmread        (** unshadowed vmread from L1 *)
  | Exit_vmwrite
  | Exit_apic_access   (** IPI send: APIC ICR write *)
  | Exit_ept_violation

val exit_reason_code : exit_reason -> int64

type mode = Root | Non_root

type t = {
  meter : Cost.meter;
  mutable mode : mode;
  mutable current : Vmcs.t option;
  mutable shadowing : bool;
  mutable exit_handler : (t -> exit_reason -> unit) option;
  mutable exits : int;
}

val create : ?table:Cost.table -> unit -> t
val table : t -> Cost.table

val vmptrld : t -> Vmcs.t -> unit
(** @raise Invalid_argument outside root mode. *)

val vm_exit : t -> exit_reason -> unit
(** Hardware stores guest state, loads host state (one coalesced cost),
    records the exit and runs the root-mode handler. *)

val vm_enter : t -> unit
(** Hardware loads guest state from the current VMCS. *)

val vmread_root : t -> Vmcs.t -> Vmcs.field -> int64
val vmwrite_root : t -> Vmcs.t -> Vmcs.field -> int64 -> unit

val vmread_l1 : t -> Vmcs.t -> Vmcs.field -> int64
(** A deprivileged guest hypervisor's vmread: satisfied by the shadow
    VMCS without an exit when shadowing covers the field. *)

val vmwrite_l1 : t -> Vmcs.t -> Vmcs.field -> int64 -> unit

val vmresume_l1 : t -> unit
(** Always exits to L0 (the Turtles flow). *)

val apicv_eoi : t -> unit
(** Interrupt completion without an exit — the x86 Virtual EOI row. *)
