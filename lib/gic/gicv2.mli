(** GICv2 memory-mapped hypervisor control interface (GICH).

    With GICv2 the interface is a device frame: a guest hypervisor's
    accesses "trivially trap to EL2 when not mapped in the Stage-2 page
    tables" (paper Section 4).  GICv3 exposes the same registers as
    system registers ({!Vgic}); this module maps the MMIO view onto them
    so one implementation serves both, as the paper notes the programming
    interfaces are almost identical. *)

val gich_base : int64

type gich_reg =
  | GICH_HCR
  | GICH_VTR
  | GICH_VMCR
  | GICH_MISR
  | GICH_EISR
  | GICH_ELRSR
  | GICH_APR
  | GICH_LR of int

val reg_of_offset : int -> gich_reg option

val to_ich : gich_reg -> Arm.Sysreg.t option
(** The equivalent GICv3 system register, for routing a trapped GICH
    access into the common implementation. *)

val of_ich : Arm.Sysreg.t -> gich_reg option
(** Inverse of {!to_ich}. *)

val address_of : gich_reg -> int64

val decode_access : int64 -> gich_reg option
(** Decode a faulting physical address within the GICH frame. *)
