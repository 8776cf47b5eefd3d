(** HCR_EL2 bit definitions and a decoded view.

    Bit positions follow the ARM ARM.  The bits the paper's mechanisms
    hinge on: TVM/TRVM (trapping EL1 VM-register accesses, the "existing
    ARMv8.0 mechanisms" of Section 4), TGE, E2H (VHE), and NV/NV1/NV2
    (ARMv8.3 nested virtualization and ARMv8.4 NEVE). *)

val vm : int64    (** stage-2 translation enable (bit 0) *)

val fmo : int64   (** route FIQ to EL2 (bit 3) *)

val imo : int64   (** route IRQ to EL2 (bit 4) *)

val amo : int64   (** route SError to EL2 (bit 5) *)

val vse : int64   (** FEAT_RAS: virtual SError pending (bit 8) *)

val twi : int64   (** trap WFI (bit 13) *)

val twe : int64
val tsc : int64   (** trap SMC (bit 19) *)

val tvm : int64   (** trap writes to EL1 VM registers (bit 26) *)

val tge : int64   (** trap general exceptions (bit 27) *)

val trvm : int64  (** trap reads of EL1 VM registers (bit 30) *)

val e2h : int64   (** VHE: EL2 host (bit 34) *)

val nv : int64    (** ARMv8.3 nested virtualization (bit 42) *)

val nv1 : int64   (** NV behaviour tweak for non-VHE guests (bit 43) *)

val at : int64    (** trap address-translation instructions (bit 44) *)

val nv2 : int64   (** ARMv8.4 NEVE redirection (bit 45) *)

val is_set : int64 -> int64 -> bool
val set : int64 -> int64 -> int64
val clear_bit : int64 -> int64 -> int64

(** Decoded view of the modeled bits. *)
type view = {
  h_vm : bool;
  h_imo : bool;
  h_fmo : bool;
  h_amo : bool;
  h_vse : bool;
  h_twi : bool;
  h_tsc : bool;
  h_tvm : bool;
  h_tge : bool;
  h_trvm : bool;
  h_e2h : bool;
  h_nv : bool;
  h_nv1 : bool;
  h_nv2 : bool;
}

val decode : int64 -> view
val encode : view -> int64
val pp : Format.formatter -> view -> unit
