(** Architecture revisions and the virtualization features each brings.

    The paper spans four points on the ARMv8 timeline: v8.0 (the hardware
    the authors ran on), v8.1 (VHE), v8.3 (FEAT_NV, nested virtualization)
    and v8.4 (FEAT_NV2, i.e. NEVE). *)

type revision = V8_0 | V8_1 | V8_3 | V8_4

val revision_name : revision -> string

type t = {
  revision : revision;
  gicv3 : bool;
      (** system-register GIC interface; GICv2 is memory-mapped *)
}

val v : ?gicv3:bool -> revision -> t
(** [v revision] builds a feature set; [gicv3] defaults to [true]. *)

val has_vhe : t -> bool  (** ARMv8.1 Virtualization Host Extensions *)

val has_nv : t -> bool   (** ARMv8.3 nested virtualization (FEAT_NV) *)

val has_nv2 : t -> bool  (** ARMv8.4 NEVE (FEAT_NV2) *)

val pp : Format.formatter -> t -> unit
