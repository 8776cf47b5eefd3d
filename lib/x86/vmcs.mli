(** The VM Control Structure.

    On Intel VT-x the hardware saves and restores guest and host state to
    and from the VMCS automatically on every root/non-root transition
    (paper Section 2, "Comparison to x86").  That coalescing is the
    architectural reason x86 suffers far less exit multiplication than
    ARMv8.3. *)

type field =
  | Guest_rip
  | Guest_rsp
  | Guest_rflags
  | Guest_cr0
  | Guest_cr3
  | Guest_cr4
  | Guest_es_sel
  | Guest_cs_sel
  | Guest_ss_sel
  | Guest_ds_sel
  | Guest_fs_sel
  | Guest_gs_sel
  | Guest_tr_sel
  | Guest_gdtr_base
  | Guest_idtr_base
  | Guest_ia32_efer
  | Guest_interruptibility
  | Host_rip
  | Host_rsp
  | Host_cr0
  | Host_cr3
  | Host_cr4
  | Pin_based_controls
  | Cpu_based_controls
  | Secondary_controls
  | Exception_bitmap
  | Ept_pointer
  | Virtual_apic_page
  | Vmcs_link_pointer
  | Tsc_offset
  | Exit_reason
  | Exit_qualification
  | Guest_linear_addr
  | Vm_exit_intr_info

val all_fields : field list
val field_name : field -> string

val shadowable : field -> bool
(** Whether VMCS shadowing covers the field; KVM leaves a few control
    fields unshadowed, so some accesses per nested exit still exit. *)

type t = {
  values : (field, int64) Hashtbl.t;
  mutable launched : bool;
  mutable shadow_of : t option;
}

val create : unit -> t
val read : t -> field -> int64
val write : t -> field -> int64 -> unit
val copy_all : src:t -> dst:t -> unit

val guest_fields : field list
(** The guest-state area: what vmresume merges into vmcs02. *)
