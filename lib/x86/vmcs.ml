(* The VM Control Structure.

   On Intel VT-x the hardware automatically saves and restores guest and
   host state to and from the VMCS on every transition between root and
   non-root mode (Section 2, "Comparison to x86").  That coalescing is the
   architectural reason x86 suffers far less exit multiplication than
   ARMv8.3: the guest hypervisor manipulates VM state with vmread/vmwrite
   against a memory structure instead of dozens of system-register
   instructions that each trap. *)

type field =
  (* guest-state area *)
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
  (* host-state area *)
  | Host_rip
  | Host_rsp
  | Host_cr0
  | Host_cr3
  | Host_cr4
  (* control fields *)
  | Pin_based_controls
  | Cpu_based_controls
  | Secondary_controls
  | Exception_bitmap
  | Ept_pointer
  | Virtual_apic_page
  | Vmcs_link_pointer
  | Tsc_offset
  (* exit information (read-only to software) *)
  | Exit_reason
  | Exit_qualification
  | Guest_linear_addr
  | Vm_exit_intr_info

let all_fields =
  [ Guest_rip; Guest_rsp; Guest_rflags; Guest_cr0; Guest_cr3; Guest_cr4;
    Guest_es_sel; Guest_cs_sel; Guest_ss_sel; Guest_ds_sel; Guest_fs_sel;
    Guest_gs_sel; Guest_tr_sel; Guest_gdtr_base; Guest_idtr_base;
    Guest_ia32_efer; Guest_interruptibility; Host_rip; Host_rsp; Host_cr0;
    Host_cr3; Host_cr4; Pin_based_controls; Cpu_based_controls;
    Secondary_controls; Exception_bitmap; Ept_pointer; Virtual_apic_page;
    Vmcs_link_pointer; Tsc_offset; Exit_reason; Exit_qualification;
    Guest_linear_addr; Vm_exit_intr_info ]

let field_name = function
  | Guest_rip -> "GUEST_RIP"
  | Guest_rsp -> "GUEST_RSP"
  | Guest_rflags -> "GUEST_RFLAGS"
  | Guest_cr0 -> "GUEST_CR0"
  | Guest_cr3 -> "GUEST_CR3"
  | Guest_cr4 -> "GUEST_CR4"
  | Guest_es_sel -> "GUEST_ES_SEL"
  | Guest_cs_sel -> "GUEST_CS_SEL"
  | Guest_ss_sel -> "GUEST_SS_SEL"
  | Guest_ds_sel -> "GUEST_DS_SEL"
  | Guest_fs_sel -> "GUEST_FS_SEL"
  | Guest_gs_sel -> "GUEST_GS_SEL"
  | Guest_tr_sel -> "GUEST_TR_SEL"
  | Guest_gdtr_base -> "GUEST_GDTR_BASE"
  | Guest_idtr_base -> "GUEST_IDTR_BASE"
  | Guest_ia32_efer -> "GUEST_IA32_EFER"
  | Guest_interruptibility -> "GUEST_INTERRUPTIBILITY"
  | Host_rip -> "HOST_RIP"
  | Host_rsp -> "HOST_RSP"
  | Host_cr0 -> "HOST_CR0"
  | Host_cr3 -> "HOST_CR3"
  | Host_cr4 -> "HOST_CR4"
  | Pin_based_controls -> "PIN_BASED_CONTROLS"
  | Cpu_based_controls -> "CPU_BASED_CONTROLS"
  | Secondary_controls -> "SECONDARY_CONTROLS"
  | Exception_bitmap -> "EXCEPTION_BITMAP"
  | Ept_pointer -> "EPT_POINTER"
  | Virtual_apic_page -> "VIRTUAL_APIC_PAGE"
  | Vmcs_link_pointer -> "VMCS_LINK_POINTER"
  | Tsc_offset -> "TSC_OFFSET"
  | Exit_reason -> "EXIT_REASON"
  | Exit_qualification -> "EXIT_QUALIFICATION"
  | Guest_linear_addr -> "GUEST_LINEAR_ADDR"
  | Vm_exit_intr_info -> "VM_EXIT_INTR_INFO"

(* Fields a shadow VMCS may satisfy without a VM exit.  VMCS shadowing uses
   read/write bitmaps; KVM shadows the hot guest-state and exit-information
   fields but leaves a few control fields unshadowed, so a handful of
   accesses per nested exit still exit to L0. *)
let shadowable = function
  | Vmcs_link_pointer | Virtual_apic_page | Tsc_offset -> false
  | _ -> true

type t = {
  values : (field, int64) Hashtbl.t;
  mutable launched : bool;
  mutable shadow_of : t option;  (* a shadow VMCS linked to a real one *)
}

let create () = { values = Hashtbl.create 64; launched = false; shadow_of = None }

let read t f = Option.value ~default:0L (Hashtbl.find_opt t.values f)
let write t f v = Hashtbl.replace t.values f v

let copy_all ~src ~dst =
  List.iter (fun f -> write dst f (read src f)) all_fields

let guest_fields =
  [ Guest_rip; Guest_rsp; Guest_rflags; Guest_cr0; Guest_cr3; Guest_cr4;
    Guest_es_sel; Guest_cs_sel; Guest_ss_sel; Guest_ds_sel; Guest_fs_sel;
    Guest_gs_sel; Guest_tr_sel; Guest_gdtr_base; Guest_idtr_base;
    Guest_ia32_efer; Guest_interruptibility ]
