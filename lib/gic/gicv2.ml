(* GICv2 memory-mapped hypervisor control interface (GICH).

   With GICv2 the hypervisor control interface is a memory-mapped device,
   so a guest hypervisor's accesses "trivially trap to EL2 when not mapped
   in the Stage-2 page tables" (Section 4) — no paravirtualization needed.
   With GICv3 the same registers are system registers (Vgic, ICH regs).

   The paper's measurements were taken on GICv2 hardware but report the
   system-register interface costs; the programming interfaces are "almost
   identical" (Section 7).  The model exposes both: this module gives the
   MMIO view, mapping offsets in the GICH frame to the equivalent ICH_*
   register so one implementation serves both. *)

let gich_base = 0x0800_0000L
let gich_frame_size = 0x1000L

(* Offsets per the GICv2 specification (GICH register frame). *)
let off_hcr = 0x000
let off_vtr = 0x004
let off_vmcr = 0x008
let off_misr = 0x010
let off_eisr0 = 0x020
let off_elrsr0 = 0x030
let off_apr = 0x0f0
let off_lr0 = 0x100

type gich_reg =
  | GICH_HCR
  | GICH_VTR
  | GICH_VMCR
  | GICH_MISR
  | GICH_EISR
  | GICH_ELRSR
  | GICH_APR
  | GICH_LR of int

let reg_of_offset off =
  if off = off_hcr then Some GICH_HCR
  else if off = off_vtr then Some GICH_VTR
  else if off = off_vmcr then Some GICH_VMCR
  else if off = off_misr then Some GICH_MISR
  else if off >= off_eisr0 && off < off_eisr0 + 8 then Some GICH_EISR
  else if off >= off_elrsr0 && off < off_elrsr0 + 8 then Some GICH_ELRSR
  else if off >= off_apr && off < off_apr + 4 then Some GICH_APR
  else if off >= off_lr0 && off < off_lr0 + (4 * 64) then
    Some (GICH_LR ((off - off_lr0) / 4))
  else None

(* The equivalent system register in the GICv3 interface, for routing a
   trapped GICH MMIO access into the common implementation. *)
let to_ich : gich_reg -> Arm.Sysreg.t option = function
  | GICH_HCR -> Some Arm.Sysreg.ICH_HCR_EL2
  | GICH_VTR -> Some Arm.Sysreg.ICH_VTR_EL2
  | GICH_VMCR -> Some Arm.Sysreg.ICH_VMCR_EL2
  | GICH_MISR -> Some Arm.Sysreg.ICH_MISR_EL2
  | GICH_EISR -> Some Arm.Sysreg.ICH_EISR_EL2
  | GICH_ELRSR -> Some Arm.Sysreg.ICH_ELRSR_EL2
  | GICH_APR -> Some (Arm.Sysreg.ICH_AP1R_EL2 0)
  | GICH_LR n ->
    if n < Arm.Sysreg.lr_count then Some (Arm.Sysreg.ICH_LR_EL2 n) else None

(* Inverse of [to_ich]: the GICH register backing an ICH system register. *)
let of_ich : Arm.Sysreg.t -> gich_reg option = function
  | Arm.Sysreg.ICH_HCR_EL2 -> Some GICH_HCR
  | Arm.Sysreg.ICH_VTR_EL2 -> Some GICH_VTR
  | Arm.Sysreg.ICH_VMCR_EL2 -> Some GICH_VMCR
  | Arm.Sysreg.ICH_MISR_EL2 -> Some GICH_MISR
  | Arm.Sysreg.ICH_EISR_EL2 -> Some GICH_EISR
  | Arm.Sysreg.ICH_ELRSR_EL2 -> Some GICH_ELRSR
  | Arm.Sysreg.ICH_AP1R_EL2 0 -> Some GICH_APR
  | Arm.Sysreg.ICH_LR_EL2 n when n < 64 -> Some (GICH_LR n)
  | _ -> None

let offset_of = function
  | GICH_HCR -> off_hcr
  | GICH_VTR -> off_vtr
  | GICH_VMCR -> off_vmcr
  | GICH_MISR -> off_misr
  | GICH_EISR -> off_eisr0
  | GICH_ELRSR -> off_elrsr0
  | GICH_APR -> off_apr
  | GICH_LR n -> off_lr0 + (4 * n)

let address_of reg = Int64.add gich_base (Int64.of_int (offset_of reg))

let decode_access addr =
  if addr >= gich_base && addr < Int64.add gich_base gich_frame_size then
    reg_of_offset (Int64.to_int (Int64.sub addr gich_base))
  else None
