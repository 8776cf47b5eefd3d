(* Nested-virtualization configurations under test.

   A configuration names (a) the architecture mechanism providing nested
   support and (b) whether the guest hypervisor is VHE.  Each hardware
   mechanism has a paravirtualized twin that runs on simulated ARMv8.0
   hardware with the guest hypervisor's instructions rewritten (Sections 4
   and 6.4) — the paper's evaluation methodology.  Hardware and
   paravirtualized twins must produce identical trap counts; a property
   test asserts this. *)

type mechanism =
  | Hw_v8_3   (* ARMv8.3 FEAT_NV hardware, unmodified guest hypervisor *)
  | Pv_v8_3   (* ARMv8.0 hardware, hypervisor instructions -> hvc *)
  | Hw_neve   (* ARMv8.4 FEAT_NV2 hardware, unmodified guest hypervisor *)
  | Pv_neve   (* ARMv8.0 hardware, accesses -> loads/stores + EL1 regs *)

type t = {
  mech : mechanism;
  guest_vhe : bool;
  gicv2 : bool;
      (* the machine has a GICv2: the hypervisor control interface is
         memory-mapped (GICH frame) and guest-hypervisor accesses to it
         trap via stage-2 instead of as system registers (Section 4) *)
}

let v ?(guest_vhe = false) ?(gicv2 = false) mech = { mech; guest_vhe; gicv2 }

let is_neve t = match t.mech with Hw_neve | Pv_neve -> true | _ -> false
let is_paravirt t = match t.mech with Pv_v8_3 | Pv_neve -> true | _ -> false

(* The physical hardware the configuration runs on. *)
let hw_features t =
  match t.mech with
  | Hw_v8_3 -> Arm.Features.v Arm.Features.V8_3
  | Hw_neve -> Arm.Features.v Arm.Features.V8_4
  | Pv_v8_3 | Pv_neve -> Arm.Features.v Arm.Features.V8_0

(* The architecture whose behaviour the guest hypervisor experiences —
   for paravirtualized runs, the architecture being mimicked. *)
let target_features t =
  match t.mech with
  | Hw_v8_3 | Pv_v8_3 -> Arm.Features.v Arm.Features.V8_3
  | Hw_neve | Pv_neve -> Arm.Features.v Arm.Features.V8_4

(* HCR_EL2 value the host hypervisor programs before running the guest
   hypervisor under the *target* architecture: NV always; NV2 for NEVE;
   NV1 + TVM/TRVM for a non-VHE guest hypervisor on plain v8.3 (the
   "existing ARMv8.0 mechanisms" for trapping EL1 accesses, Section 4). *)
let target_hcr_of ~neve ~vhe =
  let open Arm.Hcr in
  let v = List.fold_left set 0L [ vm; imo; fmo; tsc; twi; nv ] in
  let v = if neve then set v nv2 else v in
  if vhe then v
  else
    let v = set v nv1 in
    if neve then v else set (set v tvm) trvm

(* Computed once: the host programs it on every trap return. *)
let hcr_v8_3 = target_hcr_of ~neve:false ~vhe:false
let hcr_v8_3_vhe = target_hcr_of ~neve:false ~vhe:true
let hcr_neve = target_hcr_of ~neve:true ~vhe:false
let hcr_neve_vhe = target_hcr_of ~neve:true ~vhe:true

let target_hcr t =
  match (is_neve t, t.guest_vhe) with
  | false, false -> hcr_v8_3
  | false, true -> hcr_v8_3_vhe
  | true, false -> hcr_neve
  | true, true -> hcr_neve_vhe

let mechanism_name = function
  | Hw_v8_3 -> "ARMv8.3 (hw)"
  | Pv_v8_3 -> "ARMv8.3 (paravirt on v8.0)"
  | Hw_neve -> "NEVE (hw NV2)"
  | Pv_neve -> "NEVE (paravirt on v8.0)"

let name t =
  Printf.sprintf "%s%s%s" (mechanism_name t.mech)
    (if t.guest_vhe then " VHE" else "")
    (if t.gicv2 then " GICv2" else "")

let pp ppf t = Fmt.string ppf (name t)

(* All nested configurations of the paper's tables (hardware mechanisms;
   the paravirt twins are used for the methodology-validation tests). *)
let all_nested =
  [ v Hw_v8_3; v ~guest_vhe:true Hw_v8_3; v Hw_neve; v ~guest_vhe:true Hw_neve ]
