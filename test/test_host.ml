(* Unit tests for the host hypervisor's internals: virtual-EL2 register
   storage rules, HCR selection, the stash discipline, and the scenario
   start states. *)

module Host = Hyp.Host_hyp
module Config = Hyp.Config
module Vcpu = Hyp.Vcpu
module Cpu = Arm.Cpu
module Sysreg = Arm.Sysreg
module Hcr = Arm.Hcr

let check = Alcotest.check

let fresh ?(mech = Config.Hw_v8_3) ?(vhe = false) ?(scenario = Host.Nested) () =
  let config = Config.v ~guest_vhe:vhe mech in
  let cpu = Cpu.create ~features:(Config.hw_features config) () in
  Host.create cpu config scenario

(* --- HCR selection --- *)

let test_hcr_for_guest_hypervisor () =
  let host = fresh () in
  let v = Hcr.decode (Host.hcr_for host ~vel2:true) in
  check Alcotest.bool "NV set" true v.Hcr.h_nv;
  check Alcotest.bool "NV1 set for non-VHE" true v.Hcr.h_nv1;
  check Alcotest.bool "TVM set on plain v8.3" true v.Hcr.h_tvm;
  check Alcotest.bool "NV2 clear without NEVE" false v.Hcr.h_nv2

let test_hcr_for_neve_guest () =
  let host = fresh ~mech:Config.Hw_neve () in
  let v = Hcr.decode (Host.hcr_for host ~vel2:true) in
  check Alcotest.bool "NV2 set" true v.Hcr.h_nv2;
  check Alcotest.bool "TVM clear under NEVE (deferral replaces it)" false
    v.Hcr.h_tvm;
  (* a VHE guest hypervisor runs its kernel at vEL2: NV1 stays clear *)
  let host = fresh ~mech:Config.Hw_neve ~vhe:true () in
  let v = Hcr.decode (Host.hcr_for host ~vel2:true) in
  check Alcotest.bool "NEVE-VHE: NV2 set" true v.Hcr.h_nv2;
  check Alcotest.bool "NEVE-VHE: NV1 clear" false v.Hcr.h_nv1

let test_hcr_for_nested_vm () =
  let host = fresh () in
  let v = Hcr.decode (Host.hcr_for host ~vel2:false) in
  check Alcotest.bool "NV clear while the nested VM runs" false v.Hcr.h_nv;
  check Alcotest.bool "VM/IMO set" true (v.Hcr.h_vm && v.Hcr.h_imo)

let test_hcr_paravirt_never_nv () =
  (* v8.0 hardware: the NV bits do not exist; control is by rewriting *)
  let host = fresh ~mech:Config.Pv_v8_3 () in
  let v = Hcr.decode (Host.hcr_for host ~vel2:true) in
  check Alcotest.bool "no NV on v8.0" false v.Hcr.h_nv

let test_hcr_l2_hypervisor () =
  let host = fresh () in
  host.Host.l2_is_hyp <- true;
  let v = Hcr.decode (Host.hcr_for host ~vel2:false) in
  check Alcotest.bool "NV armed for an L2 hypervisor" true v.Hcr.h_nv

(* --- virtual-EL2 storage rules --- *)

let test_vel2_plain_v83_uses_file () =
  let host = fresh () in
  Host.vel2_write host Sysreg.VTTBR_EL2 0x123L;
  check Alcotest.int64 "stored in the software file" 0x123L
    (Vcpu.read_vel2 host.Host.vcpu Sysreg.VTTBR_EL2);
  check Alcotest.int64 "read back" 0x123L
    (Host.vel2_read host Sysreg.VTTBR_EL2)

let test_vel2_twin_backed_for_vhe () =
  (* a VHE guest's redirect-class registers live in the hardware EL1 twin *)
  let host = fresh ~vhe:true () in
  Host.vel2_write host Sysreg.VBAR_EL2 0x7000L;
  check Alcotest.int64 "hardware VBAR_EL1 holds the value" 0x7000L
    (Cpu.peek_sysreg host.Host.cpu Sysreg.VBAR_EL1)

let test_vel2_page_backed_under_neve () =
  let host = fresh ~mech:Config.Hw_neve () in
  host.Host.vcpu.Vcpu.in_vel2 <- true;
  Host.vel2_write host Sysreg.HCR_EL2 0xbeefL;
  check Alcotest.int64 "the deferred page holds the value" 0xbeefL
    (Core.Deferred_page.read host.Host.page Sysreg.HCR_EL2);
  check Alcotest.int64 "vel2_read serves it" 0xbeefL
    (Host.vel2_read host Sysreg.HCR_EL2)

(* --- the stash discipline --- *)

let test_l0_enter_exit_roundtrip () =
  let host = fresh () in
  let cpu = host.Host.cpu in
  cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL2;
  Cpu.poke_sysreg cpu Sysreg.SCTLR_EL1 0xAAAL;
  Cpu.poke_sysreg cpu Sysreg.TTBR0_EL1 0xBBBL;
  Host.l0_enter host;
  (* the guest values are parked in the stash... *)
  check Alcotest.int64 "stash holds SCTLR" 0xAAAL
    (Host.stash_read host Sysreg.SCTLR_EL1);
  (* ...and the hardware now holds the host's world (zeros here) *)
  check Alcotest.int64 "hardware switched away" 0L
    (Cpu.peek_sysreg cpu Sysreg.SCTLR_EL1);
  Host.l0_exit host;
  check Alcotest.int64 "restored SCTLR" 0xAAAL
    (Cpu.peek_sysreg cpu Sysreg.SCTLR_EL1);
  check Alcotest.int64 "restored TTBR0" 0xBBBL
    (Cpu.peek_sysreg cpu Sysreg.TTBR0_EL1)

(* --- start states --- *)

let test_start_vm_state () =
  let host = fresh ~scenario:Host.Single_vm () in
  Host.start_vm host;
  check Alcotest.bool "at EL1" true
    (host.Host.cpu.Cpu.pstate.Arm.Pstate.el = Arm.Pstate.EL1);
  check Alcotest.bool "not in virtual EL2" false host.Host.vcpu.Vcpu.in_vel2

let test_start_guest_hypervisor_state () =
  let host = fresh ~mech:Config.Hw_neve ~vhe:true () in
  Host.start_guest_hypervisor host;
  check Alcotest.bool "in virtual EL2" true host.Host.vcpu.Vcpu.in_vel2;
  check Alcotest.bool "guest is VHE per its virtual HCR" true
    (Vcpu.guest_is_vhe host.Host.vcpu);
  check Alcotest.bool "VNCR armed" true
    (Core.Vncr.read host.Host.cpu).Core.Vncr.enable

(* --- emulation details --- *)

let test_trapped_read_returns_virtual_value () =
  let host = fresh () in
  host.Host.vcpu.Vcpu.in_vel2 <- true;
  Vcpu.write_vel2 host.Host.vcpu Sysreg.VTCR_EL2 0x42L;
  let cpu = host.Host.cpu in
  Cpu.poke_sysreg cpu Sysreg.HCR_EL2 (Host.hcr_for host ~vel2:true);
  cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  Cpu.exec cpu (Arm.Insn.Mrs (5, Sysreg.direct Sysreg.VTCR_EL2));
  check Alcotest.int64 "the guest sees its virtual register" 0x42L
    (Cpu.get_reg cpu 5)

let test_lr_write_tracks_used_lrs () =
  let host = fresh () in
  host.Host.vcpu.Vcpu.in_vel2 <- true;
  let cpu = host.Host.cpu in
  Cpu.poke_sysreg cpu Sysreg.HCR_EL2 (Host.hcr_for host ~vel2:true);
  cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  let lr =
    Gic.Vgic.encode_lr
      { Gic.Vgic.empty_lr with Gic.Vgic.lr_state = Gic.Irq.Pending;
                               lr_vintid = 9 }
  in
  Cpu.exec cpu (Arm.Insn.Msr (Sysreg.direct (Sysreg.ICH_LR_EL2 2), Arm.Insn.Imm lr));
  check Alcotest.bool "used_lrs covers LR2" true
    (host.Host.vcpu.Vcpu.used_lrs >= 3)

let test_unknown_sysreg_trap_rejected () =
  let host = fresh () in
  let cpu = host.Host.cpu in
  cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  (* an ISS naming an encoding outside the database must not be silently
     emulated: op0=3 op1=7 CRn=15 CRm=15 op2=7 is implementation space no
     modeled register uses.  The syndrome is guest-controlled, so the
     host injects UNDEF into the guest (as KVM does) instead of
     aborting. *)
  let iss =
    1 (* read *) lor (15 lsl 1) (* CRm *) lor (15 lsl 10) (* CRn *)
    lor (7 lsl 14) (* op1 *) lor (7 lsl 17) (* op2 *) lor (3 lsl 20)
    (* op0 *)
  in
  Cpu.exception_entry cpu
    { Arm.Exn.target = Arm.Pstate.EL2; ec = Arm.Exn.EC_sysreg; iss };
  check Alcotest.int "UNDEF injected into the guest" 1
    host.Host.undef_injected;
  check Alcotest.bool "guest resumed at EL1" true
    (cpu.Cpu.pstate.Arm.Pstate.el = Arm.Pstate.EL1)

let suite =
  [
    ("hcr_for: guest hypervisor (v8.3)", `Quick, test_hcr_for_guest_hypervisor);
    ("hcr_for: NEVE clears TVM, sets NV2", `Quick, test_hcr_for_neve_guest);
    ("hcr_for: nested VM", `Quick, test_hcr_for_nested_vm);
    ("hcr_for: paravirt never sets NV", `Quick, test_hcr_paravirt_never_nv);
    ("hcr_for: L2 hypervisor keeps NV armed", `Quick, test_hcr_l2_hypervisor);
    ("vel2 storage: software file on plain v8.3", `Quick,
     test_vel2_plain_v83_uses_file);
    ("vel2 storage: hardware twin for VHE", `Quick, test_vel2_twin_backed_for_vhe);
    ("vel2 storage: deferred page under NEVE", `Quick,
     test_vel2_page_backed_under_neve);
    ("l0_enter/l0_exit stash roundtrip", `Quick, test_l0_enter_exit_roundtrip);
    ("start_vm state", `Quick, test_start_vm_state);
    ("start_guest_hypervisor state", `Quick, test_start_guest_hypervisor_state);
    ("trapped reads see virtual state", `Quick,
     test_trapped_read_returns_virtual_value);
    ("LR writes track used_lrs", `Quick, test_lr_write_tracks_used_lrs);
    ("unknown register traps inject UNDEF", `Quick,
     test_unknown_sysreg_trap_rejected);
  ]
