(* Recursive virtualization (Section 6.2): NEVE for an L2 guest hypervisor.

   When the L1 guest hypervisor wants to run its *own* nested hypervisor
   (L2 hypervisor, L3 VM), it configures NEVE by writing VNCR_EL2.  That
   write does not trap: VNCR_EL2 is itself a VM register (Table 3), so the
   value is deferred to L1's deferred access page.

   On entry to the L2 hypervisor's virtual EL2, the L0 host hypervisor
   reads L1's VNCR value from the page, translates the L1-physical BADDR
   to a machine physical address through L1's stage-2 tables, and programs
   the result into the hardware VNCR_EL2 — so the L2 hypervisor's register
   accesses are transparently redirected into memory *owned and directly
   readable by L1*, and "NEVE avoids the same amount of traps between the
   L2 and L1 guest hypervisors as in the normal nested case".

   Run with: dune exec examples/recursive_virt.exe *)

module Machine = Hyp.Machine
module Sysreg = Arm.Sysreg

let () =
  let config = Hyp.Config.v Hyp.Config.Hw_neve in
  let m = Machine.create ~ncpus:1 config Hyp.Host_hyp.Nested in
  let host = m.Machine.hosts.(0) in
  let mem = m.Machine.mem in
  let alloc = Mmu.Walk.allocator ~start:0x8_0000_0000L in

  (* L1's stage-2 for its nested world: one page of L1-physical memory at
     0x0002_0000 backed by machine page 0x9_1000_0000. *)
  let guest_s2 = Mmu.Stage2.create mem alloc ~vmid:7 in
  Mmu.Stage2.map_page guest_s2 ~ipa:0x2_0000L ~pa:0x4802_0000L
    ~perms:Mmu.Pte.rw;
  let host_s2 = Mmu.Stage2.create mem alloc ~vmid:1 in
  Mmu.Stage2.map_page host_s2 ~ipa:0x4802_0000L ~pa:0x9_1000_0000L
    ~perms:Mmu.Pte.rw;
  ignore (Machine.install_shadow m ~cpu:0 ~guest_s2 ~host_s2);
  Machine.boot m;

  (* The stack is now: L0 (EL2) -> L1 guest hypervisor (vEL2) -> L2.
     Put the vCPU back in the guest hypervisor and let L1 configure NEVE
     for its own nested hypervisor: it allocates a deferred access page at
     L1-physical 0x0002_0000 and writes its VNCR_EL2. *)
  Hyp.Host_hyp.start_guest_hypervisor host;
  let ga =
    Hyp.Gaccess.v m.Machine.cpus.(0) config
      ~page_base:host.Hyp.Host_hyp.vcpu.Hyp.Vcpu.page_base
  in
  let page =
    Core.Deferred_page.create mem
      ~base:host.Hyp.Host_hyp.vcpu.Hyp.Vcpu.page_base
  in
  let meter = m.Machine.cpus.(0).Arm.Cpu.meter in
  let before = Cost.snapshot meter in
  let l1_vncr = Core.Vncr.v ~baddr:0x2_0000L ~enable:true in
  Hyp.Gaccess.wr ga (Sysreg.direct Sysreg.VNCR_EL2) (Core.Vncr.encode l1_vncr);

  (* The write was deferred, not trapped: check it landed in L1's page. *)
  Fmt.pr "L1 wrote its virtual VNCR_EL2: %a@." Core.Vncr.pp l1_vncr;
  Fmt.pr "  traps taken by the write: %d (deferred to the access page)@."
    (Cost.delta_since meter before).Cost.d_traps;

  (* L0's side: on entry to the L2 hypervisor's virtual EL2, read the
     deferred VNCR value and translate its BADDR through L1's stage-2. *)
  let translate_ipa ipa =
    match Mmu.Stage2.translate guest_s2 ~ipa ~is_write:true with
    | Ok tr -> begin
        match Mmu.Stage2.translate host_s2 ~ipa:tr.Mmu.Walk.t_pa ~is_write:true with
        | Ok tr2 -> Some tr2.Mmu.Walk.t_pa
        | Error _ -> None
      end
    | Error _ -> None
  in
  let virt = Core.Vncr.decode (Core.Deferred_page.read page Sysreg.VNCR_EL2) in
  match Core.Vncr.recursive virt ~translate_ipa with
  | Some hw_vncr ->
    Fmt.pr "L0 translated L1's BADDR 0x%Lx -> machine 0x%Lx@."
      l1_vncr.Core.Vncr.baddr hw_vncr.Core.Vncr.baddr;
    Core.Vncr.program m.Machine.cpus.(0) hw_vncr;
    Fmt.pr "hardware VNCR_EL2 now points at memory owned by L1:@.";
    Fmt.pr "  %a@." Core.Vncr.pp (Core.Vncr.read m.Machine.cpus.(0));
    (* An L2-hypervisor register access now lands in L1's memory, which L1
       can read directly — no trap to anyone. *)
    let cpu = m.Machine.cpus.(0) in
    cpu.Arm.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
    let traps_before = cpu.Arm.Cpu.meter.Cost.traps in
    Arm.Cpu.exec cpu
      (Arm.Insn.Msr (Sysreg.direct Sysreg.HCR_EL2, Arm.Insn.Imm 0xdeadL));
    Fmt.pr
      "L2-hypervisor HCR_EL2 write: %d traps; value visible to L1 at machine 0x%Lx: 0x%Lx@."
      (cpu.Arm.Cpu.meter.Cost.traps - traps_before)
      hw_vncr.Core.Vncr.baddr
      (Arm.Memory.read64 mem
         (Int64.add hw_vncr.Core.Vncr.baddr
            (Int64.of_int (Option.get (Sysreg.vncr_offset Sysreg.HCR_EL2)))));
    Fmt.pr "recursive NEVE works: the L2 hypervisor's trap savings equal@.";
    Fmt.pr "the normal nested case (Section 6.2).@."
  | None -> Fmt.pr "translation failed (unexpected)@."
