(* The guest hypervisor: a KVM/ARM-shaped L1 hypervisor running
   deprivileged in virtual EL2.

   Its control flow (the C code of KVM) is host-language code, but every
   architectural interaction — each system-register access, hvc and eret —
   is an instruction executed on the simulated CPU at EL1 through the
   access funnel.  Which of those instructions trap is decided entirely by
   the architecture configuration under test; the *code paths* here are
   identical across ARMv8.3 and NEVE runs.

   The exit-handling structure follows KVM/ARM:

   non-VHE (split design, Figure 1(a) inside the VM):
     virtual-EL2 entry -> read exit info -> __guest_exit world switch
     (save nested-VM EL1 state, restore host-kernel EL1 state) -> eret to
     the host kernel at vEL1 -> handle in the kernel -> hvc back to vEL2 ->
     __guest_enter world switch -> eret to the nested VM

   VHE (Figure 1(b) inside the VM): everything runs in vEL2; no
   kernel/lowvisor transitions, host state stays in (virtual) EL2
   registers, the VM's EL1 state is reached via _EL12 instructions and the
   VM's timer via _EL02 instructions. *)

module Sysreg = Arm.Sysreg
module WS = World_switch

let src = Logs.Src.create "neve.guest" ~doc:"guest hypervisor (L1)"

module Log = (val Logs.src_log src : Logs.LOG)

(* Debug logging builds a closure per message; the exit path only builds
   it when the source would print it. *)
let debug_on () =
  match Logs.Src.level src with Some Logs.Debug -> true | _ -> false

(* SPSR of an exception return into EL1h with interrupts masked. *)
let spsr_el1h = Arm.Pstate.to_spsr (Arm.Pstate.at Arm.Pstate.EL1)

type t = {
  ga : Gaccess.t;
  vhe : bool;
  vm_ctx : int64;     (* its software struct holding the nested VM's state *)
  host_ctx : int64;   (* its host kernel's saved context *)
  mutable used_lrs : int;
  mutable cntvoff : int64;
  pending_virqs : int Queue.t;
      (* interrupts awaiting a free list register; drained on entry, the
         overflow kept for the next pass (the maintenance-interrupt
         pattern) *)
  mutable nested_elr : int64;   (* where the nested VM resumes *)
  mutable nested_spsr : int64;
  mutable exits_handled : int;
  mutable debug_active : bool;  (* the nested VM is being debugged *)
  mutable pmu_active : bool;    (* perf events are counting in the VM *)
  mutable on_mmio : (addr:int64 -> is_write:bool -> unit) option;
      (* the device backend (virtio-mmio model) wired in by the machine
         assembly; None falls back to generic bookkeeping *)
}

(* The vEL2 vector base the L0 hypervisor jumps to on injection; symbolic. *)
let vector_base = 0x7000_0000L

let create (ga : Gaccess.t) ~(vcpu : Vcpu.t) =
  {
    ga;
    vhe = ga.Gaccess.config.Config.guest_vhe;
    vm_ctx = vcpu.Vcpu.ctx_base;
    host_ctx = Int64.add vcpu.Vcpu.ctx_base 0x2000L;
    used_lrs = 0;
    cntvoff = 0x1000L;
    pending_virqs = Queue.create ();
    nested_elr = 0x9000_0000L;
    nested_spsr = spsr_el1h;
    exits_handled = 0;
    debug_active = false;
    pmu_active = false;
    on_mmio = None;
  }

(* A mark: every mutable field, the access funnel's one-shot corruption
   included (its compiled sequences are a cache and stay). *)
type mark = {
  mk_used_lrs : int;
  mk_cntvoff : int64;
  mk_pending_virqs : int list;
  mk_nested_elr : int64;
  mk_nested_spsr : int64;
  mk_exits_handled : int;
  mk_debug_active : bool;
  mk_pmu_active : bool;
  mk_on_mmio : (addr:int64 -> is_write:bool -> unit) option;
  mk_tamper : (int64 -> int64) option;
}

let mark t =
  {
    mk_used_lrs = t.used_lrs;
    mk_cntvoff = t.cntvoff;
    mk_pending_virqs = List.of_seq (Queue.to_seq t.pending_virqs);
    mk_nested_elr = t.nested_elr;
    mk_nested_spsr = t.nested_spsr;
    mk_exits_handled = t.exits_handled;
    mk_debug_active = t.debug_active;
    mk_pmu_active = t.pmu_active;
    mk_on_mmio = t.on_mmio;
    mk_tamper = t.ga.Gaccess.tamper;
  }

let rewind t m =
  t.used_lrs <- m.mk_used_lrs;
  t.cntvoff <- m.mk_cntvoff;
  Queue.clear t.pending_virqs;
  List.iter (fun v -> Queue.add v t.pending_virqs) m.mk_pending_virqs;
  t.nested_elr <- m.mk_nested_elr;
  t.nested_spsr <- m.mk_nested_spsr;
  t.exits_handled <- m.mk_exits_handled;
  t.debug_active <- m.mk_debug_active;
  t.pmu_active <- m.mk_pmu_active;
  t.on_mmio <- m.mk_on_mmio;
  t.ga.Gaccess.tamper <- m.mk_tamper

let ops t = Gaccess.ops t.ga

(* GICv2 machines use the memory-mapped hypervisor control interface. *)
let gic t =
  if t.ga.Gaccess.config.Config.gicv2 then Some (Gaccess.gicv2_gic t.ga)
  else None

(* HCR value the guest hypervisor programs for its nested VM. *)
let nested_hcr = Arm.Hcr.(List.fold_left set 0L [ vm; imo; fmo; tsc; twi ])

(* The guest hypervisor's virtual VTTBR for the nested VM (its own stage-2
   tables; the host hypervisor shadows them). *)
let virtual_vttbr = 0x5000_0000L

(* --- exit-path phases --- *)

(* Phase A: read the exit syndrome.  A VHE hypervisor reads its (virtual)
   EL2 registers through E2H-redirected EL1 instructions — no traps except
   HPFAR_EL2, which has no EL1 twin; a non-VHE hypervisor reads the EL2
   registers directly and each read traps on ARMv8.3. *)
let read_exit_info t =
  let o = ops t in
  if t.vhe then begin
    let _esr = o.WS.rd (Sysreg.direct Sysreg.ESR_EL1) in
    let elr = o.WS.rd (Sysreg.direct Sysreg.ELR_EL1) in
    let spsr = o.WS.rd (Sysreg.direct Sysreg.SPSR_EL1) in
    let _far = o.WS.rd (Sysreg.direct Sysreg.FAR_EL1) in
    let _hpfar = o.WS.rd (Sysreg.direct Sysreg.HPFAR_EL2) in
    t.nested_elr <- elr;
    t.nested_spsr <- spsr
  end
  else begin
    let _esr = o.WS.rd (Sysreg.direct Sysreg.ESR_EL2) in
    let elr = o.WS.rd (Sysreg.direct Sysreg.ELR_EL2) in
    let spsr = o.WS.rd (Sysreg.direct Sysreg.SPSR_EL2) in
    let _far = o.WS.rd (Sysreg.direct Sysreg.FAR_EL2) in
    let _hpfar = o.WS.rd (Sysreg.direct Sysreg.HPFAR_EL2) in
    t.nested_elr <- elr;
    t.nested_spsr <- spsr
  end

(* Phase B: world switch away from the nested VM (__guest_exit). *)
let switch_to_host t =
  let o = ops t in
  (* the array loops run through the funnel's compiled plans (element
     for element WS.save_array/restore_array over [o]) *)
  Gaccess.save_ctx t.ga ~el12:t.vhe ~ctx:t.vm_ctx Reglists.el1_state_arr;
  Gaccess.save_ctx t.ga ~el12:false ~ctx:t.vm_ctx Reglists.el0_state_arr;
  if t.debug_active then
    Gaccess.save_ctx t.ga ~el12:false ~ctx:t.vm_ctx Reglists.debug_state_arr;
  if t.pmu_active then
    Gaccess.save_ctx t.ga ~el12:false ~ctx:t.vm_ctx Reglists.pmu_state_arr;
  WS.save_vgic ?gic:(gic t) o ~ctx:t.vm_ctx ~used_lrs:t.used_lrs;
  WS.save_vm_timer o ~vhe:t.vhe ~ctx:t.vm_ctx;
  if not t.vhe then begin
    Gaccess.restore_ctx t.ga ~el12:false ~ctx:t.host_ctx
      Reglists.el1_state_arr;
    Gaccess.restore_ctx t.ga ~el12:false ~ctx:t.host_ctx
      Reglists.el0_state_arr
  end;
  WS.deactivate_traps o ~vhe:t.vhe

(* Non-VHE only: the lowvisor returns to the host kernel at (virtual) EL1.
   Setting up the return and the eret itself all trap on ARMv8.3; under
   NEVE the ELR/SPSR writes are redirected and only the eret traps. *)
let eret_to_kernel t =
  let o = ops t in
  o.WS.wr (WS.own_el2_access ~vhe:t.vhe Sysreg.ELR_EL2) 0x7100_0000L;
  o.WS.wr (WS.own_el2_access ~vhe:t.vhe Sysreg.SPSR_EL2) spsr_el1h;
  Gaccess.eret t.ga

(* Non-VHE only: the host kernel calls back into the lowvisor. *)
let kernel_to_lowvisor t = Gaccess.hvc t.ga 1

(* Phase C: what KVM's host-side code does with the exit.  Bookkeeping is
   plain loads/stores against the hypervisor's own structures. *)
let handle_in_kernel t (reason : Vcpu.nested_exit) =
  let o = ops t in
  match reason with
  | Vcpu.Exit_hypercall ->
    (* kvm-unit-test hypercall: no work, straight back in *)
    ()
  | Vcpu.Exit_mmio { addr; is_write } -> begin
      match t.on_mmio with
      | Some f -> f ~addr ~is_write
      | None ->
        (* no device attached: generic emulation bookkeeping *)
        for i = 0 to 9 do
          let a = Int64.add t.host_ctx (Int64.of_int (0x800 + (8 * i))) in
          o.WS.st a (Int64.of_int i)
        done
    end
  | Vcpu.Exit_virq intid ->
    (* vgic: mark the interrupt pending for the nested VM; it will be
       placed in a list register on the way back in *)
    Queue.add intid t.pending_virqs;
    o.WS.st (Int64.add t.host_ctx 0x900L) (Int64.of_int intid)
  | Vcpu.Exit_sgi { target; intid; rt = _ } ->
    (* the nested VM sent an IPI: KVM resolves the target vCPU, then kicks
       it by sending a physical SGI — an ICC_SGI1R write that itself traps
       to the host hypervisor (part of exit multiplication) *)
    o.WS.st (Int64.add t.host_ctx 0x908L) (Int64.of_int intid);
    let payload =
      Int64.logor (Int64.of_int target)
        (Int64.shift_left (Int64.of_int intid) 24)
    in
    o.WS.wr (Sysreg.direct Sysreg.ICC_SGI1R_EL1) payload
  | Vcpu.Exit_wfi ->
    (* yield: scheduler bookkeeping *)
    o.WS.st (Int64.add t.host_ctx 0x910L) 1L
  | Vcpu.Exit_hyp_insn { access; rt = _; is_read } ->
    (* its nested VM is a hypervisor (Section 6.2): emulate the trapped
       instruction against the virtual-EL2 structure it maintains for it —
       a load or store in its own memory *)
    let slot =
      Int64.add t.host_ctx
        (Int64.of_int (0xa00 + Reglists.ctx_slot access.Sysreg.reg))
    in
    if is_read then ignore (o.WS.ld slot) else o.WS.st slot 1L
  | Vcpu.Exit_hyp_eret ->
    (* the L2 hypervisor enters its own nested VM (L3): the L1 guest
       hypervisor loads the L3 state it tracks — modeled as draining the
       virtual-EL1-for-L3 structure *)
    for i = 0 to 9 do
      ignore (o.WS.ld (Int64.add t.host_ctx (Int64.of_int (0xa00 + (8 * i)))))
    done

(* Phase D: world switch back into the nested VM (__guest_enter). *)
let switch_to_guest t =
  let o = ops t in
  if not t.vhe then begin
    Gaccess.save_ctx t.ga ~el12:false ~ctx:t.host_ctx Reglists.el1_state_arr;
    Gaccess.save_ctx t.ga ~el12:false ~ctx:t.host_ctx Reglists.el0_state_arr
  end;
  (* drain pending virtual interrupts into free list registers; overflow
     stays queued until a later entry frees slots (the hardware would
     raise a maintenance interrupt when LRs drain — here the next exit
     provides the opportunity) *)
  let slot = ref 0 in
  while (not (Queue.is_empty t.pending_virqs)) && !slot < Reglists.vgic_lrs_in_use
  do
    let addr =
      Int64.add t.vm_ctx
        (Int64.of_int (Reglists.ctx_slot (Sysreg.ICH_LR_EL2 !slot)))
    in
    (* only fill slots whose saved content is free: occupied LRs (still
       pending or active in the VM) must survive the switch *)
    if Gic.Vgic.lr_is_free (o.WS.ld addr) then begin
      let intid = Queue.pop t.pending_virqs in
      let lr =
        Gic.Vgic.encode_lr
          { Gic.Vgic.empty_lr with Gic.Vgic.lr_state = Gic.Irq.Pending;
                                   lr_vintid = intid }
      in
      o.WS.st addr lr;
      t.used_lrs <- max t.used_lrs (!slot + 1)
    end;
    incr slot
  done;
  Gaccess.restore_ctx t.ga ~el12:t.vhe ~ctx:t.vm_ctx Reglists.el1_state_arr;
  Gaccess.restore_ctx t.ga ~el12:false ~ctx:t.vm_ctx Reglists.el0_state_arr;
  if t.debug_active then
    Gaccess.restore_ctx t.ga ~el12:false ~ctx:t.vm_ctx
      Reglists.debug_state_arr;
  if t.pmu_active then
    Gaccess.restore_ctx t.ga ~el12:false ~ctx:t.vm_ctx Reglists.pmu_state_arr;
  WS.restore_vgic ?gic:(gic t) o ~ctx:t.vm_ctx ~used_lrs:t.used_lrs;
  WS.restore_vm_timer o ~vhe:t.vhe ~ctx:t.vm_ctx;
  WS.write_timer_controls o ~vhe:t.vhe ~cntvoff:t.cntvoff;
  if t.vhe then WS.arm_vhe_hyp_timer o ~cval:0x7fff_ffff_ffffL;
  WS.write_vpidr o ~midr:0x410f_d070L ~mpidr:0x8000_0000L;
  WS.activate_traps o ~vhe:t.vhe ~hcr:nested_hcr;
  WS.write_stage2 o ~vttbr:virtual_vttbr

(* Enter the nested VM: set the return target and eret; the eret traps to
   the host hypervisor, which performs the real switch. *)
let enter_nested t =
  let o = ops t in
  o.WS.wr (WS.own_el2_access ~vhe:t.vhe Sysreg.ELR_EL2) t.nested_elr;
  o.WS.wr (WS.own_el2_access ~vhe:t.vhe Sysreg.SPSR_EL2) t.nested_spsr;
  Gaccess.eret t.ga

(* The full exit-handling path, invoked by the host hypervisor when it
   injects a virtual EL2 exception for a nested-VM exit. *)
let handle_exit t (reason : Vcpu.nested_exit) =
  t.exits_handled <- t.exits_handled + 1;
  if debug_on () then
    Log.debug (fun m ->
        m "guest hypervisor handling nested exit #%d: %s" t.exits_handled
          (Vcpu.exit_name reason));
  (* the guest hypervisor's C-code overhead per exit *)
  let cpu = t.ga.Gaccess.cpu in
  Cost.charge cpu.Arm.Cpu.meter (Arm.Cpu.table cpu).Cost.guest_hyp_logic;
  read_exit_info t;
  switch_to_host t;
  if not t.vhe then eret_to_kernel t;
  handle_in_kernel t reason;
  if not t.vhe then kernel_to_lowvisor t;
  switch_to_guest t;
  enter_nested t

(* First launch of the nested VM (no prior exit to unwind). *)
let launch_nested t ~entry =
  t.nested_elr <- entry;
  t.nested_spsr <- spsr_el1h;
  switch_to_guest t;
  enter_nested t
