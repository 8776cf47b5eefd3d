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
  vcpu : Vcpu.t;  (* where the host leaves each exit's details *)
  vhe : bool;
  vm_ctx : int64;     (* its software struct holding the nested VM's state *)
  host_ctx : int64;   (* its host kernel's saved context *)
  mutable used_lrs : int;
  mutable cntvoff : int64;
  mutable virqs : int array;
  mutable virqs_len : int;
      (* interrupts awaiting a free list register, oldest first, in
         [virqs.(0 .. virqs_len - 1)]; drained on entry, the overflow
         kept for the next pass (the maintenance-interrupt pattern) *)
  resume : Bytes.t;
      (* where the nested VM resumes, as words: its ELR at [elr_at], its
         SPSR at [spsr_at], and the two words the exit path reads them
         into before committing them ([read_exit_info]) *)
  mutable exits_handled : int;
  mutable debug_active : bool;  (* the nested VM is being debugged *)
  mutable pmu_active : bool;    (* perf events are counting in the VM *)
  mutable on_mmio : (addr:int64 -> is_write:bool -> unit) option;
      (* the device backend (virtio-mmio model) wired in by the machine
         assembly; None falls back to generic bookkeeping *)
}

(* The vEL2 vector base the L0 hypervisor jumps to on injection; symbolic. *)
let vector_base = 0x7000_0000L

let elr_at = 0
let spsr_at = 8
let read_at = 16

let nested_elr t = Bytes.get_int64_ne t.resume elr_at
let nested_spsr t = Bytes.get_int64_ne t.resume spsr_at
let set_nested_elr t v = Bytes.set_int64_ne t.resume elr_at v
let set_nested_spsr t v = Bytes.set_int64_ne t.resume spsr_at v

let create (ga : Gaccess.t) ~(vcpu : Vcpu.t) =
  let t =
    {
      ga;
      vcpu;
      vhe = ga.Gaccess.config.Config.guest_vhe;
      vm_ctx = vcpu.Vcpu.ctx_base;
      host_ctx = Int64.add vcpu.Vcpu.ctx_base 0x2000L;
      used_lrs = 0;
      cntvoff = 0x1000L;
      virqs = [||];
      virqs_len = 0;
      resume = Bytes.make 32 '\000';
      exits_handled = 0;
      debug_active = false;
      pmu_active = false;
      on_mmio = None;
    }
  in
  set_nested_elr t 0x9000_0000L;
  set_nested_spsr t spsr_el1h;
  t

(* The pending-interrupt queue: [push_virq] grows the array when it is
   full, so a queue that has held n interrupts allocates nothing for n. *)
let push_virq t intid =
  if t.virqs_len = Array.length t.virqs then begin
    let grown = Array.make (max 4 (2 * t.virqs_len)) 0 in
    Array.blit t.virqs 0 grown 0 t.virqs_len;
    t.virqs <- grown
  end;
  t.virqs.(t.virqs_len) <- intid;
  t.virqs_len <- t.virqs_len + 1

let pop_virq t =
  let intid = t.virqs.(0) in
  t.virqs_len <- t.virqs_len - 1;
  Array.blit t.virqs 1 t.virqs 0 t.virqs_len;
  intid

let pending_virqs t = Array.to_list (Array.sub t.virqs 0 t.virqs_len)

let set_pending_virqs t l =
  t.virqs_len <- 0;
  List.iter (push_virq t) l

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
    mk_pending_virqs = pending_virqs t;
    mk_nested_elr = nested_elr t;
    mk_nested_spsr = nested_spsr t;
    mk_exits_handled = t.exits_handled;
    mk_debug_active = t.debug_active;
    mk_pmu_active = t.pmu_active;
    mk_on_mmio = t.on_mmio;
    mk_tamper = t.ga.Gaccess.tamper;
  }

let rewind t m =
  t.used_lrs <- m.mk_used_lrs;
  t.cntvoff <- m.mk_cntvoff;
  set_pending_virqs t m.mk_pending_virqs;
  set_nested_elr t m.mk_nested_elr;
  set_nested_spsr t m.mk_nested_spsr;
  t.exits_handled <- m.mk_exits_handled;
  t.debug_active <- m.mk_debug_active;
  t.pmu_active <- m.mk_pmu_active;
  t.on_mmio <- m.mk_on_mmio;
  t.ga.Gaccess.tamper <- m.mk_tamper

(* The single accesses of the exit path, built once (an access record
   per call is garbage).  A hypervisor reaches its own EL2 registers in
   the form its design uses: the E2H-redirected EL1 form where one
   exists under VHE (no trap when deprivileged), the EL2 register
   otherwise. *)
type own = {
  esr : Sysreg.access;
  elr : Sysreg.access;
  spsr : Sysreg.access;
  far : Sysreg.access;
  hpfar : Sysreg.access;
  cnthctl : Sysreg.access;
}

let own_regs ~vhe =
  let a = WS.own_el2_access ~vhe in
  { esr = a Sysreg.ESR_EL2; elr = a Sysreg.ELR_EL2; spsr = a Sysreg.SPSR_EL2;
    far = a Sysreg.FAR_EL2; hpfar = a Sysreg.HPFAR_EL2;
    cnthctl = a Sysreg.CNTHCTL_EL2 }

let own_vhe = own_regs ~vhe:true
let own_nvhe = own_regs ~vhe:false
let own t = if t.vhe then own_vhe else own_nvhe

let ich_hcr = Sysreg.direct Sysreg.ICH_HCR_EL2
let sgi1r = Sysreg.direct Sysreg.ICC_SGI1R_EL1
let cntvoff = Sysreg.direct Sysreg.CNTVOFF_EL2
let cntv_ctl = Sysreg.direct Sysreg.CNTV_CTL_EL0
let cntv_ctl02 = Sysreg.el02 Sysreg.CNTV_CTL_EL0
let cntv_cval = Sysreg.direct Sysreg.CNTV_CVAL_EL0
let vpidr = Sysreg.direct Sysreg.VPIDR_EL2
let vmpidr = Sysreg.direct Sysreg.VMPIDR_EL2

(* The alias of the VM's EL1 context loops ([_EL12] under VHE) and of
   its EL0-accessible timer ([_EL02] under VHE, Section 7.1). *)
let vm_el1 t = if t.vhe then Sysreg.EL12 else Sysreg.Direct
let vm_timer t = if t.vhe then Sysreg.EL02 else Sysreg.Direct

(* HCR value the guest hypervisor programs for its nested VM. *)
let nested_hcr = Arm.Hcr.(List.fold_left set 0L [ vm; imo; fmo; tsc; twi ])

(* The guest hypervisor's virtual VTTBR for the nested VM (its own stage-2
   tables; the host hypervisor shadows them). *)
let virtual_vttbr = 0x5000_0000L

(* --- exit-path phases --- *)

(* Phase A: read the exit syndrome.  A VHE hypervisor reads its (virtual)
   EL2 registers through E2H-redirected EL1 instructions — no traps except
   HPFAR_EL2, which has no EL1 twin; a non-VHE hypervisor reads the EL2
   registers directly and each read traps on ARMv8.3.  Each value stays
   a word: ELR and SPSR are copied from the data register into [resume]
   and committed once all five reads are done. *)
let read_exit_info t =
  let o = own t and ga = t.ga in
  let cpu = ga.Gaccess.cpu in
  Gaccess.rd_data ga o.esr;
  Gaccess.rd_data ga o.elr;
  Arm.Cpu.get_reg_into cpu Gaccess.data_reg t.resume read_at;
  Gaccess.rd_data ga o.spsr;
  Arm.Cpu.get_reg_into cpu Gaccess.data_reg t.resume (read_at + 8);
  Gaccess.rd_data ga o.far;
  Gaccess.rd_data ga o.hpfar;
  Bytes.blit t.resume read_at t.resume elr_at 16

(* The vGIC interface (Section 4): KVM reads the interface state on exit
   and disables the interface, then re-enables and re-programs it on
   entry, touching only the list registers in use.  GICv3's interface is
   system registers, copied by the funnel's loops; GICv2's is the
   memory-mapped GICH frame, one trapping access per register, the value
   in the data register.  Only the accessor differs, as on hardware, and
   both count their copies in [World_switch.reg_copies]. *)
let gich_rd ga r =
  Gaccess.gich_access ga r ~is_write:false;
  Arm.Cpu.get_reg ga.Gaccess.cpu Gaccess.data_reg

let gich_wr ga r v =
  Arm.Cpu.set_reg ga.Gaccess.cpu Gaccess.data_reg v;
  Gaccess.gich_access ga r ~is_write:true

let save_vgic t =
  let regs = Reglists.vgic_saved.(t.used_lrs) and ga = t.ga in
  if ga.Gaccess.config.Config.gicv2 then begin
    WS.add_copies (Array.length regs);
    Array.iter (fun r -> Gaccess.st ga (WS.slot t.vm_ctx r) (gich_rd ga r)) regs;
    gich_wr ga Sysreg.ICH_HCR_EL2 0L
  end
  else begin
    Gaccess.save_ctx ga ~alias:Sysreg.Direct ~ctx:t.vm_ctx regs;
    Gaccess.wr ga ich_hcr 0L
  end

let restore_vgic t =
  let regs = Reglists.vgic_restored.(t.used_lrs) and ga = t.ga in
  if ga.Gaccess.config.Config.gicv2 then begin
    gich_wr ga Sysreg.ICH_HCR_EL2 Gic.Vgic.ich_hcr_en;
    WS.add_copies (Array.length regs);
    Array.iter (fun r -> gich_wr ga r (Gaccess.ld ga (WS.slot t.vm_ctx r))) regs
  end
  else begin
    Gaccess.wr ga ich_hcr Gic.Vgic.ich_hcr_en;
    Gaccess.restore_ctx ga ~alias:Sysreg.Direct ~ctx:t.vm_ctx regs
  end

(* Phase B: world switch away from the nested VM (__guest_exit). *)
let switch_to_host t =
  let ga = t.ga and ctx = t.vm_ctx in
  (* every list runs through the funnel's compiled plans (element for
     element WS.save_array/restore_array over the funnel's ops) *)
  Gaccess.save_ctx ga ~alias:(vm_el1 t) ~ctx Reglists.el1_state_arr;
  Gaccess.save_ctx ga ~alias:Sysreg.Direct ~ctx Reglists.el0_state_arr;
  if t.debug_active then
    Gaccess.save_ctx ga ~alias:Sysreg.Direct ~ctx Reglists.debug_state_arr;
  if t.pmu_active then
    Gaccess.save_ctx ga ~alias:Sysreg.Direct ~ctx Reglists.pmu_state_arr;
  save_vgic t;
  Gaccess.save_ctx ga ~alias:(vm_timer t) ~ctx Reglists.timer_el0_state_arr;
  (* mask the VM timer while the host runs *)
  Gaccess.wr ga (if t.vhe then cntv_ctl02 else cntv_ctl) 0L;
  if not t.vhe then begin
    let ctx = t.host_ctx in
    Gaccess.restore_ctx ga ~alias:Sysreg.Direct ~ctx Reglists.el1_state_arr;
    Gaccess.restore_ctx ga ~alias:Sysreg.Direct ~ctx Reglists.el0_state_arr
  end;
  WS.deactivate_traps (Gaccess.ops ga) ~vhe:t.vhe

(* Non-VHE only: the lowvisor returns to the host kernel at (virtual) EL1.
   Setting up the return and the eret itself all trap on ARMv8.3; under
   NEVE the ELR/SPSR writes are redirected and only the eret traps. *)
let eret_to_kernel t =
  let o = own t in
  Gaccess.wr t.ga o.elr 0x7100_0000L;
  Gaccess.wr t.ga o.spsr spsr_el1h;
  Gaccess.eret t.ga

(* Non-VHE only: the host kernel calls back into the lowvisor. *)
let kernel_to_lowvisor t = Gaccess.hvc t.ga 1

(* Phase C: what KVM's host-side code does with the exit.  Bookkeeping is
   plain loads/stores against the hypervisor's own structures. *)
let handle_in_kernel t (reason : Vcpu.nested_exit) =
  let ga = t.ga in
  match reason with
  | Vcpu.Exit_hypercall ->
    (* kvm-unit-test hypercall: no work, straight back in *)
    ()
  | Vcpu.Exit_mmio -> begin
      match t.on_mmio with
      | Some f ->
        f ~addr:(Vcpu.exit_far t.vcpu) ~is_write:t.vcpu.Vcpu.exit_is_write
      | None ->
        (* no device attached: generic emulation bookkeeping *)
        for i = 0 to 9 do
          Arm.Cpu.set_reg ga.Gaccess.cpu Gaccess.data_reg (Int64.of_int i);
          Gaccess.st_at ga ~base:t.host_ctx (0x800 + (8 * i))
        done
    end
  | Vcpu.Exit_virq ->
    (* vgic: mark the interrupt pending for the nested VM; it will be
       placed in a list register on the way back in *)
    let intid = t.vcpu.Vcpu.exit_intid in
    push_virq t intid;
    Arm.Cpu.set_reg ga.Gaccess.cpu Gaccess.data_reg (Int64.of_int intid);
    Gaccess.st_at ga ~base:t.host_ctx 0x900
  | Vcpu.Exit_sgi ->
    (* the nested VM sent an IPI: KVM resolves the target vCPU, then kicks
       it by sending a physical SGI — an ICC_SGI1R write that itself traps
       to the host hypervisor (part of exit multiplication) *)
    let cpu = ga.Gaccess.cpu in
    let target = t.vcpu.Vcpu.exit_target and intid = t.vcpu.Vcpu.exit_intid in
    Arm.Cpu.set_reg cpu Gaccess.data_reg (Int64.of_int intid);
    Gaccess.st_at ga ~base:t.host_ctx 0x908;
    Arm.Cpu.set_reg cpu Gaccess.data_reg
      (Int64.logor (Int64.of_int target)
         (Int64.shift_left (Int64.of_int intid) 24));
    Gaccess.wr_data ga sgi1r
  | Vcpu.Exit_wfi ->
    (* yield: scheduler bookkeeping *)
    Gaccess.st ga (Int64.add t.host_ctx 0x910L) 1L
  | Vcpu.Exit_hyp_insn { access; rt = _; is_read } ->
    (* its nested VM is a hypervisor (Section 6.2): emulate the trapped
       instruction against the virtual-EL2 structure it maintains for it —
       a load or store in its own memory *)
    let slot =
      Int64.add t.host_ctx
        (Int64.of_int (0xa00 + Reglists.ctx_slot access.Sysreg.reg))
    in
    if is_read then ignore (Gaccess.ld ga slot) else Gaccess.st ga slot 1L
  | Vcpu.Exit_hyp_eret ->
    (* the L2 hypervisor enters its own nested VM (L3): the L1 guest
       hypervisor loads the L3 state it tracks — modeled as draining the
       virtual-EL1-for-L3 structure *)
    for i = 0 to 9 do
      ignore (Gaccess.ld ga (Int64.add t.host_ctx (Int64.of_int (0xa00 + (8 * i)))))
    done

(* Each list register's slot in the VM's context. *)
let lr_offs =
  Array.init Sysreg.lr_count (fun i -> Reglists.ctx_slot (Sysreg.ICH_LR_EL2 i))

(* Phase D: world switch back into the nested VM (__guest_enter). *)
let switch_to_guest t =
  let ga = t.ga in
  if not t.vhe then begin
    let ctx = t.host_ctx in
    Gaccess.save_ctx ga ~alias:Sysreg.Direct ~ctx Reglists.el1_state_arr;
    Gaccess.save_ctx ga ~alias:Sysreg.Direct ~ctx Reglists.el0_state_arr
  end;
  (* drain pending virtual interrupts into free list registers; overflow
     stays queued until a later entry frees slots (the hardware would
     raise a maintenance interrupt when LRs drain — here the next exit
     provides the opportunity) *)
  let slot = ref 0 and cpu = ga.Gaccess.cpu in
  while t.virqs_len > 0 && !slot < Reglists.vgic_lrs_in_use do
    let off = lr_offs.(!slot) in
    (* only fill slots whose saved content is free: occupied LRs (still
       pending or active in the VM) must survive the switch *)
    Gaccess.ld_at ga ~base:t.vm_ctx off;
    if Gic.Vgic.lr_is_free (Arm.Cpu.get_reg cpu Gaccess.data_reg) then begin
      let intid = pop_virq t in
      Arm.Cpu.set_reg cpu Gaccess.data_reg (Gic.Vgic.pending_lr intid);
      Gaccess.st_at ga ~base:t.vm_ctx off;
      t.used_lrs <- max t.used_lrs (!slot + 1)
    end;
    incr slot
  done;
  let ctx = t.vm_ctx in
  Gaccess.restore_ctx ga ~alias:(vm_el1 t) ~ctx Reglists.el1_state_arr;
  Gaccess.restore_ctx ga ~alias:Sysreg.Direct ~ctx Reglists.el0_state_arr;
  if t.debug_active then
    Gaccess.restore_ctx ga ~alias:Sysreg.Direct ~ctx Reglists.debug_state_arr;
  if t.pmu_active then
    Gaccess.restore_ctx ga ~alias:Sysreg.Direct ~ctx Reglists.pmu_state_arr;
  restore_vgic t;
  Gaccess.restore_ctx ga ~alias:(vm_timer t) ~ctx Reglists.timer_el0_state_arr;
  (* the timer's EL2 controls (CNTVOFF always traps when deprivileged);
     a VHE hypervisor programs its own timer through the E2H-redirected
     EL1 timer instructions, which never trap *)
  Gaccess.wr ga cntvoff t.cntvoff;
  Gaccess.wr ga (own t).cnthctl 0x3L;
  if t.vhe then begin
    Gaccess.wr ga cntv_cval 0x7fff_ffff_ffffL;
    Gaccess.wr ga cntv_ctl 1L
  end;
  Gaccess.wr ga vpidr 0x410f_d070L;
  Gaccess.wr ga vmpidr 0x8000_0000L;
  let o = Gaccess.ops ga in
  WS.activate_traps o ~vhe:t.vhe ~hcr:nested_hcr;
  WS.write_stage2 o ~vttbr:virtual_vttbr

(* Enter the nested VM: set the return target and eret; the eret traps to
   the host hypervisor, which performs the real switch. *)
let enter_nested t =
  let o = own t and ga = t.ga in
  let cpu = ga.Gaccess.cpu in
  Arm.Cpu.set_reg_from cpu Gaccess.data_reg t.resume elr_at;
  Gaccess.wr_data ga o.elr;
  Arm.Cpu.set_reg_from cpu Gaccess.data_reg t.resume spsr_at;
  Gaccess.wr_data ga o.spsr;
  Gaccess.eret ga

(* The full exit-handling path, invoked by the host hypervisor when it
   injects a virtual EL2 exception for a nested-VM exit. *)
let handle_exit t (reason : Vcpu.nested_exit) =
  t.exits_handled <- t.exits_handled + 1;
  if debug_on () then
    Log.debug (fun m ->
        m "guest hypervisor handling nested exit #%d: %s" t.exits_handled
          (Vcpu.exit_name t.vcpu reason));
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
  set_nested_elr t entry;
  set_nested_spsr t spsr_el1h;
  switch_to_guest t;
  enter_nested t
