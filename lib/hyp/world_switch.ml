(* World-switch code, shared between the host hypervisor (executing at EL2)
   and the guest hypervisor (executing at EL1 through the access funnel,
   where each access is routed — and possibly trapped — by the
   architecture).

   The functions move register state between the hardware and a context
   save area in memory, following KVM/ARM's __sysreg_save/restore_state
   structure.  What traps is decided entirely by who executes them and
   under which architecture — the code is identical, which is the point. *)

module Sysreg = Arm.Sysreg

type ops = {
  rd : Sysreg.access -> int64;
  wr : Sysreg.access -> int64 -> unit;
  ld : int64 -> int64;
  st : int64 -> int64 -> unit;
}

(* Fault-injection wrapper: every value read through [rd]/[ld] passes
   through [tamper] before the world-switch code sees it.  Writes are
   untouched, so the corruption shows up as a save/restore mismatch the
   invariant checker can catch. *)
let tampered_ops o ~tamper =
  { o with rd = (fun a -> tamper (o.rd a)); ld = (fun addr -> tamper (o.ld addr)) }

let slot ctx r = Int64.add ctx (Int64.of_int (Reglists.ctx_slot r))

(* Access form a hypervisor uses to reach its *own* EL2 register: a VHE
   hypervisor uses the E2H-redirected EL1 form where one exists (no trap
   when deprivileged); a non-VHE hypervisor uses the EL2 register
   directly. *)
let own_el2_access ~vhe r =
  if vhe then
    match Arm.Trap_rules.el1_form_of_el2 r with
    | Some el1 -> Sysreg.direct el1
    | None -> Sysreg.direct r
  else Sysreg.direct r

(* Access form a hypervisor uses to reach a *VM's* EL1 register: a VHE
   hypervisor must use the _EL12 alias where one exists (plain EL1
   accesses are E2H-redirected to its own EL2 registers); a non-VHE
   hypervisor uses the register directly.  Membership is an O(1) dense-
   index lookup: this runs once per register per world switch. *)
let vm_el1_access ~vhe r =
  if vhe && Reglists.is_el12_capable r then Sysreg.el12 r
  else Sysreg.direct r

(* Register copies performed by save/restore loops since startup,
   domain-local: every domain's world switches count into its own
   monotonic counter, so fleet shards never race and the world-switch
   tracer's delta around l0 enter/exit (taken on the emitting domain)
   attributes exactly that domain's copies.  A plain counter keeps the
   loops allocation-free. *)
let copied_key = Domain.DLS.new_key (fun () -> ref 0)

let copied () = Domain.DLS.get copied_key

let reg_copies () = !(copied ())

(* Compiled save/restore loops (Host_hyp's l0 fast path) perform the same
   copies without going through [save_array]/[restore_array]; they account
   for them here so tracer deltas stay identical. *)
let add_copies n =
  let c = copied () in
  c := !c + n

let save_list ops ~ctx ~via regs =
  add_copies (List.length regs);
  List.iter (fun r -> ops.st (slot ctx r) (ops.rd (via r))) regs

let restore_list ops ~ctx ~via regs =
  add_copies (List.length regs);
  List.iter (fun r -> ops.wr (via r) (ops.ld (slot ctx r))) regs

(* Same loops over the precomputed register arrays the Reglists compile
   to — the form every per-switch path below uses. *)
let save_array ops ~ctx ~via regs =
  add_copies (Array.length regs);
  Array.iter (fun r -> ops.st (slot ctx r) (ops.rd (via r))) regs

let restore_array ops ~ctx ~via regs =
  add_copies (Array.length regs);
  Array.iter (fun r -> ops.wr (via r) (ops.ld (slot ctx r))) regs

(* --- the VM's EL1 context --- *)

let save_vm_el1 ops ~vhe ~ctx =
  save_array ops ~ctx ~via:(vm_el1_access ~vhe) Reglists.el1_state_arr

let restore_vm_el1 ops ~vhe ~ctx =
  restore_array ops ~ctx ~via:(vm_el1_access ~vhe) Reglists.el1_state_arr

(* --- EL0-accessible context (never traps) --- *)

let save_el0 ops ~ctx =
  save_array ops ~ctx ~via:Sysreg.direct Reglists.el0_state_arr
let restore_el0 ops ~ctx =
  restore_array ops ~ctx ~via:Sysreg.direct Reglists.el0_state_arr

(* --- the host's own EL1 context (non-VHE hypervisors only: a VHE
   hypervisor's host state lives in EL2 registers and stays put) --- *)

(* --- debug and PMU state (Section 6.1's "performance monitoring,
   debugging, and timer system registers") ---

   Only switched when the VM actually uses them (KVM's debug-dirty /
   perf-active flags); when it does, a non-VHE guest hypervisor takes a
   trap per access on ARMv8.3 while NEVE defers them all. *)

let save_debug ops ~ctx =
  save_array ops ~ctx ~via:Sysreg.direct Reglists.debug_state_arr

let save_pmu ops ~ctx =
  save_array ops ~ctx ~via:Sysreg.direct Reglists.pmu_state_arr

(* --- vGIC hypervisor interface ---

   KVM reads the interface state on exit and disables the interface, then
   re-enables and re-programs it on entry.  Only list registers in use are
   touched (used_lrs), which matters for trap counts.

   The interface comes in two flavours (Section 4): GICv3's system
   registers (accessed through the normal ops) and GICv2's memory-mapped
   GICH frame (accessed through a [gic_ops], whose accesses trap via
   stage 2 when deprivileged).  The code paths are identical — only the
   accessor differs, as on real hardware. *)

type gic_ops = {
  gic_rd : Sysreg.t -> int64;
  gic_wr : Sysreg.t -> int64 -> unit;
}

(* GICv3: the interface registers are system registers. *)
let sysreg_gic ops =
  { gic_rd = (fun r -> ops.rd (Sysreg.direct r));
    gic_wr = (fun r v -> ops.wr (Sysreg.direct r) v) }

let save_vgic ?gic ops ~ctx ~used_lrs =
  let g = match gic with Some g -> g | None -> sysreg_gic ops in
  List.iter
    (fun r -> ops.st (slot ctx r) (g.gic_rd r))
    ([ Sysreg.ICH_VMCR_EL2; Sysreg.ICH_MISR_EL2; Sysreg.ICH_ELRSR_EL2;
       Sysreg.ICH_AP1R_EL2 0 ]
     @ List.init used_lrs (fun n -> Sysreg.ICH_LR_EL2 n));
  (* disable the virtual interface while in the host *)
  g.gic_wr Sysreg.ICH_HCR_EL2 0L

let restore_vgic ?gic ops ~ctx ~used_lrs =
  let g = match gic with Some g -> g | None -> sysreg_gic ops in
  g.gic_wr Sysreg.ICH_HCR_EL2 Gic.Vgic.ich_hcr_en;
  List.iter
    (fun r -> g.gic_wr r (ops.ld (slot ctx r)))
    ([ Sysreg.ICH_VMCR_EL2 ]
     @ List.init used_lrs (fun n -> Sysreg.ICH_LR_EL2 n))

(* --- timers ---

   The VM's EL1 virtual timer is EL0-accessible; a non-VHE hypervisor
   reaches it directly (no trap) while a VHE hypervisor needs the _EL02
   forms, which always trap (Section 7.1).  A VHE hypervisor additionally
   runs its own EL2 virtual timer via E2H-redirected CNTV accesses. *)

let vm_timer_access ~vhe r = if vhe then Sysreg.el02 r else Sysreg.direct r

let save_vm_timer ops ~vhe ~ctx =
  save_list ops ~ctx ~via:(vm_timer_access ~vhe) Reglists.timer_el0_state;
  (* mask the VM timer while the host runs *)
  ops.wr (vm_timer_access ~vhe Sysreg.CNTV_CTL_EL0) 0L

let restore_vm_timer ops ~vhe ~ctx =
  restore_list ops ~ctx ~via:(vm_timer_access ~vhe) Reglists.timer_el0_state

(* Timer EL2 controls, written per transition.  CNTVOFF has no EL1 form
   and always traps when deprivileged; a VHE hypervisor reaches CNTHCTL
   through the redirected CNTKCTL_EL1 form. *)
let write_timer_controls ops ~vhe ~cntvoff =
  ops.wr (Sysreg.direct Sysreg.CNTVOFF_EL2) cntvoff;
  ops.wr (own_el2_access ~vhe Sysreg.CNTHCTL_EL2) 0x3L

(* A VHE hypervisor programs its own hypervisor timer through the
   E2H-redirected EL1 timer instructions — never traps. *)
let arm_vhe_hyp_timer ops ~cval =
  ops.wr (Sysreg.direct Sysreg.CNTV_CVAL_EL0) cval;
  ops.wr (Sysreg.direct Sysreg.CNTV_CTL_EL0) 1L

(* --- trap controls around VM entry/exit ---

   A VHE hypervisor writes CPTR through the redirected CPACR_EL1 form and
   CNTHCTL through CNTKCTL_EL1 (no trap); HCR/MDCR/HSTR/VTTBR have no EL1
   forms and are written directly by both designs. *)

(* The accesses below are built once: the host runs activate/deactivate
   on every trap, and an access record per write is pure garbage. *)
let hcr_a = Sysreg.direct Sysreg.HCR_EL2
let cptr_a = Sysreg.direct Sysreg.CPTR_EL2
let cpacr_a = Sysreg.direct Sysreg.CPACR_EL1
let mdcr_a = Sysreg.direct Sysreg.MDCR_EL2
let hstr_a = Sysreg.direct Sysreg.HSTR_EL2
let vttbr_a = Sysreg.direct Sysreg.VTTBR_EL2
let vpidr_a = Sysreg.direct Sysreg.VPIDR_EL2
let vmpidr_a = Sysreg.direct Sysreg.VMPIDR_EL2

let cptr_access ~vhe = if vhe then cpacr_a else cptr_a

let activate_traps ops ~vhe ~hcr =
  ops.wr hcr_a hcr;
  ops.wr (cptr_access ~vhe) 0x33ffL;
  ops.wr mdcr_a 0xe66L;
  if not vhe then ops.wr hstr_a 0L

let deactivate_traps ops ~vhe =
  ops.wr hcr_a 0L;
  ops.wr (cptr_access ~vhe) 0L;
  ops.wr mdcr_a 0L;
  if not vhe then ops.wr hstr_a 0L

let write_stage2 ops ~vttbr = ops.wr vttbr_a vttbr

let write_vpidr ops ~midr ~mpidr =
  ops.wr vpidr_a midr;
  ops.wr vmpidr_a mpidr
