(* Guest-hypervisor access funnel.

   Every architectural interaction the guest hypervisor (L1) performs goes
   through this module as an instruction executed on the simulated CPU at
   EL1.  Under a hardware mechanism (Hw_v8_3 / Hw_neve) the instruction is
   executed as written and the CPU's trap router does the rest; under a
   paravirtualized mechanism the instruction is first rewritten
   (Paravirt.rewrite) exactly as the paper's compile-time wrappers do. *)

module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Sysreg = Arm.Sysreg

type t = {
  cpu : Cpu.t;
  config : Config.t;
  page_base : int64;  (* shared page / deferred access page base *)
  (* One-shot fault-injection corruption: applied to the next value read
     through [rd]/[ld], then cleared. *)
  mutable tamper : (int64 -> int64) option;
  (* the funnel as World_switch ops, and the compiled plans of the
     world-switch loops run through it *)
  copier : World_switch.copier;
}

let exec t insn =
  try
    if Config.is_paravirt t.config then
      List.iter (Cpu.exec t.cpu)
        (Paravirt.rewrite t.config ~page_base:t.page_base insn)
    else Cpu.exec t.cpu insn
  with Paravirt.Would_undef _ ->
    (* The rewriter found the instruction UNDEFINED on the target
       architecture.  Deliver the UNDEF the target hardware would: an
       EL1 exception for deprivileged code.  At EL2 this is the
       simulator emitting instructions it cannot rewrite — a bug. *)
    if t.cpu.Cpu.pstate.Arm.Pstate.el = Arm.Pstate.EL2 then
      Fault.Error.sim_bug ~cpu:t.cpu
        (Fault.Error.Unsupported_rewrite (Insn.to_string insn))
    else begin
      Cpu.advance_pc t.cpu;
      Cpu.exception_entry t.cpu
        { Arm.Exn.target = Arm.Pstate.EL1; ec = Arm.Exn.EC_unknown; iss = 0;
          fault_addr = None }
    end

(* Data-moving register for MRS results and MSR sources. *)
let data_reg = 10

let tampered t v =
  match t.tamper with
  | None -> v
  | Some f ->
    t.tamper <- None;
    let v' = f v in
    Cpu.set_reg t.cpu data_reg v';
    v'

let rd t access =
  exec t (Insn.Mrs (data_reg, access));
  tampered t (Cpu.get_reg t.cpu data_reg)

let wr t access v =
  Cpu.set_reg t.cpu data_reg v;
  exec t (Insn.Msr (access, Insn.Reg data_reg))

(* Plain memory accesses (to the hypervisor's own data structures). *)
let ld t addr =
  exec t (Insn.Ldr (data_reg, Insn.Abs addr));
  tampered t (Cpu.get_reg t.cpu data_reg)

let st t addr v =
  Cpu.set_reg t.cpu data_reg v;
  exec t (Insn.Str (data_reg, Insn.Abs addr))

let hvc t imm = exec t (Insn.Hvc imm)
let eret t = exec t Insn.Eret

(* GICv2: the hypervisor control interface is a memory-mapped frame.  The
   host leaves it unmapped at stage 2 for deprivileged software, so every
   access from the guest hypervisor takes a data abort to EL2 — the
   "trivially traps" path of Section 4.  The emulated value moves through
   [data_reg], matching the host's MMIO-emulation convention. *)
let gich_access t (reg : Sysreg.t) ~is_write =
  match Gic.Gicv2.of_ich reg with
  | None ->
    (* No GICH frame register backs this access.  From deprivileged
       code that is guest input: inject the UNDEF real hardware raises
       for a reserved frame offset.  From the host's own EL2 world
       switch it is a simulator bug. *)
    let cpu = t.cpu in
    if cpu.Cpu.pstate.Arm.Pstate.el = Arm.Pstate.EL2 then
      Fault.Error.sim_bug ~cpu
        (Fault.Error.Not_gich_register (Sysreg.name reg))
    else begin
      Cpu.advance_pc cpu;
      Cpu.exception_entry cpu
        { Arm.Exn.target = Arm.Pstate.EL1; ec = Arm.Exn.EC_unknown; iss = 0;
          fault_addr = None }
    end
  | Some gich ->
    let addr = Gic.Gicv2.address_of gich in
    let cpu = t.cpu in
    if cpu.Cpu.pstate.Arm.Pstate.el = Arm.Pstate.EL2 then
      (* the host maps the frame for itself: a plain device access *)
      Cost.charge cpu.Cpu.meter (Cpu.table cpu).Cost.gic_mmio_access
    else begin
      Cost.record_trap ~detail:(Sysreg.name reg) cpu.Cpu.meter Cost.Trap_mmio;
      Cost.charge cpu.Cpu.meter (Cpu.table cpu).Cost.insn_base;
      Cpu.exception_entry cpu
        { Arm.Exn.target = Arm.Pstate.EL2; ec = Arm.Exn.EC_dabt_lower;
          iss = (if is_write then 0x40 else 0); fault_addr = Some addr }
    end

let gicv2_gic t : World_switch.gic_ops =
  {
    World_switch.gic_rd =
      (fun r ->
        gich_access t r ~is_write:false;
        Cpu.get_reg t.cpu data_reg);
    gic_wr =
      (fun r v ->
        Cpu.set_reg t.cpu data_reg v;
        gich_access t r ~is_write:true);
  }

(* The funnel's ops close over [t], which holds them in its copier: the
   knot is tied through a lazy value. *)
let v cpu config ~page_base =
  let rec t =
    lazy
      {
        cpu; config; page_base; tamper = None;
        copier =
          World_switch.copier cpu
            {
              World_switch.rd = (fun a -> rd (Lazy.force t) a);
              wr = (fun a v -> wr (Lazy.force t) a v);
              ld = (fun addr -> ld (Lazy.force t) addr);
              st = (fun addr v -> st (Lazy.force t) addr v);
            }
            ~data:data_reg ~imm_msr:false;
      }
  in
  Lazy.force t

(* The world-switch operation record used by World_switch. *)
let ops t = World_switch.ops_of t.copier

(* The compiled plans replay what the plain hardware funnel does: a
   paravirt config rewrites each instruction first, and a pending fault
   corruption applies to the next value read, so both run the reference
   loops. *)
let compiled t = (not (Config.is_paravirt t.config)) && t.tamper == None

let save_ctx t ~el12 ~ctx regs =
  if compiled t then World_switch.save t.copier ~el12 ~ctx regs
  else
    World_switch.save_array (ops t) ~ctx
      ~via:(World_switch.vm_el1_access ~vhe:el12) regs

let restore_ctx t ~el12 ~ctx regs =
  if compiled t then World_switch.restore t.copier ~el12 ~ctx regs
  else
    World_switch.restore_array (ops t) ~ctx
      ~via:(World_switch.vm_el1_access ~vhe:el12) regs

