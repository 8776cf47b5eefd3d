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

(* --- compiled context-sequence plans ---

   The guest hypervisor's world-switch loops push ~50 register accesses
   through the funnel per exit.  Under a fixed routing state every copy
   resolves to one of three things: a register-file move ([G_sys], the
   route said Execute or redirected to a twin), a deferred-page memory
   move ([G_mem], NV2 deferral with a precomputed page address), or a
   replay of the preallocated instruction under its precomputed route
   ([G_exec] — traps, disguised reads, UNDEFs, and anything with hardware
   side effects).  [G_sys] and [G_mem] copies move their value as an
   unboxed word ([Sysreg_file.save_word]/[load_word], [Memory.copy64]).
   Plans are memoized per (context, register set, direction, alias form)
   and validated against the complete routing key; G_exec boundaries
   flush aggregated accounting so a trap handler observes the exact
   meter, PC and data-register state the interpreted loop would show
   it. *)

type gop =
  | G_sys of int  (* dense register index *)
  | G_mem of int64
  | G_exec of Insn.t * Arm.Trap_rules.action

type gcopy = { g_op : gop; g_slot : int64 }

(* Everything instruction routing reads.  A plan compiled under one key
   replays soundly while the key holds; the fields mirror the argument
   list of [Trap_rules.route]. *)
type gkey = {
  gk_hcr : int64;
  gk_vncr : int64;
  gk_feats : Arm.Features.t;          (* physical identity *)
  gk_mask : Arm.Trap_rules.nv2_mask;  (* physical identity *)
  gk_expose : Expose.Policy.t;        (* OoH grant set *)
  gk_el : Arm.Pstate.el;
}

type seq_entry = {
  se_ctx : int64;
  se_save : bool;
  se_el12 : bool;
  se_regs : Sysreg.t array;  (* physical identity *)
  mutable se_plans : (gkey * gcopy array) list;
}

type t = {
  cpu : Cpu.t;
  config : Config.t;
  page_base : int64;  (* shared page / deferred access page base *)
  (* One-shot fault-injection corruption: applied to the next value read
     through [rd]/[ld], then cleared. *)
  mutable tamper : (int64 -> int64) option;
  mutable seqs : seq_entry list;  (* compiled world-switch sequences *)
}

let v cpu config ~page_base =
  { cpu; config; page_base; tamper = None; seqs = [] }

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
let isb t = exec t Insn.Isb

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

(* The world-switch operation record used by World_switch. *)
let ops t : World_switch.ops =
  {
    World_switch.rd = rd t;
    wr = wr t;
    ld = ld t;
    st = st t;
  }

(* --- compiled context sequences (implementation) --- *)

module Trap_rules = Arm.Trap_rules
module Memory = Arm.Memory
module WS = World_switch

(* The alias form the loops use: the [_EL12] access for capable registers
   when a VHE hypervisor touches a VM's EL1 state, direct otherwise —
   [World_switch.vm_el1_access] by another name ([el12:false] is plain
   direct, covering el0/host/debug/pmu loops). *)
let via_access ~el12 r =
  if el12 && Reglists.is_el12_capable r then Sysreg.el12 r else Sysreg.direct r

(* Registers whose hardware read is not a plain register-file load
   (CurrentEL synthesis, CNTVCT from the cycle count): a compiled loop
   charging cycles in aggregate would read them at the wrong mid-loop
   instant, so their copies replay as instructions ([G_exec]) instead. *)
let hw_special (r : Sysreg.t) =
  match r with Sysreg.CurrentEL | Sysreg.CNTVCT_EL0 -> true | _ -> false

(* Registers the routing key reads. *)
let routing_input (r : Sysreg.t) =
  match r with Sysreg.HCR_EL2 | Sysreg.VNCR_EL2 -> true | _ -> false

let key_now (cpu : Cpu.t) =
  {
    gk_hcr = Cpu.peek_sysreg cpu Sysreg.HCR_EL2;
    gk_vncr = Cpu.peek_sysreg cpu Sysreg.VNCR_EL2;
    gk_feats = cpu.Cpu.features;
    gk_mask = cpu.Cpu.nv2_mask;
    gk_expose = cpu.Cpu.expose;
    gk_el = cpu.Cpu.pstate.Arm.Pstate.el;
  }

(* Whether the CPU's routing state is still [k] (without building a key
   for the comparison). *)
let key_holds k (cpu : Cpu.t) =
  Arm.Sysreg_file.holds cpu.Cpu.sysregs Sysreg.HCR_EL2 k.gk_hcr
  && Arm.Sysreg_file.holds cpu.Cpu.sysregs Sysreg.VNCR_EL2 k.gk_vncr
  && k.gk_feats == cpu.Cpu.features
  && k.gk_mask == cpu.Cpu.nv2_mask
  && Expose.Policy.equal k.gk_expose cpu.Cpu.expose
  && k.gk_el = cpu.Cpu.pstate.Arm.Pstate.el

(* The compiled path only replays what the plain hardware funnel would
   do: no paravirt rewriting, no pending fault corruption, no per-access
   trace events (deferred copies emit Vncr_redirect when tracing). *)
let fast_ok t =
  (not (Config.is_paravirt t.config)) && t.tamper == None && not !Trace.on

let route_for (cpu : Cpu.t) insn =
  Trap_rules.route ~mask:cpu.Cpu.nv2_mask ~expose:cpu.Cpu.expose
    cpu.Cpu.features ~hcr:(Cpu.hcr_view cpu) ~vncr:(Cpu.vncr_value cpu)
    ~el:cpu.Cpu.pstate.Arm.Pstate.el insn

let compile_seq t ~el12 ~ctx ~save regs =
  let cpu = t.cpu in
  let slots = Array.map (WS.slot ctx) regs in
  Array.mapi
    (fun k r ->
      let access = via_access ~el12 r in
      let insn =
        if save then Insn.Mrs (data_reg, access)
        else Insn.Msr (access, Insn.Reg data_reg)
      in
      let action = route_for cpu insn in
      let op =
        match action with
        | (Trap_rules.Execute | Trap_rules.Execute_redirected _)
          when (not save) && routing_input access.Sysreg.reg ->
          (* the write changes the key itself: replay it, then re-check *)
          G_exec (insn, action)
        | Trap_rules.Execute when not (save && hw_special access.Sysreg.reg) ->
          G_sys (Sysreg.index access.Sysreg.reg)
        | Trap_rules.Execute_redirected a
          when not (save && hw_special a.Sysreg.reg) ->
          G_sys (Sysreg.index a.Sysreg.reg)
        | Trap_rules.Defer_to_memory { addr; reg = _ }
          when save || not (Array.exists (Int64.equal addr) slots) ->
          (* A replay leaves the data register holding the last copy's
             value by reading it back from that copy's context slot at the
             next flush; a restore's deferred store onto a context slot of
             the same loop would break that, so it replays instead. *)
          G_mem addr
        | _ -> G_exec (insn, action)
      in
      { g_op = op; g_slot = slots.(k) })
    regs

let plan_for t ~el12 ~ctx ~save regs =
  let rec find_entry = function
    | e :: _
      when e.se_regs == regs && e.se_ctx = ctx && e.se_save = save
           && e.se_el12 = el12 ->
      e
    | _ :: tl -> find_entry tl
    | [] ->
      let e =
        { se_ctx = ctx; se_save = save; se_el12 = el12; se_regs = regs;
          se_plans = [] }
      in
      t.seqs <- e :: t.seqs;
      e
  in
  let entry = find_entry t.seqs in
  let rec find_plan = function
    | ((k, _) as kp) :: tl -> if key_holds k t.cpu then kp else find_plan tl
    | [] ->
      let kp = (key_now t.cpu, compile_seq t ~el12 ~ctx ~save regs) in
      entry.se_plans <- kp :: entry.se_plans;
      kp
  in
  find_plan entry.se_plans

(* Interpreted fallback, element-for-element what
   [World_switch.save_array]/[restore_array] do over [ops] (the copied
   counter is bumped by the caller). *)
let generic_save t ~el12 ~ctx regs ~from =
  for i = from to Array.length regs - 1 do
    let r = Array.unsafe_get regs i in
    st t (WS.slot ctx r) (rd t (via_access ~el12 r))
  done

let generic_rest t ~el12 ~ctx regs ~from =
  for i = from to Array.length regs - 1 do
    let r = Array.unsafe_get regs i in
    wr t (via_access ~el12 r) (ld t (WS.slot ctx r))
  done

(* Aggregated accounting of a plan replay between G_exec boundaries.
   [last] is the copy whose context slot holds the value the data
   register must end up with (-1: it already does). *)
type acct = {
  mutable insns : int;
  mutable cyc : int;
  mutable acc : int;
  mutable pcb : int;
  mutable last : int;
}

let flush (cpu : Cpu.t) (plan : gcopy array) a =
  let m = cpu.Cpu.meter in
  m.Cost.insns <- m.Cost.insns + a.insns;
  m.Cost.cycles <- m.Cost.cycles + a.cyc;
  m.Cost.mem_accesses <- m.Cost.mem_accesses + a.acc;
  if a.pcb <> 0 then cpu.Cpu.pc <- Int64.add cpu.Cpu.pc (Int64.of_int a.pcb);
  if a.last >= 0 then
    Cpu.set_reg cpu data_reg
      (Memory.read64 cpu.Cpu.mem plan.(a.last).g_slot);
  a.insns <- 0;
  a.cyc <- 0;
  a.acc <- 0;
  a.pcb <- 0;
  a.last <- -1

let run_save_plan t (plan : gcopy array) key ~el12 ~ctx regs =
  let cpu = t.cpu in
  let c = Cpu.table cpu in
  let sr = cpu.Cpu.sysregs and mem = cpu.Cpu.mem in
  let n = Array.length plan in
  let a = { insns = 0; cyc = 0; acc = 0; pcb = 0; last = -1 } in
  let i = ref 0 in
  let ok = ref true in
  while !ok && !i < n do
    let gc = Array.unsafe_get plan !i in
    (match gc.g_op with
     | G_sys r ->
       (* "mrs x10, r; str x10, [slot]" *)
       Arm.Sysreg_file.save_word sr r mem ~base:gc.g_slot 0;
       a.last <- !i;
       a.insns <- a.insns + 2;
       a.cyc <- a.cyc + c.Cost.sysreg_read + c.Cost.mem_store;
       a.acc <- a.acc + 1;
       a.pcb <- a.pcb + 8
     | G_mem addr ->
       (* deferred mrs (a 64-bit load from the VNCR page) + the store *)
       Memory.copy64 mem ~src:addr ~dst:gc.g_slot;
       a.last <- !i;
       a.insns <- a.insns + 2;
       a.cyc <- a.cyc + c.Cost.mem_load + c.Cost.mem_store;
       a.acc <- a.acc + 2;
       a.pcb <- a.pcb + 8
     | G_exec (insn, action) ->
       (* the read leg needs full routing (trap, disguise, UNDEF...);
          hand it the exact machine state the interpreted loop has *)
       flush cpu plan a;
       Cpu.exec_with_action cpu insn action;
       let v = tampered t (Cpu.get_reg cpu data_reg) in
       (* the store leg is an unconditional plain str *)
       Cpu.set_reg cpu data_reg v;
       Memory.write64 mem gc.g_slot v;
       a.insns <- a.insns + 1;
       a.cyc <- a.cyc + c.Cost.mem_store;
       a.acc <- a.acc + 1;
       a.pcb <- a.pcb + 4;
       (* the handler behind a trap may have moved the routing state *)
       if not (fast_ok t && key_holds key cpu) then begin
         flush cpu plan a;
         generic_save t ~el12 ~ctx regs ~from:(!i + 1);
         ok := false
       end);
    incr i
  done;
  if !ok then flush cpu plan a

let run_rest_plan t (plan : gcopy array) key ~el12 ~ctx regs =
  let cpu = t.cpu in
  let c = Cpu.table cpu in
  let sr = cpu.Cpu.sysregs and mem = cpu.Cpu.mem in
  let n = Array.length plan in
  let a = { insns = 0; cyc = 0; acc = 0; pcb = 0; last = -1 } in
  let i = ref 0 in
  let ok = ref true in
  while !ok && !i < n do
    let gc = Array.unsafe_get plan !i in
    (match gc.g_op with
     | G_sys r ->
       (* "ldr x10, [slot]; msr r, x10" (a write to a read-only register
          is ignored, as [Cpu.write_sysreg_hw] does) *)
       if Arm.Sysreg_file.writable_index r then
         Arm.Sysreg_file.load_word sr r mem ~base:gc.g_slot 0;
       a.last <- !i;
       a.insns <- a.insns + 2;
       a.cyc <- a.cyc + c.Cost.mem_load + c.Cost.sysreg_write;
       a.acc <- a.acc + 1;
       a.pcb <- a.pcb + 8
     | G_mem addr ->
       (* the load + a deferred msr (a 64-bit store to the VNCR page) *)
       Memory.copy64 mem ~src:gc.g_slot ~dst:addr;
       a.last <- !i;
       a.insns <- a.insns + 2;
       a.cyc <- a.cyc + c.Cost.mem_load + c.Cost.mem_store;
       a.acc <- a.acc + 2;
       a.pcb <- a.pcb + 8
     | G_exec (insn, action) ->
       (* the load leg is an unconditional plain ldr; charge it, then
          flush and replay the write leg under its route *)
       a.last <- !i;
       a.insns <- a.insns + 1;
       a.cyc <- a.cyc + c.Cost.mem_load;
       a.acc <- a.acc + 1;
       a.pcb <- a.pcb + 4;
       flush cpu plan a;
       Cpu.exec_with_action cpu insn action;
       if not (fast_ok t && key_holds key cpu) then begin
         generic_rest t ~el12 ~ctx regs ~from:(!i + 1);
         ok := false
       end);
    incr i
  done;
  if !ok then flush cpu plan a

let save_ctx t ~el12 ~ctx regs =
  WS.add_copies (Array.length regs);
  if fast_ok t then begin
    let key, plan = plan_for t ~el12 ~ctx ~save:true regs in
    run_save_plan t plan key ~el12 ~ctx regs
  end
  else generic_save t ~el12 ~ctx regs ~from:0

let restore_ctx t ~el12 ~ctx regs =
  WS.add_copies (Array.length regs);
  if fast_ok t then begin
    let key, plan = plan_for t ~el12 ~ctx ~save:false regs in
    run_rest_plan t plan key ~el12 ~ctx regs
  end
  else generic_rest t ~el12 ~ctx regs ~from:0
