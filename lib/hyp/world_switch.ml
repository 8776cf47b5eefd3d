(* World-switch code, shared between the host hypervisor (executing at EL2)
   and the guest hypervisor (executing at EL1 through the access funnel,
   where each access is routed — and possibly trapped — by the
   architecture).

   The functions move register state between the hardware and a context
   save area in memory, following KVM/ARM's __sysreg_save/restore_state
   structure.  What traps is decided entirely by who executes them and
   under which architecture — the code is identical, which is the point. *)

module Sysreg = Arm.Sysreg
module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Memory = Arm.Memory

type ops = {
  rd : Sysreg.access -> int64;
  wr : Sysreg.access -> int64 -> unit;
  ld : int64 -> int64;
  st : int64 -> int64 -> unit;
}

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

(* Counted once per loop, by the reference loops and the compiled plans
   alike, so tracer deltas do not depend on which one ran. *)
let add_copies n =
  let c = copied () in
  c := !c + n

(* The reference loops: one register copy per iteration through [ops],
   exactly the instructions the hypervisor executes.  [copy_from] is also
   where a compiled plan hands over when the routing state moves under
   it (below). *)
let copy_from ops ~save ~ctx ~via regs from =
  for i = from to Array.length regs - 1 do
    let r = Array.unsafe_get regs i in
    if save then ops.st (slot ctx r) (ops.rd (via r))
    else ops.wr (via r) (ops.ld (slot ctx r))
  done

let save_array ops ~ctx ~via regs =
  add_copies (Array.length regs);
  copy_from ops ~save:true ~ctx ~via regs 0

let restore_array ops ~ctx ~via regs =
  add_copies (Array.length regs);
  copy_from ops ~save:false ~ctx ~via regs 0

(* --- compiled copy plans ---

   Both hypervisors run the loops above on every world switch: the host
   72 copies per trap at EL2, the guest hypervisor ~50 per exit through
   its access funnel.  Under a fixed routing state every copy resolves
   to one of three things, so a loop compiles once per state to:

   - [Regs]: a run of copies the router executes against the register
     file ([Execute], or [Execute_redirected] to a twin), moved by one
     [Sysreg_file.save]/[restore] word kernel;
   - [Page]: an NV2-deferred copy, one [Memory.copy64] between the
     deferred access page and the context slot;
   - [Replay]: anything else (traps, disguised reads, UNDEFs, registers
     whose read is not a register-file load, writes that change the
     routing state), executed as its preallocated instruction under its
     precomputed route ([Cpu.exec_with_action]).

   Instructions, cycles and memory accesses are charged per step; the
   PC advance and the data register (which ends holding the last copy's
   value) are applied before each replay and at the end, so a trap
   handler sees exactly the machine state the reference loop shows it.
   A replay may move the routing state (a trap handler writes HCR_EL2);
   the loop then finishes through [copy_from] from the next copy. *)

type copy = {
  insn : Insn.t;
  action : Arm.Trap_rules.action;
  at : int;          (* index of the copy in its loop *)
  off : int;         (* its context slot, as an offset from the loop's *)
  slot : int64;      (* ... and as an address *)
  norm : bool;       (* an immediate MSR normalized by a mov *)
}

type step =
  | Regs of { n : int; norms : int; idx : int array; offs : int array;
              last : int }
  | Page of int64 * copy
  | Replay of copy

(* a plan replays while its routing key holds *)
type plan = { key : Arm.Route_key.t; steps : step array }

(* a loop: [regs] (by physical identity) copied to or from the context
   area at [ctx], through the [_EL12] aliases when [el12]; one plan per
   key met *)
type loop = {
  ctx : int64;
  save : bool;
  el12 : bool;
  regs : Sysreg.t array;
  mutable plans : plan list;
}

type copier = {
  cpu : Cpu.t;
  ops : ops;
  data : int;
  imm_msr : bool;
  mutable loops : loop list;
}

let copier cpu ops ~data ~imm_msr = { cpu; ops; data; imm_msr; loops = [] }
let ops_of c = c.ops
let plan_keys c = List.map (fun l -> List.map (fun p -> p.key) l.plans) c.loops

(* Registers whose hardware read is not a plain register-file load
   (CurrentEL from PSTATE, CNTVCT from the cycle count): a save charging
   cycles in aggregate would read them at the wrong instant. *)
let hw_special (r : Sysreg.t) =
  match r with Sysreg.CurrentEL | Sysreg.CNTVCT_EL0 -> true | _ -> false

let via ~el12 = if el12 then vm_el1_access ~vhe:true else Sysreg.direct

let compile c (l : loop) =
  let cpu = c.cpu in
  let on_slot addr =
    Array.exists (fun r -> Int64.equal addr (slot l.ctx r)) l.regs
  in
  (* each copy: [Ok] with the register the kernel moves, or the step it
     needs *)
  let classify k r =
    let access = via ~el12:l.el12 r in
    let insn =
      if l.save then Insn.Mrs (c.data, access)
      else Insn.Msr (access, Insn.Reg c.data)
    in
    let action = Cpu.route cpu insn in
    let copy =
      { insn; action; at = k; off = Reglists.ctx_slot r; slot = slot l.ctx r;
        norm = c.imm_msr && (not l.save) && action <> Arm.Trap_rules.Execute }
    in
    match action with
    | (Arm.Trap_rules.Execute | Arm.Trap_rules.Execute_redirected _)
      when (not l.save) && (r = Sysreg.HCR_EL2 || r = Sysreg.VNCR_EL2) ->
      (* the write moves the key itself: replay it, then re-check *)
      Error (Replay copy)
    | Arm.Trap_rules.Execute when not (l.save && hw_special r) ->
      Ok (r, copy)
    | Arm.Trap_rules.Execute_redirected a
      when not (l.save && hw_special a.Sysreg.reg) ->
      Ok (a.Sysreg.reg, copy)
    | Arm.Trap_rules.Defer_to_memory { addr; reg = _ }
      when l.save || not (on_slot addr) ->
      (* the data register ends holding the last copy's value, read back
         from that copy's slot; a deferred store onto a slot of the same
         loop would change it, so such a restore replays *)
      Error (Page (addr, copy))
    | _ -> Error (Replay copy)
  in
  (* maximal runs of register-file copies become kernel steps; a
     restore's kernel skips the registers an MSR cannot write *)
  let kernel run =
    let run = List.rev run in
    let kept =
      List.filter
        (fun (r, _) ->
          l.save || Arm.Sysreg_file.writable_index (Sysreg.index r))
        run
    in
    Regs
      { n = List.length run;
        norms = List.length (List.filter (fun (_, cp) -> cp.norm) run);
        idx = Array.of_list (List.map (fun (r, _) -> Sysreg.index r) kept);
        offs = Array.of_list (List.map (fun (_, cp) -> cp.off) kept);
        last = (snd (List.nth run (List.length run - 1))).off }
  in
  let steps, run =
    Array.fold_left
      (fun (steps, run) x ->
        match x with
        | Ok copy -> (steps, copy :: run)
        | Error step ->
          if run = [] then (step :: steps, [])
          else (step :: kernel run :: steps, []))
      ([], []) (Array.mapi classify l.regs)
  in
  let steps = if run = [] then steps else kernel run :: steps in
  { key = Arm.Route_key.current cpu; steps = Array.of_list (List.rev steps) }

let rec find_loop c ~ctx ~save ~el12 regs = function
  | l :: tl ->
    if l.regs == regs && Int64.equal l.ctx ctx && l.save = save
       && l.el12 = el12
    then l
    else find_loop c ~ctx ~save ~el12 regs tl
  | [] ->
    let l = { ctx; save; el12; regs; plans = [] } in
    c.loops <- l :: c.loops;
    l

let rec find_plan c l = function
  | p :: tl ->
    if Arm.Route_key.holds p.key c.cpu then p else find_plan c l tl
  | [] ->
    let p = compile c l in
    l.plans <- p :: l.plans;
    p

(* Apply the deferred PC advance ([pcb] bytes) and load the data
   register from the slot at offset [last] (-1: it already holds the
   right value). *)
let flush c (l : loop) ~pcb ~last =
  let cpu = c.cpu in
  if pcb <> 0 then Cpu.set_pc cpu (Int64.add (Cpu.pc cpu) (Int64.of_int pcb));
  if last >= 0 then
    Memory.load_into cpu.Cpu.mem ~base:l.ctx last cpu.Cpu.regs c.data

let run c (l : loop) (p : plan) =
  let cpu = c.cpu in
  let m = cpu.Cpu.meter and tbl = Cpu.table cpu in
  let mem = cpu.Cpu.mem and sr = cpu.Cpu.sysregs in
  let steps = p.steps in
  let n = Array.length steps in
  let pcb = ref 0 and last = ref (-1) and i = ref 0 in
  while !i < n do
    (match Array.unsafe_get steps !i with
     | Regs r ->
       (* per copy "mrs x, r; str x, [slot]" or "ldr x, [slot]; msr r, x",
          plus the normalizing mov of each redirected immediate MSR *)
       if l.save then begin
         Arm.Sysreg_file.save sr r.idx mem ~base:l.ctx r.offs;
         m.Cost.cycles <-
           m.Cost.cycles + (r.n * (tbl.Cost.sysreg_read + tbl.Cost.mem_store))
       end
       else begin
         Arm.Sysreg_file.restore sr r.idx mem ~base:l.ctx r.offs;
         m.Cost.cycles <-
           m.Cost.cycles
           + (r.n * (tbl.Cost.mem_load + tbl.Cost.sysreg_write))
           + (r.norms * tbl.Cost.insn_base)
       end;
       m.Cost.insns <- m.Cost.insns + (2 * r.n) + r.norms;
       m.Cost.mem_accesses <- m.Cost.mem_accesses + r.n;
       pcb := !pcb + (8 * r.n);
       last := r.last
     | Page (addr, cp) when not !Trace.on ->
       (* the deferred access is a 64-bit load or store on the page;
          traced, it replays to emit its redirect event *)
       if l.save then Memory.copy64 mem ~src:addr ~dst:cp.slot
       else Memory.copy64 mem ~src:cp.slot ~dst:addr;
       m.Cost.insns <- m.Cost.insns + 2;
       m.Cost.cycles <- m.Cost.cycles + tbl.Cost.mem_load + tbl.Cost.mem_store;
       m.Cost.mem_accesses <- m.Cost.mem_accesses + 2;
       pcb := !pcb + 8;
       last := cp.off
     | Page (_, cp) | Replay cp ->
       if l.save then begin
         flush c l ~pcb:!pcb ~last:!last;
         Cpu.exec_with_action cpu cp.insn cp.action;
         (* the store leg is a plain str *)
         Memory.store_from mem ~base:l.ctx cp.off cpu.Cpu.regs c.data;
         Cost.charge_insn m tbl.Cost.mem_store;
         m.Cost.mem_accesses <- m.Cost.mem_accesses + 1;
         pcb := 4;
         last := -1
       end
       else begin
         (* the load leg is a plain ldr *)
         Cost.charge_insn m tbl.Cost.mem_load;
         m.Cost.mem_accesses <- m.Cost.mem_accesses + 1;
         flush c l ~pcb:(!pcb + 4) ~last:cp.off;
         if cp.norm then Cost.charge_insn m tbl.Cost.insn_base;
         Cpu.exec_with_action cpu cp.insn cp.action;
         pcb := 0;
         last := -1
       end;
       (* the handler behind a trap may have moved the routing state *)
       if not (Arm.Route_key.holds p.key cpu) then begin
         flush c l ~pcb:!pcb ~last:!last;
         pcb := 0;
         last := -1;
         copy_from c.ops ~save:l.save ~ctx:l.ctx ~via:(via ~el12:l.el12)
           l.regs (cp.at + 1);
         i := n
       end);
    incr i
  done;
  flush c l ~pcb:!pcb ~last:!last

let run_loop c ~save ~el12 ~ctx regs =
  add_copies (Array.length regs);
  let l = find_loop c ~ctx ~save ~el12 regs c.loops in
  run c l (find_plan c l l.plans)

let save c ~el12 ~ctx regs = run_loop c ~save:true ~el12 ~ctx regs
let restore c ~el12 ~ctx regs = run_loop c ~save:false ~el12 ~ctx regs

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

(* The registers the loops below walk: the interface state, then the
   list registers in order.  A switch touches the first [4 + used_lrs]
   (save) or [1 + used_lrs] (restore). *)
let vgic_lrs = Array.init Sysreg.lr_count (fun n -> Sysreg.ICH_LR_EL2 n)

let vgic_saved =
  Array.append
    [| Sysreg.ICH_VMCR_EL2; Sysreg.ICH_MISR_EL2; Sysreg.ICH_ELRSR_EL2;
       Sysreg.ICH_AP1R_EL2 0 |]
    vgic_lrs

let vgic_restored = Array.append [| Sysreg.ICH_VMCR_EL2 |] vgic_lrs

let save_vgic ?gic ops ~ctx ~used_lrs =
  let g = match gic with Some g -> g | None -> sysreg_gic ops in
  for i = 0 to 3 + used_lrs do
    let r = vgic_saved.(i) in
    ops.st (slot ctx r) (g.gic_rd r)
  done;
  (* disable the virtual interface while in the host *)
  g.gic_wr Sysreg.ICH_HCR_EL2 0L

let restore_vgic ?gic ops ~ctx ~used_lrs =
  let g = match gic with Some g -> g | None -> sysreg_gic ops in
  g.gic_wr Sysreg.ICH_HCR_EL2 Gic.Vgic.ich_hcr_en;
  for i = 0 to used_lrs do
    let r = vgic_restored.(i) in
    g.gic_wr r (ops.ld (slot ctx r))
  done

(* --- timers ---

   The VM's EL1 virtual timer is EL0-accessible; a non-VHE hypervisor
   reaches it directly (no trap) while a VHE hypervisor needs the _EL02
   forms, which always trap (Section 7.1).  A VHE hypervisor additionally
   runs its own EL2 virtual timer via E2H-redirected CNTV accesses. *)

let vm_timer_access ~vhe r = if vhe then Sysreg.el02 r else Sysreg.direct r

let save_vm_timer ops ~vhe ~ctx =
  save_array ops ~ctx ~via:(vm_timer_access ~vhe) Reglists.timer_el0_state_arr;
  (* mask the VM timer while the host runs *)
  ops.wr (vm_timer_access ~vhe Sysreg.CNTV_CTL_EL0) 0L

let restore_vm_timer ops ~vhe ~ctx =
  restore_array ops ~ctx ~via:(vm_timer_access ~vhe)
    Reglists.timer_el0_state_arr

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
