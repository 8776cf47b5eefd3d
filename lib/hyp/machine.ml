(* A multi-core ARM machine with a full virtualization stack assembled on
   it: shared physical memory, one simulated CPU per core, a host
   hypervisor instance per core, and — in nested scenarios — a guest
   hypervisor per core, wired so IPIs cross cores.

   This module also provides the guest-side operations workloads use:
   hypercalls, MMIO accesses, IPIs, and virtual interrupt ack/EOI. *)

module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Sysreg = Arm.Sysreg
module Exn = Arm.Exn

type t = {
  mem : Arm.Memory.t;
  cpus : Cpu.t array;
  hosts : Host_hyp.t array;
  ghyps : Guest_hyp.t option array;
  config : Config.t;
  scenario : Host_hyp.scenario;
  (* OoH per-feature exposure grant handed to the guest hypervisors at
     creation; part of the machine's topology (serialized with
     snapshots, fixed for the machine's life) *)
  expose : Expose.Policy.t;
  (* fault injection and invariant checking (off by default) *)
  fault : Fault.Plan.t option;
  checking : bool;
  inv_states : Fault.Invariants.state array;
  mutable violations : Fault.Invariants.violation list;  (* newest first *)
  mutable violation_count : int;
  (* a pending Drop_irq/Duplicate_irq verdict per CPU, consumed at the
     next interrupt delivery *)
  irq_fault : Fault.Plan.kind option array;
  (* a hung vCPU retires no guest work until a recovery policy clears it.
     Serialized with the machine (snapshot continuation must replay
     identically); recovery policies clear the hang explicitly after a
     restore — the restart is what un-wedges the vCPU. *)
  hung : bool array;
  (* GIC distributor: SGIs raised by trapped ICC_SGI1R writes pend in
     the target's banked records here before delivery, so IPIs are real
     distributor traffic rather than a direct function call *)
  dist : Gic.Dist.t;
  (* shared SMP stage-2 + per-vCPU TLBs + break-before-make checker;
     built lazily on the first SMP operation.  Not serialized: a restore
     comes back with empty TLBs, which is exactly what migration does to
     real translation caches. *)
  mutable smp : Mmu.Shootdown.t option;
  (* each CPU's [hvc #0], the hypercall its guest executes, routed once
     per routing state; a cache, neither marked nor serialized *)
  hvc_sites : Arm.Route_key.site array;
  (* [vm_ack]'s results, one [Some vintid] per vintid; a cache *)
  acks : int option Arm.Memo.t;
}

let ncpus t = Array.length t.cpus

let total_traps t =
  Array.fold_left (fun acc c -> acc + c.Cpu.meter.Cost.traps) 0 t.cpus

(* A vCPU index outside the machine is the caller's topology error.  The
   message is built only when the check fails, so a guest-side operation
   pays one comparison and allocates nothing for it. *)
let bad_cpu t what cpu =
  Fault.Error.sim_bug
    (Fault.Error.Bad_topology
       (Printf.sprintf "%s: no vCPU %d on a %d-vCPU machine" what cpu (ncpus t)))

let check_cpu t what cpu = if cpu < 0 || cpu >= Array.length t.cpus then bad_cpu t what cpu

(* Keep a bounded sample of violations but count them all. *)
let stored_violations_cap = 64

let record t v =
  t.violation_count <- t.violation_count + 1;
  if t.violation_count <= stored_violations_cap then
    t.violations <- v :: t.violations

(* VNCR synchronization invariant: while the guest hypervisor runs under
   NEVE, the deferred page's copy of each trap-on-write register must
   match the virtual EL2 file — the trapped-write path updates both, and
   a divergence means a drained value would resurrect stale state.  With
   hardware NEVE, VNCR_EL2 must also still point at the page.  Each word
   is compared in place; VNCR_EL2 is reported first, then the registers
   in Table 4 order. *)
let rec sync_slots s cpu page vel2 = function
  | [] -> ()
  | r :: rest ->
    if
      Core.Deferred_page.has_slot r
      && not (Core.Deferred_page.holds page r vel2)
    then
      Fault.Invariants.mismatch s cpu ~name:"vncr-page-sync" (Sysreg.name r)
        ~expected:(Arm.Sysreg_file.read vel2 r)
        ~actual:(Core.Deferred_page.read page r);
    sync_slots s cpu page vel2 rest

let check_neve_sync t i s =
  let host = t.hosts.(i) in
  let cpu = t.cpus.(i) in
  if
    Config.is_neve t.config
    && host.Host_hyp.vcpu.Vcpu.in_vel2
    && not host.Host_hyp.l2_is_hyp
  then begin
    let page = host.Host_hyp.page in
    (match t.config.Config.mech with
     | Config.Hw_neve ->
       let expected = page.Core.Deferred_page.enabled in
       if not (Arm.Sysreg_file.holds cpu.Cpu.sysregs Sysreg.VNCR_EL2 expected)
       then
         Fault.Invariants.mismatch s cpu ~name:"vncr-page-sync" "VNCR_EL2"
           ~expected ~actual:(Cpu.peek_sysreg cpu Sysreg.VNCR_EL2)
     | _ -> ());
    sync_slots s cpu page host.Host_hyp.vcpu.Vcpu.vel2
      Sysreg.table4_trap_on_write
  end

(* Deliver an interrupt to a CPU, honoring a pending drop/duplicate
   verdict from the fault plan. *)
let deliver_filtered t ~cpu ~intid =
  let once () =
    t.hosts.(cpu).Host_hyp.pending_irq <- Some intid;
    ignore (Cpu.deliver_irq t.cpus.(cpu))
  in
  match t.irq_fault.(cpu) with
  | Some Fault.Plan.Drop_irq -> t.irq_fault.(cpu) <- None
  | Some Fault.Plan.Duplicate_irq ->
    t.irq_fault.(cpu) <- None;
    once ();
    once ()
  | _ -> once ()

let create ?fault_plan ?(check_invariants = false) ?(ncpus = 1) ?table
    ?(expose = Expose.Policy.none) config scenario =
  (* Reject impossible shapes before any allocation: a non-positive count
     would raise from Array.init deep inside, and a count past the vCPU
     region budget would silently overlap the fixed addresses above
     0x5000_0000 (virtual VTTBR, shadow roots, guest vectors). *)
  if ncpus <= 0 then
    Fault.Error.sim_bug
      (Fault.Error.Bad_topology
         (Printf.sprintf "ncpus must be positive, got %d" ncpus));
  if ncpus > Vcpu.max_vcpus then
    Fault.Error.sim_bug
      (Fault.Error.Bad_topology
         (Printf.sprintf
            "ncpus %d exceeds the vCPU region budget (max %d: regions of \
             0x%Lx bytes from 0x%Lx must stay below 0x%Lx)"
            ncpus Vcpu.max_vcpus Vcpu.vcpu_region_size Vcpu.vcpu_region_base
            Vcpu.vcpu_region_limit));
  let checking = check_invariants || fault_plan <> None in
  let mem = Arm.Memory.create () in
  let cpus =
    Array.init ncpus (fun i ->
        (* the trail is what a checked machine's Sim_fault reports *)
        let cpu = Cpu.create ~mem ?table ~trail:checking () in
        (* stamp the meter with its CPU id so every trace event this
           core emits lands on its own Chrome lane *)
        cpu.Cpu.meter.Cost.tid <- i;
        cpu)
  in
  (* machine guests have EL1 exception vectors: an injected or
     architectural UNDEF lands there instead of tearing the process down *)
  Array.iter (fun c -> c.Cpu.el1_vectors <- true) cpus;
  let hosts =
    Array.mapi
      (fun i cpu -> Host_hyp.create ~id:i ~expose cpu config scenario)
      cpus
  in
  let ghyps =
    Array.map
      (fun host ->
        match scenario with
        | Host_hyp.Single_vm -> None
        | Host_hyp.Nested ->
          let ga =
            Gaccess.v host.Host_hyp.cpu config
              ~page_base:host.Host_hyp.vcpu.Vcpu.page_base
          in
          let g = Guest_hyp.create ga ~vcpu:host.Host_hyp.vcpu in
          host.Host_hyp.on_vel2_entry <- Some (Guest_hyp.handle_exit g);
          Some g)
      hosts
  in
  let dist = Gic.Dist.create ~ncpus in
  (* distributor records default to disabled; the SGIs guests can encode
     (intid 0..15) must be enabled per CPU or every IPI would stall
     pending *)
  for cpu = 0 to ncpus - 1 do
    for intid = 0 to 15 do
      Gic.Dist.enable dist ~cpu ~intid
    done
  done;
  let t =
    {
      mem;
      cpus;
      hosts;
      ghyps;
      config;
      scenario;
      expose;
      fault = fault_plan;
      checking;
      inv_states = Array.init ncpus (fun _ -> Fault.Invariants.state ());
      violations = [];
      violation_count = 0;
      irq_fault = Array.make ncpus None;
      hung = Array.make ncpus false;
      dist;
      smp = None;
      hvc_sites = Array.init ncpus (fun _ -> Arm.Route_key.site (Insn.Hvc 0));
      acks = Arm.Memo.create Option.some;
    }
  in
  if checking then
    (* run the invariant checker around every EL2 exception: entry checks
       before the host handler, steady-state + monotonicity + VNCR sync
       after it (nested traps re-enter this wrapper, which is exactly the
       "after every exception entry/return" the checker wants).  Each CPU
       reports into the machine's record through one sink built here. *)
    Array.iteri
      (fun i cpu ->
        match cpu.Cpu.el2_handler with
        | None -> ()
        | Some inner ->
          let s = Fault.Invariants.sink ~id:i (record t) in
          cpu.Cpu.el2_handler <-
            Some
              (fun c e ->
                Fault.Invariants.check_entry s c;
                inner c e;
                Fault.Invariants.check_cpu s c;
                Fault.Invariants.check_monotone s t.inv_states.(i) c;
                check_neve_sync t i s))
      cpus;
  (match fault_plan with
   | Some plan ->
     (* arm the stage-2 walker's injection point on this machine's
        memory: a due S2_fault event makes the machine's next walk miss,
        exercising the shadow-refill and fault-reflection paths *)
     mem.Arm.Memory.s2_inject <-
       (fun _ ->
         match
           Fault.Plan.due ~kind:Fault.Plan.S2_fault plan
             ~traps:(total_traps t)
         with
         | [] -> false
         | _ :: _ -> true)
   | None -> ());
  (* wire cross-CPU IPI delivery: a trapped ICC_SGI1R write pends the
     SGI in the distributor's banked records for the target, which then
     acknowledges and completes it there before the CPU-side delivery
     runs (through the fault-injection filter).  Previously this hook
     called deliver_filtered directly, so the distributor never saw
     IPIs and its banked state stayed Inactive forever. *)
  Array.iteri
    (fun src (host : Host_hyp.t) ->
      host.Host_hyp.send_ipi <-
        Some
          (fun ~target ~intid ->
            if target >= 0 && target < ncpus then begin
              Gic.Dist.send_sgi t.dist ~src ~dst:target ~intid;
              match Gic.Dist.acknowledge t.dist ~cpu:target with
              | Some acked ->
                Gic.Dist.eoi t.dist ~cpu:target ~intid:acked;
                deliver_filtered t ~cpu:target ~intid:acked
              | None -> ()  (* SGI disabled at the distributor *)
            end))
    hosts;
  t

(* A mark: every component's mark plus the machine's own mutable fields
   — what the snapshot image's declaration lists ([Snap.Image]; the
   snap suite's rewind-coverage test walks it), and the distributor,
   which it does not.  A fault plan's cursor and the SMP translation
   state are not marked, so machines carrying either are refused. *)
type mark = {
  mk_mem : Arm.Memory.mark;
  mk_cpus : Cpu.mark array;
  mk_hosts : Host_hyp.mark array;
  mk_ghyps : Guest_hyp.mark option array;
  mk_dist : Gic.Dist.mark;
  mk_inv_states : int array array;
  mk_violations : Fault.Invariants.violation list;
  mk_violation_count : int;
  mk_irq_fault : Fault.Plan.kind option array;
  mk_hung : bool array;
}

let mark t =
  if Option.is_some t.fault || Option.is_some t.smp then
    invalid_arg "Machine.mark: fault plans and SMP state are not marked";
  {
    mk_mem = Arm.Memory.mark t.mem;
    mk_cpus = Array.map Cpu.mark t.cpus;
    mk_hosts = Array.map Host_hyp.mark t.hosts;
    mk_ghyps = Array.map (Option.map Guest_hyp.mark) t.ghyps;
    mk_dist = Gic.Dist.mark t.dist;
    mk_inv_states = Array.map Fault.Invariants.state_dump t.inv_states;
    mk_violations = t.violations;
    mk_violation_count = t.violation_count;
    mk_irq_fault = Array.copy t.irq_fault;
    mk_hung = Array.copy t.hung;
  }

let rewind ?drop t m =
  Arm.Memory.rewind ?drop t.mem m.mk_mem;
  Array.iteri (fun i c -> Cpu.rewind c m.mk_cpus.(i)) t.cpus;
  Array.iteri (fun i h -> Host_hyp.rewind h m.mk_hosts.(i)) t.hosts;
  Array.iteri
    (fun i g ->
      match (g, m.mk_ghyps.(i)) with
      | Some g, Some gm -> Guest_hyp.rewind g gm
      | _ -> ())
    t.ghyps;
  Gic.Dist.rewind t.dist m.mk_dist;
  Array.iteri
    (fun i s -> Fault.Invariants.state_load s m.mk_inv_states.(i))
    t.inv_states;
  t.violations <- m.mk_violations;
  t.violation_count <- m.mk_violation_count;
  Array.blit m.mk_irq_fault 0 t.irq_fault 0 (Array.length t.irq_fault);
  Array.blit m.mk_hung 0 t.hung 0 (Array.length t.hung);
  t.smp <- None

(* Bring the stack up: plain VM scenarios just start the VM; nested
   scenarios start the guest hypervisor and have it launch its nested VM
   end to end (the launch path runs through the full trap machinery). *)
let boot t =
  Array.iteri
    (fun i host ->
      match t.scenario with
      | Host_hyp.Single_vm -> Host_hyp.start_vm host
      | Host_hyp.Nested ->
        Host_hyp.start_guest_hypervisor host;
        (match t.ghyps.(i) with
         | Some g -> Guest_hyp.launch_nested g ~entry:0x9000_0000L
         | None -> ()))
    t.hosts

(* --- fault servicing ---

   Called at the top of every guest-side operation: pop the plan events
   whose trap count has arrived and apply them.  Spurious traps and
   stage-2 faults perturb this CPU immediately; sysreg corruption arms
   the guest hypervisor's access funnel; interrupt faults arm a verdict
   consumed at the next delivery. *)

let apply_fault t ~cpu kind =
  let c = t.cpus.(cpu) in
  match (kind : Fault.Plan.kind) with
  | Fault.Plan.Spurious_trap ->
    if c.Cpu.pstate.Arm.Pstate.el <> Arm.Pstate.EL2 then
      Cpu.exception_entry c
        { Exn.target = Arm.Pstate.EL2; ec = Exn.EC_unknown; iss = 0;
          fault_addr = None }
  | Fault.Plan.Corrupt_sysreg -> begin
      match (t.fault, t.ghyps.(cpu)) with
      | Some plan, Some g ->
        (* the next value the guest hypervisor reads through its access
           funnel comes back corrupted *)
        g.Guest_hyp.ga.Gaccess.tamper <- Some (Fault.Plan.corrupt plan)
      | Some plan, None ->
        (* no guest hypervisor: corrupt a benign saved EL1 register *)
        Cpu.poke_sysreg c Sysreg.TPIDR_EL1
          (Fault.Plan.corrupt plan (Cpu.peek_sysreg c Sysreg.TPIDR_EL1))
      | None, _ -> ()
    end
  | Fault.Plan.Drop_irq -> t.irq_fault.(cpu) <- Some Fault.Plan.Drop_irq
  | Fault.Plan.Duplicate_irq ->
    t.irq_fault.(cpu) <- Some Fault.Plan.Duplicate_irq
  | Fault.Plan.S2_fault ->
    let plan = Option.get t.fault in
    let addr =
      Int64.of_int (0x0dea_0000 + (Fault.Plan.pick plan 16 * 0x1000))
    in
    Cpu.record_trap c ~detail:"injected-s2-fault" Cost.Trap_mem_fault;
    Cpu.exception_entry c
      { Exn.target = Arm.Pstate.EL2; ec = Exn.EC_dabt_lower;
        iss = (if Fault.Plan.flip plan then 0x40 else 0);
        fault_addr = Some addr }
  | Fault.Plan.Serror ->
    (* a physical SError arrives while the guest runs: HCR_EL2.AMO routes
       it to EL2, where the host contains it (EC_serror handler) and
       re-arms the guest with a virtual SError *)
    if c.Cpu.pstate.Arm.Pstate.el <> Arm.Pstate.EL2 then begin
      let plan = Option.get t.fault in
      (* a plausible RAS syndrome: DFSC-style low bits plus plan-drawn
         implementation-defined payload, never zero *)
      let iss = 0x11 lor (Fault.Plan.pick plan 0x100 lsl 8) in
      Cpu.record_trap c ~detail:"injected-serror" Cost.Trap_serror;
      Cpu.exception_entry c
        { Exn.target = Arm.Pstate.EL2; ec = Exn.EC_serror; iss;
          fault_addr = None }
    end
  | Fault.Plan.Hang_vcpu -> t.hung.(cpu) <- true

let service_faults t ~cpu =
  (* a virtual SError pended by containment (or by a supervision
     campaign) is asynchronous: it is taken at the next operation
     boundary, before any new plan events fire *)
  ignore (Host_hyp.deliver_pending_vserror t.hosts.(cpu));
  match t.fault with
  | None -> ()
  | Some plan -> (
    match Fault.Plan.due plan ~traps:(total_traps t) with
    | [] -> ()
    | due -> List.iter (apply_fault t ~cpu) due)

(* --- guest-side operations (what the benchmarked VM/nested VM does) ---

   A hung vCPU retires nothing: every guest-side operation is a no-op
   until a recovery policy clears the hang — exactly the symptom the
   supervision watchdog's no-retire window detects. *)

let hypercall t ~cpu =
  check_cpu t "hypercall" cpu;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    Arm.Route_key.exec t.cpus.(cpu) t.hvc_sites.(cpu)
  end

(* An MMIO access to an emulated device: the address is not mapped at
   stage 2, so the access takes a data abort to EL2 (Section 4, memory
   virtualization). *)
let mmio_access t ~cpu ~addr ~is_write =
  check_cpu t "mmio_access" cpu;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    let c = t.cpus.(cpu) in
    Cpu.record_trap c ~detail:"mmio" Cost.Trap_mmio;
    Cost.charge c.Cpu.meter (Cpu.table c).Cost.insn_base;
    Cpu.exception_entry c
      { Exn.target = Arm.Pstate.EL2; ec = Exn.EC_dabt_lower;
        iss = (if is_write then 0x40 else 0); fault_addr = Some addr }
  end

(* A data abort at stage 2 that is *not* an emulated-device access: either
   a shadow-table miss the host refills, or a fault reflected to the guest
   hypervisor. *)
let data_abort t ~cpu ~addr ~is_write =
  check_cpu t "data_abort" cpu;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    let c = t.cpus.(cpu) in
    Cpu.record_trap c ~detail:"s2-fault" Cost.Trap_mem_fault;
    Cost.charge c.Cpu.meter (Cpu.table c).Cost.insn_base;
    Cpu.exception_entry c
      { Exn.target = Arm.Pstate.EL2; ec = Exn.EC_dabt_lower;
        iss = (if is_write then 0x40 else 0); fault_addr = Some addr }
  end

(* Configure shadow stage-2 translation for a CPU's nested VM: the guest
   hypervisor's stage-2 (L2 IPA -> L1 PA) and the host's stage-2
   (L1 PA -> machine PA), collapsed lazily on faults. *)
let install_shadow t ~cpu ~guest_s2 ~host_s2 =
  check_cpu t "install_shadow" cpu;
  let alloc = Mmu.Walk.allocator ~start:0x9_0000_0000L in
  let sh = Mmu.Shadow.create t.mem alloc ~vmid:(0x100 + cpu) in
  t.hosts.(cpu).Host_hyp.shadow <- Some (sh, guest_s2, host_s2);
  t.hosts.(cpu).Host_hyp.shadow_vttbr <- Mmu.Shadow.vttbr sh;
  sh

(* Send an IPI: a write to ICC_SGI1R_EL1, which traps to the hypervisor on
   every configuration (IPIs are always emulated). *)
let send_ipi t ~cpu ~target ~intid =
  check_cpu t "send_ipi" cpu;
  check_cpu t "send_ipi ~target" target;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    let payload =
      Int64.logor (Int64.of_int target)
        (Int64.shift_left (Int64.of_int intid) 24)
    in
    Cpu.exec t.cpus.(cpu)
      (Insn.Msr (Sysreg.direct Sysreg.ICC_SGI1R_EL1, Insn.Imm payload))
  end

(* Acknowledge the highest-priority pending virtual interrupt: served by
   the GIC virtual CPU interface against the list registers — no trap. *)
let vm_ack t ~cpu =
  check_cpu t "vm_ack" cpu;
  let c = t.cpus.(cpu) in
  let vintid =
    Gic.Vgic.acknowledge_in c.Cpu.sysregs ~lrs:Reglists.vgic_lrs_in_use
  in
  Cost.charge c.Cpu.meter (Cpu.table c).Cost.sysreg_read;
  if vintid < 0 then None else Arm.Memo.find t.acks vintid

(* Complete a virtual interrupt (Virtual EOI): hardware-only, the constant
   71-cycle operation of Tables 1 and 6. *)
let vm_eoi t ~cpu ~vintid =
  check_cpu t "vm_eoi" cpu;
  let c = t.cpus.(cpu) in
  let found =
    Gic.Vgic.eoi_in c.Cpu.sysregs ~lrs:Reglists.vgic_lrs_in_use ~vintid
  in
  Cost.charge c.Cpu.meter (Cpu.table c).Cost.arm_virtual_eoi;
  found

(* Deliver an external (device) interrupt to a CPU, as the NIC would. *)
let device_irq t ~cpu ~intid =
  check_cpu t "device_irq" cpu;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    deliver_filtered t ~cpu ~intid
  end

(* Guest does some plain computation: n generic instructions. *)
let compute t ~cpu ~insns =
  check_cpu t "compute" cpu;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    let c = t.cpus.(cpu) in
    Cost.charge c.Cpu.meter (insns * (Cpu.table c).Cost.insn_base);
    c.Cpu.meter.Cost.insns <- c.Cpu.meter.Cost.insns + insns
  end

(* --- SMP stage-2 operations: TLB shootdown and break-before-make ---

   The vCPUs of one guest share a stage-2; remapping a live page must go
   break -> TLBI broadcast -> DSB -> make, with the broadcast reaching
   every vCPU's TLB and any shadow stage-2 entries collapsing the page.
   The shootdown IPI is sent as real ICC_SGI1R traffic (so it traps and
   is emulated like any guest IPI), each recipient is charged
   [tlbi_recipient] on its own meter, and the initiator's DSB pays
   [dvm_sync] per recipient. *)

let shootdown_sgi = 14  (* SGI reserved for remote TLB flush, as Linux does *)
let smp_vmid = 0x200
let smp_tlb_capacity = 64

let smp t =
  match t.smp with
  | Some s -> s
  | None ->
    let s =
      Mmu.Shootdown.create t.mem ~ncpus:(ncpus t) ~vmid:smp_vmid
        ~tlb_capacity:smp_tlb_capacity
    in
    t.smp <- Some s;
    s

let smp_map t ~cpu ~ipa ~pa =
  check_cpu t "smp_map" cpu;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    let c = t.cpus.(cpu) in
    (* writing the leaf PTE *)
    Cost.charge c.Cpu.meter (Cpu.table c).Cost.mem_store;
    Mmu.Shootdown.map (smp t) ~ipa ~pa
  end

let smp_read t ~cpu ~ipa =
  check_cpu t "smp_read" cpu;
  if t.hung.(cpu) then Mmu.Shootdown.Unmapped
  else begin
    service_faults t ~cpu;
    Mmu.Shootdown.read (smp t) ~cpu ~meter:t.cpus.(cpu).Cpu.meter ~ipa
  end

let bbm_break t ~cpu ~ipa =
  check_cpu t "bbm_break" cpu;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    let c = t.cpus.(cpu) in
    (* writing the invalid PTE *)
    Cost.charge c.Cpu.meter (Cpu.table c).Cost.mem_store;
    Mmu.Shootdown.break (smp t) ~ipa
  end

(* Broadcast TLBI: local invalidation, then one shootdown SGI per remote
   vCPU — each of which acks and completes the virtual IRQ, processes the
   invalidation on its own TLB, and is charged the recipient cost. *)
let tlbi_bcast t ~cpu scope =
  check_cpu t "tlbi_bcast" cpu;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    let s = smp t in
    let c = t.cpus.(cpu) in
    Cost.charge c.Cpu.meter (Cpu.table c).Cost.tlbi;
    Mmu.Shootdown.invalidate_cpu s ~cpu scope;
    (* the broadcast also reaches the shadow stage-2 entries collapsing
       nested-guest pages on every host *)
    Array.iter
      (fun (host : Host_hyp.t) ->
        match host.Host_hyp.shadow with
        | None -> ()
        | Some (sh, _, _) -> begin
            match scope with
            | Mmu.Shootdown.By_page page -> Mmu.Shadow.invalidate_page sh ~ipa:page
            | Mmu.Shootdown.By_vmid | Mmu.Shootdown.All_e1 ->
              Mmu.Shadow.invalidate sh
          end)
      t.hosts;
    for r = 0 to ncpus t - 1 do
      if r <> cpu then begin
        send_ipi t ~cpu ~target:r ~intid:shootdown_sgi;
        (match vm_ack t ~cpu:r with
         | Some v -> ignore (vm_eoi t ~cpu:r ~vintid:v)
         | None -> ());
        Mmu.Shootdown.invalidate_cpu s ~cpu:r scope;
        Cost.charge t.cpus.(r).Cpu.meter
          (Cpu.table t.cpus.(r)).Cost.tlbi_recipient;
        Mmu.Shootdown.note_recipient s
      end
    done;
    if !Trace.on then
      Trace.emit
        ~a0:(match scope with Mmu.Shootdown.By_page p -> p | _ -> 0L)
        ~a1:(Int64.of_int (ncpus t - 1))
        ~detail:(Mmu.Shootdown.scope_name scope)
        Trace.Tlb_shootdown
  end

(* The initiator's DSB ISH: waits for DVM completion from every remote
   PE, which is what closes the stale-use window. *)
let dsb_sync t ~cpu =
  check_cpu t "dsb_sync" cpu;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    let c = t.cpus.(cpu) in
    let tbl = Cpu.table c in
    Cost.charge c.Cpu.meter
      (tbl.Cost.barrier + ((ncpus t - 1) * tbl.Cost.dvm_sync));
    Mmu.Shootdown.dsb_complete (smp t)
  end

let bbm_make t ~cpu ~ipa ~pa =
  check_cpu t "bbm_make" cpu;
  if t.hung.(cpu) then ()
  else begin
    service_faults t ~cpu;
    let c = t.cpus.(cpu) in
    Cost.charge c.Cpu.meter (Cpu.table c).Cost.mem_store;
    Mmu.Shootdown.make (smp t) ~ipa ~pa
  end

(* Remap a (possibly live) page: full break-before-make with the TLBI
   broadcast and DSB. *)
let smp_remap t ~cpu ~ipa ~pa =
  check_cpu t "smp_remap" cpu;
  if t.hung.(cpu) then ()
  else begin
    bbm_break t ~cpu ~ipa;
    tlbi_bcast t ~cpu (Mmu.Shootdown.By_page ipa);
    dsb_sync t ~cpu;
    bbm_make t ~cpu ~ipa ~pa
  end

let shootdown_stats t = Option.map Mmu.Shootdown.stats t.smp

(* --- measurement helpers --- *)

let snapshot t = Array.to_list (Array.map (fun c -> Cost.snapshot c.Cpu.meter) t.cpus)

let delta_since t snaps =
  let deltas =
    List.mapi (fun i s -> Cost.delta_since t.cpus.(i).Cpu.meter s) snaps
  in
  List.fold_left
    (fun (acc : Cost.delta) (d : Cost.delta) ->
      {
        Cost.d_cycles = acc.Cost.d_cycles + d.Cost.d_cycles;
        d_insns = acc.Cost.d_insns + d.Cost.d_insns;
        d_traps = acc.Cost.d_traps + d.Cost.d_traps;
        d_by_kind =
          List.map2
            (fun (k, a) (_, b) -> (k, a + b))
            acc.Cost.d_by_kind d.Cost.d_by_kind;
        d_exposed =
          List.map2
            (fun (f, a) (_, b) -> (f, a + b))
            acc.Cost.d_exposed d.Cost.d_exposed;
      })
    (List.hd deltas) (List.tl deltas)

let total_cycles t =
  Array.fold_left (fun acc c -> acc + c.Cpu.meter.Cost.cycles) 0 t.cpus

(* --- fault-injection reporting and steady-state checks --- *)

let violations t = List.rev t.violations
let violation_count t = t.violation_count

let undef_injections t =
  Array.fold_left (fun acc h -> acc + h.Host_hyp.undef_injected) 0 t.hosts

(* --- supervision hooks: hangs, SErrors and recovery --- *)

let is_hung t ~cpu =
  check_cpu t "is_hung" cpu;
  t.hung.(cpu)

let hang t ~cpu =
  check_cpu t "hang" cpu;
  t.hung.(cpu) <- true

let clear_hung t ~cpu =
  check_cpu t "clear_hung" cpu;
  t.hung.(cpu) <- false

let pend_serror t ~cpu ~syndrome =
  check_cpu t "pend_serror" cpu;
  Host_hyp.pend_vserror t.hosts.(cpu) ~syndrome

let serror_pending t ~cpu =
  check_cpu t "serror_pending" cpu;
  t.hosts.(cpu).Host_hyp.pending_vserror <> None
  || Cpu.vserror_pending t.cpus.(cpu)

let serror_containments t =
  Array.fold_left (fun acc h -> acc + h.Host_hyp.serror_contained) 0 t.hosts

let serror_injections t =
  Array.fold_left (fun acc h -> acc + h.Host_hyp.serror_injected) 0 t.hosts

let kill_l2 t ~cpu =
  check_cpu t "kill_l2" cpu;
  match t.scenario with
  | Host_hyp.Single_vm ->
    Fault.Error.sim_bug
      (Fault.Error.Invariant_broken
         "kill_l2: no nested VM to kill in a single-VM scenario")
  | Host_hyp.Nested ->
    Host_hyp.kill_l2 t.hosts.(cpu) ~resume_pc:Guest_hyp.vector_base;
    t.hung.(cpu) <- false

(* Sweep the whole machine between operations: per-CPU register-file
   consistency, no leaked GPR snapshots outside a trap, and the NEVE
   page in sync.  Returns (and does not record) the violations found. *)
let check_invariants t =
  let acc = ref [] in
  Array.iteri
    (fun i c ->
      acc := Fault.Invariants.(collect ~id:i (fun s -> check_cpu s c)) @ !acc;
      if
        c.Cpu.depth <> 0
        && c.Cpu.pstate.Arm.Pstate.el <> Arm.Pstate.EL2
      then
        acc :=
          Fault.Invariants.v ~id:i c "gpr-snapshot-leak"
            (Printf.sprintf "%d snapshot(s) live outside a trap" c.Cpu.depth)
          :: !acc;
      acc := Fault.Invariants.collect ~id:i (check_neve_sync t i) @ !acc)
    t.cpus;
  List.rev !acc
