(* The host hypervisor (L0): a KVM/ARM-shaped hypervisor owning EL2.

   It multiplexes one virtual EL1 context and one virtual EL2 context per
   vCPU onto the hardware (Section 4): when the guest hypervisor runs, the
   hardware EL1 registers hold its virtual-EL2 execution mapping; when the
   guest hypervisor erets into its nested VM, the host loads the nested
   VM's EL1 state into hardware.  Every trap from EL1 lands in [handler],
   which performs the full non-VHE KVM exit path (save guest EL1 state,
   restore host state, dispatch, reverse) — the reason each trap costs
   thousands of cycles and the exit-multiplication problem hurts so much.

   NEVE changes only the boundaries: the host populates the deferred
   access page before running the guest hypervisor and drains it on the
   trapped eret; the trap handler itself sees six times fewer traps.

   The simulator pays for that exit path on every trap too, so the host's
   side of the round trip allocates nothing per register: the 72 copies
   of [l0_enter]/[l0_exit] run through World_switch's compiled plans,
   word kernels moving bytes between the register file and memory
   pages; trap-control writes take {!Cpu.msr}'s EL2 path, and the vEL2
   transitions copy between the virtual register files, the stash and
   hardware the same way. *)

module Sysreg = Arm.Sysreg
module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Exn = Arm.Exn
module Hcr = Arm.Hcr
module Memory = Arm.Memory
module WS = World_switch

let src = Logs.Src.create "neve.host" ~doc:"host hypervisor (L0)"

module Log = (val Logs.src_log src : Logs.LOG)

type scenario = Single_vm | Nested

let scenario_name = function Single_vm -> "single-vm" | Nested -> "nested"

type t = {
  cpu : Cpu.t;
  config : Config.t;
  scenario : scenario;
  (* OoH selective exposure: the per-feature grant set L0 handed this
     guest hypervisor at machine creation (the fourth mechanism).  The
     routing grant [Cpu.t.expose] is armed only while the guest
     hypervisor is in virtual EL2 — see [expose_install]/[expose_fold]. *)
  expose : Expose.Policy.t;
  vcpu : Vcpu.t;
  page : Core.Deferred_page.t;
  l0_ctx : int64;          (* the host's own saved EL1 context *)
  guest_stash : int64;     (* where l0_enter parks the guest's EL1 state *)
  mutable shadow_vttbr : int64;
  mutable on_vel2_entry : (Vcpu.nested_exit -> unit) option;
  mutable in_l1 : bool;
  mutable exits : int;
  mutable undef_injected : int;  (* UNDEFs delivered into the guest *)
  (* FEAT_RAS containment: syndrome of a physical SError the host absorbed
     and must re-inject into the guest as a virtual SError.  The field
     (not the transient HCR_EL2.VSE bit, which world switches rewrite) is
     the source of truth between containment and delivery — the same
     vcpu-flag pattern KVM's kvm_inject_vabt uses. *)
  mutable pending_vserror : int64 option;
  mutable serror_contained : int;  (* physical SErrors absorbed by L0 *)
  mutable serror_injected : int;   (* virtual SErrors delivered to the guest *)
  mutable send_ipi : (target:int -> intid:int -> unit) option;
  mutable pending_irq : int option;  (* payload for the next EC_irq *)
  (* shadow stage-2 translation (Section 4, memory virtualization):
     guest stage-2 x host stage-2 collapsed into the hardware tables *)
  mutable shadow : (Mmu.Shadow.t * Mmu.Stage2.t * Mmu.Stage2.t) option;
  (* recursive virtualization (Section 6.2): the nested VM is itself a
     hypervisor; run it with the NV bits armed and forward its hypervisor
     instructions to the guest hypervisor *)
  mutable l2_is_hyp : bool;
  (* the machine-physical VNCR value to program while the L2 hypervisor
     runs: L1's virtual VNCR with its BADDR translated through the
     stage-2 tables (the Section 6.2 workflow) *)
  mutable l2_vncr : int64 option;
  (* Fixed per machine, built once by [create]: *)
  l0 : WS.copier;  (* the host's own EL2 world-switch ops and copy plans *)
  twins : Sysreg.t option array; (* [twin_backed], by dense index (shared) *)
  exposed_regs : Sysreg.t array; (* the OoH grant's install/fold surface *)
  mutable drain_skip : bool array;
      (* page slots [neve_drain] leaves alone, built by the first drain *)
}

let table t = Cpu.table t.cpu

(* HCR_EL2 value in hardware while guest code runs at EL1. *)
let basic_hcr = Hcr.(List.fold_left set 0L [ vm; imo; fmo; tsc; twi ])

let hcr_for t ~vel2 =
  if vel2 then
    if Config.is_paravirt t.config then basic_hcr
    else Config.target_hcr t.config
  else if t.l2_is_hyp then
    (* the nested VM is itself a hypervisor: it runs with the same
       nesting support the guest hypervisor gets ("the host hypervisor
       emulates the same virtual execution environment as the underlying
       machine including the ... nesting support", Section 6.2) *)
    if Config.is_paravirt t.config then basic_hcr
    else Config.target_hcr t.config
  else basic_hcr

(* World-switch operations executed by the host at EL2 (never trap).
   Built once per machine by [create]. *)
let make_l0_ops cpu : WS.ops =
  {
    WS.rd = (fun a -> Cpu.mrs cpu a);
    wr = (fun a v -> Cpu.msr cpu a v);
    ld =
      (fun addr ->
        Cpu.exec cpu (Insn.Ldr (Cpu.scratch_reg, Insn.Abs addr));
        Cpu.get_reg cpu Cpu.scratch_reg);
    st =
      (fun addr v ->
        Cpu.set_reg cpu Cpu.scratch_reg v;
        Cpu.exec cpu (Insn.Str (Cpu.scratch_reg, Insn.Abs addr)));
  }

(* Debug logging builds a closure per message; the trap path only builds
   it when the source would print it. *)
let debug_on () =
  match Logs.Src.level src with Some Logs.Debug -> true | _ -> false

(* --- virtual EL2 register storage ---

   Where the guest hypervisor's virtual EL2 register values live depends on
   the configuration (Section 6.1):
   - redirect-class registers are backed by the hardware EL1 twin whenever
     the guest accesses them without trapping (VHE guests always; NEVE for
     everyone);
   - page-resident registers are authoritative in the deferred access page
     while NEVE is enabled;
   - everything else lives in the software virtual-EL2 file. *)

let twin_of_config (config : Config.t) (r : Sysreg.t) =
  match Sysreg.neve_class r with
  | Sysreg.NV_redirect twin | Sysreg.NV_redirect_vhe twin ->
    if config.Config.guest_vhe || Config.is_neve config then Some twin
    else None
  | Sysreg.NV_redirect_or_trap twin ->
    if config.Config.guest_vhe then Some twin else None
  | _ -> None

(* [twin_of_config] by dense index, one table per configuration class
   (only [guest_vhe] and NEVE-ness matter), shared by every machine.
   domain-safety: allowlisted global — read-only after module load. *)
let twin_tables =
  Array.init 4 (fun k ->
      let config =
        Config.v ~guest_vhe:(k land 1 = 1)
          (if k land 2 = 2 then Config.Hw_neve else Config.Hw_v8_3)
      in
      Array.init Sysreg.count (fun i ->
          twin_of_config config (Sysreg.of_index i)))

let twins_for (config : Config.t) =
  twin_tables.(Bool.to_int config.Config.guest_vhe
               + (2 * Bool.to_int (Config.is_neve config)))

let twin_backed t (r : Sysreg.t) = t.twins.(Sysreg.index r)

let page_backed t r =
  Config.is_neve t.config && t.vcpu.Vcpu.in_vel2
  && Core.Deferred_page.has_slot r

(* The virtual-EL2 execution mapping's twin of each register, by dense
   index.
   domain-safety: allowlisted global — read-only after module load. *)
let mapping_twin : Sysreg.t option array =
  Array.init Sysreg.count (fun i ->
      List.assoc_opt (Sysreg.of_index i) Core.Classify.redirected_pairs)

(* While the guest hypervisor is at virtual EL2, the execution mapping
   loaded by [inject_vel2] is live in hardware for EVERY nested
   mechanism: hardware exception entry inside virtual EL2 (an SVC or an
   UNDEF taken by the guest hypervisor) writes the EL1 twins directly.
   Trap-time reads and writes of an execution-mapped register must
   therefore go through the stashed hardware twin even when the
   configuration does not redirect untrapped accesses — otherwise state
   hardware wrote behind the trap handler's back is lost, and the stash
   fold in [emulate_eret] clobbers trapped writes with stale values. *)
let stash_twin t r =
  match twin_backed t r with
  | Some _ as s -> s
  | None ->
    if t.vcpu.Vcpu.in_vel2 then mapping_twin.(Sysreg.index r) else None

let stash_slot t r =
  Int64.add t.guest_stash (Int64.of_int (Reglists.ctx_slot r))

(* Read a virtual-EL2 register value from wherever it currently lives.
   Reads of twin-backed registers must use the *stash* when the hardware
   has already been switched away (the caller passes ~from_stash). *)
let vel2_read ?(from_stash = false) t r =
  match (if from_stash then stash_twin t r else twin_backed t r) with
  | Some twin ->
    if from_stash then Memory.read64 t.cpu.Cpu.mem (stash_slot t twin)
    else Cpu.mrs t.cpu (Sysreg.direct twin)
  | None ->
    if page_backed t r then begin
      Cost.charge t.cpu.Cpu.meter (table t).Cost.mem_load;
      Core.Deferred_page.read t.page r
    end
    else Vcpu.read_vel2 t.vcpu r

(* [vel2_write] of the value the virtual file already holds: the twin
   and the page take it from there, as a word. *)
let vel2_publish ~to_hw t r =
  let vel2 = t.vcpu.Vcpu.vel2 in
  (match twin_backed t r with
   | Some twin when to_hw -> Cpu.msr_from t.cpu (Sysreg.direct twin) vel2 r
   | _ -> ());
  if page_backed t r then begin
    Cost.charge t.cpu.Cpu.meter (table t).Cost.mem_store;
    Core.Deferred_page.write_from t.page r vel2
  end

(* Inlined, so that a value computed for the write is not boxed. *)
let[@inline] vel2_write t r v =
  Vcpu.write_vel2 t.vcpu r v;
  vel2_publish ~to_hw:true t r

(* [vel2_write t r (Cpu.peek_sysreg t.cpu r)]: the hardware register's
   value, moved as a word. *)
let vel2_write_hw t r =
  Arm.Sysreg_file.copy_reg ~src:t.cpu.Cpu.sysregs ~dst:t.vcpu.Vcpu.vel2 r;
  vel2_publish ~to_hw:true t r

(* [Cpu.poke_sysreg t.cpu r (vel2_read ~from_stash:true t r)]: the value
   the guest hypervisor left for its own register [r] (a return address,
   a saved PSTATE), into the hardware's, as a word from the stash or the
   virtual file. *)
let vel2_stashed_to_hw t r =
  let hw = t.cpu.Cpu.sysregs in
  match stash_twin t r with
  | Some twin ->
    Arm.Sysreg_file.load_word hw (Sysreg.index r) t.cpu.Cpu.mem
      ~base:t.guest_stash (Reglists.ctx_slot twin)
  | None ->
    if page_backed t r then
      Cpu.poke_sysreg t.cpu r (vel2_read ~from_stash:true t r)
    else Arm.Sysreg_file.copy_reg ~src:t.vcpu.Vcpu.vel2 ~dst:hw r

(* --- the host's own full exit path (non-VHE KVM): runs on EVERY trap --- *)

(* The EL1 + EL0 context the exit path saves and restores: one loop,
   copy for copy the EL1 loop followed by the EL0 loop. *)
let ctx_regs = Array.append Reglists.el1_state_arr Reglists.el0_state_arr

(* The copy counter only feeds the world-switch trace events. *)
let copies_now () = if !Trace.on then WS.reg_copies () else 0

let l0_enter t =
  let copies0 = copies_now () in
  Cost.charge t.cpu.Cpu.meter (table t).Cost.l0_exit_dispatch;
  (* save whoever was running at EL1, restore the host's EL1 world *)
  let c = t.l0 in
  WS.save c ~alias:Sysreg.Direct ~ctx:t.guest_stash ctx_regs;
  WS.restore c ~alias:Sysreg.Direct ~ctx:t.l0_ctx Reglists.el1_state_arr;
  WS.deactivate_traps (WS.ops_of c) ~vhe:false;
  if !Trace.on then
    Trace.emit ~cycles:t.cpu.Cpu.meter.Cost.cycles ~tid:t.cpu.Cpu.meter.Cost.tid
      ~a0:(Int64.of_int (WS.reg_copies () - copies0))
      ~a1:(Int64.of_int t.vcpu.Vcpu.id)
      Trace.Ws_enter

let l0_exit t =
  let copies0 = copies_now () in
  (* put the interrupted guest context back *)
  let c = t.l0 in
  WS.restore c ~alias:Sysreg.Direct ~ctx:t.guest_stash ctx_regs;
  WS.activate_traps (WS.ops_of c) ~vhe:false
    ~hcr:(hcr_for t ~vel2:t.vcpu.Vcpu.in_vel2);
  WS.write_stage2 (WS.ops_of c) ~vttbr:t.shadow_vttbr;
  if !Trace.on then
    Trace.emit ~cycles:t.cpu.Cpu.meter.Cost.cycles ~tid:t.cpu.Cpu.meter.Cost.tid
      ~a0:(Int64.of_int (WS.reg_copies () - copies0))
      ~a1:(Int64.of_int t.vcpu.Vcpu.id)
      Trace.Ws_exit

(* Bookkeeping view of the stashed guest EL1 state (cost already paid by
   l0_enter's stores). *)
let stash_read t r = Memory.read64 t.cpu.Cpu.mem (stash_slot t r)

(* SPSR of an exception return into EL1h with interrupts masked. *)
let spsr_el1h = Arm.Pstate.to_spsr (Arm.Pstate.at Arm.Pstate.EL1)

(* Inject an UNDEF into the interrupted guest context — what KVM's
   kvm_inject_undefined does when a trapped access makes no architectural
   sense.  The guest's EL1 exception bank is written in the *stash* (the
   interrupted EL1 state lives there between l0_enter and l0_exit), so
   l0_exit's restore materializes it; the eret then lands on the guest's
   EL1 vector with SPSR/ELR describing the faulting context. *)
let inject_undef t =
  let c = table t in
  t.undef_injected <- t.undef_injected + 1;
  Cost.charge t.cpu.Cpu.meter c.Cost.l0_inject_vel2;
  (* the trap advanced PC past the faulting instruction; UNDEF reports
     the instruction itself *)
  let faulting_pc = Int64.sub (Cpu.peek_sysreg t.cpu Sysreg.ELR_EL2) 4L in
  let mem = t.cpu.Cpu.mem in
  Memory.write64 mem (stash_slot t Sysreg.ESR_EL1)
    (Exn.esr ~ec:Exn.EC_unknown ~iss:0);
  Memory.write64 mem (stash_slot t Sysreg.ELR_EL1) faulting_pc;
  Memory.write64 mem (stash_slot t Sysreg.SPSR_EL1)
    (Cpu.peek_sysreg t.cpu Sysreg.SPSR_EL2);
  let vbar = stash_read t Sysreg.VBAR_EL1 in
  Log.debug (fun m ->
      m "vcpu%d: injecting UNDEF, faulting pc=0x%Lx" t.vcpu.Vcpu.id
        faulting_pc);
  l0_exit t;
  Cpu.poke_sysreg t.cpu Sysreg.ELR_EL2 vbar;
  Cpu.poke_sysreg t.cpu Sysreg.SPSR_EL2 spsr_el1h;
  Cpu.do_eret t.cpu

(* --- virtual EL2 <-> hardware transitions ---

   These run once or twice per nested exit rather than per trap, but
   they copy ~60 registers each, so they use the same unboxed word moves
   as the l0 loops: [Sysreg_file.load_word] from the stash into a
   virtual file, [Cpu.msr_from] from a virtual file into hardware, and
   the deferred page's [populate_from]/[drain_into].  The register sets
   and their accesses are built once, here. *)

(* The register pairs forming the virtual-EL2 execution mapping: while the
   guest hypervisor runs at EL1, hardware EL1 register [twin] holds the
   value of its virtual [el2_reg]. *)
let exec_mapping = Core.Classify.redirected_pairs

let mapping_el2 = Array.of_list (List.map fst exec_mapping)
let mapping_el2_idx = Array.map Sysreg.index mapping_el2

let mapping_twin_a =
  Array.of_list (List.map (fun (_, tw) -> Sysreg.direct tw) exec_mapping)

let mapping_twin_offs =
  Array.of_list (List.map (fun (_, tw) -> Reglists.ctx_slot tw) exec_mapping)

(* The dense indices, accesses and context-slot offsets of [ctx_regs],
   the EL1 + EL0 context a vEL2 transition moves. *)
let ctx_idx = Array.map Sysreg.index ctx_regs
let ctx_access = Array.map Sysreg.direct ctx_regs
let ctx_offs = Array.map Reglists.ctx_slot ctx_regs

let lr_regs = Array.init Sysreg.lr_count (fun i -> Sysreg.ICH_LR_EL2 i)
let lr_access = Array.map Sysreg.direct lr_regs
let ich_hcr_a = Sysreg.direct Sysreg.ICH_HCR_EL2
let ich_vmcr_a = Sysreg.direct Sysreg.ICH_VMCR_EL2
let cntvoff_a = Sysreg.direct Sysreg.CNTVOFF_EL2

let lr_idx = Array.map Sysreg.index lr_regs

let used_lrs_of_vel2 t =
  let n = ref 0 in
  for i = 0 to Reglists.vgic_lrs_in_use - 1 do
    let lr = Arm.Sysreg_file.get_index t.vcpu.Vcpu.vel2 lr_idx.(i) in
    if not (Gic.Vgic.lr_is_free lr) then n := i + 1
  done;
  !n

(* --- OoH selective exposure (the fourth mechanism) ---

   While the guest hypervisor runs in virtual EL2, the hardware register
   file is authoritative for every register its grant exposes: the trap
   router answers [Execute_exposed] and the access runs against hardware
   at plain execute cost.  Outside virtual EL2 the virtual-EL2 file is
   authoritative, exactly as for the other three mechanisms.

   Entry ([inject_vel2] / [start_guest_hypervisor] / [kill_l2]) installs
   the virtual values into hardware and arms the routing grant; the
   trapped eret folds hardware back into the virtual file and disarms
   it.  Disarming matters for recursive virtualization: an L2
   hypervisor's EL2 accesses keep their trap/forward/defer semantics —
   its grants would be L1's to give, not L0's. *)

let exposed_regs_of (p : Expose.Policy.t) =
  let timer =
    if Expose.Policy.mem p Expose.Policy.Timer then
      [ Sysreg.CNTHP_CTL_EL2; Sysreg.CNTHP_CVAL_EL2; Sysreg.CNTHV_CTL_EL2;
        Sysreg.CNTHV_CVAL_EL2; Sysreg.CNTVOFF_EL2 ]
    else []
  and gic =
    (* every LR the hardware advertises through ICH_VTR, not just the
       [Reglists.vgic_lrs_in_use] KVM's own save/restore touches: the
       routing grant exposes all of them, so the install/fold surface
       must match or a high-index write dies in the hardware file *)
    if Expose.Policy.mem p Expose.Policy.Gic_lrs then
      Sysreg.ICH_HCR_EL2 :: Sysreg.ICH_VMCR_EL2
      :: List.init Sysreg.lr_count (fun i -> Sysreg.ICH_LR_EL2 i)
    else []
  in
  Array.of_list (timer @ gic)

(* Make hardware mirror the virtual-EL2 file for every exposed register
   and arm the routing grant.  The copies go through [Cpu.msr] when
   [charged] — the per-switch cost OoH pays to erase the per-access
   traps; the register-poke entry paths ([kill_l2], initial boot) pass
   [charged:false] like their surrounding pokes. *)
let expose_install ?(charged = true) t =
  if not (Expose.Policy.is_none t.expose) then begin
    let vel2 = t.vcpu.Vcpu.vel2 in
    for k = 0 to Array.length t.exposed_regs - 1 do
      let r = t.exposed_regs.(k) in
      if charged then Cpu.msr_from t.cpu (Sysreg.direct r) vel2 r
      else Arm.Sysreg_file.copy_reg ~src:vel2 ~dst:t.cpu.Cpu.sysregs r
    done;
    t.cpu.Cpu.expose <- t.expose
  end

(* Fold hardware back into the virtual-EL2 file and disarm the grant.
   Must run before anything reads the virtual file on the exit path
   ([used_lrs_of_vel2], the vgic/timer reprogramming) and makes the
   NEVE drain's exposed-register slots stale shadows — see
   [neve_drain]. *)
let expose_fold t =
  if not (Expose.Policy.is_none t.expose) then begin
    for k = 0 to Array.length t.exposed_regs - 1 do
      let r = t.exposed_regs.(k) in
      Cpu.mrs_into t.cpu (Sysreg.direct r) t.vcpu.Vcpu.vel2 r
    done;
    t.cpu.Cpu.expose <- Expose.Policy.none
  end

(* Populate the NEVE deferred access page before running the guest
   hypervisor: EL2 slots from the virtual EL2 file, EL1/EL0 slots from the
   nested VM's state (Section 6.1 workflow). *)
let neve_populate t =
  Core.Deferred_page.populate_from t.page ~el2:t.vcpu.Vcpu.vel2
    ~el1:t.vcpu.Vcpu.vel1;
  Cost.charge t.cpu.Cpu.meter
    (Core.Deferred_page.layout_len * (table t).Cost.mem_store)

(* The page slots [neve_drain] must leave alone, by dense index.  A
   register redirected to a hardware EL1 twin under this configuration is
   never written through the page while the guest hypervisor runs — its
   page slot is a stale shadow from [neve_populate], and draining it
   would clobber the authoritative value the execution-mapping fold took
   from the twin.  An exposed register's slot is stale the same way: it
   was populated at entry and never written (the grant routed every
   access to hardware); draining it would clobber the value
   [expose_fold] just took from the hardware register. *)
let drain_skip_of config expose =
  Array.init Sysreg.count (fun i ->
      let r = Sysreg.of_index i in
      twin_of_config config r <> None
      || Arm.Trap_rules.exposed_feature expose r <> None)

let neve_drain t =
  if Array.length t.drain_skip = 0 then
    t.drain_skip <- drain_skip_of t.config t.expose;
  Core.Deferred_page.drain_into t.page ~el2:t.vcpu.Vcpu.vel2
    ~el1:t.vcpu.Vcpu.vel1 ~skip:t.drain_skip;
  Cost.charge t.cpu.Cpu.meter
    (Core.Deferred_page.layout_len * (table t).Cost.mem_load)

let neve_on t = Config.is_neve t.config

let set_vncr t ~enable =
  match t.config.Config.mech with
  | Config.Hw_neve ->
    let v =
      if enable then Core.Deferred_page.vncr_value t.page ~enable:true
      else Core.Vncr.disabled_value
    in
    Cpu.poke_sysreg t.cpu Sysreg.VNCR_EL2 v;
    if !Trace.on then
      Trace.emit ~cycles:t.cpu.Cpu.meter.Cost.cycles ~tid:t.cpu.Cpu.meter.Cost.tid ~a0:v
        ~a1:(if enable then 1L else 0L)
        Trace.Vncr_program
  | _ -> ()

(* Switch the vCPU from "nested VM running" to "guest hypervisor running"
   and deliver a virtual EL2 exception describing [reason].  The guest's
   EL1 state was already parked in the stash by l0_enter. *)
let inject_vel2 t (reason : Vcpu.nested_exit) =
  let c = table t in
  let cpu = t.cpu and vcpu = t.vcpu in
  if debug_on () then
    Log.debug (fun m ->
        m "vcpu%d: inject %s into virtual EL2" vcpu.Vcpu.id
          (Vcpu.exit_name vcpu reason));
  Cost.charge cpu.Cpu.meter c.Cost.l0_inject_vel2;
  (* the stashed EL1 state is the nested VM's (or vEL1 kernel's) state *)
  Arm.Sysreg_file.restore vcpu.Vcpu.vel1 ctx_idx cpu.Cpu.mem
    ~base:t.guest_stash ctx_offs;
  (* save the hardware list registers into the virtual EL2 vgic *)
  let used = max (used_lrs_of_vel2 t) vcpu.Vcpu.used_lrs in
  for i = 0 to used - 1 do
    Cpu.mrs_into cpu lr_access.(i) vcpu.Vcpu.vel2 lr_regs.(i)
  done;
  vcpu.Vcpu.in_vel2 <- true;
  (* virtual exception bookkeeping: syndrome, return address, SPSR *)
  let esr =
    match reason with
    | Vcpu.Exit_hypercall -> Exn.esr_bits ~ec:Exn.EC_hvc64 ~iss:0
    | Vcpu.Exit_mmio ->
      Exn.esr_bits ~ec:Exn.EC_dabt_lower
        ~iss:(if vcpu.Vcpu.exit_is_write then 0x40 else 0)
    | Vcpu.Exit_virq -> Exn.esr_bits ~ec:Exn.EC_irq ~iss:0
    | Vcpu.Exit_sgi ->
      (* a faithful syndrome for the trapped ICC_SGI1R_EL1 write — the
         guest hypervisor (and the tracer) can identify the SGI source
         register instead of seeing an all-zero ISS *)
      Exn.esr_bits ~ec:Exn.EC_sysreg
        ~iss:
          (Exn.sysreg_iss ~access:(Sysreg.direct Sysreg.ICC_SGI1R_EL1)
             ~rt:vcpu.Vcpu.exit_rt ~is_read:false)
    | Vcpu.Exit_wfi -> Exn.esr_bits ~ec:Exn.EC_wfx ~iss:0
    | Vcpu.Exit_hyp_insn { access; rt; is_read } ->
      Exn.esr_bits ~ec:Exn.EC_sysreg ~iss:(Exn.sysreg_iss ~access ~rt ~is_read)
    | Vcpu.Exit_hyp_eret -> Exn.esr_bits ~ec:Exn.EC_eret ~iss:0
  in
  vel2_write t Sysreg.ESR_EL2 (Int64.of_int esr);
  vel2_write_hw t Sysreg.ELR_EL2;
  vel2_write_hw t Sysreg.SPSR_EL2;
  (match reason with
   | Vcpu.Exit_mmio ->
     let far = Vcpu.exit_far vcpu in
     vel2_write t Sysreg.FAR_EL2 far;
     vel2_write t Sysreg.HPFAR_EL2 (Int64.shift_right_logical far 8)
   | _ -> ());
  (* load the virtual-EL2 execution mapping into hardware EL1 *)
  for k = 0 to Array.length mapping_el2 - 1 do
    Cpu.msr_from cpu mapping_twin_a.(k) vcpu.Vcpu.vel2 mapping_el2.(k)
  done;
  if neve_on t then begin
    neve_populate t;
    set_vncr t ~enable:true
  end;
  expose_install t;
  (* enter the guest hypervisor at its (virtual) EL2 vector *)
  Cpu.poke_sysreg cpu Sysreg.ELR_EL2 Guest_hyp.vector_base;
  Cpu.poke_sysreg cpu Sysreg.SPSR_EL2 spsr_el1h;
  WS.activate_traps (WS.ops_of t.l0) ~vhe:false ~hcr:(hcr_for t ~vel2:true);
  Cpu.do_eret cpu;
  (* run the guest hypervisor's handler, unless this is the guest
     hypervisor's own kernel->lowvisor transition *)
  if not t.in_l1 then begin
    match t.on_vel2_entry with
    | Some hook -> (
      t.in_l1 <- true;
      match hook reason with
      | () -> t.in_l1 <- false
      | exception e ->
        t.in_l1 <- false;
        raise e)
    | None -> ()
  end

(* The guest hypervisor executed eret: switch to the virtual EL1 context
   (its host kernel or its nested VM — the host does not care which). *)
let emulate_eret t =
  let c = table t in
  let cpu = t.cpu and vcpu = t.vcpu in
  if debug_on () then
    Log.debug (fun m ->
        m "vcpu%d: trapped eret, entering virtual EL1/0" vcpu.Vcpu.id);
  Cost.charge cpu.Cpu.meter c.Cost.l0_eret_emulate;
  (* where does the guest hypervisor want to go?  Straight into the
     hardware ELR/SPSR_EL2 the final eret reads: nothing below touches
     them. *)
  vel2_stashed_to_hw t Sysreg.ELR_EL2;
  vel2_stashed_to_hw t Sysreg.SPSR_EL2;
  (* the stashed hardware EL1 state is the virtual-EL2 execution mapping:
     fold it back into the virtual EL2 file *)
  Arm.Sysreg_file.restore vcpu.Vcpu.vel2 mapping_el2_idx cpu.Cpu.mem
    ~base:t.guest_stash mapping_twin_offs;
  expose_fold t;
  if neve_on t then begin
    neve_drain t;
    set_vncr t ~enable:false
  end;
  vcpu.Vcpu.in_vel2 <- false;
  (* load the virtual EL1 context into hardware *)
  for k = 0 to Array.length ctx_regs - 1 do
    Cpu.msr_from cpu ctx_access.(k) vcpu.Vcpu.vel1 ctx_regs.(k)
  done;
  (* program the hardware vgic from the virtual EL2 interface *)
  let used = used_lrs_of_vel2 t in
  vcpu.Vcpu.used_lrs <- used;
  Cpu.msr_from cpu ich_hcr_a vcpu.Vcpu.vel2 Sysreg.ICH_HCR_EL2;
  Cpu.msr_from cpu ich_vmcr_a vcpu.Vcpu.vel2 Sysreg.ICH_VMCR_EL2;
  for i = 0 to used - 1 do
    Cpu.msr_from cpu lr_access.(i) vcpu.Vcpu.vel2 lr_regs.(i)
  done;
  Cpu.msr_from cpu cntvoff_a vcpu.Vcpu.vel2 Sysreg.CNTVOFF_EL2;
  (* shadow stage-2 for the nested VM *)
  WS.write_stage2 (WS.ops_of t.l0) ~vttbr:t.shadow_vttbr;
  WS.activate_traps (WS.ops_of t.l0) ~vhe:false ~hcr:(hcr_for t ~vel2:false);
  (* Section 6.2: while an L2 hypervisor runs, the hardware VNCR points at
     the page owned by the L1 guest hypervisor (BADDR translated by L0) *)
  (match (t.l2_is_hyp, t.l2_vncr) with
   | true, Some v -> Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 v
   | _ -> ());
  vcpu.Vcpu.nested_launched <- true;
  Cpu.do_eret cpu

(* --- trapped system-register emulation --- *)

(* Returns true when the emulation switched the vCPU to a different
   context (so the caller must not unwind with l0_exit + eret). *)
let emulate_sysreg t ~(access : Sysreg.access) ~rt ~is_read =
  let c = table t in
  Cost.charge t.cpu.Cpu.meter c.Cost.l0_sysreg_emulate;
  let r = access.Sysreg.reg in
  (* The nested VM sending an IPI is special: forward it. *)
  if r = Sysreg.ICC_SGI1R_EL1 && not is_read then begin
    Cost.charge t.cpu.Cpu.meter c.Cost.l0_ipi_send;
    let v = Cpu.get_trapped_reg t.cpu rt in
    let target = Int64.to_int (Int64.logand v 0xffL) in
    let intid =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v 24) 0xfL)
    in
    if t.vcpu.Vcpu.in_vel2 || t.in_l1 || t.scenario = Single_vm then begin
      (* the (guest) hypervisor or a plain VM sends: deliver physically *)
      (match t.send_ipi with
       | Some f -> f ~target ~intid
       | None -> ());
      false
    end
    else begin
      (* the nested VM sends: the guest hypervisor must emulate it *)
      let vcpu = t.vcpu in
      vcpu.Vcpu.exit_target <- target;
      vcpu.Vcpu.exit_intid <- intid;
      vcpu.Vcpu.exit_rt <- rt;
      inject_vel2 t Vcpu.Exit_sgi;
      true
    end
  end
  else begin
    let vel2_target =
      match access.Sysreg.alias with
      | Sysreg.EL12 | Sysreg.EL02 -> false
      | Sysreg.Direct -> Sysreg.min_el r = Arm.Pstate.EL2
    in
    (* timer accesses carry the cost of multiplexing the (VHE-only) EL2
       virtual timer with the VM's EL1 virtual timer *)
    if access.Sysreg.alias = Sysreg.EL02 || Sysreg.is_el2_timer r then
      Cost.charge t.cpu.Cpu.meter c.Cost.l0_timer_emulate;
    (* the value moves as a word between the trap frame and the
       virtual files, the stash and the deferred page *)
    let vel2 = t.vcpu.Vcpu.vel2 and mem = t.cpu.Cpu.mem in
    (if is_read then begin
       if vel2_target then
         match stash_twin t r with
         | Some twin ->
           Cpu.set_trapped_load t.cpu rt ~base:t.guest_stash
             (Reglists.ctx_slot twin)
         | None -> Cpu.set_trapped_from t.cpu rt vel2 r
       else Cpu.set_trapped_from t.cpu rt t.vcpu.Vcpu.vel1 r
     end
     else begin
       if vel2_target then begin
         Cpu.get_trapped_into t.cpu rt vel2 r;
         (match stash_twin t r with
          | Some twin ->
            Arm.Sysreg_file.save_word vel2 (Sysreg.index r) mem
              ~base:t.guest_stash (Reglists.ctx_slot twin)
          | None -> ());
         (* keep the deferred page's cached copy fresh (trap-on-write) *)
         if neve_on t && Core.Deferred_page.has_slot r then
           Core.Deferred_page.write_from t.page r vel2;
         (* GIC writes are sanitized and translated (Section 4) *)
         if Sysreg.is_gic_ich r then
           Cost.charge t.cpu.Cpu.meter c.Cost.l0_vgic_sync;
         match r with
         | Sysreg.ICH_LR_EL2 i ->
           if not (Arm.Sysreg_file.holds vel2 r 0L) then
             t.vcpu.Vcpu.used_lrs <- max t.vcpu.Vcpu.used_lrs (i + 1)
         | _ -> ()
       end
       else Cpu.get_trapped_into t.cpu rt t.vcpu.Vcpu.vel1 r
     end);
    false
  end

(* --- top-level trap dispatch --- *)

let handle_hvc t operand =
  let c = table t in
  let plain_hypercall () =
    match (t.scenario, t.vcpu.Vcpu.in_vel2) with
    | Single_vm, _ ->
      Cost.charge t.cpu.Cpu.meter c.Cost.l0_hvc_handle;
      l0_exit t;
      Cpu.do_eret t.cpu
    | Nested, false -> inject_vel2 t Vcpu.Exit_hypercall
    | Nested, true ->
      (* a hypercall from the guest hypervisor itself (e.g. PSCI) *)
      Cost.charge t.cpu.Cpu.meter c.Cost.l0_hvc_handle;
      l0_exit t;
      Cpu.do_eret t.cpu
  in
  (* Only paravirtualized configurations speak the operand protocol; on a
     hardware mechanism every hvc is a real hypercall no matter what the
     guest put in the immediate. *)
  if Config.is_paravirt t.config && operand >= 64 then begin
    (* paravirtualized hypervisor instruction (Section 4); the operand's
       fields are read as ints, so the untraced path builds no record *)
    if !Trace.on then
      Trace.emit ~cycles:t.cpu.Cpu.meter.Cost.cycles ~tid:t.cpu.Cpu.meter.Cost.tid
        ~a0:(Int64.of_int operand)
        ~detail:(Paravirt.op_name (Paravirt.decode_op operand)) Trace.Pv_hvc;
    match Paravirt.op_kind operand with
    | Paravirt.K_sysreg ->
      let switched =
        emulate_sysreg t ~access:(Paravirt.op_access operand)
          ~rt:(Paravirt.op_rt operand) ~is_read:(Paravirt.op_is_read operand)
      in
      if not switched then begin
        l0_exit t;
        Cpu.do_eret t.cpu
      end
    | Paravirt.K_eret -> emulate_eret t
    | Paravirt.K_invalid ->
      (* guest-built operand outside the registry: the wrappers never
         emit this, so treat it as the UNDEF the target hardware would
         deliver for the unrecognized instruction *)
      inject_undef t
    | Paravirt.K_hypercall -> plain_hypercall ()
  end
  else plain_hypercall ()

let handle_irq t =
  let c = table t in
  let intid = Option.value ~default:Gic.Irq.virtio_net_spi t.pending_irq in
  t.pending_irq <- None;
  match t.scenario with
  | Single_vm ->
    (* inject a virtual interrupt directly into a hardware list register *)
    Cost.charge t.cpu.Cpu.meter c.Cost.l0_vgic_sync;
    Cpu.msr t.cpu lr_access.(0) (Gic.Vgic.pending_lr intid);
    t.vcpu.Vcpu.used_lrs <- max t.vcpu.Vcpu.used_lrs 1;
    l0_exit t;
    Cpu.do_eret t.cpu
  | Nested ->
    if t.vcpu.Vcpu.in_vel2 then begin
      (* interrupt while the guest hypervisor ran: it is for the nested VM;
         queue it and resume — modeled as immediate redelivery after the
         guest hypervisor finishes, so just resume here *)
      l0_exit t;
      Cpu.do_eret t.cpu
    end
    else begin
      t.vcpu.Vcpu.exit_intid <- intid;
      inject_vel2 t Vcpu.Exit_virq
    end

(* The faulting address is read from FAR_EL2, where [Cpu.data_abort]
   wrote it. *)
let handle_dabt t (e : Exn.entry) =
  let c = table t in
  let is_write = e.Exn.iss land 0x40 <> 0 in
  (* Shadow stage-2 refill: a nested-VM translation fault the host can
     resolve alone by collapsing the guest and host stage-2 tables — no
     guest-hypervisor involvement, like Turtles. *)
  let shadow_resolved () =
    match (t.scenario, t.vcpu.Vcpu.in_vel2, t.shadow) with
    | Nested, false, Some (sh, guest_s2, host_s2) -> begin
        match
          Mmu.Shadow.handle_fault sh ~guest_s2 ~host_s2
            ~l2_ipa:(Cpu.peek_sysreg t.cpu Sysreg.FAR_EL2) ~is_write
        with
        | Mmu.Shadow.Resolved _ ->
          Cost.charge t.cpu.Cpu.meter c.Cost.l0_mem_fault;
          true
        | Mmu.Shadow.Guest_s2_fault _ | Mmu.Shadow.Host_s2_fault _ -> false
      end
    | _ -> false
  in
  if shadow_resolved () then begin
    l0_exit t;
    Cpu.do_eret t.cpu
  end
  else
  match t.scenario with
  | Single_vm ->
    Cost.charge t.cpu.Cpu.meter c.Cost.l0_io_emulate;
    l0_exit t;
    Cpu.do_eret t.cpu
  | Nested ->
    if t.vcpu.Vcpu.in_vel2 then begin
      (* GICv2: the guest hypervisor's memory-mapped GICH access traps via
         stage-2; emulate against the virtual EL2 vgic state *)
      let far = Cpu.peek_sysreg t.cpu Sysreg.FAR_EL2 in
      (match Gic.Gicv2.decode_access far with
       | Some gich ->
         Cost.charge t.cpu.Cpu.meter c.Cost.l0_vgic_sync;
         (match Gic.Gicv2.to_ich gich with
          | Some ich ->
            if is_write then begin
              let v = Cpu.get_trapped_reg t.cpu Gaccess.data_reg in
              (* the coherent writer: also refreshes the NEVE page's
                 cached copy, as the system-register trap path does *)
              Vcpu.write_vel2 t.vcpu ich v;
              vel2_publish ~to_hw:false t ich;
              match ich with
              | Sysreg.ICH_LR_EL2 i ->
                if not (Gic.Vgic.lr_is_free v) then
                  t.vcpu.Vcpu.used_lrs <- max t.vcpu.Vcpu.used_lrs (i + 1)
              | _ -> ()
            end
            else
              Cpu.set_trapped_reg t.cpu Gaccess.data_reg
                (vel2_read ~from_stash:true t ich)
          | None -> ())
       | None -> Cost.charge t.cpu.Cpu.meter c.Cost.l0_io_emulate);
      l0_exit t;
      Cpu.do_eret t.cpu
    end
    else begin
      let vcpu = t.vcpu in
      Bytes.set_int64_ne vcpu.Vcpu.exit_far 0
        (Cpu.peek_sysreg t.cpu Sysreg.FAR_EL2);
      vcpu.Vcpu.exit_is_write <- is_write;
      inject_vel2 t Vcpu.Exit_mmio
    end

let handle_wfi t =
  match (t.scenario, t.vcpu.Vcpu.in_vel2) with
  | Nested, false -> inject_vel2 t Vcpu.Exit_wfi
  | _ ->
    l0_exit t;
    Cpu.do_eret t.cpu

(* --- FEAT_RAS: virtual SError injection and supervised recovery hooks --- *)

(* Deliver a pending virtual SError at an operation boundary.  The
   architectural HCR_EL2.VSE bit may have been rewritten by an intervening
   world switch, so delivery re-arms it from [pending_vserror] first; a
   purely architectural pend (a test poking the bit directly, or a
   restored snapshot) is honoured too.  Returns whether the SError was
   taken — it stays pending while the vCPU sits at EL2. *)
let deliver_pending_vserror t =
  let syndrome =
    match t.pending_vserror with
    | Some _ as s -> s
    | None ->
      if Cpu.vserror_pending t.cpu then
        Some (Cpu.peek_sysreg t.cpu Sysreg.VSESR_EL2)
      else None
  in
  match syndrome with
  | None -> false
  | Some s ->
    if not (Cpu.vserror_pending t.cpu) then Cpu.pend_vserror t.cpu ~syndrome:s;
    let delivered = Cpu.deliver_vserror t.cpu in
    if delivered then begin
      t.pending_vserror <- None;
      t.serror_injected <- t.serror_injected + 1;
      Log.debug (fun m ->
          m "vcpu%d: delivered virtual SError to %s" t.vcpu.Vcpu.id
            (if t.vcpu.Vcpu.in_vel2 then "vEL2" else "vEL1"))
    end;
    delivered

(* Pend a virtual SError from outside the trap path (supervision and
   recovery campaigns): records the syndrome and arms the architectural
   bits so a snapshot taken before delivery carries the pending error. *)
let pend_vserror t ~syndrome =
  t.pending_vserror <- Some syndrome;
  Cpu.pend_vserror t.cpu ~syndrome

(* Tear down the nested VM but keep the guest hypervisor runnable: the
   supervision layer's graceful-degradation policy (Kill_l2_keep_l1).
   The vCPU is forcibly parked back in virtual EL2 at [resume_pc] (the
   guest hypervisor's vector), as if the nested VM had exited for the
   last time; nested-VM state is discarded.  Register pokes, not guest
   instructions — the caller accounts the policy's recovery cost. *)
let kill_l2 t ~resume_pc =
  let vcpu = t.vcpu in
  vcpu.Vcpu.nested_launched <- false;
  vcpu.Vcpu.in_vel2 <- true;
  vcpu.Vcpu.used_lrs <- 0;
  t.pending_irq <- None;
  t.pending_vserror <- None;
  t.l2_is_hyp <- false;
  t.l2_vncr <- None;
  t.in_l1 <- false;
  (* drop the GPR frames of every interrupted trap context *)
  t.cpu.Cpu.depth <- 0;
  (* make the virtual-EL2 execution mapping live in the hardware twins *)
  List.iter
    (fun (el2_reg, twin) ->
      Cpu.poke_sysreg t.cpu twin (Vcpu.read_vel2 t.vcpu el2_reg))
    exec_mapping;
  if neve_on t then begin
    neve_populate t;
    set_vncr t ~enable:true
  end;
  expose_install ~charged:false t;
  Cpu.poke_sysreg t.cpu Sysreg.HCR_EL2 (hcr_for t ~vel2:true);
  t.cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  Cpu.set_pc t.cpu resume_pc

let handler t _cpu (e : Exn.entry) =
  t.exits <- t.exits + 1;
  if debug_on () then
    Log.debug (fun m ->
        (* a [Cpu.data_abort] leaves its address in FAR_EL2 *)
        let far =
          match e.Exn.ec with
          | Exn.EC_dabt_lower -> Some (Cpu.peek_sysreg t.cpu Sysreg.FAR_EL2)
          | _ -> None
        in
        m "vcpu%d: exit #%d, %a" t.vcpu.Vcpu.id t.exits (Exn.pp_entry ?far)
          e);
  l0_enter t;
  match e.Exn.ec with
  | Exn.EC_sysreg -> begin
    (* decode the syndrome by its bits: the access it names (an op1=5
       encoding names an _EL12/_EL02 alias), Rt and the direction *)
    let iss = e.Exn.iss in
    match Sysreg.access_of_code (Exn.sysreg_iss_code iss) with
    | None ->
      (* A trap syndrome naming no register the simulator knows.  The
         encoding is guest-controlled (the guest executed the access),
         so this is not a simulator bug: do what KVM does with an
         unhandled sysreg trap and inject UNDEF into the guest. *)
      inject_undef t
    | Some access ->
    let rt = Exn.sysreg_iss_rt iss and is_read = Exn.sysreg_iss_is_read iss in
    if t.l2_is_hyp && (not t.vcpu.Vcpu.in_vel2) && not t.in_l1 then
      (* the L2 hypervisor executed a hypervisor instruction: forward it
         to the L1 guest hypervisor for emulation (Section 4: "trap on
         hypervisor instructions to the L0 host hypervisor, which can
         then forward it to the L1 guest hypervisor") *)
      inject_vel2 t (Vcpu.Exit_hyp_insn { access; rt; is_read })
    else begin
      let switched = emulate_sysreg t ~access ~rt ~is_read in
      if not switched then begin
        l0_exit t;
        Cpu.do_eret t.cpu
      end
    end
  end
  | Exn.EC_hvc64 -> handle_hvc t (e.Exn.iss land 0xffff)
  | Exn.EC_eret ->
    if t.l2_is_hyp && (not t.vcpu.Vcpu.in_vel2) && not t.in_l1 then
      (* the L2 hypervisor's eret into its own nested VM (L3): also the
         L1 guest hypervisor's to emulate *)
      inject_vel2 t Vcpu.Exit_hyp_eret
    else emulate_eret t
  | Exn.EC_irq -> handle_irq t
  | Exn.EC_dabt_lower -> handle_dabt t e
  | Exn.EC_wfx -> handle_wfi t
  | Exn.EC_serror ->
    (* A physical SError reached L0 (HCR_EL2.AMO routing).  The host
       contains it: absorb the error, record the syndrome and re-arm the
       interrupted guest with a virtual SError so the error surfaces
       inside the VM instead of taking the machine down — KVM's
       kvm_inject_vabt containment path.  Delivery happens at the next
       operation boundary via [deliver_pending_vserror]. *)
    t.serror_contained <- t.serror_contained + 1;
    let syndrome = Int64.of_int (e.Exn.iss land 0x1ff_ffff) in
    t.pending_vserror <- Some syndrome;
    Log.debug (fun m ->
        m "vcpu%d: contained physical SError, syndrome=0x%Lx" t.vcpu.Vcpu.id
          syndrome);
    l0_exit t;
    (* after l0_exit: activate_traps has installed the guest HCR, so the
       VSE bit set here survives into guest execution *)
    Cpu.pend_vserror t.cpu ~syndrome;
    Cpu.do_eret t.cpu
  | Exn.EC_smc64 | Exn.EC_svc64 | Exn.EC_unknown | Exn.EC_iabt_lower ->
    l0_exit t;
    Cpu.do_eret t.cpu

(* --- construction --- *)

let create ?(id = 0) ?(expose = Expose.Policy.none) cpu config scenario =
  let vcpu = Vcpu.create ~id in
  let page = Core.Deferred_page.create cpu.Cpu.mem ~base:vcpu.Vcpu.page_base in
  let t =
    {
      cpu;
      config;
      scenario;
      expose;
      vcpu;
      page;
      l0_ctx = Int64.add vcpu.Vcpu.host_ctx_base 0x0L;
      guest_stash = Int64.add vcpu.Vcpu.host_ctx_base 0x2000L;
      shadow_vttbr = 0x6000_0000L;
      on_vel2_entry = None;
      in_l1 = false;
      exits = 0;
      undef_injected = 0;
      pending_vserror = None;
      serror_contained = 0;
      serror_injected = 0;
      send_ipi = None;
      pending_irq = None;
      shadow = None;
      l2_is_hyp = false;
      l2_vncr = None;
      l0 = WS.copier cpu (make_l0_ops cpu) ~data:Cpu.scratch_reg ~imm_msr:true
          ~patch:Fun.id;
      twins = twins_for config;
      exposed_regs = exposed_regs_of expose;
      drain_skip = [||];
    }
  in
  cpu.Cpu.el2_handler <- Some (fun cpu e -> handler t cpu e);
  cpu.Cpu.features <- Config.hw_features config;
  t

(* A mark: the vCPU and every mutable field but the caches.  The
   compiled plans and the drain's skip set are functions of the
   configuration and stay warm across a rewind — reusing the plans is
   much of what a rewind saves over a fresh machine.  A shadow
   stage-2 carries its own counters and bump allocators; they are
   marked with it.  The CPU and memory are the machine's to mark. *)
type mark = {
  mk_vcpu : Vcpu.mark;
  mk_shadow_vttbr : int64;
  mk_on_vel2_entry : (Vcpu.nested_exit -> unit) option;
  mk_in_l1 : bool;
  mk_exits : int;
  mk_undef_injected : int;
  mk_pending_vserror : int64 option;
  mk_serror_contained : int;
  mk_serror_injected : int;
  mk_send_ipi : (target:int -> intid:int -> unit) option;
  mk_pending_irq : int option;
  mk_shadow : (Mmu.Shadow.t * Mmu.Stage2.t * Mmu.Stage2.t) option;
  mk_shadow_counts : int * int64 list;
  mk_allocs : (Mmu.Walk.allocator * int64) list;
  mk_l2_is_hyp : bool;
  mk_l2_vncr : int64 option;
}

let mark t =
  let counts, allocs =
    match t.shadow with
    | None -> ((0, []), [])
    | Some (sh, g, h) ->
      ( (sh.Mmu.Shadow.faults, sh.Mmu.Shadow.entries),
        List.map
          (fun (s : Mmu.Stage2.t) -> (s.alloc, s.alloc.Mmu.Walk.next))
          [ sh.Mmu.Shadow.shadow; g; h ] )
  in
  {
    mk_vcpu = Vcpu.mark t.vcpu;
    mk_shadow_vttbr = t.shadow_vttbr;
    mk_on_vel2_entry = t.on_vel2_entry;
    mk_in_l1 = t.in_l1;
    mk_exits = t.exits;
    mk_undef_injected = t.undef_injected;
    mk_pending_vserror = t.pending_vserror;
    mk_serror_contained = t.serror_contained;
    mk_serror_injected = t.serror_injected;
    mk_send_ipi = t.send_ipi;
    mk_pending_irq = t.pending_irq;
    mk_shadow = t.shadow;
    mk_shadow_counts = counts;
    mk_allocs = allocs;
    mk_l2_is_hyp = t.l2_is_hyp;
    mk_l2_vncr = t.l2_vncr;
  }

let rewind t m =
  Vcpu.rewind t.vcpu m.mk_vcpu;
  t.shadow_vttbr <- m.mk_shadow_vttbr;
  t.on_vel2_entry <- m.mk_on_vel2_entry;
  t.in_l1 <- m.mk_in_l1;
  t.exits <- m.mk_exits;
  t.undef_injected <- m.mk_undef_injected;
  t.pending_vserror <- m.mk_pending_vserror;
  t.serror_contained <- m.mk_serror_contained;
  t.serror_injected <- m.mk_serror_injected;
  t.send_ipi <- m.mk_send_ipi;
  t.pending_irq <- m.mk_pending_irq;
  t.shadow <- m.mk_shadow;
  (match m.mk_shadow with
   | Some (sh, _, _) ->
     sh.Mmu.Shadow.faults <- fst m.mk_shadow_counts;
     sh.Mmu.Shadow.entries <- snd m.mk_shadow_counts
   | None -> ());
  List.iter (fun (a, next) -> a.Mmu.Walk.next <- next) m.mk_allocs;
  t.l2_is_hyp <- m.mk_l2_is_hyp;
  t.l2_vncr <- m.mk_l2_vncr

(* Put the machine in "guest hypervisor running in virtual EL2" state,
   ready for the first nested launch. *)
let start_guest_hypervisor t =
  if t.config.Config.guest_vhe then
    Vcpu.write_vel2 t.vcpu Sysreg.HCR_EL2 Hcr.e2h;
  t.vcpu.Vcpu.in_vel2 <- true;
  Cpu.poke_sysreg t.cpu Sysreg.HCR_EL2 (hcr_for t ~vel2:true);
  if neve_on t then begin
    neve_populate t;
    set_vncr t ~enable:true
  end;
  expose_install ~charged:false t;
  t.cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1

(* Put the machine in "plain VM running" state. *)
let start_vm t =
  t.vcpu.Vcpu.in_vel2 <- false;
  Cpu.poke_sysreg t.cpu Sysreg.HCR_EL2 basic_hcr;
  t.cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1

let pp ppf t =
  Fmt.pf ppf "host{%a %s exits=%d}" Config.pp t.config
    (match t.scenario with Single_vm -> "vm" | Nested -> "nested")
    t.exits
