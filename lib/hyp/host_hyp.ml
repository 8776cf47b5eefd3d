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
   side of the round trip allocates nothing per register: the ~70
   copies of [l0_enter]/[l0_exit] replay as word kernels moving bytes
   between the register file and memory pages, trap-control writes take
   {!Cpu.msr}'s EL2 path, and the vEL2 transitions copy between the
   virtual register files, the stash and hardware the same way. *)

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

(* --- compiled l0 world-switch plans ---

   The full non-VHE exit path copies 72 registers on EVERY trap.  At EL2
   with a [Direct] alias the router can only answer [Execute] or
   [Execute_redirected] (a pure function of HCR_EL2.E2H and the feature
   set), so each loop compiles to flat arrays of pre-resolved hardware
   registers (dense indices) and context-slot offsets, validated
   against the raw HCR value and feature record it was compiled under.
   Replay hands the arrays to [Sysreg_file.save]/[restore], which move
   each value as an unboxed word, and applies the loop's accounting in
   aggregate.  It replicates the interpreted loops' observable effects
   exactly: the same register-file and memory writes in the same order,
   the same meter charges, the same copy counter, the same final
   scratch-register value and PC advance. *)

type l0_loop = {
  ll_n : int;              (* copies: what the interpreted loop executes *)
  ll_base : int64;         (* the context area *)
  ll_regs : int array;     (* the kernel's registers (route applied) ... *)
  ll_offs : int array;     (* ... and their slots' offsets in the area *)
  ll_last : int64;         (* slot of the last copy; x9 ends holding it *)
  ll_norms : int;
      (* restores whose interpreted MSR normalizes: the path writes
         through [Cpu.msr] (an immediate MSR), which becomes "mov x9, #v;
         msr" whenever the route is not plain [Execute] — one extra
         instruction and insn_base cycle charge per copy *)
}

type l0_plan = {
  lp_hcr : int64;             (* raw HCR_EL2 the routes were resolved under *)
  lp_feats : Arm.Features.t;  (* physical identity: swapped on ablation *)
  lp_save_el1 : l0_loop;      (* guest EL1 state -> guest_stash *)
  lp_save_el0 : l0_loop;      (* guest EL0 state -> guest_stash *)
  lp_rest_host : l0_loop;     (* l0_ctx -> host EL1 state *)
  lp_rest_el1 : l0_loop;      (* guest_stash -> guest EL1 state *)
  lp_rest_el0 : l0_loop;      (* guest_stash -> guest EL0 state *)
}

(* A decoded trapped-access syndrome. *)
type sysreg_trap = {
  st_iss : int;
  st_access : Sysreg.access option;  (* [None]: no register the model knows *)
  st_rt : int;
  st_is_read : bool;
}

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
  (* compiled l0 world-switch plans, one per (HCR, features) seen; the
     list stays tiny (the guest-entry HCR values plus the all-clear host
     value) *)
  mutable l0_plans : l0_plan list;
  (* Fixed per machine, built once by [create]: *)
  l0_ops : WS.ops;               (* the host's own EL2 world-switch ops *)
  twins : Sysreg.t option array; (* [twin_backed], by dense index (shared) *)
  exposed_regs : Sysreg.t array; (* the OoH grant's install/fold surface *)
  mutable drain_skip : bool array;
      (* page slots [neve_drain] leaves alone, built by the first drain *)
  sysreg_traps : sysreg_trap Arm.Memo.t;  (* decoded syndromes, by ISS *)
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

let vel2_write ?(to_hw = true) t r v =
  Vcpu.write_vel2 t.vcpu r v;
  (match twin_backed t r with
   | Some twin when to_hw -> Cpu.msr t.cpu (Sysreg.direct twin) v
   | _ -> ());
  if page_backed t r then begin
    Cost.charge t.cpu.Cpu.meter (table t).Cost.mem_store;
    Core.Deferred_page.write t.page r v
  end

(* --- the host's own full exit path (non-VHE KVM): runs on EVERY trap --- *)

(* Resolve one save copy (mrs via Direct, then a store to the context
   slot) under the current routing state.  [Exit] means the route is
   something the compiled loop cannot replay (impossible at EL2/Direct,
   but a fallback beats a wrong simulation). *)
let compile_route t insn =
  Arm.Trap_rules.route ~mask:t.cpu.Cpu.nv2_mask t.cpu.Cpu.features
    ~hcr:(Cpu.hcr_view t.cpu) ~vncr:(Cpu.vncr_value t.cpu)
    ~el:Arm.Pstate.EL2 insn

(* Registers whose hardware read is not a plain register-file load; a
   compiled loop charging costs in aggregate would read them at the
   wrong mid-loop cycle count.  None appears in the world-switch lists,
   but the compiler refuses rather than assumes. *)
let hw_special (r : Sysreg.t) =
  match r with Sysreg.CurrentEL | Sysreg.CNTVCT_EL0 -> true | _ -> false

(* A loop over [regs] (context area [base]) whose copy [k] moves
   hardware register [hw.(k)]; [keep k] says whether the kernel moves it
   at all (an MSR to a read-only register is ignored). *)
let make_loop ~base regs ~hw ~keep ~norms =
  let n = Array.length regs in
  let kept = Array.of_seq (Seq.filter keep (Seq.init n Fun.id)) in
  {
    ll_n = n;
    ll_base = base;
    ll_regs = Array.map (fun k -> Sysreg.index hw.(k)) kept;
    ll_offs = Array.map (fun k -> Reglists.ctx_slot regs.(k)) kept;
    ll_last = (if n > 0 then WS.slot base regs.(n - 1) else base);
    ll_norms = norms;
  }

let compile_save t ~ctx regs =
  let hw =
    Array.map
      (fun r ->
        let src =
          match
            compile_route t (Insn.Mrs (Cpu.scratch_reg, Sysreg.direct r))
          with
          | Arm.Trap_rules.Execute -> r
          | Arm.Trap_rules.Execute_redirected a -> a.Sysreg.reg
          | _ -> raise Exit
        in
        if hw_special src then raise Exit;
        src)
      regs
  in
  make_loop ~base:ctx regs ~hw ~keep:(fun _ -> true) ~norms:0

let compile_rest t ~ctx regs =
  let norms = ref 0 in
  let hw =
    Array.map
      (fun r ->
        match compile_route t (Insn.Msr (Sysreg.direct r, Insn.Imm 0L)) with
        | Arm.Trap_rules.Execute -> r
        | Arm.Trap_rules.Execute_redirected a ->
          incr norms;
          a.Sysreg.reg
        | _ -> raise Exit)
      regs
  in
  make_loop ~base:ctx regs ~hw
    ~keep:(fun k -> Arm.Sysreg_file.writable_index (Sysreg.index hw.(k)))
    ~norms:!norms

let compile_plan t ~hcr_raw =
  {
    lp_hcr = hcr_raw;
    lp_feats = t.cpu.Cpu.features;
    lp_save_el1 = compile_save t ~ctx:t.guest_stash Reglists.el1_state_arr;
    lp_save_el0 = compile_save t ~ctx:t.guest_stash Reglists.el0_state_arr;
    lp_rest_host = compile_rest t ~ctx:t.l0_ctx Reglists.el1_state_arr;
    lp_rest_el1 = compile_rest t ~ctx:t.guest_stash Reglists.el1_state_arr;
    lp_rest_el0 = compile_rest t ~ctx:t.guest_stash Reglists.el0_state_arr;
  }

(* The plan valid for the CPU's routing state right now, compiling on
   first sight of a (HCR, features) pair.  Raises [Exit] where the
   interpreted loops must run instead. *)
let plan_for t =
  let cpu = t.cpu in
  if cpu.Cpu.pstate.Arm.Pstate.el <> Arm.Pstate.EL2 then raise Exit;
  let feats = cpu.Cpu.features in
  let rec find = function
    | p :: tl ->
      if p.lp_feats == feats
         && Arm.Sysreg_file.holds cpu.Cpu.sysregs Sysreg.HCR_EL2 p.lp_hcr
      then p
      else find tl
    | [] ->
      let p =
        compile_plan t ~hcr_raw:(Cpu.peek_sysreg cpu Sysreg.HCR_EL2)
      in
      t.l0_plans <- p :: t.l0_plans;
      p
  in
  find t.l0_plans

(* Replay a compiled save loop.  Per copy the interpreted path executes
   "mrs x9, <src>; str x9, [slot]": two instructions, a sysreg_read and
   a mem_store cycle charge, one memory access, PC advanced twice, x9
   left holding the copied value.  Nothing mid-loop can observe the
   meter or PC (no tracing, no special registers), so the charges are
   applied in aggregate. *)
let run_save t (l : l0_loop) =
  let cpu = t.cpu in
  let m = cpu.Cpu.meter in
  let c = Cpu.table cpu in
  let n = l.ll_n in
  Arm.Sysreg_file.save cpu.Cpu.sysregs l.ll_regs cpu.Cpu.mem ~base:l.ll_base
    l.ll_offs;
  if n > 0 then
    Cpu.set_reg cpu Cpu.scratch_reg (Memory.read64 cpu.Cpu.mem l.ll_last);
  m.Cost.insns <- m.Cost.insns + (2 * n);
  m.Cost.cycles <- m.Cost.cycles + (n * (c.Cost.sysreg_read + c.Cost.mem_store));
  m.Cost.mem_accesses <- m.Cost.mem_accesses + n;
  cpu.Cpu.pc <- Int64.add cpu.Cpu.pc (Int64.of_int (8 * n))

(* Replay a compiled restore loop: "ldr x9, [slot]; msr <dst>, x9" per
   copy, plus the normalization mov (one instruction, one insn_base
   cycle) for each copy whose route was redirected.  The interpreter
   synthesizes that mov without moving the PC ([Cpu.exec]), so only the
   two real instructions advance it. *)
let run_rest t (l : l0_loop) =
  let cpu = t.cpu in
  let m = cpu.Cpu.meter in
  let c = Cpu.table cpu in
  let n = l.ll_n in
  Arm.Sysreg_file.restore cpu.Cpu.sysregs l.ll_regs cpu.Cpu.mem ~base:l.ll_base
    l.ll_offs;
  if n > 0 then
    Cpu.set_reg cpu Cpu.scratch_reg (Memory.read64 cpu.Cpu.mem l.ll_last);
  let k = l.ll_norms in
  m.Cost.insns <- m.Cost.insns + (2 * n) + k;
  m.Cost.cycles <-
    m.Cost.cycles + (n * (c.Cost.mem_load + c.Cost.sysreg_write))
    + (k * c.Cost.insn_base);
  m.Cost.mem_accesses <- m.Cost.mem_accesses + n;
  cpu.Cpu.pc <- Int64.add cpu.Cpu.pc (Int64.of_int (8 * n))

(* The copy counter only feeds the world-switch trace events. *)
let copies_now () = if !Trace.on then WS.reg_copies () else 0

let l0_enter t =
  let copies0 = copies_now () in
  Cost.charge t.cpu.Cpu.meter (table t).Cost.l0_exit_dispatch;
  (match plan_for t with
   | p ->
     (* save whoever was running at EL1, restore the host's EL1 world *)
     WS.add_copies
       (p.lp_save_el1.ll_n + p.lp_save_el0.ll_n + p.lp_rest_host.ll_n);
     run_save t p.lp_save_el1;
     run_save t p.lp_save_el0;
     run_rest t p.lp_rest_host
   | exception Exit ->
     let o = t.l0_ops in
     WS.save_array o ~ctx:t.guest_stash ~via:Sysreg.direct
       Reglists.el1_state_arr;
     WS.save_array o ~ctx:t.guest_stash ~via:Sysreg.direct
       Reglists.el0_state_arr;
     WS.restore_array o ~ctx:t.l0_ctx ~via:Sysreg.direct
       Reglists.el1_state_arr);
  WS.deactivate_traps t.l0_ops ~vhe:false;
  if !Trace.on then
    Trace.emit ~cycles:t.cpu.Cpu.meter.Cost.cycles ~tid:t.cpu.Cpu.meter.Cost.tid
      ~a0:(Int64.of_int (WS.reg_copies () - copies0))
      ~a1:(Int64.of_int t.vcpu.Vcpu.id)
      Trace.Ws_enter

let l0_exit t =
  let copies0 = copies_now () in
  (* put the interrupted guest context back *)
  (match plan_for t with
   | p ->
     WS.add_copies (p.lp_rest_el1.ll_n + p.lp_rest_el0.ll_n);
     run_rest t p.lp_rest_el1;
     run_rest t p.lp_rest_el0
   | exception Exit ->
     let o = t.l0_ops in
     WS.restore_array o ~ctx:t.guest_stash ~via:Sysreg.direct
       Reglists.el1_state_arr;
     WS.restore_array o ~ctx:t.guest_stash ~via:Sysreg.direct
       Reglists.el0_state_arr);
  let o = t.l0_ops in
  WS.activate_traps o ~vhe:false ~hcr:(hcr_for t ~vel2:t.vcpu.Vcpu.in_vel2);
  WS.write_stage2 o ~vttbr:t.shadow_vttbr;
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

(* The EL1 + EL0 context a vEL2 transition moves: registers, dense
   indices, accesses and context-slot offsets. *)
let ctx_regs = Array.append Reglists.el1_state_arr Reglists.el0_state_arr
let ctx_idx = Array.map Sysreg.index ctx_regs
let ctx_access = Array.map Sysreg.direct ctx_regs
let ctx_offs = Array.map Reglists.ctx_slot ctx_regs

let lr_regs = Array.init Sysreg.lr_count (fun i -> Sysreg.ICH_LR_EL2 i)
let lr_access = Array.map Sysreg.direct lr_regs
let ich_hcr_a = Sysreg.direct Sysreg.ICH_HCR_EL2
let ich_vmcr_a = Sysreg.direct Sysreg.ICH_VMCR_EL2
let cntvoff_a = Sysreg.direct Sysreg.CNTVOFF_EL2

let used_lrs_of_vel2 t =
  let n = ref 0 in
  for i = 0 to Reglists.vgic_lrs_in_use - 1 do
    if not (Gic.Vgic.lr_is_free (Vcpu.read_vel2 t.vcpu lr_regs.(i))) then
      n := i + 1
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
    Array.iter
      (fun r ->
        if charged then
          Cpu.msr_from t.cpu (Sysreg.direct r) t.vcpu.Vcpu.vel2 r
        else Cpu.poke_sysreg t.cpu r (Vcpu.read_vel2 t.vcpu r))
      t.exposed_regs;
    t.cpu.Cpu.expose <- t.expose
  end

(* Fold hardware back into the virtual-EL2 file and disarm the grant.
   Must run before anything reads the virtual file on the exit path
   ([used_lrs_of_vel2], the vgic/timer reprogramming) and makes the
   NEVE drain's exposed-register slots stale shadows — see
   [neve_drain]. *)
let expose_fold t =
  if not (Expose.Policy.is_none t.expose) then begin
    Array.iter
      (fun r -> Vcpu.write_vel2 t.vcpu r (Cpu.mrs t.cpu (Sysreg.direct r)))
      t.exposed_regs;
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
          (Vcpu.exit_name reason));
  Cost.charge cpu.Cpu.meter c.Cost.l0_inject_vel2;
  (* the stashed EL1 state is the nested VM's (or vEL1 kernel's) state *)
  Arm.Sysreg_file.restore vcpu.Vcpu.vel1 ctx_idx cpu.Cpu.mem
    ~base:t.guest_stash ctx_offs;
  (* save the hardware list registers into the virtual EL2 vgic *)
  let used = max (used_lrs_of_vel2 t) vcpu.Vcpu.used_lrs in
  for i = 0 to used - 1 do
    Vcpu.write_vel2 vcpu lr_regs.(i) (Cpu.mrs cpu lr_access.(i))
  done;
  vcpu.Vcpu.in_vel2 <- true;
  (* virtual exception bookkeeping: syndrome, return address, SPSR *)
  let esr =
    match reason with
    | Vcpu.Exit_hypercall -> Exn.esr ~ec:Exn.EC_hvc64 ~iss:0
    | Vcpu.Exit_mmio { addr = _; is_write } ->
      Exn.esr ~ec:Exn.EC_dabt_lower ~iss:(if is_write then 0x40 else 0)
    | Vcpu.Exit_virq _ -> Exn.esr ~ec:Exn.EC_irq ~iss:0
    | Vcpu.Exit_sgi { rt; _ } ->
      (* a faithful syndrome for the trapped ICC_SGI1R_EL1 write — the
         guest hypervisor (and trap logs) can identify the SGI source
         register instead of seeing an all-zero ISS *)
      Exn.esr ~ec:Exn.EC_sysreg
        ~iss:
          (Exn.sysreg_iss ~access:(Sysreg.direct Sysreg.ICC_SGI1R_EL1) ~rt
             ~is_read:false)
    | Vcpu.Exit_wfi -> Exn.esr ~ec:Exn.EC_wfx ~iss:0
    | Vcpu.Exit_hyp_insn { access; rt; is_read } ->
      Exn.esr ~ec:Exn.EC_sysreg ~iss:(Exn.sysreg_iss ~access ~rt ~is_read)
    | Vcpu.Exit_hyp_eret -> Exn.esr ~ec:Exn.EC_eret ~iss:0
  in
  vel2_write t Sysreg.ESR_EL2 esr;
  vel2_write t Sysreg.ELR_EL2 (Cpu.peek_sysreg cpu Sysreg.ELR_EL2);
  vel2_write t Sysreg.SPSR_EL2 (Cpu.peek_sysreg cpu Sysreg.SPSR_EL2);
  (match reason with
   | Vcpu.Exit_mmio { addr; _ } ->
     vel2_write t Sysreg.FAR_EL2 addr;
     vel2_write t Sysreg.HPFAR_EL2 (Int64.shift_right_logical addr 8)
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
  WS.activate_traps t.l0_ops ~vhe:false ~hcr:(hcr_for t ~vel2:true);
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
  (* where does the guest hypervisor want to go? *)
  let target_elr = vel2_read ~from_stash:true t Sysreg.ELR_EL2 in
  let target_spsr = vel2_read ~from_stash:true t Sysreg.SPSR_EL2 in
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
  WS.write_stage2 t.l0_ops ~vttbr:t.shadow_vttbr;
  WS.activate_traps t.l0_ops ~vhe:false ~hcr:(hcr_for t ~vel2:false);
  (* Section 6.2: while an L2 hypervisor runs, the hardware VNCR points at
     the page owned by the L1 guest hypervisor (BADDR translated by L0) *)
  (match (t.l2_is_hyp, t.l2_vncr) with
   | true, Some v -> Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 v
   | _ -> ());
  vcpu.Vcpu.nested_launched <- true;
  Cpu.poke_sysreg cpu Sysreg.ELR_EL2 target_elr;
  Cpu.poke_sysreg cpu Sysreg.SPSR_EL2 target_spsr;
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
      inject_vel2 t (Vcpu.Exit_sgi { target; intid; rt });
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
    (if is_read then begin
       let v =
         if vel2_target then
           match stash_twin t r with
           | Some twin -> stash_read t twin
           | None -> Vcpu.read_vel2 t.vcpu r
         else Vcpu.read_vel1 t.vcpu r
       in
       Cpu.set_trapped_reg t.cpu rt v
     end
     else begin
       let v = Cpu.get_trapped_reg t.cpu rt in
       if vel2_target then begin
         Vcpu.write_vel2 t.vcpu r v;
         (match stash_twin t r with
          | Some twin ->
            Memory.write64 t.cpu.Cpu.mem (stash_slot t twin) v
          | None -> ());
         (* keep the deferred page's cached copy fresh (trap-on-write) *)
         if neve_on t && Core.Deferred_page.has_slot r then
           Core.Deferred_page.write t.page r v;
         (* GIC writes are sanitized and translated (Section 4) *)
         if Sysreg.is_gic_ich r then
           Cost.charge t.cpu.Cpu.meter c.Cost.l0_vgic_sync;
         match r with
         | Sysreg.ICH_LR_EL2 i ->
           if v <> 0L then
             t.vcpu.Vcpu.used_lrs <- max t.vcpu.Vcpu.used_lrs (i + 1)
         | _ -> ()
       end
       else Vcpu.write_vel1 t.vcpu r v
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
    (* paravirtualized hypervisor instruction (Section 4) *)
    let op = Paravirt.decode_op operand in
    if !Trace.on then
      Trace.emit ~cycles:t.cpu.Cpu.meter.Cost.cycles ~tid:t.cpu.Cpu.meter.Cost.tid
        ~a0:(Int64.of_int operand) ~detail:(Paravirt.op_name op) Trace.Pv_hvc;
    match op with
    | Paravirt.Op_sysreg { access; rt; is_read } ->
      let switched = emulate_sysreg t ~access ~rt ~is_read in
      if not switched then begin
        l0_exit t;
        Cpu.do_eret t.cpu
      end
    | Paravirt.Op_eret -> emulate_eret t
    | Paravirt.Op_invalid _ ->
      (* guest-built operand outside the registry: the wrappers never
         emit this, so treat it as the UNDEF the target hardware would
         deliver for the unrecognized instruction *)
      inject_undef t
    | Paravirt.Op_hypercall _ -> plain_hypercall ()
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
    let lr =
      Gic.Vgic.encode_lr
        { Gic.Vgic.empty_lr with Gic.Vgic.lr_state = Gic.Irq.Pending;
                                 lr_vintid = intid }
    in
    Cpu.msr t.cpu (Sysreg.direct (Sysreg.ICH_LR_EL2 0)) lr;
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
    else inject_vel2 t (Vcpu.Exit_virq intid)

let handle_dabt t (e : Exn.entry) =
  let c = table t in
  let addr = Option.value ~default:Gic.Gicv2.gich_base e.Exn.fault_addr in
  let is_write = e.Exn.iss land 0x40 <> 0 in
  (* Shadow stage-2 refill: a nested-VM translation fault the host can
     resolve alone by collapsing the guest and host stage-2 tables — no
     guest-hypervisor involvement, like Turtles. *)
  let shadow_resolved () =
    match (t.scenario, t.vcpu.Vcpu.in_vel2, t.shadow) with
    | Nested, false, Some (sh, guest_s2, host_s2) -> begin
        match
          Mmu.Shadow.handle_fault sh ~guest_s2 ~host_s2 ~l2_ipa:addr ~is_write
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
      (match Gic.Gicv2.decode_access addr with
       | Some gich ->
         Cost.charge t.cpu.Cpu.meter c.Cost.l0_vgic_sync;
         (match Gic.Gicv2.to_ich gich with
          | Some ich ->
            if is_write then begin
              let v = Cpu.get_trapped_reg t.cpu Gaccess.data_reg in
              (* the coherent writer: also refreshes the NEVE page's
                 cached copy, as the system-register trap path does *)
              vel2_write ~to_hw:false t ich v;
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
    else inject_vel2 t (Vcpu.Exit_mmio { addr; is_write })

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
  (* drop GPR snapshots from any interrupted trap context *)
  t.cpu.Cpu.saved_regs <- [];
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
  t.cpu.Cpu.pc <- resume_pc

(* Decode a trapped-access syndrome: the access it names (an op1=5
   encoding names an _EL12/_EL02 alias), Rt and the direction. *)
let decode_sysreg_trap iss =
  let d = Exn.decode_sysreg_iss iss in
  let access =
    match Sysreg.of_enc d.Exn.ds_enc with
    | Some reg -> Some (Sysreg.direct reg)
    | None -> begin
        (* op1=5 alias space *)
        let op0, _, crn, crm, op2 = d.Exn.ds_enc in
        match Sysreg.of_enc (op0, 0, crn, crm, op2) with
        | Some reg -> Some (Sysreg.el12 reg)
        | None -> begin
            match Sysreg.of_enc (op0, 3, crn, crm, op2) with
            | Some reg -> Some (Sysreg.el02 reg)
            | None -> None
          end
      end
  in
  { st_iss = iss; st_access = access; st_rt = d.Exn.ds_rt;
    st_is_read = d.Exn.ds_is_read }

(* The same, memoized per host: a trap site raises the same syndrome
   every time. *)
let sysreg_trap t iss = Arm.Memo.find t.sysreg_traps iss

let handler t _cpu (e : Exn.entry) =
  t.exits <- t.exits + 1;
  if debug_on () then
    Log.debug (fun m ->
        m "vcpu%d: exit #%d, %a" t.vcpu.Vcpu.id t.exits Exn.pp_entry e);
  l0_enter t;
  match e.Exn.ec with
  | Exn.EC_sysreg -> begin
    let d = sysreg_trap t e.Exn.iss in
    match d.st_access with
    | None ->
      (* A trap syndrome naming no register the simulator knows.  The
         encoding is guest-controlled (the guest executed the access),
         so this is not a simulator bug: do what KVM does with an
         unhandled sysreg trap and inject UNDEF into the guest. *)
      inject_undef t
    | Some access ->
    if t.l2_is_hyp && (not t.vcpu.Vcpu.in_vel2) && not t.in_l1 then
      (* the L2 hypervisor executed a hypervisor instruction: forward it
         to the L1 guest hypervisor for emulation (Section 4: "trap on
         hypervisor instructions to the L0 host hypervisor, which can
         then forward it to the L1 guest hypervisor") *)
      inject_vel2 t
        (Vcpu.Exit_hyp_insn { access; rt = d.st_rt; is_read = d.st_is_read })
    else begin
      let switched =
        emulate_sysreg t ~access ~rt:d.st_rt ~is_read:d.st_is_read
      in
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
      l0_plans = [];
      l0_ops = make_l0_ops cpu;
      twins = twins_for config;
      exposed_regs = exposed_regs_of expose;
      drain_skip = [||];
      sysreg_traps = Arm.Memo.create decode_sysreg_trap;
    }
  in
  cpu.Cpu.el2_handler <- Some (fun cpu e -> handler t cpu e);
  cpu.Cpu.features <- Config.hw_features config;
  t

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
