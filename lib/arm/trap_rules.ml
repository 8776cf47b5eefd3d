(* The trap router: decides, for one instruction, whether it executes,
   redirects, defers to memory, traps to EL2, or is UNDEFINED.

   This single function encodes the architectural difference between the
   four configurations the paper compares:

   - ARMv8.0: EL2 instructions executed at EL1 are UNDEFINED (the "crash"
     case of Section 2 motivating paravirtualization);
   - ARMv8.1 VHE: E2H redirection of EL1 access instructions at EL2, and the
     _EL12/_EL02 alias instructions;
   - ARMv8.3 NV: EL2 instructions and eret executed at EL1 with HCR_EL2.NV=1
     trap to EL2; CurrentEL reads are disguised as EL2;
   - ARMv8.4 NV2 (NEVE): with VNCR_EL2.Enable=1, the same accesses are
     transformed into memory accesses to the deferred access page or
     redirected to EL1 registers, per the Table 3/4/5 classification. *)

type action =
  | Execute
  | Execute_exposed of { feature : Expose.Policy.feature }
      (* OoH exposure: the access runs against the real hardware register,
         trap-free, because L0 granted the facility to the guest
         hypervisor.  Same semantics as [Execute] plus attribution. *)
  | Execute_redirected of Sysreg.access
      (* perform the access against a different register *)
  | Defer_to_memory of { addr : int64; reg : Sysreg.t }
      (* NV2: the access becomes a 64-bit load/store at [addr] *)
  | Read_disguised of int64
      (* NV: CurrentEL read returns EL2 while physically at EL1 *)
  | Trap_to_el2 of { entry : Exn.entry; kind : Cost.trap_kind }
      (* the EL2 exception the trap raises, built with the action: an
         action cached per routing state hands the same entry to every
         trap it takes *)
  | Undef
      (* UNDEFINED at the current EL: exception to the current EL's handler *)

(* VNCR_EL2 decoding (Table 2): bit 0 = Enable, bits [52:12] = BADDR. *)
let vncr_enable v = Int64.logand v 1L <> 0L
let vncr_baddr v = Int64.logand v 0x001f_ffff_ffff_f000L

(* Ablation mask: NEVE is three mechanisms (Section 6) — deferral of VM
   registers to memory, redirection of control registers to EL1 twins, and
   cached copies for trap-on-write reads.  Each can be disabled
   independently to measure its contribution (the ablation benches);
   hardware NEVE is all three. *)
type nv2_mask = {
  m_defer : bool;
  m_redirect : bool;
  m_cached : bool;
}

let nv2_full = { m_defer = true; m_redirect = true; m_cached = true }
let nv2_off = { m_defer = false; m_redirect = false; m_cached = false }

let trap_kind_of (a : Sysreg.access) =
  if Sysreg.is_gic_ich a.reg then Cost.Trap_sysreg_gic
  else if Sysreg.is_el2_timer a.reg then Cost.Trap_sysreg_timer
  else
    match a.alias with
    | EL02 -> Cost.Trap_sysreg_timer (* only timer regs have EL02 forms *)
    | EL12 -> Cost.Trap_sysreg_el12
    | Direct ->
      if Sysreg.min_el a.reg = Pstate.EL2 then Cost.Trap_sysreg_el2
      else Cost.Trap_sysreg_el1

let trap_to_el2 ec iss kind =
  Trap_to_el2
    { entry = { Exn.target = Pstate.EL2; ec; iss }; kind }

let sysreg_trap ~access ~rt ~is_read =
  trap_to_el2 Exn.EC_sysreg
    (Exn.sysreg_iss ~access ~rt ~is_read)
    (trap_kind_of access)

(* The traps whose syndrome is fixed, one shared action each. *)
let smc_trap = trap_to_el2 Exn.EC_smc64 0 Cost.Trap_smc
let eret_trap = trap_to_el2 Exn.EC_eret 0 Cost.Trap_eret
let wfi_trap = trap_to_el2 Exn.EC_wfx 0 Cost.Trap_wfx

(* VHE E2H redirection at EL2: EL1 access instructions operate on the EL2
   counterpart.  This is the redirection of Section 2 that lets an OS kernel
   written for EL1 run unmodified in EL2, and a VHE hypervisor uses the EL1
   forms "wherever possible" (Section 5) to touch its own EL2 state without
   trapping when deprivileged.  The pairs, (EL1 form, EL2 register): *)
let e2h_pairs : (Sysreg.t * Sysreg.t) list =
  [ (SCTLR_EL1, SCTLR_EL2); (CPACR_EL1, CPTR_EL2); (TTBR0_EL1, TTBR0_EL2);
    (TTBR1_EL1, TTBR1_EL2); (TCR_EL1, TCR_EL2); (ESR_EL1, ESR_EL2);
    (FAR_EL1, FAR_EL2); (AFSR0_EL1, AFSR0_EL2); (AFSR1_EL1, AFSR1_EL2);
    (MAIR_EL1, MAIR_EL2); (AMAIR_EL1, AMAIR_EL2); (VBAR_EL1, VBAR_EL2);
    (CONTEXTIDR_EL1, CONTEXTIDR_EL2); (ELR_EL1, ELR_EL2);
    (SPSR_EL1, SPSR_EL2); (CNTKCTL_EL1, CNTHCTL_EL2);
    (CNTV_CTL_EL0, CNTHV_CTL_EL2); (CNTV_CVAL_EL0, CNTHV_CVAL_EL2);
    (CNTP_CTL_EL0, CNTHP_CTL_EL2); (CNTP_CVAL_EL0, CNTHP_CVAL_EL2) ]

(* One direction of [e2h_pairs] as a dense-index lookup, answered with a
   shared option: the host's own accesses ask on every MRS/MSR.  Every
   paired register is a constant constructor, so the [==] check leaves an
   out-of-range banked register whose index aliases a paired one
   unpaired.
   domain-safety: allowlisted global — populated at module load,
   read-only afterwards. *)
let e2h_lookup ~from ~to_ =
  let tbl = Array.make Sysreg.count None in
  List.iter (fun p -> tbl.(Sysreg.index (from p)) <- Some (to_ p)) e2h_pairs;
  fun (r : Sysreg.t) ->
    let i = Sysreg.index r in
    if i < 0 || i >= Sysreg.count then None
    else
      match Array.unsafe_get tbl i with
      | None -> None
      | Some _ as partner -> if Sysreg.of_index i == r then partner else None

let vhe_el2_twin = e2h_lookup ~from:fst ~to_:snd
let el1_form_of_el2 = e2h_lookup ~from:snd ~to_:fst

(* Does NV2 defer this register to the page?  Table 3 registers, cached
   copies of trap-on-write registers, and the extra EL1 context registers
   the paper folds under "further details omitted" (Section 6.1): without
   deferring these, a non-VHE guest hypervisor's world switch would still
   trap on them and NEVE's trap reduction could not reach the reported
   levels. *)
let nv2_defers_reads (r : Sysreg.t) =
  match Sysreg.neve_class r with
  | NV_vm_reg | NV_trap_on_write -> true
  | NV_redirect_or_trap _ -> true (* reads come from the cached copy *)
  | NV_redirect _ | NV_redirect_vhe _ | NV_timer_trap -> false
  | NV_none -> Sysreg.has_vncr_offset r

(* The sysreg surface of each OoH exposure grant.  Only registers whose
   hardware copy can be made authoritative while the guest hypervisor
   runs in virtual EL2 qualify:

   - [Timer]: the EL2 timers and the virtual offset.  Their base-column
     path is a trap on every access (NV_timer_trap) or on every write
     (CNTVOFF); exposed, the guest programs the hardware comparators
     directly.
   - [Gic_lrs]: the list registers plus ICH_HCR/ICH_VMCR.  The
     read-only status registers (ICH_VTR/MISR/EISR/ELRSR) and the
     active-priority registers stay trapped: their values are derived
     by the host's vGIC sanitizer, so a stale hardware copy is not
     architectural state the guest may observe directly.
   - [Dirty_log] has no sysreg surface at all — it exposes the stage-2
     dirty bitmap to the migration layer (see Mmu.Dirty/Snap.Migrate).

   EL02/EL12 alias forms keep trapping even when the underlying
   register is exposed: the alias names the *VM's* state, which the
   host must still multiplex (Section 7.1). *)
let exposed_feature (expose : Expose.Policy.t) (r : Sysreg.t) :
    Expose.Policy.feature option =
  if Expose.Policy.is_none expose then None
  else
    match r with
    | Sysreg.CNTHP_CTL_EL2 | Sysreg.CNTHP_CVAL_EL2 | Sysreg.CNTHV_CTL_EL2
    | Sysreg.CNTHV_CVAL_EL2 | Sysreg.CNTVOFF_EL2 ->
      if Expose.Policy.mem expose Expose.Policy.Timer then
        Some Expose.Policy.Timer
      else None
    | Sysreg.ICH_HCR_EL2 | Sysreg.ICH_VMCR_EL2 | Sysreg.ICH_LR_EL2 _ ->
      if Expose.Policy.mem expose Expose.Policy.Gic_lrs then
        Some Expose.Policy.Gic_lrs
      else None
    | _ -> None

let deferred_slot ~vncr (r : Sysreg.t) =
  match Sysreg.vncr_offset r with
  | Some off ->
    Defer_to_memory { addr = Int64.add (vncr_baddr vncr) (Int64.of_int off); reg = r }
  | None ->
    invalid_arg ("Trap_rules: no deferred-page slot for " ^ Sysreg.name r)

(* Route a system-register access executed at EL1 while HCR_EL2.NV=1, i.e.
   by a deprivileged guest hypervisor running in virtual EL2. *)
let route_sysreg_vel2 (features : Features.t) ~(hcr : Hcr.view) ~vncr ~mask
    ~expose ~(access : Sysreg.access) ~rt ~is_read =
  let nv2_on =
    Features.has_nv2 features && hcr.h_nv2 && vncr_enable vncr
  in
  let defer_on = nv2_on && mask.m_defer in
  let redirect_on = nv2_on && mask.m_redirect in
  let cached_on = nv2_on && mask.m_cached in
  match access.alias with
  | EL02 ->
    (* VHE guest hypervisor programming the VM's EL0 timer.  These "always
       trap" (Section 7.1): timer values are updated by hardware, so a
       cached copy cannot serve reads. *)
    sysreg_trap ~access ~rt ~is_read
  | EL12 ->
    (* VHE guest hypervisor accessing the VM's EL1 state. *)
    if not defer_on then sysreg_trap ~access ~rt ~is_read
    else if nv2_defers_reads access.reg || not is_read then
      if Sysreg.has_vncr_offset access.reg then
        deferred_slot ~vncr access.reg
      else sysreg_trap ~access ~rt ~is_read
    else sysreg_trap ~access ~rt ~is_read
  | Direct -> (
    match Sysreg.min_el access.reg with
    | Pstate.EL2 -> begin
      (* EL2 register access from virtual EL2.  An OoH grant wins over
         every mechanism: the access reaches the hardware register
         directly, trap-free, whether or not NV2 deferral is active. *)
      match exposed_feature expose access.reg with
      | Some feature -> Execute_exposed { feature }
      | None ->
      if not nv2_on then sysreg_trap ~access ~rt ~is_read
      else begin
        match Sysreg.neve_class access.reg with
        | NV_vm_reg ->
          if defer_on then deferred_slot ~vncr access.reg
          else sysreg_trap ~access ~rt ~is_read
        | NV_redirect tgt | NV_redirect_vhe tgt ->
          if redirect_on then Execute_redirected (Sysreg.direct tgt)
          else sysreg_trap ~access ~rt ~is_read
        | NV_trap_on_write ->
          if is_read && cached_on then deferred_slot ~vncr access.reg
          else sysreg_trap ~access ~rt ~is_read
        | NV_redirect_or_trap tgt ->
          (* NV1=1 marks a non-VHE guest hypervisor: the EL2 format differs
             from EL1 and cannot be redirected (Section 6.1). *)
          if hcr.h_nv1 then
            if is_read && cached_on then deferred_slot ~vncr access.reg
            else sysreg_trap ~access ~rt ~is_read
          else if redirect_on then Execute_redirected (Sysreg.direct tgt)
          else sysreg_trap ~access ~rt ~is_read
        | NV_timer_trap -> sysreg_trap ~access ~rt ~is_read
        | NV_none -> sysreg_trap ~access ~rt ~is_read
      end
    end
    | Pstate.EL1 -> (
      (* EL1 register access from virtual EL2. *)
      match access.reg with
      | Sysreg.CurrentEL ->
        (* reads are disguised as EL2 (Section 2); writes are UNDEFINED,
           CurrentEL being read-only *)
        if is_read then Read_disguised (Pstate.currentel_bits Pstate.EL2)
        else Undef
      | Sysreg.ICC_SGI1R_EL1 ->
        sysreg_trap ~access ~rt ~is_read (* IPIs are always emulated *)
      | Sysreg.ICC_IAR1_EL1 | Sysreg.ICC_EOIR1_EL1 | Sysreg.ICC_DIR_EL1
      | Sysreg.ICC_PMR_EL1 | Sysreg.ICC_BPR1_EL1 | Sysreg.ICC_CTLR_EL1
      | Sysreg.ICC_IGRPEN1_EL1 ->
        Execute (* served by the hardware virtual CPU interface *)
      | r ->
        if not hcr.h_nv1 then
          (* VHE guest hypervisor: EL1 access instructions reach the
             hardware EL1 registers, which hold its own (virtual EL2)
             state.  No trap: this is why a VHE guest hypervisor traps
             less than a non-VHE one (Section 5). *)
          Execute
        else if defer_on && Sysreg.has_vncr_offset r then
          deferred_slot ~vncr r
        else if is_read && not hcr.h_trvm && Sysreg.neve_class r <> NV_vm_reg
        then Execute
        else sysreg_trap ~access ~rt ~is_read)
    | Pstate.EL0 -> Execute)

(* Route a system-register access for a regular VM (EL1, NV clear). *)
let route_sysreg_vm ~(hcr : Hcr.view) ~(access : Sysreg.access) ~rt ~is_read =
  match access.alias with
  | EL12 | EL02 -> Undef (* EL2-only instructions *)
  | Direct ->
    let min_el = Sysreg.min_el access.reg in
    if min_el = Pstate.EL2 then Undef
    else begin
      match access.reg with
      | Sysreg.ICC_SGI1R_EL1 when hcr.h_imo ->
        sysreg_trap ~access ~rt ~is_read
      | _ ->
        let is_vm_ctl = Sysreg.neve_class access.reg = Sysreg.NV_vm_reg in
        if is_vm_ctl && min_el = Pstate.EL1
           && ((is_read && hcr.h_trvm) || ((not is_read) && hcr.h_tvm))
        then
          trap_to_el2 Exn.EC_sysreg
            (Exn.sysreg_iss ~access ~rt ~is_read)
            Cost.Trap_sysreg_vm
        else Execute
    end

(* Route an access executed at EL2 (the host hypervisor). *)
let route_sysreg_el2 (features : Features.t) ~(hcr : Hcr.view)
    ~(access : Sysreg.access) =
  match access.alias with
  | EL12 | EL02 ->
    if Features.has_vhe features && hcr.h_e2h then
      Execute_redirected (Sysreg.direct access.reg)
    else Undef
  | Direct ->
    if hcr.h_e2h && Features.has_vhe features then
      match vhe_el2_twin access.reg with
      | Some twin -> Execute_redirected (Sysreg.direct twin)
      | None -> Execute
    else Execute

let route ?(mask = nv2_full) ?(expose = Expose.Policy.none)
    (features : Features.t) ~(hcr : Hcr.view) ~vncr ~(el : Pstate.el)
    (insn : Insn.t) : action =
  match insn with
  | Insn.Hvc imm -> begin
      match el with
      | Pstate.EL0 -> Undef
      | Pstate.EL1 | Pstate.EL2 ->
        trap_to_el2 Exn.EC_hvc64 (Exn.hvc_iss imm) Cost.Trap_hvc
    end
  | Insn.Smc _ ->
    if el = Pstate.EL1 && hcr.h_tsc then
      smc_trap
    else Execute
  | Insn.Svc _ -> Execute
  | Insn.Eret -> begin
      match el with
      | Pstate.EL0 -> Undef
      | Pstate.EL1 ->
        if hcr.h_nv && Features.has_nv features then
          eret_trap
        else Execute
      | Pstate.EL2 -> Execute
    end
  | Insn.Wfi ->
    if el = Pstate.EL1 && hcr.h_twi then
      wfi_trap
    else Execute
  | Insn.Mrs (rt, access) -> begin
      match el with
      | Pstate.EL2 -> route_sysreg_el2 features ~hcr ~access
      | Pstate.EL1 ->
        if hcr.h_nv && Features.has_nv features then
          route_sysreg_vel2 features ~hcr ~vncr ~mask ~expose ~access ~rt
            ~is_read:true
        else if access.reg = Sysreg.CurrentEL then Execute
        else route_sysreg_vm ~hcr ~access ~rt ~is_read:true
      | Pstate.EL0 ->
        if Sysreg.min_el access.reg = Pstate.EL0 && access.alias = Direct
        then Execute
        else Undef
    end
  | Insn.Msr (access, op) -> begin
      let rt = match op with Insn.Reg r -> r | Insn.Imm _ -> 0 in
      (* A guest write to a read-only EL1-level register (MPIDR, MIDR,
         the counter, the GIC IAR) is UNDEFINED under every mechanism;
         routing it into a trap would let one mechanism "emulate" a
         write real hardware refuses.  EL2-level read-only registers
         keep their class routing (their writes trap from virtual EL2 so
         the host can reject them identically everywhere), and the host
         itself at EL2 keeps the ignore-write convenience semantics. *)
      if access.Sysreg.reg = Sysreg.CurrentEL then Undef
      else if
        el <> Pstate.EL2
        && Sysreg.read_only access.Sysreg.reg
        && Sysreg.min_el access.Sysreg.reg <> Pstate.EL2
      then Undef
      else
      match el with
      | Pstate.EL2 -> route_sysreg_el2 features ~hcr ~access
      | Pstate.EL1 ->
        if hcr.h_nv && Features.has_nv features then
          route_sysreg_vel2 features ~hcr ~vncr ~mask ~expose ~access ~rt
            ~is_read:false
        else route_sysreg_vm ~hcr ~access ~rt ~is_read:false
      | Pstate.EL0 ->
        if Sysreg.min_el access.reg = Pstate.EL0 && access.alias = Direct
        then Execute
        else Undef
    end
  | Insn.Ldr _ | Insn.Str _ | Insn.Mov _ | Insn.Add _ | Insn.Sub _
  | Insn.And _ | Insn.Orr _ | Insn.Eor _ | Insn.Lsl _ | Insn.Lsr _
  | Insn.Isb | Insn.Dsb | Insn.Tlbi_vmalls12e1 | Insn.Tlbi_alle2 | Insn.Nop
  | Insn.B _ | Insn.Cbz _ | Insn.Cbnz _ ->
    Execute

let pp_action ppf = function
  | Execute -> Fmt.string ppf "execute"
  | Execute_exposed { feature } ->
    Fmt.pf ppf "exposed (%s)" (Expose.Policy.feature_name feature)
  | Execute_redirected a ->
    Fmt.pf ppf "redirect -> %s" (Sysreg.access_name a)
  | Defer_to_memory { addr; reg } ->
    Fmt.pf ppf "defer %s -> mem[0x%Lx]" (Sysreg.name reg) addr
  | Read_disguised v -> Fmt.pf ppf "disguised read (0x%Lx)" v
  | Trap_to_el2 { entry; _ } ->
    Fmt.pf ppf "trap to EL2 (%s)" (Exn.ec_name entry.Exn.ec)
  | Undef -> Fmt.string ppf "UNDEFINED"
