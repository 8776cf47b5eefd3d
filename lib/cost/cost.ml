(* Cycle cost model.

   All performance numbers produced by the simulator come from this table.
   The defaults are calibrated against the measurements reported in Section 5
   of the paper: trapping from EL1 to EL2 costs 68-76 cycles on ARMv8.0
   hardware regardless of the trapping instruction, and returning from EL2 to
   EL1 costs 65 cycles.  Software-handling constants are calibrated so that
   the single-level VM microbenchmark costs land near Table 1 (e.g. a VM
   hypercall round trip of ~2,700 cycles on ARM and ~1,200 on x86). *)

type table = {
  (* architectural event costs, ARM *)
  trap_entry : int;          (* exception entry EL1 -> EL2 *)
  trap_return : int;         (* eret EL2 -> EL1 *)
  exc_entry_el1 : int;       (* exception entry targeting EL1 *)
  sysreg_read : int;         (* MRS executed without trapping *)
  sysreg_write : int;        (* MSR executed without trapping *)
  mem_load : int;            (* cache-hit load *)
  mem_store : int;           (* cache-hit store *)
  insn_base : int;           (* any other instruction *)
  barrier : int;             (* ISB/DSB *)
  tlbi : int;                (* TLB invalidate *)
  gic_mmio_access : int;     (* GICv2 memory-mapped register access *)
  irq_delivery : int;        (* physical interrupt delivery to EL2 *)
  (* hypervisor software costs, ARM (cycles of C code not expressed as
     simulated instructions) *)
  l0_exit_dispatch : int;    (* KVM exit decode + dispatch, per trap *)
  l0_sysreg_emulate : int;   (* emulating one trapped sysreg access *)
  l0_hvc_handle : int;       (* handling a hypercall in the host *)
  l0_inject_vel2 : int;      (* constructing a virtual EL2 exception *)
  l0_eret_emulate : int;     (* emulating a trapped eret *)
  l0_io_emulate : int;       (* emulating an MMIO device access *)
  l0_ipi_send : int;         (* forwarding a virtual IPI *)
  l0_vgic_sync : int;        (* sanitizing/translating vGIC state *)
  l0_timer_emulate : int;    (* emulating EL2/EL02 timer accesses: the
                                VHE-only EL2 virtual timer must be
                                multiplexed with the VM timer (Section 7.1) *)
  l0_mem_fault : int;        (* shadow stage-2 fault handling *)
  guest_hyp_logic : int;     (* guest hypervisor C-code cost per exit *)
  (* x86 costs *)
  x86_vmexit : int;          (* hardware VMCS save + root-mode entry *)
  x86_vmentry : int;         (* hardware VMCS load + non-root entry *)
  x86_vmread : int;          (* vmread in root mode / shadowed *)
  x86_vmwrite : int;
  x86_dispatch : int;        (* KVM x86 exit dispatch *)
  x86_merge_vmcs : int;      (* L0 merging vmcs12 into vmcs02 *)
  x86_reflect : int;         (* L0 reflecting an L2 exit into vmcs12 *)
  x86_unshadowed : int;      (* L0 emulating an unshadowed VMCS access *)
  x86_posted_irq : int;      (* L0 forwarding an interrupt towards L2 *)
  x86_guest_hyp_logic : int; (* L1 KVM software per nested exit *)
  x86_apicv_eoi : int;       (* hardware-accelerated EOI *)
  arm_virtual_eoi : int;     (* GIC virtual-interface EOI, no trap *)
  mig_page_copy : int;       (* live migration: copying one 4 KB page *)
  mig_state_copy : int;      (* live migration: CPU/device state transfer
                                during the stop-and-copy phase *)
  serror_delivery : int;     (* taking a (virtual) SError exception *)
  watchdog_poll : int;       (* one supervision sweep over a vCPU *)
  recover_restore : int;     (* rebuilding a machine from a snapshot *)
  mig_retry_backoff : int;   (* base backoff unit before a migration retry *)
  tlbi_recipient : int;      (* TLB shootdown: per-recipient cost of a
                                broadcast TLBI reaching a remote vCPU *)
  dvm_sync : int;            (* TLB shootdown: per-recipient share of the
                                initiator's DSB waiting for DVM completion *)
}

(* Defaults.  The architectural constants come straight from the paper's
   Section 5 measurements; the software constants were calibrated once so
   that the VM (non-nested) rows of Table 1 are approximated, and are then
   held fixed across every experiment. *)
let default : table = {
  trap_entry = 70;
  trap_return = 65;
  exc_entry_el1 = 70;
  sysreg_read = 9;
  sysreg_write = 9;
  mem_load = 6;
  mem_store = 6;
  insn_base = 1;
  barrier = 20;
  tlbi = 120;
  gic_mmio_access = 140;
  irq_delivery = 210;
  l0_exit_dispatch = 1100;
  l0_sysreg_emulate = 800;
  l0_hvc_handle = 200;
  l0_inject_vel2 = 9000;
  l0_eret_emulate = 10000;
  l0_io_emulate = 1000;
  l0_ipi_send = 1800;
  l0_vgic_sync = 600;
  l0_timer_emulate = 4000;
  l0_mem_fault = 1400;
  guest_hyp_logic = 1100;
  x86_vmexit = 420;
  x86_vmentry = 380;
  x86_vmread = 35;
  x86_vmwrite = 40;
  x86_dispatch = 250;
  x86_merge_vmcs = 12000;
  x86_reflect = 1500;
  x86_unshadowed = 3000;
  x86_posted_irq = 3000;
  x86_guest_hyp_logic = 7000;
  x86_apicv_eoi = 316;
  arm_virtual_eoi = 71;
  mig_page_copy = 1200;
  mig_state_copy = 24000;
  serror_delivery = 260;
  watchdog_poll = 40;
  recover_restore = 150000;
  mig_retry_backoff = 2000;
  tlbi_recipient = 180;
  dvm_sync = 90;
}

(* The table as its entries in declaration order: the form snapshot
   images carry, so the order is part of their format. *)
let table_to_array t =
  [| t.trap_entry; t.trap_return; t.exc_entry_el1; t.sysreg_read; t.sysreg_write;
     t.mem_load; t.mem_store; t.insn_base; t.barrier; t.tlbi; t.gic_mmio_access;
     t.irq_delivery; t.l0_exit_dispatch; t.l0_sysreg_emulate; t.l0_hvc_handle;
     t.l0_inject_vel2; t.l0_eret_emulate; t.l0_io_emulate; t.l0_ipi_send;
     t.l0_vgic_sync; t.l0_timer_emulate; t.l0_mem_fault; t.guest_hyp_logic;
     t.x86_vmexit; t.x86_vmentry; t.x86_vmread; t.x86_vmwrite; t.x86_dispatch;
     t.x86_merge_vmcs; t.x86_reflect; t.x86_unshadowed; t.x86_posted_irq;
     t.x86_guest_hyp_logic; t.x86_apicv_eoi; t.arm_virtual_eoi;
     t.mig_page_copy; t.mig_state_copy; t.serror_delivery; t.watchdog_poll;
     t.recover_restore; t.mig_retry_backoff; t.tlbi_recipient; t.dvm_sync |]

(* A literal: deriving it from [table_to_array] would allocate at module
   load, in every program that links the cost model. *)
let table_size = 43

let table_of_array a =
  if Array.length a <> table_size then
    invalid_arg
      (Printf.sprintf "Cost.table_of_array: %d entries, expected %d"
         (Array.length a) table_size);
  { trap_entry = a.(0); trap_return = a.(1); exc_entry_el1 = a.(2);
    sysreg_read = a.(3); sysreg_write = a.(4); mem_load = a.(5);
    mem_store = a.(6); insn_base = a.(7); barrier = a.(8); tlbi = a.(9);
    gic_mmio_access = a.(10); irq_delivery = a.(11); l0_exit_dispatch = a.(12);
    l0_sysreg_emulate = a.(13); l0_hvc_handle = a.(14); l0_inject_vel2 = a.(15);
    l0_eret_emulate = a.(16); l0_io_emulate = a.(17); l0_ipi_send = a.(18);
    l0_vgic_sync = a.(19); l0_timer_emulate = a.(20); l0_mem_fault = a.(21);
    guest_hyp_logic = a.(22); x86_vmexit = a.(23); x86_vmentry = a.(24);
    x86_vmread = a.(25); x86_vmwrite = a.(26); x86_dispatch = a.(27);
    x86_merge_vmcs = a.(28); x86_reflect = a.(29); x86_unshadowed = a.(30);
    x86_posted_irq = a.(31); x86_guest_hyp_logic = a.(32);
    x86_apicv_eoi = a.(33); arm_virtual_eoi = a.(34); mig_page_copy = a.(35);
    mig_state_copy = a.(36); serror_delivery = a.(37); watchdog_poll = a.(38);
    recover_restore = a.(39); mig_retry_backoff = a.(40);
    tlbi_recipient = a.(41); dvm_sync = a.(42) }

(* Trap classification used for reporting (Table 7 and the trap-analysis
   example distinguish traps by cause). *)
type trap_kind =
  | Trap_hvc                  (* explicit hvc instruction *)
  | Trap_sysreg_el2           (* EL2 system register access from vEL2 *)
  | Trap_sysreg_el1           (* EL1 system register access from vEL2 *)
  | Trap_sysreg_el12          (* VHE _EL12/_EL02 alias access from vEL2 *)
  | Trap_sysreg_timer         (* EL2 timer register access *)
  | Trap_sysreg_gic           (* ICH_* GIC hypervisor-interface access *)
  | Trap_sysreg_vm            (* VM-register access by a non-nested VM *)
  | Trap_eret                 (* trapped eret from vEL2 *)
  | Trap_mmio                 (* stage-2 fault on emulated MMIO *)
  | Trap_wfx                  (* trapped wfi/wfe *)
  | Trap_irq                  (* physical interrupt while a VM ran *)
  | Trap_smc
  | Trap_mem_fault            (* stage-2 translation fault (shadow miss) *)
  | Trap_x86_vmexit           (* any x86 VM exit *)
  | Trap_serror               (* physical SError contained by L0 (appended:
                                 snapshot codes are positional) *)

let trap_kind_name = function
  | Trap_hvc -> "hvc"
  | Trap_sysreg_el2 -> "sysreg-el2"
  | Trap_sysreg_el1 -> "sysreg-el1"
  | Trap_sysreg_el12 -> "sysreg-el12"
  | Trap_sysreg_timer -> "sysreg-timer"
  | Trap_sysreg_gic -> "sysreg-gic"
  | Trap_sysreg_vm -> "sysreg-vm"
  | Trap_eret -> "eret"
  | Trap_mmio -> "mmio"
  | Trap_wfx -> "wfx"
  | Trap_irq -> "irq"
  | Trap_smc -> "smc"
  | Trap_mem_fault -> "mem-fault"
  | Trap_x86_vmexit -> "x86-vmexit"
  | Trap_serror -> "serror"

let all_trap_kinds = [
  Trap_hvc; Trap_sysreg_el2; Trap_sysreg_el1; Trap_sysreg_el12;
  Trap_sysreg_timer; Trap_sysreg_gic; Trap_sysreg_vm; Trap_eret; Trap_mmio;
  Trap_wfx; Trap_irq; Trap_smc; Trap_mem_fault; Trap_x86_vmexit;
  Trap_serror;
]

(* Dense index for the per-kind counters: [record_trap] is on the hot
   trap path, where a hashed lookup per trap is real money. *)
let kind_index = function
  | Trap_hvc -> 0
  | Trap_sysreg_el2 -> 1
  | Trap_sysreg_el1 -> 2
  | Trap_sysreg_el12 -> 3
  | Trap_sysreg_timer -> 4
  | Trap_sysreg_gic -> 5
  | Trap_sysreg_vm -> 6
  | Trap_eret -> 7
  | Trap_mmio -> 8
  | Trap_wfx -> 9
  | Trap_irq -> 10
  | Trap_smc -> 11
  | Trap_mem_fault -> 12
  | Trap_x86_vmexit -> 13
  | Trap_serror -> 14

let kind_count = 15

(* OoH exposure attribution: dense per-feature index into a meter's
   [exposed] counter array, mirroring [kind_index] for traps.  An
   exposed access is the trap that *didn't* happen — the access itself
   is charged its ordinary execute cost by whoever runs it; the counter
   only attributes the saved exit to its grant. *)
let exposed_index = function
  | Expose.Policy.Dirty_log -> 0
  | Expose.Policy.Timer -> 1
  | Expose.Policy.Gic_lrs -> 2

let exposed_count = List.length Expose.Policy.all_features

(* A meter accumulates cycles, instruction counts and trap counts for one
   measured region.  Meters are cheap to create; benchmarks snapshot and
   subtract them. *)
type meter = {
  table : table;
  mutable cycles : int;
  mutable insns : int;
  mutable traps : int;
  mutable mem_accesses : int;
  by_kind : int array;  (* per-kind trap counts, indexed by [kind_index] *)
  exposed : int array;  (* per-feature trap-free access counts, indexed
                           by [exposed_index] *)
  mutable tid : int;  (* owning CPU id; the trace lane for events this
                         meter emits *)
}

let make_meter ?(table = default) () = {
  table;
  cycles = 0;
  insns = 0;
  traps = 0;
  mem_accesses = 0;
  by_kind = Array.make kind_count 0;
  exposed = Array.make exposed_count 0;
  tid = 0;
}

let charge m n =
  assert (n >= 0);
  m.cycles <- m.cycles + n

let charge_insn m n =
  m.insns <- m.insns + 1;
  charge m n

(* Pure instruction accounting, no cycle charge: for platform models whose
   per-operation cycle costs are calibrated blobs (the x86 VMCS-access
   constants) but whose retired-instruction counts should still be
   visible to the bench harness. *)
let count_insns m n =
  assert (n >= 0);
  m.insns <- m.insns + n

(* The single chokepoint every classified trap passes through — ARM traps
   from the trap router and IRQ delivery, x86 VM exits from Vtx.  Emitting
   the trace event here is what makes the tracer's per-class counter sums
   equal the meters' trap totals by construction. *)
let record_trap ?(detail = "") m kind =
  m.traps <- m.traps + 1;
  let i = kind_index kind in
  Array.unsafe_set m.by_kind i (Array.unsafe_get m.by_kind i + 1);
  if !Trace.on then
    Trace.emit ~cycles:m.cycles ~tid:m.tid ~cls:(trap_kind_name kind) ~detail
      Trace.Trap

(* The exposure twin of [record_trap]: called where the router returned
   [Execute_exposed] instead of a trap.  No cycle charge here — the
   access pays its ordinary execute cost at its execution site; the
   whole point of an OoH grant is that the exit cost vanishes. *)
let record_exposed ?(detail = "") m feature =
  let i = exposed_index feature in
  Array.unsafe_set m.exposed i (Array.unsafe_get m.exposed i + 1);
  if !Trace.on then
    Trace.emit ~cycles:m.cycles ~tid:m.tid
      ~cls:(Expose.Policy.feature_name feature) ~detail Trace.Exposed_access

let traps_of_kind m kind = m.by_kind.(kind_index kind)
let exposed_of_feature m f = m.exposed.(exposed_index f)

(* A meter mark is a copy of the meter (its own count arrays);
   rewinding copies every mutable field back. *)
type meter_mark = meter

let mark_meter m =
  { m with by_kind = Array.copy m.by_kind; exposed = Array.copy m.exposed }

let rewind_meter m (k : meter_mark) =
  m.cycles <- k.cycles;
  m.insns <- k.insns;
  m.traps <- k.traps;
  m.mem_accesses <- k.mem_accesses;
  Array.blit k.by_kind 0 m.by_kind 0 kind_count;
  Array.blit k.exposed 0 m.exposed 0 exposed_count;
  m.tid <- k.tid

(* Immutable snapshot, for delta measurements around a benchmark region. *)
type snapshot = {
  snap_cycles : int;
  snap_insns : int;
  snap_traps : int;
  snap_by_kind : (trap_kind * int) list;
  snap_exposed : (Expose.Policy.feature * int) list;
}

let snapshot m = {
  snap_cycles = m.cycles;
  snap_insns = m.insns;
  snap_traps = m.traps;
  snap_by_kind = List.map (fun k -> (k, traps_of_kind m k)) all_trap_kinds;
  snap_exposed =
    List.map (fun f -> (f, exposed_of_feature m f))
      Expose.Policy.all_features;
}

type delta = {
  d_cycles : int;
  d_insns : int;
  d_traps : int;
  d_by_kind : (trap_kind * int) list;
  d_exposed : (Expose.Policy.feature * int) list;
}

let delta_since m s =
  let before k =
    Option.value ~default:0 (List.assoc_opt k s.snap_by_kind)
  in
  let exposed_before f =
    Option.value ~default:0 (List.assoc_opt f s.snap_exposed)
  in
  {
    d_cycles = m.cycles - s.snap_cycles;
    d_insns = m.insns - s.snap_insns;
    d_traps = m.traps - s.snap_traps;
    d_by_kind =
      List.map (fun k -> (k, traps_of_kind m k - before k)) all_trap_kinds;
    d_exposed =
      List.map
        (fun f -> (f, exposed_of_feature m f - exposed_before f))
        Expose.Policy.all_features;
  }

let reset m =
  m.cycles <- 0;
  m.insns <- 0;
  m.traps <- 0;
  m.mem_accesses <- 0;
  Array.fill m.by_kind 0 kind_count 0;
  Array.fill m.exposed 0 exposed_count 0

(* Statistics helpers (averages over repeated runs, Figure-2 overhead
   normalization). *)
module Stats = struct
  (* Small statistics helpers used by the benchmark harness: the paper reports
     averages over repeated runs (e.g. "average number of traps"), and the
     application figures are normalized to native execution. *)

  let mean = function
    | [] -> invalid_arg "Stats.mean: empty"
    | xs ->
      let n = List.length xs in
      List.fold_left ( +. ) 0. xs /. float_of_int n

  let mean_int xs = mean (List.map float_of_int xs)

  let stddev xs =
    match xs with
    | [] | [ _ ] -> 0.
    | _ ->
      let m = mean xs in
      let sq = List.map (fun x -> (x -. m) ** 2.) xs in
      sqrt (mean sq)

  let min_max = function
    | [] -> invalid_arg "Stats.min_max: empty"
    | x :: xs ->
      List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) xs

  (* Nearest-rank percentile over simulated-cycle samples: the SLO
     quantiles of the serve scenario.  [q] in (0, 1]; the result is
     always an observed sample, so percentile streams stay integral and
     byte-deterministic (no interpolation). *)
  let percentile q xs =
    if q <= 0. || q > 1. then invalid_arg "Stats.percentile: q outside (0,1]";
    match xs with
    | [] -> invalid_arg "Stats.percentile: empty"
    | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

  let p50 xs = percentile 0.50 xs
  let p99 xs = percentile 0.99 xs
  let p999 xs = percentile 0.999 xs

  (* Overhead of [measured] relative to [baseline]; 1.0 means "same as
     baseline".  This is the y-axis of Figure 2. *)
  let overhead ~baseline ~measured =
    if baseline <= 0. then invalid_arg "Stats.overhead: baseline <= 0";
    measured /. baseline

  (* Ratio rounded the way the paper quotes slowdowns, e.g. "155x". *)
  let slowdown_x ~baseline ~measured =
    int_of_float (Float.round (overhead ~baseline ~measured))

  type summary = {
    label : string;
    runs : int;
    mean_cycles : float;
    mean_traps : float;
  }

  let summarize ~label deltas =
    let deltas = List.map (fun (d : delta) -> d) deltas in
    match deltas with
    | [] -> invalid_arg "Stats.summarize: no runs"
    | _ ->
      {
        label;
        runs = List.length deltas;
        mean_cycles = mean_int (List.map (fun d -> d.d_cycles) deltas);
        mean_traps = mean_int (List.map (fun d -> d.d_traps) deltas);
      }

  let pp_summary ppf s =
    Fmt.pf ppf "%-28s %12.0f cycles %8.1f traps (%d runs)" s.label s.mean_cycles
      s.mean_traps s.runs
end
