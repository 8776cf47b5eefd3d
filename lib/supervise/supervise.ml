(* Deterministic watchdog supervision and self-healing recovery.

   The watchdog is a polled sweep, not a timer interrupt: the driving
   loop calls [poll] between operation batches, and every judgment is a
   comparison of meter counters against the previous sweep.  That keeps
   the whole thing deterministic — the same op sequence produces the
   same firings, the same recoveries and the same costs, byte for byte —
   which is what lets recovery behavior sit under golden tests and
   determinism digests like every other part of the simulator.

   Symptoms mirror what a fleet health-checker sees from outside a VM:
   - No_retire: the vCPU's retire counters (instructions + traps) have
     not moved for a whole window of polls.  The guest-side operations
     of a hung vCPU are no-ops, so a wedged guest looks exactly like
     this.
   - Panic_loop: UNDEF injections are climbing fast — the guest is
     stuck re-executing a faulting access (crash loop).
   - Invariant: the machine's invariant checker recorded new
     violations; state is corrupt and continuing is pointless.

   Recovery policies are typed, not callbacks, so campaigns can report
   per-policy latency distributions. *)

module Cpu = Arm.Cpu
module Machine = Hyp.Machine

type policy = Restart_from_snapshot | Kill_l2_keep_l1 | Escalate

let policy_name = function
  | Restart_from_snapshot -> "restart"
  | Kill_l2_keep_l1 -> "kill-l2"
  | Escalate -> "escalate"

let policy_of_name = function
  | "restart" -> Some Restart_from_snapshot
  | "kill-l2" -> Some Kill_l2_keep_l1
  | "escalate" -> Some Escalate
  | _ -> None

type symptom =
  | No_retire of int
  | Panic_loop of int
  | Invariant of int

let symptom_name = function
  | No_retire n -> Printf.sprintf "no-retire(%d polls)" n
  | Panic_loop n -> Printf.sprintf "panic-loop(%d undefs)" n
  | Invariant n -> Printf.sprintf "invariant(%d violations)" n

type event = {
  e_seq : int;
  e_cpu : int;
  e_symptom : symptom;
  e_policy : policy;
  e_detect_cycles : int;
  e_recover_cost : int;
  e_recovered : bool;
}

let event_line e =
  Printf.sprintf "#%d cpu%d %s -> %s @%d +%d %s" e.e_seq e.e_cpu
    (symptom_name e.e_symptom) (policy_name e.e_policy) e.e_detect_cycles
    e.e_recover_cost
    (if e.e_recovered then "recovered" else "escalated")

type config = {
  no_retire_window : int;
  panic_threshold : int;
  policy : policy;
}

let default_config =
  { no_retire_window = 3; panic_threshold = 8; policy = Restart_from_snapshot }

type t = {
  mutable machine : Machine.t;
  baseline : string;  (* the healthy state Restart_from_snapshot recovers to *)
  cfg : config;
  (* per-CPU counters as of the previous poll *)
  mutable last_insns : int array;
  mutable last_traps : int array;
  mutable last_undefs : int array;
  stalls : int array;  (* consecutive polls with no retired work *)
  mutable last_violations : int;
  mutable events : event list;  (* newest first *)
  mutable seq : int;
}

let observe_cpu m cpu =
  let meter = m.Machine.cpus.(cpu).Cpu.meter in
  ( meter.Cost.insns,
    meter.Cost.traps,
    m.Machine.hosts.(cpu).Hyp.Host_hyp.undef_injected )

(* Re-baseline every counter from the current machine: after recovery the
   old deltas are meaningless and would re-fire immediately. *)
let resync t =
  let m = t.machine in
  let n = Machine.ncpus m in
  for cpu = 0 to n - 1 do
    let insns, traps, undefs = observe_cpu m cpu in
    t.last_insns.(cpu) <- insns;
    t.last_traps.(cpu) <- traps;
    t.last_undefs.(cpu) <- undefs;
    t.stalls.(cpu) <- 0
  done;
  t.last_violations <- Machine.violation_count m

let create ?(config = default_config) (m : Machine.t) =
  let n = Machine.ncpus m in
  let t =
    {
      machine = m;
      baseline = Snap.to_string m;
      cfg = config;
      last_insns = Array.make n 0;
      last_traps = Array.make n 0;
      last_undefs = Array.make n 0;
      stalls = Array.make n 0;
      last_violations = 0;
      events = [];
      seq = 0;
    }
  in
  resync t;
  t

let machine t = t.machine

(* --- recovery actions --- *)

(* Rollback-recovery in the crash-only style: rebuild the whole machine
   from the baseline snapshot.  The restart is what un-wedges a hung
   vCPU, so hangs are cleared on the rebuilt machine; the restore cost
   is charged to the recovering CPU's meter on the new timeline. *)
let do_restart t ~cpu =
  let m' = Snap.restore t.baseline in
  for i = 0 to Machine.ncpus m' - 1 do
    Machine.clear_hung m' ~cpu:i
  done;
  let meter = m'.Machine.cpus.(cpu).Cpu.meter in
  let cost = meter.Cost.table.Cost.recover_restore in
  Cost.charge meter cost;
  t.machine <- m';
  cost

(* Graceful degradation: the nested VM dies, the guest hypervisor keeps
   running.  The forced virtual-EL2 re-entry is charged like a host
   injection. *)
let do_kill_l2 t ~cpu =
  let m = t.machine in
  Machine.kill_l2 m ~cpu;
  let meter = m.Machine.cpus.(cpu).Cpu.meter in
  let cost = meter.Cost.table.Cost.l0_inject_vel2 in
  Cost.charge meter cost;
  cost

let recover t ~cpu symptom =
  let m = t.machine in
  let detect_cycles = Machine.total_cycles m in
  (* Kill_l2 has no meaning without an L2: fall back to restart. *)
  let policy =
    match (t.cfg.policy, m.Machine.scenario) with
    | Kill_l2_keep_l1, Hyp.Host_hyp.Single_vm -> Restart_from_snapshot
    | p, _ -> p
  in
  if !Trace.on then begin
    Trace.emit ~tid:cpu ~detail:(symptom_name symptom) Trace.Watchdog_fire;
    Trace.emit ~tid:cpu ~detail:(policy_name policy) Trace.Recover_begin
  end;
  let recover_cost, recovered =
    match policy with
    | Restart_from_snapshot -> (do_restart t ~cpu, true)
    | Kill_l2_keep_l1 -> (do_kill_l2 t ~cpu, true)
    | Escalate -> (0, false)
  in
  if !Trace.on then
    Trace.emit ~tid:cpu
      ~a0:(Int64.of_int recover_cost)
      ~a1:(if recovered then 1L else 0L)
      ~detail:(policy_name policy) Trace.Recover_end;
  resync t;
  let e =
    {
      e_seq = t.seq;
      e_cpu = cpu;
      e_symptom = symptom;
      e_policy = policy;
      e_detect_cycles = detect_cycles;
      e_recover_cost = recover_cost;
      e_recovered = recovered;
    }
  in
  t.seq <- t.seq + 1;
  t.events <- e :: t.events;
  e

(* --- the watchdog sweep --- *)

let poll t =
  let m = t.machine in
  let n = Machine.ncpus m in
  (* the sweep itself costs cycles, one per vCPU examined — supervision
     is visible in the meters like everything else *)
  for cpu = 0 to n - 1 do
    let meter = m.Machine.cpus.(cpu).Cpu.meter in
    Cost.charge meter meter.Cost.table.Cost.watchdog_poll
  done;
  (* judge every vCPU against the previous sweep before recovering
     anything, so one sick vCPU's recovery cannot mask another's
     symptoms *)
  let sick = ref [] in
  let viol_delta = Machine.violation_count m - t.last_violations in
  if viol_delta > 0 then begin
    (* attribute to the CPU of the newest recorded violation, if any *)
    let cpu =
      match t.machine.Machine.violations with
      | v :: _ -> v.Fault.Invariants.v_cpu
      | [] -> 0
    in
    sick := (cpu, Invariant viol_delta) :: !sick
  end;
  for cpu = n - 1 downto 0 do
    let insns, traps, undefs = observe_cpu m cpu in
    let undef_delta = undefs - t.last_undefs.(cpu) in
    if insns = t.last_insns.(cpu) && traps = t.last_traps.(cpu) then
      t.stalls.(cpu) <- t.stalls.(cpu) + 1
    else t.stalls.(cpu) <- 0;
    t.last_insns.(cpu) <- insns;
    t.last_traps.(cpu) <- traps;
    t.last_undefs.(cpu) <- undefs;
    if undef_delta >= t.cfg.panic_threshold then
      sick := (cpu, Panic_loop undef_delta) :: !sick
    else if t.stalls.(cpu) >= t.cfg.no_retire_window then
      sick := (cpu, No_retire t.stalls.(cpu)) :: !sick
  done;
  t.last_violations <- Machine.violation_count m;
  (* recover in CPU order; a restart rebuilds the whole machine, making
     any remaining symptoms stale — stop after it *)
  let rec run_recoveries acc = function
    | [] -> List.rev acc
    | (cpu, symptom) :: rest ->
      let e = recover t ~cpu symptom in
      if e.e_policy = Restart_from_snapshot && e.e_recovered then
        List.rev (e :: acc)
      else run_recoveries (e :: acc) rest
  in
  run_recoveries [] !sick

let events t = List.rev t.events
