(* The recovery campaign behind [neve_sim recover].

   Three fault families — physical SErrors, wedged vCPUs and
   mid-migration transfer-stream failures — injected at fixed seeds into
   each of the five ARM configurations, each expected to end in a
   recovered machine:

   - serror: a physical SError is raised to the host mid-run (through
     the real EC_serror handler path).  L0 must contain it, pend a
     virtual SError (HCR_EL2.VSE + VSESR_EL2) and deliver it into the
     guest at the next operation boundary.  Recovery here is the error
     virtualization itself; latency is inject-to-delivery.
   - hang: a vCPU stops retiring.  The {!Supervise} watchdog must detect
     the no-retire window and run the configured policy (restart from
     snapshot, or kill-L2 on nested configurations); latency is
     inject-to-detection plus the recovery action's charged cost.
   - mig-stream: a live migration whose transfer stream fails at
     injected points.  {!Snap.Migrate.resilient} must roll the source
     back byte-identically, back off and retry until an attempt
     completes with a byte-identical destination; latency is the total
     backoff.

   Every scenario runs traced, and the campaign checks the tracer's
   class sums against the meters' trap counts across the whole
   fault-and-recovery cycle — including the traps that recoveries rewind
   by restoring older meters (restart recoveries and migration
   rollbacks), which the scenario drivers add back explicitly.  The
   whole report is a function of the seed alone: same seed, same bytes,
   which is what the determinism digest asserts. *)

module Machine = Hyp.Machine
module Config = Hyp.Config
module Cpu = Arm.Cpu
module Exn = Arm.Exn

type scenario_report = {
  sr_config : string;
  sr_fault : string;  (* "serror" | "hang" | "mig-stream" *)
  sr_mechanism : string;
  sr_recovered : bool;
  sr_detect_cycles : int;
  sr_recover_cycles : int;
  sr_trace_ok : bool;
  sr_detail : string;
}

type report = {
  rc_seed : int;
  rc_policy : Supervise.policy;
  rc_scenarios : scenario_report list;
}

let recovered_all r = List.for_all (fun s -> s.sr_recovered) r.rc_scenarios
let trace_ok r = List.for_all (fun s -> s.sr_trace_ok) r.rc_scenarios

(* The five ARM configurations of the paper's tables: the plain-VM
   baseline and the four nested mechanisms. *)
let scenarios =
  ("vm", Config.v Config.Hw_v8_3, Hyp.Host_hyp.Single_vm)
  :: List.map
       (fun cfg -> (Config.name cfg, cfg, Hyp.Host_hyp.Nested))
       Config.all_nested

let make (_, config, scenario) =
  let m = Machine.create ~check_invariants:true ~ncpus:2 config scenario in
  Machine.boot m;
  m

(* a deterministic guest op mix: two traps and some computation *)
let drive m ~cpu n =
  for _ = 1 to n do
    Machine.hypercall m ~cpu;
    Machine.compute m ~cpu ~insns:32;
    Machine.mmio_access m ~cpu ~addr:0x0900_0000L ~is_write:true
  done

(* --- serror: physical SError -> containment -> virtual injection --- *)

let run_serror ~seed ((name, _, _) as sc) =
  let m = make sc in
  drive m ~cpu:0 2;
  Trace.enable ~capacity:65536 ();
  let t0 = Machine.total_traps m in
  let inject_cycle = Machine.total_cycles m in
  (* the physical error, through the same chokepoints a hardware RAS
     report would take: one recorded trap, then the EC_serror handler *)
  let c = m.Machine.cpus.(0) in
  Cpu.record_trap c ~detail:"ras-serror" Cost.Trap_serror;
  Cpu.exception_entry c
    {
      Exn.target = Arm.Pstate.EL2;
      ec = Exn.EC_serror;
      iss = 0x11 lor ((seed lxor Shard.fnv1a_32 name) land 0x3f lsl 8);
    };
  let contained = Machine.serror_containments m = 1 in
  (* asynchronous delivery: the virtual SError lands at an operation
     boundary, not instantly *)
  let budget = ref 64 in
  while Machine.serror_injections m = 0 && !budget > 0 do
    decr budget;
    Machine.compute m ~cpu:0 ~insns:8
  done;
  let delivered = Machine.serror_injections m = 1 in
  let deliver_cycle = Machine.total_cycles m in
  drive m ~cpu:0 1 (* the guest keeps running after taking the SError *);
  let expected = Machine.total_traps m - t0 in
  let tr_ok = Trace.class_total () = expected in
  Trace.detach ();
  {
    sr_config = name;
    sr_fault = "serror";
    sr_mechanism = "contain+vinject";
    sr_recovered = contained && delivered && not (Machine.serror_pending m ~cpu:0);
    sr_detect_cycles = deliver_cycle - inject_cycle;
    sr_recover_cycles = c.Cpu.meter.Cost.table.Cost.serror_delivery;
    sr_trace_ok = tr_ok;
    sr_detail =
      Printf.sprintf "contained=%d delivered=%d" (Machine.serror_containments m)
        (Machine.serror_injections m);
  }

(* --- hang: no-retire watchdog -> restart / kill-L2 --- *)

let run_hang ~policy ((name, _, scenario) as sc) =
  let m = make sc in
  drive m ~cpu:0 2;
  drive m ~cpu:1 2;
  (* baseline for Restart_from_snapshot is this healthy, pre-hang state *)
  let sup =
    Supervise.create ~config:{ Supervise.default_config with policy } m
  in
  Trace.enable ~capacity:65536 ();
  let t0 = Machine.total_traps m in
  let rewound = ref 0 in
  let inject_cycle = Machine.total_cycles m in
  Machine.hang m ~cpu:1;
  let fired = ref None in
  let batches = ref 16 in
  while !fired = None && !batches > 0 do
    decr batches;
    let cur = Supervise.machine sup in
    drive cur ~cpu:0 1;
    drive cur ~cpu:1 1 (* no-ops while cpu1 is wedged *);
    let t_pre = Machine.total_traps cur in
    (match Supervise.poll sup with
     | e :: _ -> fired := Some e
     | [] -> ());
    (* a restart recovery swapped in a machine with rolled-back meters;
       the traps of the abandoned timeline stay in the trace *)
    let cur' = Supervise.machine sup in
    if cur' != cur then rewound := !rewound + (t_pre - Machine.total_traps cur')
  done;
  (* the proof of recovery: the wedged vCPU retires work again *)
  let m' = Supervise.machine sup in
  let insns_before = m'.Machine.cpus.(1).Cpu.meter.Cost.insns in
  drive m' ~cpu:1 1;
  let alive = m'.Machine.cpus.(1).Cpu.meter.Cost.insns > insns_before in
  let expected = Machine.total_traps m' - t0 + !rewound in
  let tr_ok = Trace.class_total () = expected in
  Trace.detach ();
  let e = !fired in
  let applied =
    match e with
    | Some e -> Supervise.policy_name e.Supervise.e_policy
    | None -> "none"
  in
  {
    sr_config = name;
    sr_fault = "hang";
    sr_mechanism = applied;
    sr_recovered =
      (match e with Some e -> e.Supervise.e_recovered | None -> false)
      && alive
      && not (Machine.is_hung m' ~cpu:1);
    sr_detect_cycles =
      (match e with
       | Some e -> e.Supervise.e_detect_cycles - inject_cycle
       | None -> 0);
    sr_recover_cycles =
      (match e with Some e -> e.Supervise.e_recover_cost | None -> 0);
    sr_trace_ok = tr_ok;
    sr_detail =
      Printf.sprintf "scenario=%s symptom=%s"
        (Hyp.Host_hyp.scenario_name scenario)
        (match e with
         | Some e -> Supervise.symptom_name e.Supervise.e_symptom
         | None -> "none");
  }

(* --- mig-stream: abort, roll back, back off, retry --- *)

let run_mig ~seed ((name, _, _) as sc) =
  let src = make sc in
  drive src ~cpu:0 4;
  Trace.enable ~capacity:65536 ();
  let t0 = Machine.total_traps src in
  let workload m ~round =
    if round < 2 then begin
      Machine.hypercall m ~cpu:0;
      for i = 0 to 5 do
        Arm.Memory.write64 m.Machine.mem
          (Int64.of_int (0x7800_0000 + (4096 * i) + (8 * round)))
          (Int64.of_int (round + i + 1))
      done
    end
  in
  let src', dst, rr =
    Snap.Migrate.resilient ~max_retries:8 ~fail_rate:20
      ~fail_seed:(seed lxor Shard.fnv1a_32 name)
      ~workload src
  in
  let dst_identical =
    match dst with Some d -> Snap.diff src' d = None | None -> false
  in
  let expected =
    Machine.total_traps src' - t0 + rr.Snap.Migrate.rr_rewound_traps
  in
  let tr_ok = Trace.class_total () = expected in
  Trace.detach ();
  {
    sr_config = name;
    sr_fault = "mig-stream";
    sr_mechanism = "rollback-retry";
    sr_recovered =
      dst_identical
      && rr.Snap.Migrate.rr_rollbacks_clean
      && rr.Snap.Migrate.rr_report <> None;
    sr_detect_cycles = 0;
    sr_recover_cycles =
      List.fold_left ( + ) 0 rr.Snap.Migrate.rr_backoffs;
    sr_trace_ok = tr_ok;
    sr_detail =
      Printf.sprintf "attempts=%d aborts=%d rollbacks=%s"
        rr.Snap.Migrate.rr_attempts
        (List.length rr.Snap.Migrate.rr_aborts)
        (if rr.Snap.Migrate.rr_rollbacks_clean then "clean" else "DIRTY");
  }

let run ?(seed = 42) ?(policy = Supervise.Restart_from_snapshot) ?(shards = 1)
    () =
  let was_tracing = Trace.is_on () in
  (* the campaign flattened: scenario i/3, fault family i mod 3 — the
     same order the serial concat_map produced.  Per-scenario seeds are
     pinned to configuration names and every body traces into its own
     domain's sink (standing down with [detach], so a worker can't
     silence a sibling), which is why sharding the campaign cannot
     change a byte of the report. *)
  let scens = Array.of_list scenarios in
  let jobs = 3 * Array.length scens in
  let results =
    Shard.map ~shards ~jobs (fun i ->
        let sc = scens.(i / 3) in
        match i mod 3 with
        | 0 -> run_serror ~seed sc
        | 1 -> run_hang ~policy sc
        | _ -> run_mig ~seed sc)
  in
  if not was_tracing then Trace.disable ();
  { rc_seed = seed; rc_policy = policy; rc_scenarios = Array.to_list results }

(* --- reporting --- *)

let pp_scenario ppf s =
  Fmt.pf ppf "%-12s %-10s %-15s detect=%-6d recover=%-6d %s %s  %s"
    s.sr_config s.sr_fault s.sr_mechanism s.sr_detect_cycles
    s.sr_recover_cycles
    (if s.sr_recovered then "recovered" else "FAILED")
    (if s.sr_trace_ok then "trace-ok" else "TRACE-MISMATCH")
    s.sr_detail

let pp_report ppf r =
  let n = List.length r.rc_scenarios in
  let rec_n = List.length (List.filter (fun s -> s.sr_recovered) r.rc_scenarios) in
  Fmt.pf ppf "@[<v>recover: seed=%d policy=%s@,%a@,result: %d/%d recovered%s@]"
    r.rc_seed
    (Supervise.policy_name r.rc_policy)
    (Fmt.list ~sep:Fmt.cut pp_scenario)
    r.rc_scenarios rec_n n
    (if trace_ok r then ", trace class sums match the meters"
     else "; TRACE-METER MISMATCH")

let digest r = Digest.to_hex (Digest.string (Fmt.str "%a" pp_report r))
