(* Chaos harness: the paper scenarios run under randomized fault plans.

   Every configuration of the trap-mechanism matrix gets its own
   deterministic fault plan (derived from the run seed and the
   configuration name) and a few thousand guest operations.  The
   acceptance property is not "nothing went wrong" — faults are the
   point — but "everything that went wrong was architectural": the
   machine recovers (injected UNDEF, reflected fault, re-delivered
   interrupt) or reports a typed invariant violation with cpu/EL/PC
   context.  An anonymous OCaml exception is a failure of the simulator,
   and the harness surfaces it as such. *)

module Machine = Hyp.Machine
module Config = Hyp.Config

type config_report = {
  cr_name : string;
  cr_seed : int;
  cr_ops : int;
  cr_traps : int;
  cr_injected : (Fault.Plan.kind * int) list;
  cr_undefs : int;          (* UNDEFs injected into guests *)
  cr_sim_faults : int;      (* typed Sim_fault aborts (simulator bugs) *)
  cr_violations : int;      (* invariant violations, live + final sweep *)
  cr_violation_sample : string list;
  cr_crashes : string list; (* anonymous exceptions — must stay empty *)
  cr_timed_out : bool;      (* the sim-cycle budget expired first *)
}

type report = {
  r_seed : int;
  r_faults : int;
  r_trap_budget : int;
  r_configs : config_report list;
}

let crashes r = List.concat_map (fun c -> c.cr_crashes) r.r_configs
let timed_out r = List.exists (fun c -> c.cr_timed_out) r.r_configs

let violation_sample_cap = 5

(* The scenario matrix: the plain-VM baseline, the paper's four nested
   hardware configurations, their paravirtualized twins, and a GICv2
   machine so the memory-mapped vGIC path runs under fire too. *)
let scenarios =
  ("vm", Config.v Config.Hw_v8_3, Hyp.Host_hyp.Single_vm)
  :: List.map
       (fun cfg -> (Config.name cfg, cfg, Hyp.Host_hyp.Nested))
       (Config.all_nested
       @ [
           Config.v Config.Pv_v8_3;
           Config.v Config.Pv_neve;
           Config.v ~gicv2:true Config.Hw_v8_3;
         ])

(* One guest operation, chosen by the plan's PRNG.  IPIs and device
   interrupts are acknowledged and completed so list registers drain. *)
let one_op rng m ~ncpus =
  let cpu = Fault.Plan.Rng.int rng ncpus in
  match Fault.Plan.Rng.int rng 7 with
  | 0 -> Machine.hypercall m ~cpu
  | 1 ->
    Machine.mmio_access m ~cpu ~addr:0x0900_0000L
      ~is_write:(Fault.Plan.Rng.bool rng)
  | 2 ->
    let target = (cpu + 1) mod ncpus in
    Machine.send_ipi m ~cpu ~target ~intid:7;
    (match Machine.vm_ack m ~cpu:target with
     | Some vintid -> ignore (Machine.vm_eoi m ~cpu:target ~vintid)
     | None -> ())
  | 3 ->
    Machine.device_irq m ~cpu ~intid:Gic.Irq.virtio_net_spi;
    (match Machine.vm_ack m ~cpu with
     | Some vintid -> ignore (Machine.vm_eoi m ~cpu ~vintid)
     | None -> ())
  | 4 ->
    Machine.data_abort m ~cpu ~addr:0x4000_0000L
      ~is_write:(Fault.Plan.Rng.bool rng)
  | 5 -> Machine.compute m ~cpu ~insns:(50 + Fault.Plan.Rng.int rng 200)
  | _ -> (
    match Machine.vm_ack m ~cpu with
    | Some vintid -> ignore (Machine.vm_eoi m ~cpu ~vintid)
    | None -> ())

let run_config ~seed ~faults ~trap_budget ~max_cycles (name, config, scenario) =
  (* a per-configuration seed, stable across runs and runtimes *)
  let cseed = seed lxor Shard.fnv1a_32 name in
  let plan = Fault.Plan.make ~seed:cseed ~faults ~horizon:trap_budget in
  let rng = Fault.Plan.Rng.make (cseed lxor 0x5eed) in
  let ncpus = 2 in
  let sim_faults = ref 0 and crashes = ref [] and ops = ref 0 in
  let m =
    Machine.create ~fault_plan:plan ~check_invariants:true ~ncpus config
      scenario
  in
  Machine.boot m;
  (* a deterministic sim-cycle budget: 0 disables the check *)
  let within_cycles () =
    max_cycles = 0 || Machine.total_cycles m < max_cycles
  in
  while
    Machine.total_traps m < trap_budget
    && !ops < trap_budget * 2
    && within_cycles ()
  do
    incr ops;
    try one_op rng m ~ncpus with
    | Fault.Error.Sim_fault _ -> incr sim_faults
    | Stack_overflow as e -> raise e
    | e -> crashes := Printexc.to_string e :: !crashes
  done;
  let timed_out = not (within_cycles ()) in
  let final_sweep = Machine.check_invariants m in
  let live = Machine.violations m in
  let sample =
    List.filteri
      (fun i _ -> i < violation_sample_cap)
      (List.map Fault.Invariants.to_string (live @ final_sweep))
  in
  {
    cr_name = name;
    cr_seed = cseed;
    cr_ops = !ops;
    cr_traps = Machine.total_traps m;
    cr_injected = Fault.Plan.injected_counts plan;
    cr_undefs = Machine.undef_injections m;
    cr_sim_faults = !sim_faults;
    cr_violations =
      Machine.violation_count m + List.length final_sweep;
    cr_violation_sample = sample;
    cr_crashes = List.rev !crashes;
    cr_timed_out = timed_out;
  }

let run ?(seed = 42) ?(faults = 24) ?(traps = 10_000) ?(max_cycles = 0)
    ?(shards = 1) () =
  (* per-configuration seeds come from the configuration *name*, never
     from a shared stream, so fanning the matrix out over shards returns
     the exact report the serial loop produces: Shard.map fills slot i
     with configuration i's report and the fold below is in slot order *)
  let scens = Array.of_list scenarios in
  let reports =
    Shard.map ~shards ~jobs:(Array.length scens) (fun i ->
        run_config ~seed ~faults ~trap_budget:traps ~max_cycles scens.(i))
  in
  {
    r_seed = seed;
    r_faults = faults;
    r_trap_budget = traps;
    r_configs = Array.to_list reports;
  }

let pp_config_report ppf c =
  Fmt.pf ppf "%-28s seed=%-11d ops=%-6d traps=%-6d undef=%-3d violations=%-4d"
    c.cr_name c.cr_seed c.cr_ops c.cr_traps c.cr_undefs c.cr_violations;
  let fired =
    List.filter_map
      (fun (k, n) ->
        if n = 0 then None
        else Some (Printf.sprintf "%s:%d" (Fault.Plan.kind_name k) n))
      c.cr_injected
  in
  if fired <> [] then Fmt.pf ppf " injected=[%s]" (String.concat " " fired);
  if c.cr_timed_out then Fmt.pf ppf " TIMED-OUT";
  if c.cr_sim_faults > 0 then Fmt.pf ppf " SIM-FAULTS=%d" c.cr_sim_faults;
  List.iter (fun v -> Fmt.pf ppf "@,  violation: %s" v) c.cr_violation_sample;
  List.iter (fun e -> Fmt.pf ppf "@,  CRASH: %s" e) c.cr_crashes

let pp_report ppf r =
  Fmt.pf ppf "@[<v>chaos: seed=%d faults=%d trap-budget=%d@,%a@,%s@]"
    r.r_seed r.r_faults r.r_trap_budget
    (Fmt.list ~sep:Fmt.cut pp_config_report)
    r.r_configs
    (match crashes r with
     | [] -> "result: no anonymous crashes"
     | l -> Printf.sprintf "result: %d ANONYMOUS CRASH(ES)" (List.length l))
