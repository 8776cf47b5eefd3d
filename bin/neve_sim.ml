(* neve_sim: command-line driver regenerating every table and figure of the
   paper, plus analysis tools.

   Subcommands:
     table1    microbenchmark cycle counts, ARMv8.3 + x86 (paper Table 1)
     table6    microbenchmark cycle counts incl. NEVE (paper Table 6)
     table7    microbenchmark average trap counts (paper Table 7)
     fig2      application benchmark overheads (paper Figure 2)
     traps     every trap of one nested hypercall, classified
     classify  the NEVE register classification (paper Tables 3/4/5)
     validate  trap-cost interchangeability measurement (paper Section 5)
     paper     Tables 1/6/7, Figure 2, Section 5, ablation, recursion, live
               migration, scaling, RISC-V and the paper comparison, in one run
     chaos     fault-injection campaign over the scenario matrix
     fuzz      differential conformance fuzzing
     trace     exit-attribution tracing with class-sum checking
     snapshot/restore/migrate  serialization and live migration
     recover   SError + watchdog + migration-retry recovery campaign
     fleet     sharded multi-domain fleet with byte-deterministic merge

   Exit statuses are shared across subcommands (Workloads.Exit_code):
   0 success, 1 detected fault, 2 sim-cycle budget timeout.  The same
   table is documented in the README and each subcommand's EXIT STATUS
   man section; a test greps the rendered help against the README. *)

open Cmdliner

let fault_exit = Workloads.Exit_code.fault
let timeout_exit = Workloads.Exit_code.timeout

(* every subcommand's EXIT STATUS section documents the shared codes *)
let fault_exits =
  Cmd.Exit.info fault_exit ~doc:Workloads.Exit_code.fault_doc
  :: Cmd.Exit.defaults

let budget_exits =
  Cmd.Exit.info fault_exit ~doc:Workloads.Exit_code.fault_doc
  :: Cmd.Exit.info timeout_exit ~doc:Workloads.Exit_code.timeout_doc
  :: Cmd.Exit.defaults

(* report a detected fault on stderr and exit with its status *)
let fail fmt = Fmt.kpf (fun _ -> exit fault_exit) Fmt.stderr (fmt ^^ "@.")

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Enable hypervisor debug logging." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

(* -v, for the commands that drive hypervisors: sets up logging before
   the command body runs *)
let logs = Term.(const setup_logs $ verbose_arg)

let seed_arg ?(default = 42) doc =
  Arg.(value & opt int default & info [ "seed"; "s" ] ~doc)

(* the [--json] flag of the report-printing campaigns; [trace --json FILE]
   is a different option *)
let json_flag doc = Arg.(value & flag & info [ "json" ] ~doc)

(* --max-cycles of the budgeted campaigns (exit 2 when it expires) *)
let max_cycles_arg doc = Arg.(value & opt int 0 & info [ "max-cycles" ] ~doc)

(* -n of the machine-fleet commands *)
let machines_arg default doc =
  Arg.(value & opt int default & info [ "n" ] ~docv:"MACHINES" ~doc)

let default_iters = 16

let iters_arg =
  let doc = "Iterations per measurement." in
  Arg.(value & opt int default_iters & info [ "iters"; "n" ] ~doc)

(* sharding flags shared by fleet/chaos/fuzz/recover: sharded runs are
   byte-identical to serial ones, so these only change wall-clock time *)
let shards_arg =
  let doc =
    "Fan the campaign out over $(docv) strided shards on a pool of OCaml \
     domains.  Per-job seeds are position-independent and results merge \
     in job order, so the output is byte-identical whatever the shard \
     count."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"SHARDS" ~doc)

let domains_arg =
  let doc =
    "Force the domain-pool size (default: the smaller of the shard count \
     and the runtime's recommended domain count)."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"DOMAINS" ~doc)

(* --- table printers with paper-style relative overheads --- *)

(* one row per microbenchmark, one [width]-wide column per configuration *)
let print_table ~width cell = function
  | [] -> ()
  | (first : Workloads.Micro.table_row) :: _ as rows ->
    Fmt.pr "%-12s" "";
    List.iter (fun (l, _) -> Fmt.pr " %*s" width l) first.Workloads.Micro.cells;
    Fmt.pr "@.";
    List.iter
      (fun (row : Workloads.Micro.table_row) ->
        Fmt.pr "%-12s" (Workloads.Micro.name row.Workloads.Micro.row_bench);
        List.iter (cell row) row.Workloads.Micro.cells;
        Fmt.pr "@.")
      rows

let print_cycles_table rows ~show_overhead =
  let cell (row : Workloads.Micro.table_row) =
    (* the paper's relative overheads are vs the same platform's VM *)
    let vm_cycles l =
      Option.map
        (fun (r : Workloads.Micro.result) -> r.Workloads.Micro.cycles)
        (List.assoc_opt l row.Workloads.Micro.cells)
    in
    let arm_base = vm_cycles "VM" and x86_base = vm_cycles "x86 VM" in
    fun (label, (r : Workloads.Micro.result)) ->
      let base =
        if String.length label >= 3 && String.sub label 0 3 = "x86" then
          x86_base
        else arm_base
      in
      match (show_overhead, base) with
      | true, Some b when b > 0. && r.Workloads.Micro.cycles > b ->
        Fmt.pr " %12.0f (%3.0fx)" r.Workloads.Micro.cycles
          (r.Workloads.Micro.cycles /. b)
      | _ -> Fmt.pr " %12.0f       " r.Workloads.Micro.cycles
  in
  print_table ~width:20 cell rows

let print_traps_table rows =
  print_table ~width:18
    (fun _ (_, (r : Workloads.Micro.result)) ->
      Fmt.pr " %18.1f" r.Workloads.Micro.traps)
    rows

(* Table [n]: the title, then the table measured at [iters] *)
let table n title print iters =
  Fmt.pr "Table %d: %s@.@." n title;
  print iters

let table1 =
  table 1 "Microbenchmark Cycle Counts (ARMv8.3, x86)" (fun iters ->
      print_cycles_table (Workloads.Micro.table1 ~iters ()) ~show_overhead:false)

let table6 =
  table 6 "Microbenchmark Cycle Counts incl. NEVE" (fun iters ->
      print_cycles_table (Workloads.Micro.table6 ~iters ()) ~show_overhead:true)

let table7 =
  table 7 "Microbenchmark Average Trap Counts" (fun iters ->
      print_traps_table (Workloads.Micro.table7 ~iters ()))

let table_cmd n run =
  Cmd.v
    (Cmd.info (Printf.sprintf "table%d" n)
       ~doc:(Printf.sprintf "Reproduce paper Table %d" n))
    Term.(const run $ iters_arg)

let table1_cmd = table_cmd 1 table1
let table6_cmd = table_cmd 6 table6
let table7_cmd = table_cmd 7 table7

let fig2 chart =
  Fmt.pr "Figure 2: Application Benchmark Performance (overhead vs native)@.@.";
  let rows = Workloads.App_bench.figure2 () in
  if chart then Fmt.pr "%a@." Workloads.App_bench.pp_figure2_chart rows
  else Fmt.pr "%a@." Workloads.App_bench.pp_figure2 rows

let fig2_cmd =
  let chart_arg =
    let doc = "Render ASCII bars instead of a table." in
    Arg.(value & flag & info [ "chart" ] ~doc)
  in
  Cmd.v (Cmd.info "fig2" ~doc:"Reproduce paper Figure 2")
    Term.(const fig2 $ chart_arg)

let mech_conv =
  let parse = function
    | "v8.3" -> Ok Hyp.Config.Hw_v8_3
    | "v8.3-pv" -> Ok Hyp.Config.Pv_v8_3
    | "neve" -> Ok Hyp.Config.Hw_neve
    | "neve-pv" -> Ok Hyp.Config.Pv_neve
    | s -> Error (`Msg ("unknown mechanism: " ^ s))
  in
  let print ppf m = Fmt.string ppf (Hyp.Config.mechanism_name m) in
  Arg.conv (parse, print)

let mech_arg =
  let doc = "Mechanism: v8.3, v8.3-pv, neve, neve-pv." in
  Arg.(value & opt mech_conv Hyp.Config.Hw_v8_3 & info [ "mech"; "m" ] ~doc)

let vhe_arg =
  let doc = "Use a VHE guest hypervisor." in
  Arg.(value & flag & info [ "vhe" ] ~doc)

(* --mech and --vhe: the nested configuration *)
let config_term =
  Term.(
    const (fun mech vhe -> Hyp.Config.v ~guest_vhe:vhe mech)
    $ mech_arg $ vhe_arg)

let traps_cmd =
  let run () config =
    let m =
      Workloads.Scenario.make_arm (Workloads.Scenario.Arm_nested config)
    in
    (* warm up, then trace one hypercall: its traps are lane 0's Trap events *)
    Hyp.Machine.hypercall m ~cpu:0;
    Trace.enable ~capacity:65536 ();
    Hyp.Machine.hypercall m ~cpu:0;
    Trace.disable ();
    if Trace.dropped () > 0 then failwith "traps: the trace ring wrapped";
    let traps = List.filter (fun v -> v.Trace.v_kind = Trap && v.v_tid = 0) (Trace.events ()) in
    Fmt.pr "Traps to the host hypervisor for one nested hypercall (%s):@.@."
      (Hyp.Config.name config);
    List.iteri
      (fun i v -> Fmt.pr "%3d  %-14s %s@." (i + 1) v.Trace.v_cls v.v_detail)
      traps;
    Fmt.pr "@.total: %d traps@." (List.length traps)
  in
  Cmd.v
    (Cmd.info "traps"
       ~doc:"Log and classify every trap of one nested hypercall")
    Term.(const run $ logs $ config_term)

(* a command that takes no option and prints one report *)
let report_cmd name ~doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let classify_cmd =
  report_cmd "classify" ~doc:"Print the NEVE register classification"
    (fun () ->
      Fmt.pr
        "NEVE register classification (Tables 3, 4, 5; non-VHE guest view)@.@.";
      Fmt.pr "%a@." Core.Classify.pp_classification ())

(* Section 5 validation: the cost of a trap is the same whatever the
   trapping instruction — the assumption underlying the paravirtualization
   methodology. *)
let validate () =
  let cpu = Arm.Cpu.create ~features:(Arm.Features.v Arm.Features.V8_3) () in
  Arm.Cpu.poke_sysreg cpu Arm.Sysreg.HCR_EL2
    (Hyp.Config.target_hcr (Hyp.Config.v Hyp.Config.Hw_v8_3));
  cpu.Arm.Cpu.el2_handler <-
    Some (fun c _e -> Arm.Cpu.do_eret c) (* minimal handler: trap + eret *);
  cpu.Arm.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  let trap_cost insn =
    let before = cpu.Arm.Cpu.meter.Cost.cycles in
    Arm.Cpu.exec cpu insn;
    cpu.Arm.Cpu.meter.Cost.cycles - before
  in
  Fmt.pr "Section 5 validation: cost of trapping instructions@.@.";
  let cases =
    [ ("hvc #0", Arm.Insn.Hvc 0);
      ("mrs x0, HCR_EL2", Arm.Insn.Mrs (0, Arm.Sysreg.direct Arm.Sysreg.HCR_EL2));
      ("msr VTTBR_EL2, x0", Arm.Insn.Msr (Arm.Sysreg.direct Arm.Sysreg.VTTBR_EL2, Arm.Insn.Reg 0));
      ("mrs x0, ICH_VTR_EL2", Arm.Insn.Mrs (0, Arm.Sysreg.direct Arm.Sysreg.ICH_VTR_EL2));
      ("eret", Arm.Insn.Eret) ]
  in
  let costs =
    List.map
      (fun (name, insn) ->
        let c = trap_cost insn in
        Fmt.pr "  %-24s %4d cycles@." name c;
        c)
      cases
  in
  let lo = List.fold_left min max_int costs in
  let hi = List.fold_left max 0 costs in
  Fmt.pr "@.spread: %d-%d cycles (%.1f%%) — the paper found <10%%@." lo hi
    (100. *. float_of_int (hi - lo) /. float_of_int hi)

let validate_cmd =
  report_cmd "validate"
    ~doc:"Validate trap-cost interchangeability (Section 5)" validate

let ablation vhe =
  Fmt.pr "Ablation: contribution of each NEVE mechanism (nested hypercall%s)@.@."
    (if vhe then ", VHE" else "");
  Fmt.pr "%a@." Workloads.Ablation.pp (Workloads.Ablation.run ~vhe ())

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Disable NEVE mechanisms independently and measure traps")
    Term.(const ablation $ vhe_arg)

let recursive () =
  Fmt.pr "Recursive virtualization (Section 6.2): L3 hypercall costs@.@.";
  Fmt.pr "%a@." Workloads.Recursive.pp (Workloads.Recursive.run ())

let recursive_cmd =
  report_cmd "recursive"
    ~doc:"Measure an L3 hypercall through a four-level stack" recursive

let sweep () =
  Fmt.pr "Register-list scaling: traps per save+restore of n registers@.@.";
  Fmt.pr "%a@." Workloads.Sweep.pp (Workloads.Sweep.run ())

let sweep_cmd =
  report_cmd "sweep" ~doc:"Trap counts vs context size, per mechanism" sweep

let riscv () =
  Fmt.pr
    "RISC-V counterpoint (Section 8): nested exit cost on the H-extension@.@.";
  Fmt.pr "%a" Riscv.Nested.pp (Riscv.Nested.run ());
  Fmt.pr
    "@.ARM for comparison: 121 traps (v8.3) / 13 (NEVE) per nested \
     hypercall.@.";
  Fmt.pr "RISC-V's built-in s*->vs* aliasing starts it where ARM needed VHE;@.";
  Fmt.pr "a VNCR-like deferral would finish the job.@."

let riscv_cmd =
  report_cmd "riscv" ~doc:"The RISC-V H-extension counterpoint experiment"
    riscv

let paper_vs_measured () =
  Fmt.pr "Paper vs measured (cycle counts, Tables 1/6)@.@.";
  Fmt.pr "%a" Workloads.Compare.pp (Workloads.Compare.cycles ());
  Fmt.pr "@.Paper vs measured (trap counts, Table 7)@.@.";
  Fmt.pr "%a" Workloads.Compare.pp (Workloads.Compare.traps ())

let compare_cmd =
  report_cmd "compare"
    ~doc:"Measure everything and report deviations from the paper"
    paper_vs_measured

let chaos_cmd =
  let faults_arg =
    let doc = "Fault events scheduled per configuration." in
    Arg.(value & opt int 24 & info [ "faults"; "f" ] ~doc)
  in
  let traps_arg =
    let doc = "Trap budget per configuration." in
    Arg.(value & opt int 10_000 & info [ "traps"; "t" ] ~doc)
  in
  let max_cycles_arg =
    max_cycles_arg
      "Deterministic sim-cycle budget per configuration; 0 disables.  \
       Unlike a wall-clock budget this is part of the run's identity: \
       same seed and budget, same truncation, byte-identical report.  A \
       budgeted-out run exits with the timeout status."
  in
  let run () seed faults traps max_cycles shards domains =
    let report =
      Workloads.Chaos.run ~seed ~faults ~traps ~max_cycles ~shards ?domains ()
    in
    Fmt.pr "%a@." Workloads.Chaos.pp_report report;
    if Workloads.Chaos.crashes report <> [] then exit fault_exit;
    if Workloads.Chaos.timed_out report then exit timeout_exit
  in
  Cmd.v
    (Cmd.info "chaos" ~exits:budget_exits
       ~doc:
         "Run every scenario under deterministic fault injection and \
          invariant checking; exit nonzero on any anonymous crash")
    Term.(
      const run $ logs
      $ seed_arg "PRNG seed for the fault plans (same seed, same report)."
      $ faults_arg $ traps_arg $ max_cycles_arg $ shards_arg $ domains_arg)

(* --- exit-attribution tracing --- *)

(* Run the microbenchmark suite traced under each ARM configuration and
   print the per-exit-class trap breakdown (the Table 7 taxonomy).  The
   tracer's class counters must sum to exactly the trap total the cost
   meters measured over the same window — [Cost.record_trap] is the one
   chokepoint both go through — so a mismatch is a simulator bug and the
   command exits nonzero. *)
let trace_cmd =
  let chrome_arg =
    let doc = "Write Chrome trace-event JSON (chrome://tracing) to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let json_arg =
    let doc = "Write aggregate metrics JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run () iters chrome json =
    let arm_cols =
      Workloads.Micro.arm_columns_table1 @ Workloads.Micro.arm_columns_neve
    in
    let benches = Workloads.Micro.all in
    let sample (name, col) =
      let m = Workloads.Scenario.make_arm col in
      (* warm up untraced so boot and first-touch traps stay out of the
         attribution window *)
      List.iter (fun b -> Workloads.Micro.arm_op m b ()) benches;
      Trace.enable ~capacity:65536 ();
      let meters =
        Array.to_list
          (Array.map
             (fun (c : Arm.Cpu.t) -> c.Arm.Cpu.meter)
             m.Hyp.Machine.cpus)
      in
      let snaps = List.map Cost.snapshot meters in
      for _ = 1 to iters do
        List.iter (fun b -> Workloads.Micro.arm_op m b ()) benches
      done;
      let meter_traps =
        List.fold_left2
          (fun acc meter snap ->
            acc + (Cost.delta_since meter snap).Cost.d_traps)
          0 meters snaps
      in
      let counts = Trace.class_counts () in
      let total = Trace.class_total () in
      let events = Trace.events () in
      let drops = Trace.dropped () in
      Trace.disable ();
      (name, counts, total, meter_traps, events, drops)
    in
    let rows = List.map sample arm_cols in
    (* the breakdown table: one row per exit class, one column per config *)
    let classes =
      List.sort_uniq compare
        (List.concat_map (fun (_, counts, _, _, _, _) -> List.map fst counts)
           rows)
    in
    Fmt.pr "Exit attribution: traps per class, %d iterations of %d \
            microbenchmarks@.@."
      iters (List.length benches);
    Fmt.pr "%-14s" "";
    List.iter (fun (name, _, _, _, _, _) -> Fmt.pr " %18s" name) rows;
    Fmt.pr "@.";
    List.iter
      (fun cls ->
        Fmt.pr "%-14s" cls;
        List.iter
          (fun (_, counts, _, _, _, _) ->
            Fmt.pr " %18d"
              (Option.value ~default:0 (List.assoc_opt cls counts)))
          rows;
        Fmt.pr "@.")
      classes;
    Fmt.pr "%-14s" "total";
    List.iter (fun (_, _, total, _, _, _) -> Fmt.pr " %18d" total) rows;
    Fmt.pr "@.@.";
    let ok = ref true in
    List.iter
      (fun (name, _, total, meter_traps, _, drops) ->
        if total <> meter_traps then begin
          ok := false;
          Fmt.epr
            "MISMATCH %s: class counters sum to %d, meters counted %d \
             traps@."
            name total meter_traps
        end
        else
          Fmt.pr "%-22s %6d traps, class sums match%s@." name total
            (if drops > 0 then
               Printf.sprintf " (ring wrapped, %d events dropped)" drops
             else ""))
      rows;
    let write path report =
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc (Json.to_string (report ()));
          close_out oc;
          Fmt.pr "wrote %s@." path)
        path
    in
    write chrome (fun () ->
        Trace.chrome_json
          (List.map (fun (name, _, _, _, events, _) -> (name, events)) rows));
    write json (fun () ->
        Trace.metrics_json
          ~extra:[ ("iters", iters); ("benches", List.length benches) ]
          (List.map
             (fun (name, counts, _, meter_traps, _, _) ->
               (name, counts, meter_traps))
             rows));
    if not !ok then exit fault_exit
  in
  Cmd.v
    (Cmd.info "trace" ~exits:fault_exits
       ~doc:
         "Trace the microbenchmark suite under every ARM configuration, \
          print the per-exit-class trap breakdown, and check it sums to \
          the meters' trap totals; optionally export Chrome trace-event \
          and metrics JSON")
    Term.(const run $ logs $ iters_arg $ chrome_arg $ json_arg)

let fuzz_cmd =
  let n_arg =
    let doc = "Number of programs to generate and check." in
    Arg.(value & opt int 1000 & info [ "iterations"; "n" ] ~doc)
  in
  let max_seconds_arg =
    let doc =
      "Wall-clock budget in seconds; 0 disables.  A budget can truncate \
       the program count, so budgeted runs are only seed-deterministic \
       in what they report per program, not in how many they reach."
    in
    Arg.(value & opt float 0.0 & info [ "max-seconds"; "t" ] ~doc)
  in
  let corpus_arg =
    let doc =
      "Directory for minimized divergence repros (created if missing)."
    in
    Arg.(value & opt string "test/corpus" & info [ "corpus-dir" ] ~doc)
  in
  let trace_arg =
    let doc =
      "Replay each minimized divergence with event tracing enabled and \
       print the reference and disagreeing columns' event streams side \
       by side."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let snap_oracle_arg =
    let doc =
      "Also run each column's snapshot-at-k/restore/resume twin and \
       report any difference from the uninterrupted run — trap counts \
       included — as a divergence (the restore-equivalence oracle)."
    in
    Arg.(value & flag & info [ "snap-oracle" ] ~doc)
  in
  let max_cycles_arg =
    max_cycles_arg
      "Deterministic sim-cycle budget summed across every column run; 0 \
       disables.  Unlike $(b,--max-seconds) the truncation point is part \
       of the campaign's identity: same seed and budget, byte-identical \
       report.  A budgeted-out run exits with the timeout status."
  in
  let smp_arg =
    let doc =
      "Run the multi-vCPU SMP campaign instead of the instruction-stream \
       oracle: seed-derived programs of remaps racing readers, staged \
       break-before-make sequences and SGI storms on every column, \
       checking the architectural observation streams match and the \
       shootdown/BBM invariants hold (no stale translation after a \
       completed shootdown, break-before-make ordering respected).  \
       Exits nonzero on any divergence or invariant violation."
    in
    Arg.(value & flag & info [ "smp" ] ~doc)
  in
  let smp_ops_arg =
    let doc = "Operations per program in the SMP campaign." in
    Arg.(value & opt int Fuzz.Smp.default_ops & info [ "smp-ops" ] ~doc)
  in
  let run () seed n max_seconds max_cycles json corpus_dir traced snap_oracle
      smp smp_ops shards domains =
    if smp then begin
      let r = Fuzz.Smp.run ~ops:smp_ops ~seed ~n () in
      if json then print_endline (Json.to_string (Fuzz.Smp.json r))
      else Fmt.pr "%a@." Fuzz.Smp.pp_report r;
      if Fuzz.Smp.finding_count r > 0 then exit fault_exit;
      exit 0
    end;
    if shards > 1 && (max_seconds > 0.0 || max_cycles <> 0) then begin
      Fmt.epr
        "neve_sim fuzz: --shards > 1 cannot be combined with a budget \
         (--max-seconds / --max-cycles): a parallel campaign has no \
         well-defined truncation point@.";
      exit Cmd.Exit.cli_error
    end;
    let should_stop =
      if max_seconds <= 0.0 then fun () -> false
      else begin
        let deadline = Unix.gettimeofday () +. max_seconds in
        fun () -> Unix.gettimeofday () > deadline
      end
    in
    if not (Sys.file_exists corpus_dir) then Unix.mkdir corpus_dir 0o755;
    let stats =
      Fuzz.Campaign.run ~should_stop ~corpus_dir ~traced ~snap_oracle
        ~max_cycles ~shards ?domains ~seed ~n ()
    in
    if json then print_endline (Json.to_string (Fuzz.Campaign.json stats))
    else Fmt.pr "%a@." Fuzz.Campaign.pp_stats stats;
    if Fuzz.Campaign.divergence_count stats > 0 then exit fault_exit;
    if stats.Fuzz.Campaign.s_timed_out then exit timeout_exit
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits:budget_exits
       ~doc:
         "Differential conformance fuzzing: random guest-hypervisor \
          programs run under every nested ARM column (trap-and-emulate, \
          NEVE, and their paravirtualized twins); exit nonzero on any \
          architectural divergence or trap-ordering violation, writing a \
          minimized repro into the corpus directory")
    Term.(
      const run $ logs
      $ seed_arg ~default:0 "Generator seed (same seed, byte-identical report)."
      $ n_arg $ max_seconds_arg $ max_cycles_arg
      $ json_flag "Emit deterministic JSON stats instead of the text report."
      $ corpus_arg $ trace_arg $ snap_oracle_arg $ smp_arg $ smp_ops_arg
      $ shards_arg $ domains_arg)

(* --- snapshot / restore / live migration --- *)

let single_vm_arg =
  let doc = "Use a plain (non-nested) VM instead of a nested guest." in
  Arg.(value & flag & info [ "single-vm" ] ~doc)

(* --mech, --vhe and --single-vm: the machine snapshot/migrate build *)
let column_term =
  Term.(
    const (fun config single_vm ->
        if single_vm then Workloads.Scenario.Arm_vm
        else Workloads.Scenario.Arm_nested config)
    $ config_term $ single_vm_arg)

(* --expose, shared by every machine-building subcommand that takes it.
   Parsed from a plain string when the term is evaluated (not an
   Arg.conv, which would exit with cmdliner's 124) so an unknown feature
   name lands on the unified detected-fault status.  Commands put this
   term last: cmdliner converts arguments in term order, so a rejected
   value of any other option still exits 124 first. *)
let expose_arg =
  let doc =
    "Comma-separated OoH feature grants L0 hands the guest hypervisor at \
     machine creation: $(b,dirty-log) (trap-free dirty-page capture \
     during live migration), $(b,timer) (direct CNTHP/CNTHV/CNTVOFF \
     programming), $(b,gic-lrs) (direct vGIC list-register writes), or \
     $(b,none).  Granted facilities never trap to L0 while the guest \
     hypervisor runs in virtual EL2; everything else keeps the \
     configured mechanism's path.  An unknown feature name exits with \
     the detected-fault status."
  in
  Arg.(value & opt string "none" & info [ "expose" ] ~docv:"FEATURES" ~doc)

let parse_expose s =
  match Expose.Policy.parse s with
  | Ok p -> p
  | Error msg -> fail "neve_sim: --expose: %s" msg

let expose_term = Term.(const parse_expose $ expose_arg)

(* EXIT STATUS for subcommands carrying --expose: same unified codes,
   with the rejection case called out *)
let expose_exits =
  Cmd.Exit.info fault_exit
    ~doc:
      (Workloads.Exit_code.fault_doc
     ^ " An unknown $(b,--expose) feature name is such a fault.")
  :: Cmd.Exit.defaults

(* a deterministic guest-side warm-up touching traps, computation and
   device emulation, so snapshots carry non-trivial state *)
let drive m n =
  for _ = 1 to n do
    Hyp.Machine.hypercall m ~cpu:0;
    Hyp.Machine.compute m ~cpu:0 ~insns:32;
    Hyp.Machine.mmio_access m ~cpu:0 ~addr:0x0a00_0000L ~is_write:true
  done

let print_machine_summary m =
  let meter = m.Hyp.Machine.cpus.(0).Arm.Cpu.meter in
  Fmt.pr "  config    %s@." (Hyp.Config.name m.Hyp.Machine.config);
  Fmt.pr "  scenario  %s@." (Hyp.Host_hyp.scenario_name m.Hyp.Machine.scenario);
  Fmt.pr "  cpus      %d@." (Hyp.Machine.ncpus m);
  Fmt.pr "  cycles    %d   insns %d   traps %d@." meter.Cost.cycles
    meter.Cost.insns meter.Cost.traps

(* the snapshot image operand of snapshot/restore *)
let file_arg doc =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let snapshot_cmd =
  let ops_arg =
    let doc =
      "Guest operations (hypercall + compute + device I/O rounds) to run \
       before the snapshot is taken."
    in
    Arg.(value & opt int 4 & info [ "ops" ] ~doc)
  in
  let run () column ops file expose =
    let m = Workloads.Scenario.make_arm ~expose column in
    drive m ops;
    let s = Snap.to_string m in
    if not (String.equal s (Snap.to_string m)) then
      fail "BUG: snapshot is not byte-deterministic";
    let oc = open_out_bin file in
    output_string oc s;
    close_out oc;
    Fmt.pr "wrote %s (%d bytes, snapshot format v%d)@." file
      (String.length s) Snap.version;
    print_machine_summary m
  in
  Cmd.v
    (Cmd.info "snapshot" ~exits:expose_exits
       ~doc:
         "Build a machine (optionally with an OoH $(b,--expose) grant \
          set, which the image carries), run a deterministic guest \
          workload, and write a versioned byte-deterministic snapshot of \
          its complete state (memory, per-CPU registers, virtual EL1/EL2 \
          files, vGIC, shadow stage-2, cost meters)")
    Term.(
      const run $ logs $ column_term $ ops_arg
      $ file_arg "Snapshot image file to write." $ expose_term)

let restore_cmd =
  let resume_arg =
    let doc = "Guest operation rounds to run after the restore." in
    Arg.(value & opt int 2 & info [ "resume-ops" ] ~doc)
  in
  let run () file resume =
    let s =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error msg -> fail "%s" msg
    in
    match Snap.restore s with
    | exception Snap.Format_error msg ->
      fail "%s: not a usable snapshot: %s" file msg
    | m ->
      if not (String.equal s (Snap.to_string m)) then
        fail "BUG: restored machine re-saves differently";
      Fmt.pr "restored %s (%d bytes); re-save is byte-identical@." file
        (String.length s);
      print_machine_summary m;
      if resume > 0 then begin
        drive m resume;
        Fmt.pr "resumed for %d guest operation rounds:@." resume;
        print_machine_summary m
      end
  in
  Cmd.v
    (Cmd.info "restore" ~exits:fault_exits
       ~doc:
         "Restore a machine from a snapshot image, verify the restored \
          machine re-saves byte-identically, and resume guest execution \
          on it")
    Term.(
      const run $ logs $ file_arg "Snapshot image file to read." $ resume_arg)

(* The migrating guest: for its first [busy] pre-copy rounds it makes a
   hypercall and dirties [writes] distinct pages, then it idles. *)
let busy_guest ~busy ~writes m ~round =
  if round < busy then begin
    Hyp.Machine.hypercall m ~cpu:0;
    for i = 0 to writes - 1 do
      Arm.Memory.write64 m.Hyp.Machine.mem
        (Int64.of_int (0x7800_0000 + (4096 * i) + (8 * round)))
        (Int64.of_int (round + i + 1))
    done
  end

let default_busy = 2
let default_writes = 6

let migrate_cmd =
  let threshold_arg =
    let doc =
      "Stop pre-copy once the residual dirty set is at most this many \
       pages."
    in
    Arg.(value & opt int 8 & info [ "threshold" ] ~doc)
  in
  let rounds_arg =
    let doc = "Pre-copy round budget before forcing stop-and-copy." in
    Arg.(value & opt int 16 & info [ "max-rounds" ] ~doc)
  in
  let busy_arg =
    let doc =
      "Rounds during which the guest keeps running and dirtying pages \
       concurrently with the copy stream; later rounds are idle."
    in
    Arg.(value & opt int default_busy & info [ "busy-rounds" ] ~doc)
  in
  let writes_arg =
    let doc = "Distinct pages the busy guest dirties per round." in
    Arg.(value & opt int default_writes & info [ "writes" ] ~doc)
  in
  let fail_rate_arg =
    let doc =
      "Probability (percent) that each page batch or the final state \
       copy of the transfer stream fails, forcing an abort, a verified \
       byte-identical source rollback, exponential backoff and a retry.  \
       0 disables failure injection."
    in
    Arg.(value & opt int 0 & info [ "fail-rate" ] ~doc)
  in
  let fail_seed_arg =
    let doc =
      "Seed of the failure-injection PRNG; the whole abort/retry history \
       is byte-deterministic per seed."
    in
    Arg.(value & opt int 7 & info [ "fail-seed" ] ~doc)
  in
  let retries_arg =
    let doc = "Retry budget after aborted attempts." in
    Arg.(value & opt int 4 & info [ "max-retries" ] ~doc)
  in
  let run () column threshold max_rounds busy writes fail_rate fail_seed
      max_retries expose =
    let src = Workloads.Scenario.make_arm ~expose column in
    drive src 4;
    let workload = busy_guest ~busy ~writes in
    let check_identical src dst =
      match Snap.diff src dst with
      | None -> Fmt.pr "source and destination machines are byte-identical@."
      | Some (path, detail) -> fail "MIGRATION BUG: %s differs: %s" path detail
    in
    let check_converged (r : Snap.Migrate.report) =
      if not r.Snap.Migrate.r_converged then
        fail "pre-copy did not converge within %d rounds" max_rounds
    in
    Fmt.pr "Live migration (%s, %s%s):@.@."
      (Hyp.Config.name src.Hyp.Machine.config)
      (Hyp.Host_hyp.scenario_name src.Hyp.Machine.scenario)
      (if fail_rate > 0 then
         Printf.sprintf ", %d%% stream failure rate" fail_rate
       else "");
    if fail_rate > 0 then begin
      let src, dst, rr =
        Snap.Migrate.resilient ~threshold ~max_rounds ~max_retries
          ~fail_rate ~fail_seed ~workload src
      in
      Fmt.pr "%a@.@." Snap.Migrate.pp_resilient_report rr;
      if not rr.Snap.Migrate.rr_rollbacks_clean then
        fail "MIGRATION BUG: an abort rollback left the source dirty";
      match dst with
      | None -> fail "migration failed: retry budget (%d) exhausted" max_retries
      | Some dst ->
        check_identical src dst;
        Option.iter check_converged rr.Snap.Migrate.rr_report
    end
    else begin
      let dst, r = Snap.Migrate.run ~threshold ~max_rounds ~workload src in
      Fmt.pr "%a@.@." Snap.Migrate.pp_report r;
      check_identical src dst;
      check_converged r
    end
  in
  Cmd.v
    (Cmd.info "migrate" ~exits:expose_exits
       ~doc:
         "Pre-copy live migration driven by stage-2 dirty-page tracking: \
          iterative copy rounds against a configurable busy guest, \
          stop-and-copy with simulated downtime, and a byte-identity \
          check between source and destination (nonzero exit on \
          non-convergence or any state difference); $(b,--fail-rate) \
          injects transfer-stream failures recovered by verified \
          rollback and exponential-backoff retry; \
          $(b,--expose dirty-log) grants OoH trap-free dirty-page \
          capture, read off the report's per-mechanism traps/cycles \
          columns")
    Term.(
      const run $ logs $ column_term $ threshold_arg $ rounds_arg $ busy_arg
      $ writes_arg $ fail_rate_arg $ fail_seed_arg $ retries_arg
      $ expose_term)

(* The live-migration table of [paper]: one pre-copy migration of the
   same guest per configuration, so the downtime and convergence columns
   compare across mechanisms; every destination must come out
   byte-identical to its source. *)
let migration () =
  Fmt.pr "Live migration: pre-copy rounds, write faults and downtime@.@.";
  let columns =
    (("VM", Workloads.Scenario.Arm_vm, Expose.Policy.none)
    :: List.map
         (fun c ->
           (Hyp.Config.name c, Workloads.Scenario.Arm_nested c, Expose.Policy.none))
         Hyp.Config.all_nested)
    @ [ (* the OoH headline: same guest, dirty captures trap-free *)
        ( "NEVE+ooh(dirty-log)",
          Workloads.Scenario.Arm_nested (Hyp.Config.v Hyp.Config.Hw_neve),
          Expose.Policy.of_list [ Expose.Policy.Dirty_log ] ) ]
  in
  Fmt.pr "%-19s %6s %10s %10s %12s %12s  %s@." "" "rounds" "captures"
    "pg-copied" "precopy-cyc" "downtime-cyc" "dirty/round";
  List.iter
    (fun (name, col, expose) ->
      let src = Workloads.Scenario.make_arm ~expose col in
      Hyp.Machine.hypercall src ~cpu:0;
      let workload = busy_guest ~busy:default_busy ~writes:default_writes in
      let dst, r = Snap.Migrate.run ~workload src in
      Option.iter
        (fun (path, detail) ->
          fail "MIGRATION BUG (%s): %s differs: %s" name path detail)
        (Snap.diff src dst);
      Fmt.pr "%-19s %6d %10d %10d %12d %12d  %s@." name
        r.Snap.Migrate.r_rounds r.Snap.Migrate.r_write_faults
        r.Snap.Migrate.r_pages_copied r.Snap.Migrate.r_precopy_cycles
        r.Snap.Migrate.r_downtime_cycles
        (String.concat " "
           (List.map string_of_int r.Snap.Migrate.r_dirty_per_round)))
    columns

let recover_cmd =
  let policy_conv =
    let parse s =
      match Supervise.policy_of_name s with
      | Some p -> Ok p
      | None ->
        Error (`Msg ("unknown policy: " ^ s ^ " (restart|kill-l2|escalate)"))
    in
    Arg.conv (parse, fun ppf p -> Fmt.string ppf (Supervise.policy_name p))
  in
  let policy_arg =
    let doc =
      "Watchdog recovery policy for hang scenarios: restart (rebuild \
       from the baseline snapshot), kill-l2 (tear down the nested VM, \
       keep the guest hypervisor; falls back to restart on the plain \
       VM), or escalate (record only — scenarios then stay unrecovered \
       and the campaign exits nonzero)."
    in
    Arg.(
      value
      & opt policy_conv Supervise.Restart_from_snapshot
      & info [ "policy"; "p" ] ~doc)
  in
  let run () seed policy shards domains =
    let r = Workloads.Recover.run ~seed ~policy ~shards ?domains () in
    Fmt.pr "%a@." Workloads.Recover.pp_report r;
    (* rerun the whole campaign and require byte-identity — recovery
       behavior is under the same determinism contract as everything
       else *)
    let d1 = Workloads.Recover.digest r in
    let d2 =
      Workloads.Recover.digest
        (Workloads.Recover.run ~seed ~policy ~shards ?domains ())
    in
    if String.equal d1 d2 then Fmt.pr "digest: %s (rerun identical)@." d1
    else Fmt.epr "DETERMINISM BUG: rerun digest %s differs from %s@." d2 d1;
    if
      (not (Workloads.Recover.recovered_all r))
      || (not (Workloads.Recover.trace_ok r))
      || not (String.equal d1 d2)
    then exit fault_exit
  in
  Cmd.v
    (Cmd.info "recover" ~exits:fault_exits
       ~doc:
         "Recovery campaign: inject physical SErrors (contained and \
          re-injected virtually via HCR_EL2.VSE/VSESR_EL2), vCPU hangs \
          (detected by the deterministic watchdog and recovered under \
          the configured policy) and mid-migration stream failures \
          (rolled back and retried) across the five ARM configurations; \
          exit nonzero unless every scenario recovers, trace class sums \
          match the meters, and a full rerun is byte-identical")
    Term.(
      const run $ logs
      $ seed_arg "Campaign seed (same seed and policy, byte-identical report)."
      $ policy_arg $ shards_arg $ domains_arg)

(* --- the sharded fleet --- *)

let fleet_cmd =
  let profile_conv =
    let parse p =
      if
        String.lowercase_ascii p = "mixed"
        || Workloads.Profiles.by_name p <> None
      then Ok p
      else
        Fmt.error_msg "unknown profile %S (have: mixed, %s)" p
          (String.concat ", "
             (List.map (fun p -> p.Workloads.Profiles.name) Workloads.Profiles.all))
    in
    Arg.conv (parse, Fmt.string)
  in
  let profile_arg =
    let doc =
      "Workload profile shaping each machine's exit-event mix: a Table 8 \
       workload name (e.g. $(b,hackbench), $(b,tcp_maerts)) or \
       $(b,mixed) to round-robin all ten over the fleet."
    in
    Arg.(
      value & opt profile_conv "mixed"
      & info [ "profile"; "p" ] ~docv:"PROFILE" ~doc)
  in
  let configs_conv =
    let parse s =
      Fleet.lookup_columns (String.split_on_char ',' s)
      |> Result.map_error (fun k ->
             `Msg
               (Fmt.str "unknown config key %S (have: %s)" k
                  (String.concat ", " Fleet.column_keys)))
    in
    let print ppf cols = Fmt.string ppf (String.concat "," (List.map fst cols)) in
    Arg.conv (parse, print)
  in
  let configs_arg =
    let doc =
      "Comma-separated configuration columns to round-robin machines \
       over (default: all five ARM columns)."
    in
    Arg.(
      value
      & opt (some configs_conv) None
      & info [ "configs" ] ~docv:"KEYS" ~doc)
  in
  let ops_arg =
    let doc = "Guest operations per machine." in
    Arg.(value & opt int 48 & info [ "ops" ] ~doc)
  in
  let traced_arg =
    let doc =
      "Trace every machine's workload region on its own domain and \
       cross-check the tracer's per-class sums against the cost meters; \
       exit nonzero on any mismatch."
    in
    Arg.(value & flag & info [ "traced" ] ~doc)
  in
  let run () n seed profile configs ops shards domains json traced =
    let configs = Option.value configs ~default:Fleet.columns in
    let t0 = Unix.gettimeofday () in
    let t =
      Fleet.run ?domains ~shards ~traced ~ops ~configs ~n ~seed ~profile ()
    in
    let dt = Unix.gettimeofday () -. t0 in
    if json then print_endline (Json.to_string (Fleet.json t))
    else begin
      Fmt.pr "%a@." Fleet.pp_summary t;
      Fmt.pr "wall: %.2fs, %.0f machines/sec (shards=%d)@." dt
        (float_of_int n /. dt) shards
    end;
    if not t.Fleet.agg.Fleet.a_trace_ok then exit fault_exit
  in
  Cmd.v
    (Cmd.info "fleet" ~exits:fault_exits
       ~doc:
         "Boot a fleet of machines across the five ARM configurations on \
          a pool of OCaml domains and merge their meters; the aggregate \
          is byte-identical whatever the shard count")
    Term.(
      const run $ logs
      $ machines_arg 1000 "Number of machines to boot and run."
      $ seed_arg
          "Campaign seed.  Machine $(i,i)'s seed is derived from (seed, i) \
           with a splitmix64 mix, so it is independent of the fleet size \
           and the shard count."
      $ profile_arg $ configs_arg $ ops_arg $ shards_arg $ domains_arg
      $ json_flag
          "Emit the canonical aggregate JSON (no shard count, no wall \
           clock: byte-identical across shard counts) instead of the text \
           summary."
      $ traced_arg)

(* --- SLO-grade serving scenarios --- *)

let serve_cmd =
  let requests_arg =
    let doc = "Requests served per machine." in
    Arg.(value & opt int Serve.default_requests & info [ "requests" ] ~doc)
  in
  let migrate_every_arg =
    let doc = "Live-migrate each machine every this many requests." in
    Arg.(
      value
      & opt int Serve.default_migrate_every
      & info [ "migrate-every" ] ~doc)
  in
  let run () n seed requests migrate_every shards domains json expose =
    let t =
      Serve.run ?domains ~shards ~requests ~migrate_every ~expose ~n ~seed ()
    in
    if json then print_endline (Json.to_string (Serve.json t))
    else Fmt.pr "%a@." Serve.pp_summary t;
    if not t.Serve.s_clean then exit fault_exit
  in
  Cmd.v
    (Cmd.info "serve" ~exits:expose_exits
       ~doc:
         "SLO-grade serving: virtio-net request streams \
          (Apache/Memcached/MySQL) on SMP nested guests while fault \
          plans and live-migration rounds fire underneath; reports \
          p50/p99/p999 sim-cycle latency of virtual-IRQ delivery and \
          request completion per ARM configuration, byte-identical \
          across reruns and shard counts.  $(b,--expose) grants the \
          whole fleet an OoH feature set to show its tail-latency \
          effect.  Exits nonzero if any machine's \
          TLB-shootdown/break-before-make checker records a violation")
    Term.(
      const run $ logs
      $ machines_arg 15
          "Number of serving machines (round-robined over the five ARM \
           configurations and the Apache/Memcached/MySQL profiles)."
      $ seed_arg
          "Campaign seed.  Machine $(i,i)'s seed (and so its fault plan and \
           request stream) is derived from (seed, i), independent of fleet \
           size and shard count."
      $ requests_arg $ migrate_every_arg $ shards_arg $ domains_arg
      $ json_flag
          "Emit the canonical SLO report JSON (schema neve-slo-report/1; no \
           shard count, no wall clock: byte-identical across shard counts) \
           instead of the text summary."
      $ expose_term)

(* --- every paper artifact in one run --- *)

(* Each section is printed by its subcommand's own function at that
   subcommand's defaults, so a section's bytes equal the subcommand's
   output; the migration table is the one section with no subcommand. *)
let paper_cmd =
  report_cmd "paper"
    ~doc:
      "Regenerate every table and figure of the paper, the validation, \
       ablation, recursion, migration, scaling and RISC-V sections, and \
       the paper-vs-measured comparison, in one run"
    (fun () ->
      List.iteri
        (fun i section ->
          if i > 0 then Fmt.pr "@.";
          section ())
        [ (fun () -> table1 default_iters); (fun () -> table6 default_iters);
          (fun () -> table7 default_iters); (fun () -> fig2 false); validate;
          (fun () -> ablation false); recursive; migration; sweep; riscv;
          paper_vs_measured ])

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "neve_sim" ~version:"1.0"
      ~doc:"NEVE (SOSP 2017) reproduction: simulator and benchmarks"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ table1_cmd; table6_cmd; table7_cmd; fig2_cmd; traps_cmd;
            classify_cmd; validate_cmd; ablation_cmd; recursive_cmd;
            sweep_cmd; riscv_cmd; compare_cmd; chaos_cmd; fuzz_cmd;
            trace_cmd; snapshot_cmd; restore_cmd; migrate_cmd;
            recover_cmd; fleet_cmd; serve_cmd; paper_cmd ]))
