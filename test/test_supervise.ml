(* Tests for error virtualization, watchdog supervision and the
   self-healing recovery paths.

   The properties that matter, in rough order of strength:
   - a pending virtual SError (HCR_EL2.VSE + VSESR_EL2) round-trips
     through snapshot/restore bit-identically, and both timelines then
     deliver it identically — the error is architectural state, not
     simulator bookkeeping;
   - watchdog firing histories and migration backoff schedules are
     byte-reproducible per seed, and the backoff schedule is exactly
     the documented doubling series;
   - a mid-migration abort leaves the source byte-identical to its
     pre-attempt snapshot (Snap.diff-empty), whatever the failure
     pattern;
   - the kill-L2 policy degrades without replacing the machine, and
     falls back to restart on single-VM scenarios;
   - the CLI's documented exit-code table, the rendered EXIT STATUS
     man section and README.md all carry the same words;
   - the full fixed-seed recovery campaign recovers everything with
     trace class sums matching the meters. *)

module Cpu = Arm.Cpu
module Config = Hyp.Config
module Machine = Hyp.Machine
module Recover = Workloads.Recover

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let make sc =
  let _, config, scenario = sc in
  let m = Machine.create ~check_invariants:true ~ncpus:2 config scenario in
  Machine.boot m;
  m

let drive m ~cpu n =
  for _ = 1 to n do
    Machine.hypercall m ~cpu;
    Machine.compute m ~cpu ~insns:32;
    Machine.mmio_access m ~cpu ~addr:0x0900_0000L ~is_write:true
  done

let nth_scenario i = List.nth Recover.scenarios (i mod List.length Recover.scenarios)

(* --- (a) virtual SErrors round-trip through snapshot/restore --- *)

(* Pend a virtual SError, snapshot, restore, and drive both timelines
   identically: the image must be byte-stable, the pending bit must
   survive, and delivery must happen the same way on both machines,
   leaving them byte-identical. *)
let prop_serror_snapshot_roundtrip =
  let gen =
    QCheck.Gen.(
      let* ci = int_bound 4 in
      let* syn = int_bound 0x1ff_ffff in
      let* cpu = int_bound 1 in
      return (ci, syn, cpu))
  in
  let arb = QCheck.make ~print:(fun (a, b, c) -> Printf.sprintf "(%d,0x%x,%d)" a b c) gen in
  QCheck.Test.make ~count:12 ~name:"pending vSError survives snapshot/restore bit-identically"
    arb (fun (ci, syn, cpu) ->
      let m = make (nth_scenario ci) in
      drive m ~cpu 2;
      Machine.pend_serror m ~cpu ~syndrome:(Int64.of_int syn);
      let img = Snap.to_string m in
      let m' = Snap.restore img in
      let stable = String.equal (Snap.to_string m') img in
      let pending = Machine.serror_pending m' ~cpu in
      let deliver mm =
        let budget = ref 64 in
        while Machine.serror_pending mm ~cpu && !budget > 0 do
          decr budget;
          Machine.compute mm ~cpu ~insns:8
        done
      in
      deliver m;
      deliver m';
      stable && pending
      && (not (Machine.serror_pending m ~cpu))
      && Machine.serror_injections m = Machine.serror_injections m'
      && Machine.serror_injections m >= 1
      && String.equal (Snap.to_string m) (Snap.to_string m'))

(* --- (b) watchdog firings and backoff schedules reproduce per seed --- *)

let watchdog_history ~policy seed =
  let m = make (nth_scenario seed) in
  drive m ~cpu:0 2;
  drive m ~cpu:1 2;
  let sup =
    Supervise.create ~config:{ Supervise.default_config with policy } m
  in
  Machine.hang m ~cpu:(seed land 1);
  let batches = ref 12 in
  while Supervise.events sup = [] && !batches > 0 do
    decr batches;
    let cur = Supervise.machine sup in
    drive cur ~cpu:0 1;
    drive cur ~cpu:1 1;
    ignore (Supervise.poll sup)
  done;
  List.map Supervise.event_line (Supervise.events sup)

let prop_watchdog_reproducible =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1000 in
      let* policy =
        oneofl
          [ Supervise.Restart_from_snapshot;
            Supervise.Kill_l2_keep_l1;
            Supervise.Escalate ]
      in
      return (seed, policy))
  in
  let arb =
    QCheck.make
      ~print:(fun (s, p) -> Printf.sprintf "(%d,%s)" s (Supervise.policy_name p))
      gen
  in
  QCheck.Test.make ~count:8 ~name:"watchdog firing history is byte-reproducible per seed"
    arb (fun (seed, policy) ->
      let h1 = watchdog_history ~policy seed in
      let h2 = watchdog_history ~policy seed in
      h1 <> [] && h1 = h2)

let mig_workload m ~round = if round < 2 then Machine.hypercall m ~cpu:0

let resilient_once ~seed ~fail_rate =
  let src = make (nth_scenario seed) in
  drive src ~cpu:0 2;
  let base = src.Machine.cpus.(0).Cpu.meter.Cost.table.Cost.mig_retry_backoff in
  let _, _, rr =
    Snap.Migrate.resilient ~max_retries:6 ~fail_rate ~fail_seed:seed
      ~workload:mig_workload src
  in
  (base, rr)

let prop_backoff_reproducible =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 4000 in
      let* fail_rate = int_range 10 90 in
      return (seed, fail_rate))
  in
  let arb =
    QCheck.make ~print:(fun (s, f) -> Printf.sprintf "(seed=%d,fail=%d%%)" s f) gen
  in
  QCheck.Test.make ~count:10
    ~name:"migration backoff schedule reproduces per seed and doubles exactly"
    arb (fun (seed, fail_rate) ->
      let base, rr1 = resilient_once ~seed ~fail_rate in
      let _, rr2 = resilient_once ~seed ~fail_rate in
      let open Snap.Migrate in
      rr1.rr_attempts = rr2.rr_attempts
      && rr1.rr_aborts = rr2.rr_aborts
      && rr1.rr_backoffs = rr2.rr_backoffs
      && rr1.rr_rollbacks_clean && rr2.rr_rollbacks_clean
      && List.for_all2 ( = ) rr1.rr_backoffs
           (List.mapi (fun i _ -> base lsl i) rr1.rr_backoffs))

(* --- (c) mid-migration abort leaves the source Snap.diff-empty --- *)

let prop_abort_rollback =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 4000 in
      let* fail_rate = int_range 40 99 in
      return (seed, fail_rate))
  in
  let arb =
    QCheck.make ~print:(fun (s, f) -> Printf.sprintf "(seed=%d,fail=%d%%)" s f) gen
  in
  QCheck.Test.make ~count:15
    ~name:"mid-migration abort rolls the source back byte-identically"
    arb (fun (seed, fail_rate) ->
      let src = make (nth_scenario seed) in
      drive src ~cpu:0 3;
      let pre = Snap.to_string src in
      let src', dst, rr =
        Snap.Migrate.resilient ~max_retries:2 ~fail_rate ~fail_seed:seed
          ~workload:mig_workload src
      in
      rr.Snap.Migrate.rr_rollbacks_clean
      &&
      match dst with
      | None -> String.equal (Snap.to_string src') pre
      | Some d -> Snap.diff src' d = None)

(* A fully deterministic corner: every transfer fails, the retry budget
   runs out, and the caller gets back a source byte-identical to the
   state it handed in. *)
let test_exhausted_retries_restore_source () =
  let src = make (nth_scenario 3) in
  drive src ~cpu:0 2;
  let pre = Snap.to_string src in
  let src', dst, rr =
    Snap.Migrate.resilient ~max_retries:2 ~fail_rate:100 ~fail_seed:9
      ~workload:mig_workload src
  in
  let open Snap.Migrate in
  check Alcotest.int "three attempts" 3 rr.rr_attempts;
  check Alcotest.int "every attempt aborted" 3 (List.length rr.rr_aborts);
  check Alcotest.int "two backoffs" 2 (List.length rr.rr_backoffs);
  check Alcotest.bool "rollbacks clean" true rr.rr_rollbacks_clean;
  check Alcotest.bool "no destination" true (dst = None);
  check Alcotest.bool "no successful report" true (rr.rr_report = None);
  check Alcotest.bool "source byte-identical to pre-migration state" true
    (String.equal (Snap.to_string src') pre)

(* --- kill-L2 degrades in place; single-VM falls back to restart --- *)

let supervise_hang ~policy sc =
  let m = make sc in
  drive m ~cpu:0 2;
  drive m ~cpu:1 2;
  let sup =
    Supervise.create ~config:{ Supervise.default_config with policy } m
  in
  Machine.hang m ~cpu:1;
  let batches = ref 12 in
  while Supervise.events sup = [] && !batches > 0 do
    decr batches;
    let cur = Supervise.machine sup in
    drive cur ~cpu:0 1;
    drive cur ~cpu:1 1;
    ignore (Supervise.poll sup)
  done;
  (m, sup, List.hd (Supervise.events sup))

let test_kill_l2_keeps_machine () =
  let m, sup, e = supervise_hang ~policy:Supervise.Kill_l2_keep_l1 (nth_scenario 1) in
  check Alcotest.string "kill-L2 applied" "kill-l2"
    (Supervise.policy_name e.Supervise.e_policy);
  check Alcotest.bool "recovered" true e.Supervise.e_recovered;
  check Alcotest.bool "machine not replaced" true (Supervise.machine sup == m);
  check Alcotest.bool "vCPU un-wedged" false (Machine.is_hung m ~cpu:1);
  let insns = m.Machine.cpus.(1).Cpu.meter.Cost.insns in
  drive m ~cpu:1 1;
  check Alcotest.bool "L1 retires work again" true
    (m.Machine.cpus.(1).Cpu.meter.Cost.insns > insns)

let test_kill_l2_single_vm_fallback () =
  let m, sup, e =
    supervise_hang ~policy:Supervise.Kill_l2_keep_l1 (nth_scenario 0)
  in
  check Alcotest.string "fell back to restart" "restart"
    (Supervise.policy_name e.Supervise.e_policy);
  check Alcotest.bool "machine replaced by the restart" true
    (Supervise.machine sup != m);
  check Alcotest.bool "restarted machine healthy" false
    (Machine.is_hung (Supervise.machine sup) ~cpu:1)

(* --- exit codes: Exit_code table == --help EXIT STATUS == README --- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* cmdliner markup: "$(b,text)" renders as "text" under --help=plain *)
let strip_markup s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 3 < n && s.[!i] = '$' && s.[!i + 1] = '(' && s.[!i + 3] = ',' then begin
      i := !i + 4;
      while !i < n && s.[!i] <> ')' do
        Buffer.add_char b s.[!i];
        incr i
      done;
      if !i < n then incr i
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* collapse whitespace runs (the help output wraps) and drop the
   backticks README uses for inline code *)
let normalize s =
  let b = Buffer.create (String.length s) in
  let pending = ref false in
  String.iter
    (fun ch ->
      match ch with
      | ' ' | '\t' | '\n' | '\r' -> pending := true
      | '`' -> ()
      | c ->
          if !pending && Buffer.length b > 0 then Buffer.add_char b ' ';
          pending := false;
          Buffer.add_char b c)
    s;
  Buffer.contents b

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* under [dune runtest] the cwd is _build/default/test; under
   [dune exec] from the root it is the root — accept both *)
let locate candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "none of [%s] exist" (String.concat "; " candidates)

let neve_sim () =
  locate [ "../bin/neve_sim.exe"; "_build/default/bin/neve_sim.exe" ]

(* run neve_sim with [args] (already shell-quoted where needed); returns
   the exit status and what it printed on stdout *)
let run_cli args =
  let tmp = Filename.temp_file "neve_cli" ".txt" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> /dev/null" (Filename.quote (neve_sim ()))
         args (Filename.quote tmp))
  in
  let out = read_file tmp in
  Sys.remove tmp;
  (rc, out)

(* every subcommand with an EXIT STATUS section beyond cmdliner's
   defaults, and the Exit_code rows it documents *)
let exit_status_commands =
  let fault = [ 0; 1 ] and budget = [ 0; 1; 2 ] in
  [ ("chaos", budget); ("fuzz", budget); ("trace", fault);
    ("snapshot", fault); ("restore", fault); ("migrate", fault);
    ("recover", fault); ("fleet", fault); ("serve", fault) ]

let test_exit_code_docs () =
  let readme = normalize (read_file (locate [ "../README.md"; "README.md" ])) in
  List.iter
    (fun (code, doc) ->
      check Alcotest.bool (Printf.sprintf "exit %d doc in README" code) true
        (contains readme (normalize (strip_markup doc))))
    Workloads.Exit_code.table;
  List.iter
    (fun (cmd, codes) ->
      let rc, help = run_cli (cmd ^ " --help=plain") in
      check Alcotest.int (cmd ^ " --help renders") 0 rc;
      let help = normalize help in
      check Alcotest.bool (cmd ^ " help has an EXIT STATUS section") true
        (contains help "EXIT STATUS");
      List.iter
        (fun (code, doc) ->
          check Alcotest.bool
            (Printf.sprintf "%s: exit %d doc in --help" cmd code)
            (List.mem code codes)
            (contains help (normalize (strip_markup doc))))
        Workloads.Exit_code.table)
    exit_status_commands

(* --- the CLI surface: option names and exit statuses --- *)

(* Every option (short and long names) each subcommand's --help=plain
   lists, less the common --help/--version.  A refactor of how flags are
   declared must leave this table unchanged. *)
let option_surface =
  [ ("table1", "-n --iters"); ("table6", "-n --iters");
    ("table7", "-n --iters"); ("fig2", "--chart");
    ("traps", "-m --mech -v --verbose --vhe"); ("classify", "");
    ("validate", ""); ("ablation", "--vhe"); ("recursive", "");
    ("sweep", ""); ("riscv", ""); ("compare", "");
    ("chaos",
     "-f --faults --max-cycles -s --seed --shards -t --traps -v --verbose");
    ("fuzz",
     "--corpus-dir --json --max-cycles -n --iterations -s --seed --shards \
      --smp --smp-ops --snap-oracle -t --max-seconds --trace -v --verbose");
    ("trace", "--chrome --json -n --iters -v --verbose");
    ("snapshot", "--expose -m --mech --ops --single-vm -v --verbose --vhe");
    ("restore", "--resume-ops -v --verbose");
    ("migrate",
     "--busy-rounds --expose --fail-rate --fail-seed -m --mech \
      --max-retries --max-rounds --single-vm --threshold -v --verbose --vhe \
      --writes");
    ("recover", "-p --policy -s --seed --shards -v --verbose");
    ("fleet",
     "--configs --json -n --ops -p --profile -s --seed --shards --traced \
      -v --verbose");
    ("serve",
     "--expose --json --migrate-every -n --requests -s --seed --shards -v \
      --verbose");
    ("paper", "") ]

(* option names on the entry lines (indented seven columns) of a plain
   help page: "-m VAL, --mech=VAL (absent=...)" gives -m and --mech *)
let help_options help =
  String.split_on_char '\n' help
  |> List.filter (fun l ->
         String.length l > 8 && String.sub l 0 8 = "       -")
  |> List.concat_map (fun l ->
         String.split_on_char ' ' l
         |> List.concat_map (String.split_on_char ',')
         |> List.filter (fun w -> String.length w > 1 && w.[0] = '-')
         |> List.map (fun w ->
                (* the name ends at "=VAL" or "[=FMT]" *)
                let rec stop i =
                  if i < String.length w && w.[i] <> '=' && w.[i] <> '[' then
                    stop (i + 1)
                  else i
                in
                String.sub w 0 (stop 0)))
  |> List.filter (fun o -> o <> "--help" && o <> "--version")
  |> List.sort_uniq compare

let test_option_surface () =
  List.iter
    (fun (cmd, expected) ->
      let rc, help = run_cli (cmd ^ " --help=plain") in
      check Alcotest.int (cmd ^ " --help renders") 0 rc;
      let words = List.filter (( <> ) "") (String.split_on_char ' ' expected) in
      check
        Alcotest.(list string)
        (cmd ^ " options") (List.sort compare words) (help_options help))
    option_surface

(* Rejections keep their statuses: 1 (the detected-fault status) for an
   unknown --expose feature or an unreadable image, 124 (cmdliner's
   command-line error) for a value a converter rejects.  The last three
   rows pin the order: any other command-line error wins over --expose. *)
let exit_status_table =
  [ ("snapshot --expose bogus F", 1); ("serve -n 1 --expose bogus", 1);
    ("migrate --expose bogus", 1); ("restore /nonexistent", 1);
    ("fleet -n 2 --configs bogus", 124); ("fleet -n 2 --profile bogus", 124);
    ("fuzz --shards 2 -t 1 -n 2", 124); ("fleet -n 1 --shards 200", 124);
    ("recover --policy bogus", 124);
    ("traps -m bogus", 124); ("snapshot --expose bogus", 124);
    ("snapshot --mech bogus --expose bogus F", 124);
    ("migrate --expose bogus --mech bogus", 124) ]

let test_exit_statuses () =
  List.iter
    (fun (args, expected) ->
      check Alcotest.int ("neve_sim " ^ args) expected (fst (run_cli args)))
    exit_status_table

(* --- the full campaign, as the CI smoke runs it --- *)

let test_recover_campaign () =
  let r = Recover.run () in
  check Alcotest.int "15 scenarios" 15 (List.length r.Recover.rc_scenarios);
  check Alcotest.bool "every scenario recovered" true (Recover.recovered_all r);
  check Alcotest.bool "trace class sums match the meters" true
    (Recover.trace_ok r);
  check Alcotest.string "report digest reproduces" (Recover.digest r)
    (Recover.digest (Recover.run ()))

let suite =
  [
    qtest prop_serror_snapshot_roundtrip;
    qtest prop_watchdog_reproducible;
    qtest prop_backoff_reproducible;
    qtest prop_abort_rollback;
    Alcotest.test_case "exhausted retries restore the source" `Quick
      test_exhausted_retries_restore_source;
    Alcotest.test_case "kill-L2 recovers in place" `Quick
      test_kill_l2_keeps_machine;
    Alcotest.test_case "kill-L2 falls back to restart on single-VM" `Quick
      test_kill_l2_single_vm_fallback;
    Alcotest.test_case "exit codes: CLI help and README match the table" `Quick
      test_exit_code_docs;
    Alcotest.test_case "CLI: every subcommand's option names" `Quick
      test_option_surface;
    Alcotest.test_case "CLI: rejection exit statuses" `Quick
      test_exit_statuses;
    Alcotest.test_case "recover campaign: 15/15, deterministic" `Quick
      test_recover_campaign;
  ]
