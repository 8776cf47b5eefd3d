(* Exact allocation pins of the release profile: every warm nested
   operation allocates nothing, and a fresh machine's set-up allocates
   within its budget. *)

module Machine = Hyp.Machine
module Config = Hyp.Config
module Micro = Workloads.Micro
module Scenario = Workloads.Scenario

let check = Alcotest.check

let words_during f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  int_of_float (w1 -. w0)

let ooh = Fuzz.Diff.ooh_grant
let none = Expose.Policy.none

(* The eight nested configurations of the trap-path suite's per-trap
   budgets, and the single VM. *)
let columns =
  [ ("v8.3", Scenario.Arm_nested (Config.v Config.Hw_v8_3), none);
    ( "v8.3-vhe", Scenario.Arm_nested (Config.v ~guest_vhe:true Config.Hw_v8_3),
      none );
    ("neve", Scenario.Arm_nested (Config.v Config.Hw_neve), none);
    ( "neve-vhe", Scenario.Arm_nested (Config.v ~guest_vhe:true Config.Hw_neve),
      none );
    ("neve-ooh", Scenario.Arm_nested (Config.v Config.Hw_neve), ooh);
    ( "neve-vhe-ooh",
      Scenario.Arm_nested (Config.v ~guest_vhe:true Config.Hw_neve), ooh );
    ("pv-v8.3", Scenario.Arm_nested (Config.v Config.Pv_v8_3), none);
    ("pv-neve", Scenario.Arm_nested (Config.v Config.Pv_neve), none);
    ("vm", Scenario.Arm_vm, none) ]

(* 20 warm-up operations, then 500 measured ones, per operation. *)
let test_warm_ops_allocate_nothing () =
  let failures = ref [] in
  List.iter
    (fun (slug, col, expose) ->
      let m = Scenario.make_arm ~expose col in
      List.iter
        (fun bench ->
          let op = Micro.arm_op m bench in
          for _ = 1 to 20 do
            op ()
          done;
          let words =
            words_during (fun () ->
                for _ = 1 to 500 do
                  op ()
                done)
          in
          if words <> 0 then
            failures :=
              Printf.sprintf "%s %s: %d words" slug (Micro.name bench) words
              :: !failures)
        Micro.all)
    columns;
  match List.rev !failures with
  | [] -> ()
  | fs -> Alcotest.failf "warm operations allocated: %s" (String.concat "; " fs)

(* The distributor's side of an IPI: pend an SGI, acknowledge it at the
   target and complete it. *)
let test_sgi_round_trip_allocates_nothing () =
  let d = Gic.Dist.create ~ncpus:2 in
  for cpu = 0 to 1 do
    for intid = 0 to 15 do
      Gic.Dist.enable d ~cpu ~intid
    done
  done;
  Gic.Dist.enable d ~cpu:0 ~intid:Gic.Irq.virtio_net_spi;
  let round_trips () =
    for i = 1 to 100 do
      let intid = i land 15 in
      Gic.Dist.send_sgi d ~src:0 ~dst:1 ~intid;
      match Gic.Dist.acknowledge d ~cpu:1 with
      | Some acked -> Gic.Dist.eoi d ~cpu:1 ~intid:acked
      | None -> Alcotest.fail "the SGI was not pending"
    done
  in
  round_trips ();
  check Alcotest.int "words of 100 SGI round trips" 0 (words_during round_trips)

(* Minor words of a fresh 2-vCPU machine's [boot] and of each vCPU's
   first hypercall, the set-up that compiles the world-switch plans, as
   measured in the release profile once [World_switch.compile] gathers
   a loop's kernels in one pass (the first hypercalls of the two vCPUs
   read the same).  The bounds allow 10% on top. *)
let cold_readings =
  [ ("v8.3", 6929, 2929); ("v8.3-vhe", 5395, 2071); ("neve", 7955, 3248);
    ("neve-vhe", 6037, 2018); ("neve-ooh", 7925, 3241);
    ("neve-vhe-ooh", 6007, 2011); ("pv-v8.3", 10969, 4064);
    ("pv-neve", 11375, 4057); ("vm", 5, 1225) ]

let test_cold_budgets () =
  List.iter
    (fun (slug, col, expose) ->
      let config, scenario =
        match col with
        | Scenario.Arm_vm -> (Config.v Config.Hw_v8_3, Hyp.Host_hyp.Single_vm)
        | Scenario.Arm_nested c -> (c, Hyp.Host_hyp.Nested)
      in
      let _, boot_words, hvc_words =
        List.find (fun (s, _, _) -> s = slug) cold_readings
      in
      let within what words reading =
        if 10 * words > 11 * reading then
          Alcotest.failf "%s %s: %d minor words (reading %d, budget +10%%)"
            slug what words reading
      in
      let m = Machine.create ~ncpus:2 ~expose config scenario in
      within "boot" (words_during (fun () -> Machine.boot m)) boot_words;
      for cpu = 0 to 1 do
        within
          (Printf.sprintf "vCPU %d's first hypercall" cpu)
          (words_during (fun () -> Machine.hypercall m ~cpu))
          hvc_words
      done)
    columns

let suite =
  [ ("warm operations allocate nothing", `Quick, test_warm_ops_allocate_nothing);
    ("an SGI round trip allocates nothing", `Quick,
     test_sgi_round_trip_allocates_nothing);
    ("a fresh machine's boot and first hypercalls stay within budget",
     `Quick, test_cold_budgets) ]

let () = Alcotest.run "release-alloc" [ ("release-alloc", suite) ]
