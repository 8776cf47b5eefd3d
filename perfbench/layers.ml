(* Layer rows: each public function named in the per-layer table timed
   in isolation, with the Bechamel configuration the repository's
   default bench harness uses (OLS over run counts, 500 samples, 0.25 s
   quota).  Rows whose operation is too heavy for Bechamel's sampling
   (whole machines, migrations, fuzz samples) are timed directly as the
   median of a few repetitions.

   Every row is measured the same way in every workload's traced pass,
   so a row's value does not depend on which workload ran. *)

open Bechamel
module Machine = Hyp.Machine
module Micro = Workloads.Micro
module Scenario = Workloads.Scenario
module Sysreg = Arm.Sysreg

type row = { name : string; value : float; unit : string }

let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None ()
let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
let clock = Toolkit.Instance.monotonic_clock
let now_ns = Spans.now_ns

(* Wall nanoseconds of one run of [f], the median of [reps] runs. *)
let time_ns ?(reps = 5) f =
  Harness.median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         f ();
         now_ns () -. t0))

(* Nanoseconds per call of [f]: Bechamel's OLS slope, or a direct
   timing of a batch when the fit has no usable estimate. *)
let ns_per_call name f =
  let elt = List.hd (Test.elements (Test.make ~name (Staged.stage f))) in
  let raw = Benchmark.run cfg [ clock ] elt in
  match Analyze.OLS.estimates (Analyze.one ols clock raw) with
  | Some (e :: _) when Float.is_finite e && e > 0. -> e
  | _ -> time_ns (fun () -> for _ = 1 to 1000 do ignore (Sys.opaque_identity (f ())) done) /. 1000.

let bench ?(per = 1.) ?(scale = 1.) name unit f =
  { name; value = ns_per_call name f /. per /. scale; unit }

let ooh_neve_vhe =
  ("neve-vhe-ooh", Scenario.Arm_nested (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_neve),
   Fuzz.Diff.ooh_grant)

let op_columns =
  List.map (fun (slug, col) -> (slug, col, Expose.Policy.none)) Fleet.columns
  @ [ ooh_neve_vhe ]

(* --- hyp --- *)

let hyp_rows () =
  let boot =
    List.map
      (fun (slug, col) ->
        bench ~scale:1e6 ("hyp.boot_ms." ^ slug) "ms" (fun () -> Scenario.make_arm col))
      Fleet.columns
  in
  let ops =
    List.concat_map
      (fun (slug, col, expose) ->
        let m = Scenario.make_arm ~expose col in
        List.map
          (fun b ->
            let f = Micro.arm_op m b in
            f ();
            bench ~scale:1e3
              (Printf.sprintf "hyp.op_us.%s.%s" (Suite.bench_slug b) slug)
              "us" f)
          Micro.all)
      op_columns
  in
  let ws =
    let cpu = Arm.Cpu.create ~features:(Arm.Features.v Arm.Features.V8_4) () in
    cpu.Arm.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL2;
    let mem = cpu.Arm.Cpu.mem in
    let ops =
      {
        Hyp.World_switch.rd = Arm.Cpu.mrs cpu;
        wr = Arm.Cpu.msr cpu;
        ld = Arm.Memory.read64 mem;
        st = Arm.Memory.write64 mem;
      }
    in
    let ctx = 0x4000_0000L and regs = Hyp.Reglists.el1_state_arr in
    bench "hyp.ws_copy_ns" "ns" (fun () ->
        Hyp.World_switch.save_array ops ~ctx ~via:Sysreg.direct regs;
        Hyp.World_switch.restore_array ops ~ctx ~via:Sysreg.direct regs)
  in
  boot @ ops @ [ ws ]

(* --- arm --- *)

let route_row () =
  let insns =
    List.map
      (function
        | Fuzz.Gen.R_access (acc, true) -> Arm.Insn.Mrs (0, acc)
        | Fuzz.Gen.R_access (acc, false) -> Arm.Insn.Msr (acc, Arm.Insn.Reg 0)
        | Fuzz.Gen.R_hvc -> Arm.Insn.Hvc 0
        | Fuzz.Gen.R_eret -> Arm.Insn.Eret
        | Fuzz.Gen.R_smc -> Arm.Insn.Smc 0)
      Fuzz.Gen.registry
    |> Array.of_list
  in
  let view mech vncr =
    let c = Hyp.Config.v mech in
    (Hyp.Config.hw_features c, Arm.Hcr.decode (Hyp.Config.target_hcr c), vncr)
  in
  let views =
    [|
      view Hyp.Config.Hw_v8_3 0L;
      view Hyp.Config.Hw_neve
        (Core.Vncr.encode (Core.Vncr.v ~baddr:0x8000_0000L ~enable:true));
    |]
  in
  let per = float_of_int (Array.length insns * Array.length views) in
  bench ~per "arm.route_ns" "ns" (fun () ->
      Array.iter
        (fun (features, hcr, vncr) ->
          Array.iter
            (fun i ->
              ignore
                (Sys.opaque_identity
                   (Arm.Trap_rules.route features ~hcr ~vncr ~el:Arm.Pstate.EL1 i)))
            insns)
        views)

(* 64 straight-line ALU instructions: no traps, no memory, so the run
   time is decode + block formation (first run) or block replay. *)
let straight_line = List.init 64 (fun i -> Arm.Insn.Add (i mod 8, (i + 1) mod 8, Arm.Insn.Imm 3L))
let entry = 0x8000_0000L

let fresh_cpu () =
  let cpu = Arm.Cpu.create () in
  Arm.Interp.load_program cpu.Arm.Cpu.mem ~base:entry straight_line;
  cpu

let run64 cpu = ignore (Arm.Interp.run cpu ~entry ~max_insns:1000)

let xlate_rows () =
  let cold =
    let cpus = List.init 200 (fun _ -> fresh_cpu ()) in
    let total = List.fold_left (fun acc cpu -> acc +. time_ns ~reps:1 (fun () -> run64 cpu)) 0. cpus in
    { name = "arm.xlate_cold_ns_per_insn"; value = total /. 200. /. 64.; unit = "ns" }
  in
  let hot =
    let cpu = fresh_cpu () in
    run64 cpu;
    bench ~per:64. "arm.xlate_hot_ns_per_insn" "ns" (fun () -> run64 cpu)
  in
  [ cold; hot ]

let mem_row () =
  let mem = Arm.Memory.create () in
  let a = 0x4000_1000L in
  Arm.Memory.write64 mem a 1L;
  bench "arm.mem_rw_ns" "ns" (fun () ->
      Arm.Memory.write64 mem a (Int64.succ (Arm.Memory.read64 mem a)))

(* Simulated instructions per wall second over the four microbenchmarks
   on the five configurations, as the bench trajectory reports it. *)
let sim_insns_row () =
  let insns = ref 0 and wall = ref 0. in
  List.iter
    (fun (_, col) ->
      let m = Scenario.make_arm col in
      List.iter (fun b -> Micro.arm_op m b ()) Micro.all;
      let s = Machine.snapshot m in
      let t0 = now_ns () in
      for _ = 1 to 100 do
        List.iter (fun b -> Micro.arm_op m b ()) Micro.all
      done;
      wall := !wall +. (now_ns () -. t0);
      insns := !insns + (Machine.delta_since m s).Cost.d_insns)
    Fleet.columns;
  { name = "arm.sim_insns_per_s"; value = float_of_int !insns /. (!wall /. 1e9); unit = "1/s" }

(* --- core, gic, mmu --- *)

let core_rows () =
  let mem = Arm.Memory.create () in
  let page = Core.Deferred_page.create mem ~base:0x8000_0000L in
  let read_virtual r = Int64.of_int (Sysreg.index r) in
  let write_virtual _ v = ignore (Sys.opaque_identity v) in
  [
    bench "core.page_populate_ns" "ns" (fun () ->
        Core.Deferred_page.populate page ~read_virtual);
    bench "core.page_drain_ns" "ns" (fun () ->
        Core.Deferred_page.drain page ~write_virtual);
  ]

let gic_rows () =
  let lrs = Array.make 4 (Gic.Vgic.encode_lr Gic.Vgic.empty_lr) in
  let lr_cycle () =
    ignore (Gic.Vgic.inject lrs ~vintid:27 ());
    match Gic.Vgic.v_acknowledge lrs with
    | Some v -> ignore (Gic.Vgic.v_eoi lrs ~vintid:v)
    | None -> ()
  in
  let d = Gic.Dist.create ~ncpus:2 in
  Gic.Dist.enable d ~cpu:1 ~intid:5;
  let sgi () =
    Gic.Dist.send_sgi d ~src:0 ~dst:1 ~intid:5;
    match Gic.Dist.acknowledge d ~cpu:1 with
    | Some i -> Gic.Dist.eoi d ~cpu:1 ~intid:i
    | None -> ()
  in
  [ bench "gic.lr_cycle_ns" "ns" lr_cycle; bench "gic.sgi_ns" "ns" sgi ]

let mmu_rows () =
  let mem = Arm.Memory.create () in
  let s2 =
    Mmu.Stage2.create mem (Mmu.Walk.allocator ~start:0x9_0000_0000L) ~vmid:1
  in
  let ipa = 0x4000_3000L in
  Mmu.Stage2.map_page s2 ~ipa ~pa:0x8000_3000L ~perms:Mmu.Pte.rw;
  let walk () = Mmu.Walk.walk mem ~base:s2.Mmu.Stage2.base ~ia:ipa ~is_write:false in
  let tlb = Mmu.Tlb.create () in
  Mmu.Tlb.insert tlb ~vmid:1 ~asid:0 ~va:ipa ~pa:0x8000_3000L ~perms:Mmu.Pte.rw;
  let remap =
    let m = Scenario.make_arm (Scenario.Arm_nested (Hyp.Config.v Hyp.Config.Hw_neve)) in
    Machine.smp_map m ~cpu:0 ~ipa ~pa:0x8000_0000L;
    let gen = ref 0 in
    fun () ->
      incr gen;
      Machine.smp_remap m ~cpu:0 ~ipa ~pa:(Int64.of_int (0x8000_0000 + (0x1000 * (!gen land 7))))
  in
  [
    bench "mmu.walk_ns" "ns" walk;
    bench "mmu.tlb_lookup_ns" "ns" (fun () -> Mmu.Tlb.lookup tlb ~vmid:1 ~asid:0 ipa);
    bench ~scale:1e3 "mmu.remap_us" "us" remap;
  ]

(* --- snap, serve --- *)

let serve_sample = 15 (* one serve segment: every (config, profile) pair *)

let serve_ns ?migrate_every () =
  time_ns ~reps:3 (fun () ->
      for i = 0 to serve_sample - 1 do
        ignore (Serve.run_spec ?migrate_every (Serve.spec_of ~seed:42 i))
      done)

let snap_rows () =
  let neve_vhe = Scenario.Arm_nested (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_neve) in
  let m = Scenario.make_arm neve_vhe in
  let image = Snap.to_string m in
  let with_mig = serve_ns () in
  let without = serve_ns ~migrate_every:(Serve.default_requests + 1) () in
  [
    bench ~scale:1e6 "snap.save_ms" "ms" (fun () -> Snap.save m);
    bench ~scale:1e6 "snap.restore_ms" "ms" (fun () -> Snap.restore image);
    { name = "snap.image_kb"; value = float_of_int (String.length image) /. 1024.; unit = "KiB" };
    {
      name = "snap.migrate_ms";
      value =
        time_ns (fun () ->
            ignore (Snap.Migrate.run ~workload:(fun _ ~round:_ -> ()) (Scenario.make_arm neve_vhe)))
        /. 1e6;
      unit = "ms";
    };
    { name = "snap.migrate_share"; value = 1. -. (without /. with_mig); unit = "ratio" };
    { name = "serve.machine_ms"; value = with_mig /. float_of_int serve_sample /. 1e6; unit = "ms" };
  ]

(* --- fuzz, shard --- *)

let column_slug (c : Fuzz.Diff.column) =
  let cfg = c.Fuzz.Diff.col_config in
  let mech =
    match cfg.Hyp.Config.mech with
    | Hyp.Config.Hw_v8_3 -> "v8.3"
    | Hyp.Config.Pv_v8_3 -> "pv-v8.3"
    | Hyp.Config.Hw_neve -> "neve"
    | Hyp.Config.Pv_neve -> "pv-neve"
  in
  mech
  ^ (if cfg.Hyp.Config.guest_vhe then "-vhe" else "")
  ^ if Expose.Policy.equal c.Fuzz.Diff.col_expose Expose.Policy.none then "" else "-ooh"

let fuzz_rows () =
  let g = Fuzz.Gen.create ~seed:0 in
  let sample = List.init 200 (fun _ -> Fuzz.Prog.to_words (Fuzz.Gen.program g)) in
  let columns = Array.of_list Fuzz.Diff.columns in
  let in_column = Array.make (Array.length columns) 0. and whole = ref 0. in
  (* program-major, as run_words itself goes: each column alone, then
     the whole oracle, so both see the same cache state *)
  List.iter
    (fun w ->
      let budget = Fuzz.Diff.budget_for w in
      Array.iteri
        (fun i (c : Fuzz.Diff.column) ->
          in_column.(i) <-
            in_column.(i)
            +. time_ns ~reps:1 (fun () ->
                   ignore
                     (Fuzz.Diff.run_column ~expose:c.Fuzz.Diff.col_expose ~budget
                        c.Fuzz.Diff.col_config w)))
        columns;
      whole := !whole +. time_ns ~reps:1 (fun () -> ignore (Fuzz.Diff.run_words w)))
    sample;
  let n = float_of_int (List.length sample) in
  let g2 = Fuzz.Gen.create ~seed:1 in
  [
    bench ~scale:1e3 "fuzz.gen_us" "us" (fun () -> Fuzz.Prog.to_words (Fuzz.Gen.program g2));
    { name = "fuzz.diff_ms"; value = !whole /. n /. 1e6; unit = "ms" };
    {
      name = "fuzz.compare_share";
      value = 1. -. (Array.fold_left ( +. ) 0. in_column /. !whole);
      unit = "ratio";
    };
  ]
  @ Array.to_list
      (Array.mapi
         (fun i c ->
           { name = "fuzz.column_us." ^ column_slug c; value = in_column.(i) /. n /. 1e3; unit = "us" })
         columns)

let shard_row () =
  let jobs = 64 in
  bench ~per:(float_of_int jobs) ~scale:1e3 "shard.map_us_per_job" "us" (fun () ->
      Shard.map ~shards:1 ~jobs (fun i -> i))

let all () =
  hyp_rows ()
  @ [ route_row () ] @ xlate_rows () @ [ mem_row (); sim_insns_row () ]
  @ core_rows () @ gic_rows () @ mmu_rows () @ snap_rows () @ fuzz_rows ()
  @ [ shard_row () ]
