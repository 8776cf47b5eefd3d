(* SLO-grade serving scenarios: request streams on SMP nested guests
   while faults and migrations fire underneath.

   Each machine of the fleet runs a virtio-net request stream drawn from
   a server profile (Apache, Memcached, MySQL): per request, guest
   compute, SMP stage-2 churn (remaps through the full shootdown
   protocol racing reads from the other vCPU), virtio TX packets whose
   kicks are MMIO exits under notification suppression, and finally the
   device interrupt whose virtual delivery the guest acknowledges.  A
   deterministic fault plan fires underneath (dropped/duplicated IRQs,
   spurious traps, hangs — a hung vCPU is recovered at the next request
   boundary, as the supervision watchdog would), and every
   [migrate_every] requests the machine live-migrates and the stream
   continues on the destination.

   Two latencies are sampled per request, in simulated cycles summed
   over all vCPU meters:

   - {e virtual-IRQ delivery}: device_irq raised -> guest acknowledge
     completes (the interrupt-path cost the paper's Virtual IPI and
     Virtual EOI microbenchmarks bound from both sides);
   - {e request completion}: the whole request including compute, kicks
     and the interrupt.

   Reported as p50/p99/p999 per ARM configuration.  The aggregate is a
   pure function of (n, seed, requests, migrate_every): per-machine
   seeds come from Shard.derive, Shard.map fills slot i with machine i,
   folds walk slots in index order, and the JSON report ({!json}) holds
   no wall clock and no shard count, so it is byte-identical across
   reruns and [--shards]. *)

module Machine = Hyp.Machine
module Scenario = Workloads.Scenario
module Profiles = Workloads.Profiles
module Virtio = Workloads.Virtio
module Rng = Fault.Plan.Rng

(* The server workloads of the paper's Table 8 that shape request
   streams (the batch workloads have no request/response structure). *)
let serve_profiles = [ "Apache"; "Memcached"; "MySQL" ]

let default_requests = 40
let default_migrate_every = 16

(* --- per-machine specs --- *)

type spec = {
  sp_index : int;
  sp_seed : int64;
  sp_config : string;
  sp_col : Scenario.arm_column;
  sp_profile : Profiles.t;
}

let spec_of ~seed index =
  let configs = Array.of_list Fleet.columns in
  let key, col = configs.(index mod Array.length configs) in
  let profs = Array.of_list serve_profiles in
  let pname = profs.(index / Array.length configs mod Array.length profs) in
  let profile =
    match Profiles.by_name pname with
    | Some p -> p
    | None -> invalid_arg ("Serve: unknown profile " ^ pname)
  in
  {
    sp_index = index;
    sp_seed = Shard.derive ~seed ~index;
    sp_config = key;
    sp_col = col;
    sp_profile = profile;
  }

(* --- per-machine results --- *)

type result = {
  r_index : int;
  r_config : string;
  r_profile : string;
  r_requests : int;
  r_migrations : int;
  r_irq_drops : int;     (* device IRQs lost to the fault plan *)
  r_virq_lat : int list; (* per-request virtual-IRQ delivery, cycles *)
  r_req_lat : int list;  (* per-request completion, cycles *)
  r_clean : bool;        (* shootdown/BBM checker clean *)
  r_digest : int64;
}

let canonical_of_result r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%d|%s|%s|%d|%d|%d|%b" r.r_index r.r_config r.r_profile
       r.r_requests r.r_migrations r.r_irq_drops r.r_clean);
  List.iter (fun l -> Buffer.add_string b (Printf.sprintf "|v%d" l)) r.r_virq_lat;
  List.iter (fun l -> Buffer.add_string b (Printf.sprintf "|r%d" l)) r.r_req_lat;
  Buffer.contents b

(* SMP working set: a few shared pages the requests remap and read. *)
let smp_pages = 4
let smp_ipa i = Int64.add 0x4000_0000L (Int64.of_int (i * 0x1000))
let smp_frame ~page ~gen =
  Int64.add 0x8000_0000L (Int64.of_int ((page * 0x400 * 0x1000) + (gen * 0x1000)))

let setup_smp m =
  for p = 0 to smp_pages - 1 do
    Machine.smp_map m ~cpu:0 ~ipa:(smp_ipa p) ~pa:(smp_frame ~page:p ~gen:0)
  done

let build_machine ?expose sp =
  let config, scen =
    match sp.sp_col with
    | Scenario.Arm_vm -> (Hyp.Config.v Hyp.Config.Hw_v8_3, Hyp.Host_hyp.Single_vm)
    | Scenario.Arm_nested cfg -> (cfg, Hyp.Host_hyp.Nested)
  in
  let fault_plan =
    Fault.Plan.make
      ~seed:(Int64.to_int sp.sp_seed land 0xfff_ffff)
      ~faults:6 ~horizon:1500
  in
  let m = Machine.create ~fault_plan ~ncpus:2 ?expose config scen in
  Machine.boot m;
  m

let run_spec ?(requests = default_requests)
    ?(migrate_every = default_migrate_every) ?expose sp =
  let ncpus = 2 in
  let m = ref (build_machine ?expose sp) in
  setup_smp !m;
  let gens = Array.make smp_pages 0 in
  let rng = Rng.make (Int64.to_int sp.sp_seed land max_int) in
  let vio = Virtio.create () in
  let now = ref 0. in
  let p = sp.sp_profile in
  let migrations = ref 0 and drops = ref 0 in
  let virq_lat = ref [] and req_lat = ref [] in
  let packets_per_request = max 1 (p.Profiles.burst) in
  for r = 0 to requests - 1 do
    (* migration round: the stream continues on the destination, whose
       TLBs (and the whole shootdown state) come back cold — so the SMP
       working set is re-mapped, exactly as a resumed guest refaults *)
    if r > 0 && r mod migrate_every = 0 then begin
      let dst, _report =
        Snap.Migrate.run ~workload:(fun _ ~round:_ -> ()) !m
      in
      m := dst;
      incr migrations;
      setup_smp !m;
      Array.fill gens 0 smp_pages 0
    end;
    let m = !m in
    let cpu = r mod ncpus in
    let other = (cpu + 1) mod ncpus in
    let start = Machine.total_cycles m in
    (* application work *)
    Machine.compute m ~cpu ~insns:(50 + Rng.int rng 100);
    (* SMP churn: some requests remap a shared page through the full
       shootdown protocol while the other vCPU reads it *)
    if Rng.int rng 4 = 0 then begin
      let page = Rng.int rng smp_pages in
      gens.(page) <- gens.(page) + 1;
      Machine.smp_remap m ~cpu ~ipa:(smp_ipa page)
        ~pa:(smp_frame ~page ~gen:gens.(page));
      ignore (Machine.smp_read m ~cpu:other ~ipa:(smp_ipa page))
    end
    else ignore (Machine.smp_read m ~cpu ~ipa:(smp_ipa (Rng.int rng smp_pages)));
    (* virtio TX: packets under notification suppression; each kick is
       an MMIO exit *)
    for _ = 1 to packets_per_request do
      now := !now +. p.Profiles.spacing;
      if Virtio.packet vio ~now:!now ~service:p.Profiles.service then
        Machine.mmio_access m ~cpu ~addr:0x0900_0000L ~is_write:true
    done;
    now := !now +. p.Profiles.gap;
    (* the response interrupt: measure virtual-IRQ delivery *)
    let vstart = Machine.total_cycles m in
    Machine.device_irq m ~cpu ~intid:Gic.Irq.virtio_net_spi;
    (match Machine.vm_ack m ~cpu with
     | Some vintid ->
       ignore (Machine.vm_eoi m ~cpu ~vintid);
       virq_lat := (Machine.total_cycles m - vstart) :: !virq_lat
     | None ->
       (* the fault plan dropped it (or the vCPU hung): no sample *)
       incr drops);
    req_lat := (Machine.total_cycles m - start) :: !req_lat;
    (* request-boundary supervision: recover hung vCPUs so the stream
       keeps serving, as the watchdog's restart policy does *)
    for c = 0 to ncpus - 1 do
      if Machine.is_hung m ~cpu:c then Machine.clear_hung m ~cpu:c
    done
  done;
  let clean =
    match Machine.shootdown_stats !m with
    | Some s -> Mmu.Shootdown.clean s
    | None -> true
  in
  let r =
    {
      r_index = sp.sp_index;
      r_config = sp.sp_config;
      r_profile = p.Profiles.name;
      r_requests = requests;
      r_migrations = !migrations;
      r_irq_drops = !drops;
      r_virq_lat = List.rev !virq_lat;
      r_req_lat = List.rev !req_lat;
      r_clean = clean;
      r_digest = 0L;
    }
  in
  { r with r_digest = Shard.fnv1a_64 (canonical_of_result r) }

(* --- aggregation --- *)

type per_config = {
  pc_name : string;
  pc_machines : int;
  pc_requests : int;
  pc_migrations : int;
  pc_irq_drops : int;
  pc_virq_p50 : int;
  pc_virq_p99 : int;
  pc_virq_p999 : int;
  pc_req_p50 : int;
  pc_req_p99 : int;
  pc_req_p999 : int;
}

type t = {
  s_n : int;
  s_seed : int;
  s_requests : int;
  s_migrate_every : int;
  s_expose : Expose.Policy.t;
  s_by_config : per_config list;
  s_clean : bool;
  s_digest : int64;
  s_results : result array;
}

let pct q xs = if xs = [] then 0 else Cost.Stats.percentile q xs

let merge ~n ~seed ~requests ~migrate_every ~expose results =
  (* slot-order folds: the aggregate must not depend on scheduling *)
  let per_config =
    List.map (fun (k, _) -> (k, ref (0, 0, 0, 0, [], []))) Fleet.columns
  in
  let clean = ref true in
  let digest = ref (Shard.fnv1a_64 "neve-serve") in
  Array.iter
    (fun r ->
      clean := !clean && r.r_clean;
      (let cell = List.assoc r.r_config per_config in
       let m, rq, mg, dr, vl, rl = !cell in
       cell :=
         ( m + 1, rq + r.r_requests, mg + r.r_migrations, dr + r.r_irq_drops,
           vl @ r.r_virq_lat, rl @ r.r_req_lat ));
      digest := Shard.fnv1a_64 ~init:!digest (Fleet.digest_hex r.r_digest))
    results;
  {
    s_n = n;
    s_seed = seed;
    s_requests = requests;
    s_migrate_every = migrate_every;
    s_expose = expose;
    s_by_config =
      List.map
        (fun (k, cell) ->
          let m, rq, mg, dr, vl, rl = !cell in
          {
            pc_name = k;
            pc_machines = m;
            pc_requests = rq;
            pc_migrations = mg;
            pc_irq_drops = dr;
            pc_virq_p50 = pct 0.50 vl;
            pc_virq_p99 = pct 0.99 vl;
            pc_virq_p999 = pct 0.999 vl;
            pc_req_p50 = pct 0.50 rl;
            pc_req_p99 = pct 0.99 rl;
            pc_req_p999 = pct 0.999 rl;
          })
        per_config;
    s_clean = !clean;
    s_digest = !digest;
    s_results = results;
  }

let run ?(shards = 1) ?(requests = default_requests)
    ?(migrate_every = default_migrate_every)
    ?(expose = Expose.Policy.none) ~n ~seed () =
  if n <= 0 then invalid_arg "Serve.run: n must be positive";
  if requests <= 0 then invalid_arg "Serve.run: requests must be positive";
  if migrate_every <= 0 then
    invalid_arg "Serve.run: migrate-every must be positive";
  let results =
    Shard.map ~shards ~jobs:n (fun i ->
        run_spec ~requests ~migrate_every ~expose (spec_of ~seed i))
  in
  merge ~n ~seed ~requests ~migrate_every ~expose results

(* --- rendering --- *)

let json t =
  let config pc =
    Json.Obj
      (("name", Json.String pc.pc_name)
      :: List.map
           (fun (k, v) -> (k, Json.Int v))
           [ ("machines", pc.pc_machines); ("requests", pc.pc_requests);
             ("migrations", pc.pc_migrations); ("irq_drops", pc.pc_irq_drops);
             ("virq_p50", pc.pc_virq_p50); ("virq_p99", pc.pc_virq_p99);
             ("virq_p999", pc.pc_virq_p999); ("req_p50", pc.pc_req_p50);
             ("req_p99", pc.pc_req_p99); ("req_p999", pc.pc_req_p999) ])
  in
  (* neve-slo-report/1 carries every top-level field as a string *)
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.String v))
       [ ("schema", "neve-slo-report/1"); ("scenario", "serve");
         ("seed", string_of_int t.s_seed); ("n", string_of_int t.s_n);
         ("requests", string_of_int t.s_requests);
         ("migrate_every", string_of_int t.s_migrate_every);
         ("profiles", String.concat "+" serve_profiles);
         ("expose", Expose.Policy.to_string t.s_expose);
         ("clean", if t.s_clean then "true" else "false");
         ("digest", Fleet.digest_hex t.s_digest) ]
    @ [ ("configs", Json.List (List.map config t.s_by_config)) ])

let pp_summary ppf t =
  Fmt.pf ppf
    "@[<v>serve: n=%d seed=%d requests=%d migrate-every=%d expose=%a \
     digest=%s@,"
    t.s_n t.s_seed t.s_requests t.s_migrate_every Expose.Policy.pp t.s_expose
    (Fleet.digest_hex t.s_digest);
  Fmt.pf ppf "shootdown/BBM checker: %s@,"
    (if t.s_clean then "clean" else "VIOLATED");
  Fmt.pf ppf "%-10s %5s %5s %4s %5s %9s %9s %9s %9s %9s %9s@," "config" "mach"
    "reqs" "migr" "drops" "virq-p50" "virq-p99" "virq-p999" "req-p50"
    "req-p99" "req-p999";
  List.iter
    (fun pc ->
      Fmt.pf ppf "%-10s %5d %5d %4d %5d %9d %9d %9d %9d %9d %9d@," pc.pc_name
        pc.pc_machines pc.pc_requests pc.pc_migrations pc.pc_irq_drops
        pc.pc_virq_p50 pc.pc_virq_p99 pc.pc_virq_p999 pc.pc_req_p50
        pc.pc_req_p99 pc.pc_req_p999)
    t.s_by_config;
  Fmt.pf ppf "@]"
