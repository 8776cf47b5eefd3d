(* The sharded fleet driver.

   Everything here is arranged around one property: the aggregate is a
   function of (n, seed, profile, configs, ops, traced) and of nothing
   else.  Machine specs are pure functions of the machine index; seeds
   come from Shard.derive (position-independent); Shard.map puts machine
   i's result in slot i; and every fold below walks slots in index
   order.  Shard count and scheduling can only change how
   fast the answer arrives, never the answer. *)

module Machine = Hyp.Machine
module Scenario = Workloads.Scenario
module Profiles = Workloads.Profiles

(* --- the configuration columns --- *)

let columns =
  [
    ("vm", Scenario.Arm_vm);
    ("v8.3", Scenario.Arm_nested (Hyp.Config.v Hyp.Config.Hw_v8_3));
    ( "v8.3-vhe",
      Scenario.Arm_nested (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_v8_3) );
    ("neve", Scenario.Arm_nested (Hyp.Config.v Hyp.Config.Hw_neve));
    ( "neve-vhe",
      Scenario.Arm_nested (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_neve) );
  ]

let column_keys = List.map fst columns

let lookup_columns keys =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | k :: rest -> (
      match List.assoc_opt k columns with
      | Some col -> go ((k, col) :: acc) rest
      | None -> Error k)
  in
  go [] keys

(* --- per-machine specs --- *)

type spec = {
  sp_index : int;
  sp_seed : int64;
  sp_config : string;
  sp_col : Scenario.arm_column;
  sp_profile : string;
}

let profile_of ~profile index =
  if String.lowercase_ascii profile = "mixed" then
    let all = Array.of_list Profiles.all in
    all.(index mod Array.length all)
  else
    match Profiles.by_name profile with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Fleet: unknown profile %S" profile)

let spec_of ~seed ~profile ~configs index =
  let configs = Array.of_list configs in
  let key, col = configs.(index mod Array.length configs) in
  {
    sp_index = index;
    sp_seed = Shard.derive ~seed ~index;
    sp_config = key;
    sp_col = col;
    sp_profile = (profile_of ~profile index).Profiles.name;
  }

(* --- per-machine results --- *)

type result = {
  r_index : int;
  r_config : string;
  r_profile : string;
  r_seed : int64;
  r_ops : int;
  r_cycles : int;
  r_insns : int;
  r_traps : int;
  r_by_kind : (Cost.trap_kind * int) list;
  r_trace_classes : (string * int) list;
  r_trace_ok : bool;
  r_digest : int64;
}

(* One guest operation, drawn from a profile-weighted distribution: the
   workload's exit-event counts become selection weights, so an
   IPI-dominated profile (Hackbench) boots a fleet of IPI-dominated
   machines and a line-rate receiver (TCP_MAERTS) an interrupt-dominated
   one.  A constant compute weight keeps every mix grounded in real
   guest work. *)
let weighted_ops (p : Profiles.t) =
  [|
    (p.Profiles.hypercalls, `Hvc);
    (p.Profiles.ipis, `Ipi);
    (p.Profiles.irqs, `Irq);
    (p.Profiles.packets, `Mmio);
    (max 8 (int_of_float (p.Profiles.work_cycles /. 25.0e6)), `Compute);
  |]

let pick_op weights total rng =
  let roll = Fault.Plan.Rng.int rng total in
  let rec go i acc =
    let w, op = weights.(i) in
    let acc = acc + w in
    if roll < acc || i = Array.length weights - 1 then op else go (i + 1) acc
  in
  go 0 0

let one_op rng m ~ncpus op =
  let cpu = Fault.Plan.Rng.int rng ncpus in
  match op with
  | `Hvc -> Machine.hypercall m ~cpu
  | `Mmio ->
    Machine.mmio_access m ~cpu ~addr:0x0900_0000L
      ~is_write:(Fault.Plan.Rng.bool rng)
  | `Ipi -> (
    let target = (cpu + 1) mod ncpus in
    Machine.send_ipi m ~cpu ~target ~intid:7;
    match Machine.vm_ack m ~cpu:target with
    | Some vintid -> ignore (Machine.vm_eoi m ~cpu:target ~vintid)
    | None -> ())
  | `Irq -> (
    Machine.device_irq m ~cpu ~intid:Gic.Irq.virtio_net_spi;
    match Machine.vm_ack m ~cpu with
    | Some vintid -> ignore (Machine.vm_eoi m ~cpu ~vintid)
    | None -> ())
  | `Compute -> Machine.compute m ~cpu ~insns:(100 + Fault.Plan.Rng.int rng 200)

let default_ops = 48

let digest_of_string s = Shard.fnv1a_64 s
let digest_hex d = Printf.sprintf "%016Lx" d

let canonical_of_result r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%d|%s|%s|%Lx|%d|%d|%d|%d" r.r_index r.r_config
       r.r_profile r.r_seed r.r_ops r.r_cycles r.r_insns r.r_traps);
  List.iter
    (fun (k, n) ->
      if n > 0 then
        Buffer.add_string b (Printf.sprintf "|%s:%d" (Cost.trap_kind_name k) n))
    r.r_by_kind;
  List.iter
    (fun (c, n) ->
      if n > 0 then Buffer.add_string b (Printf.sprintf "|t.%s:%d" c n))
    r.r_trace_classes;
  if not r.r_trace_ok then Buffer.add_string b "|TRACE-MISMATCH";
  Buffer.contents b

let run_spec ?(traced = false) ?(ops = default_ops) sp =
  let profile = profile_of ~profile:sp.sp_profile sp.sp_index in
  let ncpus = 2 in
  let m = Scenario.make_arm ~ncpus sp.sp_col in
  (* tracing covers exactly the measured region: enabling after boot
     clears this domain's counters, so the tracer's class sums are
     comparable to the meter delta below *)
  if traced then Trace.enable ~capacity:4096 ();
  let snap = Machine.snapshot m in
  let rng = Fault.Plan.Rng.make (Int64.to_int sp.sp_seed land max_int) in
  let weights = weighted_ops profile in
  let total = Array.fold_left (fun acc (w, _) -> acc + w) 0 weights in
  for _ = 1 to ops do
    one_op rng m ~ncpus (pick_op weights total rng)
  done;
  let d = Machine.delta_since m snap in
  let trace_classes, trace_ok =
    if traced then begin
      let classes = Trace.class_counts () in
      let ok = Trace.class_total () = d.Cost.d_traps in
      Trace.detach ();
      (classes, ok)
    end
    else ([], true)
  in
  let r =
    {
      r_index = sp.sp_index;
      r_config = sp.sp_config;
      r_profile = sp.sp_profile;
      r_seed = sp.sp_seed;
      r_ops = ops;
      r_cycles = d.Cost.d_cycles;
      r_insns = d.Cost.d_insns;
      r_traps = d.Cost.d_traps;
      r_by_kind = d.Cost.d_by_kind;
      r_trace_classes = trace_classes;
      r_trace_ok = trace_ok;
      r_digest = 0L;
    }
  in
  { r with r_digest = digest_of_string (canonical_of_result r) }

(* --- the fleet --- *)

type per_config = {
  pc_name : string;
  pc_machines : int;
  pc_ops : int;
  pc_cycles : int;
  pc_insns : int;
  pc_traps : int;
}

type aggregate = {
  a_n : int;
  a_seed : int;
  a_profile : string;
  a_ops : int;
  a_cycles : int;
  a_insns : int;
  a_traps : int;
  a_by_config : per_config list;
  a_classes : (string * int) list;
  a_trace_ok : bool;
  a_digest : int64;
}

type t = { agg : aggregate; results : result array }

let merge ~n ~seed ~profile ~configs results =
  (* every fold below runs in machine-index order over the slot array —
     the other half of the byte-determinism contract *)
  let by_kind = Array.make Cost.kind_count 0 in
  let per_config =
    List.map (fun (k, _) -> (k, ref (0, 0, 0, 0, 0))) configs
  in
  let ops = ref 0 and cycles = ref 0 and insns = ref 0 and traps = ref 0 in
  let trace_ok = ref true in
  let digest = ref (Shard.fnv1a_64 "neve-fleet") in
  Array.iter
    (fun r ->
      ops := !ops + r.r_ops;
      cycles := !cycles + r.r_cycles;
      insns := !insns + r.r_insns;
      traps := !traps + r.r_traps;
      trace_ok := !trace_ok && r.r_trace_ok;
      List.iter
        (fun (k, c) -> by_kind.(Cost.kind_index k) <- by_kind.(Cost.kind_index k) + c)
        r.r_by_kind;
      (let cell = List.assoc r.r_config per_config in
       let m, o, cy, ins, tr = !cell in
       cell := (m + 1, o + r.r_ops, cy + r.r_cycles, ins + r.r_insns, tr + r.r_traps));
      digest := Shard.fnv1a_64 ~init:!digest (digest_hex r.r_digest))
    results;
  let classes =
    List.filter_map
      (fun k ->
        let c = by_kind.(Cost.kind_index k) in
        if c > 0 then Some (Cost.trap_kind_name k, c) else None)
      Cost.all_trap_kinds
  in
  {
    a_n = n;
    a_seed = seed;
    a_profile = profile;
    a_ops = !ops;
    a_cycles = !cycles;
    a_insns = !insns;
    a_traps = !traps;
    a_by_config =
      List.map
        (fun (k, cell) ->
          let m, o, cy, ins, tr = !cell in
          {
            pc_name = k;
            pc_machines = m;
            pc_ops = o;
            pc_cycles = cy;
            pc_insns = ins;
            pc_traps = tr;
          })
        per_config;
    a_classes = classes;
    a_trace_ok = !trace_ok;
    a_digest = !digest;
  }

let run ?(shards = 1) ?(traced = false) ?(ops = default_ops)
    ?(configs = columns) ~n ~seed ~profile () =
  if n <= 0 then invalid_arg "Fleet.run: n must be positive";
  (* resolve the profile eagerly so a bad name fails before any domain
     spawns *)
  ignore (profile_of ~profile 0);
  let results =
    Shard.map ~shards ~jobs:n (fun i ->
        run_spec ~traced ~ops (spec_of ~seed ~profile ~configs i))
  in
  (* traced fleets own the tracer: workers stood down with [detach];
     the coordinator drops the cross-domain guard once all are joined *)
  if traced then Trace.disable ();
  { agg = merge ~n ~seed ~profile ~configs results; results }

(* --- rendering --- *)

let json { agg; _ } =
  let ints = List.map (fun (k, v) -> (k, Json.Int v)) in
  let config pc =
    Json.Obj
      (("name", Json.String pc.pc_name)
      :: ints
           [ ("machines", pc.pc_machines); ("ops", pc.pc_ops);
             ("cycles", pc.pc_cycles); ("insns", pc.pc_insns);
             ("traps", pc.pc_traps) ])
  in
  Json.Obj
    [
      ( "fleet",
        Json.Obj
          (ints [ ("n", agg.a_n); ("seed", agg.a_seed) ]
          @ [ ("profile", Json.String agg.a_profile) ]) );
      ( "totals",
        Json.Obj
          (ints
             [ ("ops", agg.a_ops); ("cycles", agg.a_cycles);
               ("insns", agg.a_insns); ("traps", agg.a_traps) ]) );
      ("configs", Json.List (List.map config agg.a_by_config));
      ("classes", Json.Obj (ints agg.a_classes));
      ("trace_ok", Json.Bool agg.a_trace_ok);
      ("digest", Json.String (digest_hex agg.a_digest));
    ]

let pp_summary ppf { agg; _ } =
  Fmt.pf ppf "@[<v>fleet: n=%d seed=%d profile=%s digest=%s@,"
    agg.a_n agg.a_seed agg.a_profile (digest_hex agg.a_digest);
  Fmt.pf ppf "totals: ops=%d cycles=%d insns=%d traps=%d trace_ok=%b@,"
    agg.a_ops agg.a_cycles agg.a_insns agg.a_traps agg.a_trace_ok;
  List.iter
    (fun pc ->
      Fmt.pf ppf "  %-10s machines=%-6d traps=%-8d cycles=%d@," pc.pc_name
        pc.pc_machines pc.pc_traps pc.pc_cycles)
    agg.a_by_config;
  Fmt.pf ppf "classes: %a@]"
    (Fmt.list ~sep:Fmt.sp (fun ppf (c, n) -> Fmt.pf ppf "%s:%d" c n))
    agg.a_classes
