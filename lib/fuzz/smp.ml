(* Multi-vCPU differential fuzzing: SMP translation programs under every
   column.

   Where {!Diff} runs encoded guest-hypervisor instruction streams, this
   driver runs machine-level SMP programs — remaps racing readers on the
   other vCPU, staged break-before-make sequences with reads landing
   inside and after the window, and SGI storms — identically on every
   ARM nested column of [Workloads.Scenario.fuzz_columns].

   Two oracles:

   - {e differential}: the architectural observation stream (translation
     serve classes and PAs, acknowledged SGI intids) must be identical
     in every column.  The mechanisms differ in trap counts, never in
     what the guest observes.

   - {e invariant}: after every completed shootdown the machine's own
     break-before-make checker must be clean — no stale translation
     served after a shootdown completed, no make without a completed
     break.  A violation in any column is a finding even when all
     columns agree on it.

   A campaign is fully determined by [(seed, n)]; the generator's PRNG
   is the only entropy source, so reports are byte-identical across
   runs. *)

module Machine = Hyp.Machine
module Scenario = Workloads.Scenario
module Rng = Fault.Plan.Rng

(* --- program shapes --- *)

type op =
  | Read of { cpu : int; page : int }
  | Remap of { cpu : int; page : int }
      (* full fixed protocol: break -> TLBI bcast -> DSB -> make *)
  | Staged of { cpu : int; page : int; reader : int; window_reads : int }
      (* the protocol spelled out, with the reader vCPU translating
         inside the break window (architecturally allowed to be stale)
         and again after completion (must be fresh) *)
  | Storm of { cpu : int; bursts : int }
      (* SGI storm: bursts of IPIs at every other vCPU *)

type prog = { p_index : int; p_ops : op list }

let npages = 4
let page_ipa i = Int64.add 0x4000_0000L (Int64.of_int (i * 0x1000))

(* Distinct frames per (page, generation): remaps walk the generation
   forward so every make installs a PA the oracle can distinguish. *)
let frame ~page ~gen =
  Int64.add 0x8000_0000L (Int64.of_int ((page * 0x100 * 0x1000) + (gen * 0x1000)))

let gen_op rng ~ncpus =
  let cpu = Rng.int rng ncpus in
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> Read { cpu; page = Rng.int rng npages }
  | 4 | 5 | 6 -> Remap { cpu; page = Rng.int rng npages }
  | 7 | 8 ->
    let reader = (cpu + 1 + Rng.int rng (max 1 (ncpus - 1))) mod ncpus in
    Staged
      {
        cpu;
        page = Rng.int rng npages;
        reader = (if reader = cpu then (cpu + 1) mod ncpus else reader);
        window_reads = 1 + Rng.int rng 3;
      }
  | _ -> Storm { cpu; bursts = 1 + Rng.int rng 4 }

let gen_prog ~seed ~index ~ncpus ~ops =
  let rng = Rng.make (Shard.derive_int ~seed ~index) in
  { p_index = index; p_ops = List.init ops (fun _ -> gen_op rng ~ncpus) }

(* --- running one program on one column --- *)

let serve_str = function
  | Mmu.Shootdown.Fresh pa -> Printf.sprintf "fresh:0x%Lx" pa
  | Mmu.Shootdown.Stale pa -> Printf.sprintf "STALE:0x%Lx" pa
  | Mmu.Shootdown.Stale_in_window pa -> Printf.sprintf "window:0x%Lx" pa
  | Mmu.Shootdown.Unmapped -> "unmapped"

(* Observation stream + invariant verdict of one column.  Only
   architectural outcomes are recorded — trap counts and cycle costs
   differ across mechanisms by design. *)
type col_obs = {
  co_events : string list;  (* reverse order while building *)
  co_stats : Mmu.Shootdown.stats option;
}

let run_col (cfg : Hyp.Config.t) prog =
  let ncpus = 2 in
  let m = Scenario.make_arm ~ncpus (Scenario.Arm_nested cfg) in
  let gens = Array.make npages 0 in
  let ev = ref [] in
  let obs fmt = Printf.ksprintf (fun s -> ev := s :: !ev) fmt in
  (* all pages mapped up front from vCPU 0, generation 0 *)
  for p = 0 to npages - 1 do
    Machine.smp_map m ~cpu:0 ~ipa:(page_ipa p) ~pa:(frame ~page:p ~gen:0)
  done;
  let read ~cpu ~page =
    let s = Machine.smp_read m ~cpu ~ipa:(page_ipa page) in
    obs "r c%d p%d %s" cpu page (serve_str s)
  in
  let ack ~cpu =
    match Machine.vm_ack m ~cpu with
    | Some v ->
      ignore (Machine.vm_eoi m ~cpu ~vintid:v);
      obs "ack c%d i%d" cpu v
    | None -> obs "ack c%d none" cpu
  in
  List.iter
    (fun op ->
      match op with
      | Read { cpu; page } -> read ~cpu ~page
      | Remap { cpu; page } ->
        gens.(page) <- gens.(page) + 1;
        let pa = frame ~page ~gen:gens.(page) in
        Machine.smp_remap m ~cpu ~ipa:(page_ipa page) ~pa;
        obs "remap c%d p%d g%d" cpu page gens.(page);
        read ~cpu ~page
      | Staged { cpu; page; reader; window_reads } ->
        gens.(page) <- gens.(page) + 1;
        let pa = frame ~page ~gen:gens.(page) in
        let ipa = page_ipa page in
        Machine.bbm_break m ~cpu ~ipa;
        (* reads inside the break window: a cached old translation is
           architecturally permitted here *)
        for _ = 1 to window_reads do
          read ~cpu:reader ~page
        done;
        Machine.tlbi_bcast m ~cpu (Mmu.Shootdown.By_page ipa);
        Machine.dsb_sync m ~cpu;
        Machine.bbm_make m ~cpu ~ipa ~pa;
        obs "staged c%d p%d g%d" cpu page gens.(page);
        (* after completion: both the initiator and the racing reader
           must see the new frame *)
        read ~cpu ~page;
        read ~cpu:reader ~page
      | Storm { cpu; bursts } ->
        for _ = 1 to bursts do
          for target = 0 to ncpus - 1 do
            if target <> cpu then begin
              Machine.send_ipi m ~cpu ~target ~intid:(1 + (target mod 15));
              ack ~cpu:target
            end
          done
        done)
    prog.p_ops;
  { co_events = List.rev !ev; co_stats = Machine.shootdown_stats m }

(* --- the campaign --- *)

type report = {
  r_seed : int;
  r_programs : int;
  r_ops_per_program : int;
  r_columns : string list;
  r_shootdowns : int;   (* completed broadcasts, summed over all runs *)
  r_recipients : int;
  r_divergences : string list;
  r_violations : string list;
}

let finding_count r = List.length r.r_divergences + List.length r.r_violations

let default_ops = 32

let check_invariants ~col ~prog (o : col_obs) =
  match o.co_stats with
  | None -> []
  | Some s ->
    let v name count =
      if count = 0 then []
      else
        [ Printf.sprintf "program %d, %s: %s (%d) — %s" prog col name count
            (Fmt.str "%a" Mmu.Shootdown.pp_stats s) ]
    in
    v "stale-after-shootdown" s.Mmu.Shootdown.s_stale_serves
    @ v "served-from-broken-entry" s.Mmu.Shootdown.s_broken_serves
    @ v "bbm-ordering" s.Mmu.Shootdown.s_bbm_violations

let diff_events ~ref_col ~col ~prog ref_ev ev =
  if ref_ev = ev then []
  else begin
    (* find the first disagreeing event for the report *)
    let rec first i = function
      | [], [] -> Printf.sprintf "streams differ (index %d)" i
      | a :: _, [] -> Printf.sprintf "event %d: %S vs end-of-stream" i a
      | [], b :: _ -> Printf.sprintf "event %d: end-of-stream vs %S" i b
      | a :: ta, b :: tb ->
        if a = b then first (i + 1) (ta, tb)
        else Printf.sprintf "event %d: %S vs %S" i a b
    in
    [ Printf.sprintf "program %d: %s vs %s: %s" prog ref_col col
        (first 0 (ref_ev, ev)) ]
  end

let run ?(ops = default_ops) ~seed ~n () =
  let columns = Scenario.fuzz_columns in
  let shootdowns = ref 0 and recipients = ref 0 in
  let divergences = ref [] and violations = ref [] in
  for index = 0 to n - 1 do
    let prog = gen_prog ~seed ~index ~ncpus:2 ~ops in
    let results =
      List.map (fun (name, cfg) -> (name, run_col cfg prog)) columns
    in
    (match results with
     | [] -> ()
     | (ref_col, ref_o) :: rest ->
       List.iter
         (fun (col, o) ->
           divergences :=
             !divergences
             @ diff_events ~ref_col ~col ~prog:index ref_o.co_events
                 o.co_events)
         rest;
       List.iter
         (fun (col, o) ->
           violations := !violations @ check_invariants ~col ~prog:index o)
         ((ref_col, ref_o) :: rest);
       (match ref_o.co_stats with
        | Some s ->
          shootdowns := !shootdowns + s.Mmu.Shootdown.s_shootdowns;
          recipients := !recipients + s.Mmu.Shootdown.s_recipients
        | None -> ()))
  done;
  {
    r_seed = seed;
    r_programs = n;
    r_ops_per_program = ops;
    r_columns = List.map fst columns;
    r_shootdowns = !shootdowns;
    r_recipients = !recipients;
    r_divergences = !divergences;
    r_violations = !violations;
  }

let pp_report ppf r =
  Fmt.pf ppf "smp fuzz: seed %d, %d programs x %d ops, %d columns@."
    r.r_seed r.r_programs r.r_ops_per_program (List.length r.r_columns);
  Fmt.pf ppf "  shootdowns completed (column 0): %d, recipients: %d@."
    r.r_shootdowns r.r_recipients;
  Fmt.pf ppf "  divergences: %d, invariant violations: %d@."
    (List.length r.r_divergences)
    (List.length r.r_violations);
  List.iter (fun d -> Fmt.pf ppf "  DIVERGENCE %s@." d) r.r_divergences;
  List.iter (fun v -> Fmt.pf ppf "  VIOLATION %s@." v) r.r_violations

let json r =
  let strings xs = Json.List (List.map (fun s -> Json.String s) xs) in
  Json.Obj
    [
      ("schema", Json.String "neve-smp-fuzz/1");
      ("seed", Json.Int r.r_seed);
      ("programs", Json.Int r.r_programs);
      ("ops", Json.Int r.r_ops_per_program);
      ("columns", strings r.r_columns);
      ("shootdowns", Json.Int r.r_shootdowns);
      ("recipients", Json.Int r.r_recipients);
      ("divergences", strings r.r_divergences);
      ("violations", strings r.r_violations);
    ]
