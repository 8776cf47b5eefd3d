(* The fuzz oracle's template machines: one started machine per column
   and domain, rewound between programs instead of built afresh.

   - golden: a seeded campaign's JSON report (one file for the runs
     with and without the snapshot oracle, which must print the same
     report) and an FNV-1a digest of every column observation of its
     programs, all recorded from fresh-machine runs, reproduce byte for
     byte — CI's determinism pair compares a build only with
     itself, so a deterministic leak from one program into the next
     would pass it;
   - rewind: after a program that writes virtual EL2/EL1 registers and
     scratch memory and leaves virtual EL2, after one that raises, and
     after one that raises inside the EL2 handler, every column's
     rewound template equals a freshly created and started machine
     ([Snap.diff], plus the distributor and the page set, which
     the image does not carry), and program order does not matter;
   - bounds: the caches a template keeps for a whole campaign stop
     growing. *)

module Insn = Arm.Insn
module Sysreg = Arm.Sysreg
module Cpu = Arm.Cpu
module Machine = Hyp.Machine
module Host_hyp = Hyp.Host_hyp
module Diff = Fuzz.Diff

let check = Alcotest.check

(* --- golden campaign ------------------------------------------------- *)

let golden name = Test_supervise.locate [ "golden/" ^ name; "test/golden/" ^ name ]

let fnv1a h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let render_obs (o : Diff.obs) =
  let b = Buffer.create 256 in
  let add fmt = Printf.bprintf b fmt in
  add "err=%s;out=%s;pc=%Lx;ps=%s;v2=%b;"
    (Option.value o.ob_error ~default:"-") o.ob_outcome o.ob_pc o.ob_pstate
    o.ob_in_vel2;
  for i = 0 to (String.length o.ob_regs / 8) - 1 do
    add "%Lx," (String.get_int64_ne o.ob_regs (i * 8))
  done;
  List.iter (fun (n, v) -> add "%s=%Lx," n v) o.ob_vel2;
  add ";";
  List.iter (fun (n, v) -> add "%s=%Lx," n v) o.ob_vel1;
  add ";";
  List.iter (fun (a, v) -> add "%x=%Lx," a v) o.ob_mem;
  add ";traps=%d;cycles=%d;" o.ob_traps o.ob_cycles;
  (match o.ob_ctx with
   | None -> add "ctx=-"
   | Some c ->
     add "ctx=%d/%s/%Lx/%s/%s" c.Fault.Error.fc_cpu
       (Arm.Pstate.el_name c.fc_el) c.fc_pc
       (String.concat "|" c.fc_trail)
       (String.concat "|" c.fc_events));
  Buffer.contents b

(* Every column's straight observation and its snapshot-at-half-budget
   twin, for each of the campaign's first [n] programs. *)
let campaign_digest ~seed ~n =
  let gen = Fuzz.Gen.create ~seed in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to n - 1 do
    let words = Fuzz.Prog.to_words (Fuzz.Gen.program gen) in
    let budget = Diff.budget_for words in
    let res = Diff.run_words words in
    List.iter
      (fun ((c : Diff.column), o) ->
        let snap =
          Diff.run_column_snapshot ~expose:c.col_expose ~budget
            ~at:(budget / 2) c.col_config words
        in
        h := fnv1a !h (Printf.sprintf "%d:%s:" i c.col_name);
        h := fnv1a !h (render_obs o);
        h := fnv1a !h (render_obs snap))
      res.Diff.res_obs
  done;
  Printf.sprintf "%016Lx\n" !h

(* The snapshot oracle does not change the report (a divergence would),
   so both runs must print the one golden report. *)
let test_golden_campaign () =
  (* a clean campaign writes no repro, but the CLI makes the directory *)
  let corpus = Filename.concat (Filename.get_temp_dir_name ()) "neve-golden" in
  let report = Test_supervise.read_file (golden "fuzz-seed7.json") in
  List.iter
    (fun flags ->
      let rc, out =
        Test_supervise.run_cli
          ("fuzz --seed 7 -n 200 --json --corpus-dir " ^ Filename.quote corpus
           ^ flags)
      in
      check Alcotest.int ("exit status" ^ flags) 0 rc;
      check Alcotest.string
        ("fuzz --seed 7 -n 200 --json" ^ flags ^ " = fuzz-seed7.json")
        report out)
    [ ""; " --snap-oracle" ];
  check Alcotest.string "observation digest, seed 7, 200 programs"
    (Test_supervise.read_file (golden "fuzz-seed7.obs-digest"))
    (campaign_digest ~seed:7 ~n:200)

(* --- rewound template = fresh machine ---------------------------------- *)

let encode insns = Array.of_list (List.map Arm.Encode.encode insns)

(* The guest hypervisor writes two virtual EL2 registers, two of its
   nested VM's EL1 registers (the _EL12 aliases under VHE) and two
   scratch words, then erets out of virtual EL2. *)
let writes (config : Hyp.Config.t) =
  let el1 r = if config.Hyp.Config.guest_vhe then Sysreg.el12 r else Sysreg.direct r in
  [ Insn.Mov (1, Insn.Imm 0x4321L);
    Insn.Msr (Sysreg.direct Sysreg.VBAR_EL2, Insn.Reg 1);
    Insn.Msr (Sysreg.direct Sysreg.TPIDR_EL2, Insn.Reg 1);
    Insn.Mov (2, Insn.Imm 0x77L);
    Insn.Msr (el1 Sysreg.SCTLR_EL1, Insn.Reg 2);
    Insn.Msr (el1 Sysreg.ELR_EL1, Insn.Reg 2);
    Insn.Mov (3, Insn.Imm (Int64.of_int Fuzz.Gen.scratch_base));
    Insn.Str (1, Insn.Based (3, 8L));
    Insn.Str (2, Insn.Based (3, 16L)) ]

let program_a config = encode (writes config @ [ Insn.Eret ])

(* the same writes, then a misaligned load: raises in the guest *)
let program_b config =
  encode
    (writes config
     @ [ Insn.Add (3, 3, Insn.Imm 3L); Insn.Ldr (4, Insn.Based (3, 0L)) ])

exception Injected

(* A runner that lets the guest's first trap enter the host handler, run
   L0's exit-path world switch, pend an SGI and an SPI at the
   distributor, hang the vCPU, and then raise: the column stops with a
   GPR snapshot pushed, the CPU at EL2, the hardware EL1 state swapped
   for the host's and interrupts in flight. *)
let raising_runner (m : Machine.t) : Diff.runner =
 fun ?stop cpu ~entry ~max_insns ->
  let host = m.Machine.hosts.(0) in
  cpu.Cpu.el2_handler <-
    Some
      (fun _ _ ->
        Host_hyp.l0_enter host;
        Gic.Dist.send_sgi m.Machine.dist ~src:0 ~dst:0 ~intid:3;
        Gic.Dist.raise_irq m.Machine.dist ~cpu:0 ~intid:40;
        Machine.hang m ~cpu:0;
        raise Injected);
  Arm.Interp.run ?stop cpu ~entry ~max_insns

let fresh (c : Diff.column) =
  let m = Machine.create ~ncpus:1 ~expose:c.col_expose c.col_config Host_hyp.Nested in
  Host_hyp.start_guest_hypervisor m.Machine.hosts.(0);
  m

let pages (m : Machine.t) =
  List.sort compare
    (Hashtbl.fold (fun pi _ acc -> pi :: acc) m.Machine.mem.Arm.Memory.pages [])

let check_like_fresh what (c : Diff.column) =
  let m = Diff.template ~expose:c.col_expose c.col_config in
  let f = fresh c in
  let name = c.col_name ^ " after " ^ what in
  (match Snap.diff m f with
   | None -> ()
   | Some (path, detail) -> Alcotest.failf "%s: %s differs: %s" name path detail);
  let d = m.Machine.dist and fd = f.Machine.dist in
  check Alcotest.bool (name ^ ": distributor records, in order") true
    (Gic.Dist.records d = Gic.Dist.records fd
     && Gic.Dist.enabled d = Gic.Dist.enabled fd);
  check Alcotest.(list int) (name ^ ": page set") (pages f) (pages m)

let test_rewind_equals_fresh () =
  List.iter
    (fun (c : Diff.column) ->
      let run ?run words =
        Diff.run_column ?run ~expose:c.col_expose
          ~budget:(Diff.budget_for words) c.col_config words
      in
      let a = program_a c.col_config and b = program_b c.col_config in
      let oa = run a in
      check Alcotest.(option string) (c.col_name ^ ": A runs clean") None oa.ob_error;
      check Alcotest.bool (c.col_name ^ ": A leaves vEL2") false oa.ob_in_vel2;
      check Alcotest.bool (c.col_name ^ ": A writes vEL2 registers") true (oa.ob_vel2 <> []);
      check Alcotest.bool (c.col_name ^ ": A writes scratch memory") true (oa.ob_mem <> []);
      check_like_fresh "A" c;
      let ob = run b in
      check Alcotest.bool (c.col_name ^ ": B raises") true (ob.ob_error <> None);
      check_like_fresh "B" c;
      let m = Diff.template ~expose:c.col_expose c.col_config in
      let oh = run ~run:(raising_runner m) a in
      check Alcotest.(option string) (c.col_name ^ ": raised mid-handler")
        (Some (Printexc.to_string Injected)) oh.ob_error;
      check_like_fresh "a raise mid-handler" c;
      (* A, B, A: the second A sees exactly what the first did *)
      let oa' = run a in
      check Alcotest.bool (c.col_name ^ ": A after B = A") true (oa = oa');
      check Alcotest.bool (c.col_name ^ ": B after A = B") true (run b = ob))
    Diff.columns

(* Every leaf the snapshot image declares is put back by the rewind:
   setting any int, word, bool or enumeration field the image restores
   to another value its codec accepts, then rewinding, leaves the
   template equal to a fresh machine.  The fault plan is the one field
   the mark does not cover; a template never carries one, because
   [Machine.mark] refuses a machine that has a plan. *)
let unmarked = [ "fault" ]

let test_rewind_covers_declaration () =
  let plan = Fault.Plan.make ~seed:1 ~faults:1 ~horizon:10 in
  let planned = Machine.create ~fault_plan:plan Hyp.Config.(v Hw_neve) Host_hyp.Nested in
  check Alcotest.bool "mark refuses a fault plan" true
    (match Machine.mark planned with
     | (_ : Machine.mark) -> false
     | exception Invalid_argument _ -> true);
  List.iter
    (fun (c : Diff.column) ->
      let f = fresh c in
      let m = Diff.template ~expose:c.col_expose c.col_config in
      let leaves = Snap.leaves m in
      List.iter
        (fun p ->
          check Alcotest.bool (c.col_name ^ ": no walked leaf under " ^ p) false
            (List.exists (fun (q, _) -> q = p || String.starts_with ~prefix:(p ^ ".") q) leaves))
        unmarked;
      List.iter
        (fun (path, set) ->
          set ();
          if Snap.diff m f = None then
            Alcotest.failf "%s: setting %s changed nothing" c.col_name path;
          ignore (Diff.template ~expose:c.col_expose c.col_config : Machine.t);
          match Snap.diff m f with
          | None -> ()
          | Some (p, d) ->
            Alcotest.failf "%s: after setting %s and rewinding, %s differs: %s" c.col_name path p d)
        leaves)
    Diff.columns

(* --- bounded campaign state ------------------------------------------- *)

(* Each template's host world-switch loops compile one plan per routing
   key they meet (Arm.Route_key.t): a campaign adds a plan per key
   it meets, never another for a key it has.  Measured: 14 distinct keys
   across the twelve columns. *)
let plan_keys (c : Diff.column) =
  let m = Diff.template ~expose:c.col_expose c.col_config in
  Hyp.World_switch.plan_keys m.Machine.hosts.(0).Host_hyp.l0

let test_campaign_state_is_bounded () =
  let gen = Fuzz.Gen.create ~seed:3 in
  let run k =
    for i = 1 to k do
      let words = Fuzz.Prog.to_words (Fuzz.Gen.program gen) in
      ignore (Diff.run_words ~snap_oracle:(i mod 4 = 0) words)
    done
  in
  run 100;
  let count c = List.length (List.concat (plan_keys c)) in
  let early = List.map count Diff.columns in
  run 1_900;
  List.iter2
    (fun (c : Diff.column) n ->
      check Alcotest.int (c.col_name ^ ": l0 plans after 2,000 programs") n
        (count c);
      check Alcotest.bool (c.col_name ^ ": one plan per key and loop") true
        (List.for_all
           (fun keys ->
             List.length keys = List.length (List.sort_uniq compare keys))
           (plan_keys c));
      let m = Diff.template ~expose:c.col_expose c.col_config in
      check Alcotest.bool (c.col_name ^ ": an unchecked template keeps no trap trail")
        true (Option.is_none m.Machine.cpus.(0).Cpu.trail))
    Diff.columns early;
  let keys =
    List.concat_map (fun c -> List.concat (plan_keys c)) Diff.columns
  in
  check Alcotest.int "distinct plan keys across all columns" 14
    (List.length (List.sort_uniq compare keys))

let suite =
  [
    Alcotest.test_case "golden: seed-7 campaign reports and observations" `Slow
      test_golden_campaign;
    Alcotest.test_case "rewound template = fresh machine, every column" `Quick
      test_rewind_equals_fresh;
    Alcotest.test_case "rewind puts back every declared leaf" `Quick
      test_rewind_covers_declaration;
    Alcotest.test_case "campaign state stays bounded over 2,000 programs" `Slow
      test_campaign_state_is_bounded;
  ]
