(* Tests for the differential conformance fuzzer: encode/decode
   roundtrip over the full instruction set, decode-cache soundness under
   adversarial slot collisions, trap-rule coverage of the generator,
   shrinker behaviour, corpus replay, and campaign determinism.

   Every seeded assertion interpolates its seed into the failure
   message, so a red run can be reproduced without re-reading the test
   source. *)

module Insn = Arm.Insn
module Sysreg = Arm.Sysreg
module Encode = Arm.Encode
module Interp = Arm.Interp
module Config = Hyp.Config

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- satellite: Encode.decode o Encode.encode = id ------------------- *)

(* Random instances of every ENCODABLE instruction shape.  The access
   universe is the paravirtualizer's own ([Paravirt.forms]): every
   direct register plus the _EL12/_EL02 aliases — the same accesses the
   binary patcher must roundtrip through memory. *)
let forms = Hyp.Paravirt.forms

let gen_access st = forms.(Random.State.int st (Array.length forms))
let gen_reg st = Random.State.int st 31
let gen_off st =
  let o = Random.State.int st 2001 - 1000 in
  if o = 0 then 1 else o

let gen_encodable st =
  match Random.State.int st 18 with
  | 0 -> Insn.Mrs (gen_reg st, gen_access st)
  | 1 -> Insn.Msr (gen_access st, Insn.Reg (gen_reg st))
  | 2 -> Insn.Hvc (Random.State.int st 0x10000)
  | 3 -> Insn.Svc (Random.State.int st 0x10000)
  | 4 -> Insn.Smc (Random.State.int st 0x10000)
  | 5 -> Insn.Eret
  | 6 -> Insn.Nop
  | 7 -> Insn.Isb
  | 8 -> Insn.Dsb
  | 9 ->
    Insn.Ldr
      (gen_reg st,
       Insn.Based (gen_reg st, Int64.of_int (8 * Random.State.int st 0x1000)))
  | 10 ->
    Insn.Str
      (gen_reg st,
       Insn.Based (gen_reg st, Int64.of_int (8 * Random.State.int st 0x1000)))
  | 11 ->
    Insn.Mov (gen_reg st, Insn.Imm (Int64.of_int (Random.State.int st 0x10000)))
  | 12 ->
    Insn.Add
      (gen_reg st, gen_reg st,
       Insn.Imm (Int64.of_int (Random.State.int st 0x1000)))
  | 13 ->
    Insn.Sub
      (gen_reg st, gen_reg st,
       Insn.Imm (Int64.of_int (Random.State.int st 0x1000)))
  | 14 -> Insn.Add (gen_reg st, gen_reg st, Insn.Reg (gen_reg st))
  | 15 -> Insn.Sub (gen_reg st, gen_reg st, Insn.Reg (gen_reg st))
  | 16 -> Insn.B (gen_off st)
  | _ ->
    if Random.State.bool st then Insn.Cbz (gen_reg st, gen_off st)
    else Insn.Cbnz (gen_reg st, gen_off st)

let arb_encodable = QCheck.make ~print:Insn.to_string gen_encodable

let test_roundtrip =
  QCheck.Test.make ~count:2000
    ~name:"encode/decode roundtrip over every encodable shape"
    arb_encodable
    (fun insn ->
      if Encode.roundtrips insn then true
      else
        QCheck.Test.fail_reportf "%s (word %08x) does not roundtrip"
          (Insn.to_string insn)
          (Encode.encode insn))

(* The decoder never yields an immediate MSR, the one form [Cpu.exec]
   rewrites (through x9) before it routes: the interpreter replays
   decoded instructions through [Cpu.exec_with_action] and needs no
   rewrite of its own.  Half the random words are drawn from the
   system-instruction space, half of those from the MRS/MSR encodings
   (top bits 0xd51/0xd53). *)
let decodes_imm_msr w =
  match Encode.decode w with
  | Encode.D_insn (Insn.Msr (_, Insn.Imm _)) -> true
  | _ -> false

let arb_word =
  QCheck.make ~print:(Printf.sprintf "%08x")
    QCheck.Gen.(
      map2
        (fun sys w ->
          if sys then 0xd500_0000 lor (w land 0x3f_ffff) else w land 0xffff_ffff)
        bool int)

let test_no_imm_msr_words =
  QCheck.Test.make ~count:20000
    ~name:"decode never yields an immediate MSR (random words)" arb_word
    (fun w -> not (decodes_imm_msr w))

let test_no_imm_msr_forms =
  QCheck.Test.make ~count:2000
    ~name:"decode never yields an immediate MSR (every encodable shape)"
    arb_encodable
    (fun insn -> not (decodes_imm_msr (Encode.encode insn)))

(* The remaining constructors have no single-word A64 form; [encode]
   must refuse them rather than emit a wrong word — the binary patcher
   relies on this partiality being loud. *)
let test_unencodable_raises () =
  let shapes =
    [
      Insn.Msr (Sysreg.direct Sysreg.HCR_EL2, Insn.Imm 1L);
      Insn.Mov (0, Insn.Reg 1);
      Insn.Mov (0, Insn.Imm 0x10000L);
      Insn.Add (0, 1, Insn.Imm 0x1000L);
      Insn.And (0, 1, Insn.Reg 2);
      Insn.Orr (0, 1, Insn.Reg 2);
      Insn.Eor (0, 1, Insn.Reg 2);
      Insn.Lsl (0, 1, 3);
      Insn.Lsr (0, 1, 3);
      Insn.Tlbi_vmalls12e1;
      Insn.Tlbi_alle2;
      Insn.Wfi;
      Insn.Ldr (0, Insn.Abs 0x1000L);
      Insn.Str (0, Insn.Abs 0x1000L);
    ]
  in
  List.iter
    (fun insn ->
      match Encode.encode insn with
      | w ->
        Alcotest.failf "expected Invalid_argument for %s, got word %08x"
          (Insn.to_string insn) w
      | exception Invalid_argument _ -> ())
    shapes

(* --- satellite: decode_cached = decode under slot collisions --------- *)

let test_decode_cache_collisions =
  QCheck.Test.make ~count:1000
    ~name:"decode_cached = decode under adversarial slot collisions"
    QCheck.(pair arb_encodable (int_range 1 4096))
    (fun (insn, k) ->
      (* two words fight over one slot: [w2] is the first word from
         [w1 + k] on that [Xlate.decode_slot] puts on [w1]'s slot;
         alternating lookups force evictions *)
      let xc = Arm.Xlate.create () in
      let w1 = Encode.encode insn in
      let slot = Arm.Xlate.decode_slot xc w1 in
      let rec colliding w =
        if w <> w1 && Arm.Xlate.decode_slot xc w = slot then w
        else colliding ((w + 1) land 0xffff_ffff)
      in
      let w2 = colliding ((w1 + k) land 0xffff_ffff) in
      let agree w = Arm.Xlate.decode xc w = Encode.decode w in
      slot >= 0 && slot < Arm.Xlate.decode_cache_size
      && agree w1 && agree w2 && agree w1 && agree w2)

(* --- satellite: coverage matrix -------------------------------------- *)

let coverage_seed = 1729
let coverage_budget = 4000

let test_coverage_matrix () =
  let gen = Fuzz.Gen.create ~seed:coverage_seed in
  let drawn = ref 0 in
  while
    Fuzz.Gen.covered_count gen < Fuzz.Gen.registry_size
    && !drawn < coverage_budget
  do
    ignore (Fuzz.Gen.program gen);
    incr drawn
  done;
  (* every register with an EL2 trap rule, in each routing configuration:
     a failure lists the unreachable rules by name *)
  List.iter
    (fun config ->
      let missing =
        List.filter
          (fun r -> not (Fuzz.Gen.is_covered gen r))
          (Fuzz.Gen.rules_for config)
      in
      if missing <> [] then
        Alcotest.failf
          "config %s: %d trap rules unreachable after %d programs (seed=%d): %s"
          (Config.name config) (List.length missing) !drawn coverage_seed
          (String.concat ", " (List.map Fuzz.Gen.rule_name missing)))
    Config.all_nested;
  check Alcotest.int
    (Printf.sprintf "full registry covered (seed=%d)" coverage_seed)
    Fuzz.Gen.registry_size
    (Fuzz.Gen.covered_count gen)

let test_rules_nonempty () =
  List.iter
    (fun config ->
      check Alcotest.bool
        (Printf.sprintf "%s has trap rules" (Config.name config))
        true
        (Fuzz.Gen.rules_for config <> []))
    Config.all_nested

(* --- the oracle on a handcrafted program ------------------------------ *)

(* EL2-register accesses from virtual EL2: trap-and-emulate must trap on
   each, NEVE defers or redirects — agreement on state with strictly
   fewer NEVE exits is the paper's core claim in miniature. *)
let test_trap_reduction_direction () =
  let words =
    Array.of_list
      (List.map Encode.encode
         [
           Insn.Mov (0, Insn.Imm 0x1234L);
           Insn.Msr (Sysreg.direct Sysreg.TPIDR_EL2, Insn.Reg 0);
           Insn.Mrs (1, Sysreg.direct Sysreg.TPIDR_EL2);
           Insn.Msr (Sysreg.direct Sysreg.VBAR_EL2, Insn.Reg 0);
           Insn.Mrs (2, Sysreg.direct Sysreg.VBAR_EL2);
         ])
  in
  let res = Fuzz.Diff.run_words words in
  check
    (Alcotest.list Alcotest.string)
    "no divergences" []
    (List.map Fuzz.Diff.divergence_to_string res.Fuzz.Diff.res_divergences);
  let traps name =
    match
      List.find_opt
        (fun (c, _) -> c.Fuzz.Diff.col_name = name)
        res.Fuzz.Diff.res_obs
    with
    | Some (_, o) -> o.Fuzz.Diff.ob_traps
    | None -> Alcotest.failf "missing column %s" name
  in
  check Alcotest.bool "NEVE exits fewer times than trap-and-emulate" true
    (traps "NEVE Nested" < traps "ARMv8.3 Nested")

(* [run_words] keeps one register dump per distinct register file: a
   column whose registers equal an earlier column's shares its string,
   and every column observes what it would alone. *)
let test_register_dumps_shared () =
  let gen = Fuzz.Gen.create ~seed:5 in
  for _ = 1 to 20 do
    let words = Fuzz.Prog.to_words (Fuzz.Gen.program gen) in
    let budget = Fuzz.Diff.budget_for words in
    let obs = (Fuzz.Diff.run_words words).Fuzz.Diff.res_obs in
    List.iter
      (fun (c, (o : Fuzz.Diff.obs)) ->
        let alone =
          Fuzz.Diff.run_column ~expose:c.Fuzz.Diff.col_expose ~budget
            c.Fuzz.Diff.col_config words
        in
        check Alcotest.bool
          (c.Fuzz.Diff.col_name ^ ": same observation as run alone")
          true (o = alone))
      obs;
    let dumps = List.map (fun (_, o) -> o.Fuzz.Diff.ob_regs) obs in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if i < j && a = b && a != b then
              Alcotest.failf "columns %d and %d hold equal dumps apart" i j)
          dumps)
      dumps
  done

(* [run_words] decodes each distinct word once per program: the columns
   share their decoded words.  Keeping them cannot change an outcome:
   over 200 programs, every column observes exactly what it observes
   when it decodes its words afresh (a runner that empties the decode
   cache before [Interp.run]), and the divergences are those of the
   afresh observations. *)
let test_decoded_words_shared () =
  let afresh : Fuzz.Diff.runner =
   fun ?stop cpu ~entry ~max_insns ->
    Arm.Xlate.forget_words cpu.Arm.Cpu.xlate;
    Interp.run ?stop cpu ~entry ~max_insns
  in
  let gen = Fuzz.Gen.create ~seed:34 in
  for i = 1 to 200 do
    let words = Fuzz.Prog.to_words (Fuzz.Gen.program gen) in
    let budget = Fuzz.Diff.budget_for words in
    let res = Fuzz.Diff.run_words words in
    let alone =
      List.map
        (fun (c : Fuzz.Diff.column) ->
          ( c,
            Fuzz.Diff.run_column ~run:afresh ~expose:c.Fuzz.Diff.col_expose
              ~budget c.Fuzz.Diff.col_config words ))
        Fuzz.Diff.columns
    in
    List.iter2
      (fun (c, (o : Fuzz.Diff.obs)) (_, (a : Fuzz.Diff.obs)) ->
        if o <> a then
          Alcotest.failf "program %d, %s: %s (%d traps) shared, %s (%d traps) afresh"
            i c.Fuzz.Diff.col_name o.Fuzz.Diff.ob_outcome o.Fuzz.Diff.ob_traps
            a.Fuzz.Diff.ob_outcome a.Fuzz.Diff.ob_traps)
      res.Fuzz.Diff.res_obs alone;
    check
      (Alcotest.list Alcotest.string)
      (Printf.sprintf "program %d: divergences" i)
      (List.map Fuzz.Diff.divergence_to_string
         (Fuzz.Diff.group_divergences alone))
      (List.map Fuzz.Diff.divergence_to_string res.Fuzz.Diff.res_divergences)
  done

(* --- shrinker --------------------------------------------------------- *)

let test_shrinker_minimizes () =
  let needle = Fuzz.Prog.Straight [ Insn.Eret ] in
  let noise i =
    Fuzz.Prog.Straight [ Insn.Mov (i mod 8, Insn.Imm (Int64.of_int i)) ]
  in
  let prog =
    List.init 9 noise @ [ needle ] @ List.init 9 (fun i -> noise (i + 16))
  in
  let still_fails p = List.mem needle p in
  let min = Fuzz.Shrink.minimize ~still_fails prog in
  check Alcotest.int "shrinks to the single failing snippet" 1
    (List.length min);
  check Alcotest.bool "kept the needle" true (still_fails min)

(* --- corpus replay ---------------------------------------------------- *)

let corpus_dir = "corpus"

let test_corpus_replay () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
  in
  check Alcotest.bool "corpus is present (dune copies test/corpus)" true
    (files <> []);
  List.iter
    (fun f ->
      let path = Filename.concat corpus_dir f in
      let repro = Fuzz.Prog.load ~path in
      match Fuzz.Campaign.replay repro.Fuzz.Prog.r_words with
      | [] -> ()
      | reports ->
        Alcotest.failf "%s: divergence reappeared:\n%s" path
          (String.concat "\n" reports))
    files

(* --- campaign determinism and cleanliness ----------------------------- *)

let campaign_seed = 3
let campaign_n = 120

let test_campaign_deterministic_and_clean () =
  let run () = Fuzz.Campaign.run ~seed:campaign_seed ~n:campaign_n () in
  let a = run () and b = run () in
  check Alcotest.string
    (Printf.sprintf "same seed, byte-identical stats (seed=%d)" campaign_seed)
    (Json.to_string (Fuzz.Campaign.json a))
    (Json.to_string (Fuzz.Campaign.json b));
  check Alcotest.int
    (Printf.sprintf "no divergences over %d programs (seed=%d)" campaign_n
       campaign_seed)
    0
    (Fuzz.Campaign.divergence_count a)

(* --- the interpreter against the reference loop, every column --------- *)

(* [Interp.run] must make exactly the observations of the test-only
   reference loop ([Ref_interp]: fetch, pure decode, [Cpu.exec]) on
   every column of the differential matrix and on every column's
   snapshot-at-k/restore/resume twin: outcome, registers, virtual files,
   memory, traps and cycles, program by program, over the programs each
   seed's campaign draws.  Each program also runs at half its length in
   instructions, so runs end in [Limit] mid-block and the snapshot
   twin's first segment ends in [Limit]; there the twin must also agree
   with the uninterrupted run, which checks the resume budget. *)
let reference_seeds = [ 0; 11; 42 ]
let reference_n = 300

let test_interp_matches_reference () =
  List.iter
    (fun seed ->
      let gen = Fuzz.Gen.create ~seed in
      for i = 0 to reference_n - 1 do
        let words = Fuzz.Prog.to_words (Fuzz.Gen.program gen) in
        List.iter
          (fun c ->
            let config = c.Fuzz.Diff.col_config
            and expose = c.Fuzz.Diff.col_expose in
            (* [o] from Interp.run, [r] from the reference (or, last,
               the snapshot twin against the uninterrupted run) *)
            let same what (o : Fuzz.Diff.obs) (r : Fuzz.Diff.obs) =
              if o <> r then
                Alcotest.failf
                  "seed %d, program %d, %s, %s: %s (%d traps) vs %s (%d \
                   traps)"
                  seed i c.Fuzz.Diff.col_name what o.Fuzz.Diff.ob_outcome
                  o.Fuzz.Diff.ob_traps r.Fuzz.Diff.ob_outcome
                  r.Fuzz.Diff.ob_traps
            in
            let compare budget =
              let at = budget / 2 in
              let column = Fuzz.Diff.run_column ~expose ~budget config words in
              let twin =
                Fuzz.Diff.run_column_snapshot ~expose ~budget ~at config words
              in
              same
                (Printf.sprintf "column (budget %d)" budget)
                column
                (Fuzz.Diff.run_column ~run:Ref_interp.run ~expose ~budget
                   config words);
              same
                (Printf.sprintf "snapshot twin (budget %d)" budget)
                twin
                (Fuzz.Diff.run_column_snapshot ~run:Ref_interp.run ~expose
                   ~budget ~at config words);
              (column, twin)
            in
            ignore (compare (Fuzz.Diff.budget_for words));
            let column, twin = compare (Array.length words / 2) in
            same "short-budget snapshot twin vs uninterrupted"
              { twin with Fuzz.Diff.ob_cycles = 0; ob_ctx = None }
              { column with Fuzz.Diff.ob_cycles = 0; ob_ctx = None })
          Fuzz.Diff.columns
      done)
    reference_seeds

(* --- Xlate.is_plain: the route-free constructor list ------------------ *)

(* [Cpu.exec] and superblock formation both skip [Trap_rules.route] for
   [Xlate.is_plain] instructions, so the router must send them to
   [Execute] under every input a fuzz column can present: every EL, each
   column's features, NV2 mask and OoH grant, and HCR_EL2/VNCR_EL2 as
   the column's started guest hypervisor leaves them, as its target
   configuration sets them, cleared, and (HCR) one architectural bit at
   a time. *)
let test_is_plain_routes_to_execute () =
  let st = Random.State.make [| 0x91a1 |] in
  let plain =
    List.filter Arm.Xlate.is_plain (List.init 300 (fun _ -> gen_encodable st))
  in
  check Alcotest.int "the draw covers all twelve plain mnemonics" 12
    (List.length
       (List.sort_uniq compare
          (List.map
             (fun i -> List.hd (String.split_on_char ' ' (Insn.to_string i)))
             plain)));
  let hcr_bits =
    Arm.Hcr.
      [ vm; fmo; imo; amo; vse; twi; twe; tsc; tvm; tge; trvm; e2h; nv; nv1;
        at; nv2 ]
  in
  List.iter
    (fun c ->
      let config = c.Fuzz.Diff.col_config in
      let m =
        Hyp.Machine.create ~ncpus:1 ~expose:c.Fuzz.Diff.col_expose config
          Hyp.Host_hyp.Nested
      in
      let cpu = m.Hyp.Machine.cpus.(0) in
      Hyp.Host_hyp.start_guest_hypervisor m.Hyp.Machine.hosts.(0);
      let hcrs =
        List.sort_uniq compare
          (0L
           :: Arm.Cpu.peek_sysreg cpu Sysreg.HCR_EL2
           :: Config.target_hcr config :: hcr_bits)
      in
      let vncrs = [ 0L; Arm.Cpu.peek_sysreg cpu Sysreg.VNCR_EL2 ] in
      List.iter
        (fun hcr_raw ->
          let hcr = Arm.Hcr.decode hcr_raw in
          List.iter
            (fun vncr ->
              List.iter
                (fun el ->
                  List.iter
                    (fun insn ->
                      match
                        Arm.Trap_rules.route ~mask:cpu.Arm.Cpu.nv2_mask
                          ~expose:cpu.Arm.Cpu.expose cpu.Arm.Cpu.features ~hcr
                          ~vncr ~el insn
                      with
                      | Arm.Trap_rules.Execute -> ()
                      | a ->
                        Alcotest.failf
                          "%s: %s at %s (HCR_EL2=0x%Lx VNCR_EL2=0x%Lx) \
                           routes to %a"
                          c.Fuzz.Diff.col_name (Insn.to_string insn)
                          (Arm.Pstate.el_name el) hcr_raw vncr
                          Arm.Trap_rules.pp_action a)
                    plain)
                Arm.Pstate.[ EL0; EL1; EL2 ])
            vncrs)
        hcrs)
    Fuzz.Diff.columns

(* --- OoH twin columns in the differential matrix ---------------------- *)

let test_ooh_columns () =
  let ooh, base =
    List.partition
      (fun c -> not (Expose.Policy.is_none c.Fuzz.Diff.col_expose))
      Fuzz.Diff.columns
  in
  check Alcotest.int "eight base columns (four mechanisms x VHE)" 8
    (List.length base);
  check Alcotest.int "four OoH twins (hardware columns only)" 4
    (List.length ooh);
  List.iter
    (fun c ->
      let name = c.Fuzz.Diff.col_name in
      check Alcotest.bool (name ^ " carries the shared grant") true
        (Expose.Policy.equal c.Fuzz.Diff.col_expose Fuzz.Diff.ooh_grant);
      check Alcotest.bool (name ^ " is suffixed \" (ooh)\"") true
        (Filename.check_suffix name " (ooh)");
      let base_name =
        String.sub name 0 (String.length name - String.length " (ooh)")
      in
      check Alcotest.bool (name ^ " has its ungranted base column") true
        (List.exists (fun b -> b.Fuzz.Diff.col_name = base_name) base))
    ooh;
  (* Dirty_log stays out of the fuzz grant: it has no sysreg surface, so
     granting it would change nothing a fuzz program can touch *)
  check Alcotest.bool "fuzz grant is timer + gic-lrs only" false
    (Expose.Policy.mem Fuzz.Diff.ooh_grant Expose.Policy.Dirty_log)

let suite =
  [
    qtest test_roundtrip;
    qtest test_no_imm_msr_words;
    qtest test_no_imm_msr_forms;
    Alcotest.test_case "encode refuses unencodable shapes" `Quick
      test_unencodable_raises;
    qtest test_decode_cache_collisions;
    Alcotest.test_case "generator covers every trap rule per config" `Quick
      test_coverage_matrix;
    Alcotest.test_case "every nested config has trap rules" `Quick
      test_rules_nonempty;
    Alcotest.test_case "oracle: agreement with fewer NEVE exits" `Quick
      test_trap_reduction_direction;
    Alcotest.test_case "oracle: one register dump per distinct file" `Quick
      test_register_dumps_shared;
    Alcotest.test_case "oracle: decoded words shared across columns" `Quick
      test_decoded_words_shared;
    Alcotest.test_case "shrinker minimizes to the failing snippet" `Quick
      test_shrinker_minimizes;
    Alcotest.test_case "corpus repros replay cleanly" `Quick
      test_corpus_replay;
    Alcotest.test_case "OoH twin columns: grants, names, bases" `Quick
      test_ooh_columns;
    Alcotest.test_case "campaign: deterministic and clean" `Slow
      test_campaign_deterministic_and_clean;
    Alcotest.test_case "Interp.run == reference loop, every column" `Slow
      test_interp_matches_reference;
    Alcotest.test_case "Xlate.is_plain instructions route to Execute" `Quick
      test_is_plain_routes_to_execute;
  ]
