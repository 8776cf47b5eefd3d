(* The one JSON writer: golden strings for the escape table, the layout,
   and every report writer on hand-built input whose strings need
   escaping. *)

open Alcotest

let golden cases () =
  List.iter (fun (what, v, want) -> check string what want (Json.to_string v))
    cases

let escapes =
  let s x = Json.String x in
  [
    ("double quote", s {|say "hi"|}, {|"say \"hi\""|});
    ("backslash", s {|C:\tmp|}, {|"C:\\tmp"|});
    ("newline", s "a\nb", {|"a\nb"|});
    ("tab", s "a\tb", {|"a\u0009b"|});
    ("carriage return", s "a\rb", {|"a\u000db"|});
    ("byte 0x01", s "\x01", {|"\u0001"|});
    ("UTF-8 verbatim", s "exit \xc3\xa9l\xc3\xa8ve \xe2\x86\x92 EL2",
     "\"exit \xc3\xa9l\xc3\xa8ve \xe2\x86\x92 EL2\"");
    ("keys escape too", Json.Obj [ ("a\"b", Json.Int 1) ], {|{"a\"b":1}|});
  ]

let layout =
  [
    ("empty list", Json.List [], "[]");
    ("empty object", Json.Obj [], "{}");
    ( "nested, keys in caller order",
      Json.Obj
        [
          ("z", Json.List [ Json.Int 1; Json.Bool true; Json.Obj [] ]);
          ("a", Json.Obj [ ("y", Json.Bool false); ("b", Json.String "") ]);
        ],
      {|{"z":[1,true,{}],"a":{"y":false,"b":""}}|} );
    ("negative int", Json.Int (-42), "-42");
    ("float at four decimals", Json.Float (1. /. 3.), "0.3333");
    ("float rounds", Json.Float 2.71828, "2.7183");
    ("whole float", Json.Float 1., "1.0000");
  ]

(* Hand-built reports whose strings carry '"' and '\'.  The metrics and
   campaign goldens are the bytes the hand-formatted writers produced;
   the SMP golden fixes the old writer, which left '\' unescaped. *)
let smp_report =
  {
    Fuzz.Smp.r_seed = 7;
    r_programs = 2;
    r_ops_per_program = 32;
    r_columns = [ "ARMv8.3 Nested"; "NEVE Nested" ];
    r_shootdowns = 5;
    r_recipients = 4;
    r_divergences = [ {|program 1: event 0: "a\x" vs "c"|} ];
    r_violations = [ {|program 0, neve: C:\tmp "q"|} ];
  }

let campaign_stats =
  let found program words min_words divergences repro =
    {
      Fuzz.Campaign.f_program = program;
      f_words = words;
      f_min_words = min_words;
      f_divergences = divergences;
      f_repro_path = repro;
      f_streams = [];
    }
  in
  {
    Fuzz.Campaign.s_seed = 42;
    s_programs = 3;
    s_requested = 4;
    s_rule_covered = 1;
    s_rule_total = 3;
    s_insn_forms = [ "hvc"; "eret" ];
    s_insn_form_total = 9;
    s_aborts = 0;
    s_column_traps = [ ("neve", 12); ("v8.3", -1) ];
    s_cycles = 1234;
    s_timed_out = false;
    s_found =
      [
        found 2 [| 1; 2; 3 |] [| 1 |] [ {|x0: "1" vs \2|} ]
          (Some {|C:\repro "2".txt|});
        found 3 [| 1 |] [| 1 |] [] None;
      ];
  }

let reports =
  [
    ( "Trace.metrics_json",
      Trace.metrics_json
        ~extra:[ ("iters", 3); ("benches", 4) ]
        [
          ("VM", [ ("hvc", 2); ("sysreg", 1) ], 3);
          ({|NEVE "nested"|}, [], 0);
        ],
      {|{"schema":"neve-trace-metrics/1","iters":3,"benches":4,"configs":[{"name":"VM","traps":3,"meter_traps":3,"classes":{"hvc":2,"sysreg":1}},{"name":"NEVE \"nested\"","traps":0,"meter_traps":0,"classes":{}}]}|}
    );
    ( "Fuzz.Smp.json",
      Fuzz.Smp.json smp_report,
      {|{"schema":"neve-smp-fuzz/1","seed":7,"programs":2,"ops":32,"columns":["ARMv8.3 Nested","NEVE Nested"],"shootdowns":5,"recipients":4,"divergences":["program 1: event 0: \"a\\x\" vs \"c\""],"violations":["program 0, neve: C:\\tmp \"q\""]}|}
    );
    ( "Fuzz.Campaign.json",
      Fuzz.Campaign.json campaign_stats,
      {|{"seed":42,"programs":3,"requested":4,"divergences":2,"aborts":0,"trap_rules_covered":1,"trap_rules_total":3,"trap_rule_coverage":0.3333,"insn_forms_used":2,"insn_forms_total":9,"cycles":1234,"timed_out":false,"columns":[{"name":"neve","traps":12},{"name":"v8.3","traps":-1}],"found":[{"program":2,"insns":3,"min_insns":1,"repro":"C:\\repro \"2\".txt","reports":["x0: \"1\" vs \\2"]},{"program":3,"insns":1,"min_insns":1,"reports":[]}]}|}
    );
  ]

let suite =
  [
    ("escape table", `Quick, golden escapes);
    ("layout: compact, ordered, numbers", `Quick, golden layout);
    ("report writers: goldens", `Quick, golden reports);
  ]
