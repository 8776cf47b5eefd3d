(* The campaign loop: generate, run differentially, shrink what
   diverges, write repros, count coverage. *)

type found = {
  f_program : int;
  f_words : int array;
  f_min_words : int array;
  f_divergences : string list;
  f_repro_path : string option;
  f_streams : (string * string list) list;
      (* per-column rendered trace events of the minimized program, only
         when the campaign ran traced *)
}

type stats = {
  s_seed : int;
  s_programs : int;
  s_requested : int;
  s_rule_covered : int;
  s_rule_total : int;
  s_insn_forms : string list;
  s_insn_form_total : int;
  s_aborts : int;
  s_column_traps : (string * int) list;
  s_cycles : int;
  s_timed_out : bool;
  s_found : found list;
}

let divergence_count st = List.length st.s_found

let replay ?snap_oracle words =
  List.map Diff.divergence_to_string
    (Diff.run_words ?snap_oracle words).res_divergences

(* Re-run one program traced and keep the event streams of the two
   columns the first divergence names (reference, then disagreeing); all
   columns' streams when the traced replay no longer diverges. *)
let streams_of ?snap_oracle words =
  let res = Diff.run_words ~traced:true ?snap_oracle words in
  let all =
    List.map
      (fun (c, o) -> (c.Diff.col_name, o.Diff.ob_events))
      res.Diff.res_obs
  in
  match res.Diff.res_divergences with
  | d :: _ ->
    List.filter
      (fun (n, _) -> n = d.Diff.dv_ref || n = d.Diff.dv_col)
      all
  | [] -> all

let run ?(should_stop = fun () -> false) ?corpus_dir ?(max_found = 3)
    ?(traced = false) ?(snap_oracle = false) ?(max_cycles = 0) ?(shards = 1)
    ~seed ~n () =
  if shards > 1 && max_cycles <> 0 then
    invalid_arg
      "Campaign.run: a sim-cycle budget requires a serial campaign \
       (shards=1) — truncation is defined program by program";
  let gen = Gen.create ~seed in
  let column_traps =
    List.map (fun c -> (c.Diff.col_name, ref 0)) Diff.columns
  in
  let aborts = ref 0 and found = ref [] and ran = ref 0 in
  let cycles = ref 0 in
  (* a deterministic sim-cycle budget across all columns: 0 disables it.
     Unlike [should_stop] (a wall-clock escape hatch) this is part of the
     campaign's identity — same seed, same budget, same truncation. *)
  let within_cycles () = max_cycles = 0 || !cycles < max_cycles in
  (* Fold one program's oracle result into the campaign state.  Both the
     serial loop and the sharded fan-out go through this, in program
     order — shrinking, repro writing and traced replays all happen here
     on the calling domain, so fanning out parallelizes only the
     side-effect-free oracle runs. *)
  let fold_program i prog words res =
    incr ran;
    List.iter
      (fun (c, o) ->
        cycles := !cycles + o.Diff.ob_cycles;
        match List.assoc_opt c.Diff.col_name column_traps with
        | Some r -> r := !r + o.Diff.ob_traps
        | None -> ())
      res.Diff.res_obs;
    if
      List.for_all (fun (_, o) -> o.Diff.ob_error <> None) res.Diff.res_obs
      && res.Diff.res_divergences = []
    then incr aborts;
    if res.Diff.res_divergences <> [] then begin
      let f =
        if List.length !found >= max_found then
          {
            f_program = i;
            f_words = words;
            f_min_words = words;
            f_divergences =
              List.map Diff.divergence_to_string res.Diff.res_divergences;
            f_repro_path = None;
            f_streams = [];
          }
        else begin
          let min_prog =
            Shrink.minimize
              ~still_fails:(fun p -> Diff.diverges ~snap_oracle (Prog.to_words p))
              prog
          in
          let min_words = Prog.to_words min_prog in
          let divs = replay ~snap_oracle min_words in
          let divs =
            (* shrinking preserves *some* failure, not necessarily the
               original one; fall back to the unshrunk reports *)
            if divs = [] then
              List.map Diff.divergence_to_string res.Diff.res_divergences
            else divs
          in
          let repro_path =
            match corpus_dir with
            | None -> None
            | Some dir ->
              let path =
                Filename.concat dir
                  (Printf.sprintf "div-seed%d-p%d.repro" seed i)
              in
              Prog.save ~path
                ~header:
                  ([
                     "neve fuzz repro";
                     Printf.sprintf "campaign seed=%d program=%d" seed i;
                   ]
                  @ List.map (fun d -> "divergence: " ^ d) divs)
                min_words;
              Some path
          in
          {
            f_program = i;
            f_words = words;
            f_min_words = min_words;
            f_divergences = divs;
            f_repro_path = repro_path;
            f_streams = (if traced then streams_of ~snap_oracle min_words else []);
          }
        end
      in
      found := f :: !found
    end
  in
  if shards > 1 then begin
    (* Sharded campaign.  The generator is coverage-directed and strictly
       sequential — its PRNG is the campaign's one entropy stream — so
       programs are drawn serially here exactly as the serial loop would
       draw them, and only the oracle runs fan out.  [Diff.run_words] is
       self-contained per program: each domain runs it on its own
       template machines, rewound before every program to a state no
       observation can tell from a fresh machine, and untraced.  So the
       result in slot i is the serial loop's result for program i
       whichever domain ran it and whatever ran there before, and
       folding slots in index order reproduces the serial report byte
       for byte.  The wall-clock escape hatch cannot cut a parallel
       campaign at a well-defined program, so it is not consulted. *)
    let progs = Array.init n (fun _ -> Gen.program gen) in
    let words = Array.map Prog.to_words progs in
    let results =
      Shard.map ~shards ~jobs:n (fun i ->
          Diff.run_words ~snap_oracle words.(i))
    in
    Array.iteri (fun i res -> fold_program i progs.(i) words.(i) res) results
  end
  else begin
    let i = ref 0 in
    while !i < n && not (should_stop ()) && within_cycles () do
      let prog = Gen.program gen in
      let words = Prog.to_words prog in
      let res = Diff.run_words ~snap_oracle words in
      fold_program !i prog words res;
      incr i
    done
  end;
  {
    s_seed = seed;
    s_programs = !ran;
    s_requested = n;
    s_rule_covered = Gen.covered_count gen;
    s_rule_total = Gen.registry_size;
    s_insn_forms = Gen.insn_forms_used gen;
    s_insn_form_total = Gen.insn_form_total;
    s_aborts = !aborts;
    s_column_traps = List.map (fun (n, r) -> (n, !r)) column_traps;
    s_cycles = !cycles;
    s_timed_out = not (within_cycles ());
    s_found = List.rev !found;
  }

(* --- reporting --- *)

(* Two event streams rendered side by side, one line per event; streams
   of unequal length pad the short side. *)
let pp_streams ppf = function
  | [ (na, ea); (nb, eb) ] ->
    let w =
      List.fold_left
        (fun m s -> max m (String.length s))
        (String.length na) ea
    in
    Fmt.pf ppf "@,  %-*s | %s" w na nb;
    let rec go a b =
      match (a, b) with
      | [], [] -> ()
      | x :: a', [] ->
        Fmt.pf ppf "@,  %-*s |" w x;
        go a' []
      | [], y :: b' ->
        Fmt.pf ppf "@,  %-*s | %s" w "" y;
        go [] b'
      | x :: a', y :: b' ->
        Fmt.pf ppf "@,  %-*s | %s" w x y;
        go a' b'
    in
    go ea eb
  | streams ->
    List.iter
      (fun (n, es) ->
        Fmt.pf ppf "@,  -- %s" n;
        List.iter (fun e -> Fmt.pf ppf "@,  %s" e) es)
      streams

let pp_stats ppf st =
  Fmt.pf ppf "@[<v>fuzz: seed=%d programs=%d/%d%s@," st.s_seed st.s_programs
    st.s_requested
    (if st.s_timed_out then " TIMED-OUT" else "");
  Fmt.pf ppf "trap-rule coverage: %d/%d (%.1f%%)@," st.s_rule_covered
    st.s_rule_total
    (100.0 *. float_of_int st.s_rule_covered /. float_of_int st.s_rule_total);
  Fmt.pf ppf "insn-form coverage: %d/%d [%s]@,"
    (List.length st.s_insn_forms)
    st.s_insn_form_total
    (String.concat " " st.s_insn_forms);
  if st.s_aborts > 0 then
    Fmt.pf ppf "programs aborted identically under every column: %d@,"
      st.s_aborts;
  List.iter
    (fun (name, traps) -> Fmt.pf ppf "  %-32s traps=%d@," name traps)
    st.s_column_traps;
  (match st.s_found with
   | [] -> Fmt.pf ppf "result: no divergences"
   | fs ->
     Fmt.pf ppf "result: %d DIVERGENCE(S)" (List.length fs);
     List.iter
       (fun f ->
         Fmt.pf ppf "@,program #%d (%d insns, %d after shrinking)%a"
           f.f_program (Array.length f.f_words)
           (Array.length f.f_min_words)
           Fmt.(
             option (fun ppf p -> pf ppf "@,  repro: %s" p))
           f.f_repro_path;
         List.iter (fun d -> Fmt.pf ppf "@,  %s" d) f.f_divergences;
         if f.f_streams <> [] then pp_streams ppf f.f_streams)
       fs);
  Fmt.pf ppf "@]"

let json st =
  let ints = List.map (fun (k, v) -> (k, Json.Int v)) in
  let found f =
    Json.Obj
      (ints
         [ ("program", f.f_program); ("insns", Array.length f.f_words);
           ("min_insns", Array.length f.f_min_words) ]
      @ (match f.f_repro_path with
         | Some p -> [ ("repro", Json.String p) ]
         | None -> [])
      @ [ ("reports",
           Json.List (List.map (fun d -> Json.String d) f.f_divergences)) ])
  in
  let column (name, traps) =
    Json.Obj [ ("name", Json.String name); ("traps", Json.Int traps) ]
  in
  Json.Obj
    (ints
       [ ("seed", st.s_seed); ("programs", st.s_programs);
         ("requested", st.s_requested); ("divergences", divergence_count st);
         ("aborts", st.s_aborts); ("trap_rules_covered", st.s_rule_covered);
         ("trap_rules_total", st.s_rule_total) ]
    @ [ ("trap_rule_coverage",
         Json.Float
           (float_of_int st.s_rule_covered /. float_of_int st.s_rule_total)) ]
    @ ints
        [ ("insn_forms_used", List.length st.s_insn_forms);
          ("insn_forms_total", st.s_insn_form_total); ("cycles", st.s_cycles) ]
    @ [ ("timed_out", Json.Bool st.s_timed_out);
        ("columns", Json.List (List.map column st.s_column_traps));
        ("found", Json.List (List.map found st.s_found)) ])
