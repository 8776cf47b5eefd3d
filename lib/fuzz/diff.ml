(* Differential driver: one program, every mechanism, one answer.

   The run protocol is the same for every column:
   - a single-CPU nested machine with the guest hypervisor just started
     in virtual EL2 (Machine.boot is NOT used: boot erets into the
     nested VM, and the fuzzer's programs *are* the guest hypervisor) —
     the column's template, rewound to that state (see [template]);
   - x28 holds the shared-page base in every column (the paravirt
     binary-patching convention — harmless where unused);
   - paravirtualized columns run the binary-patched text, hardware
     columns the original words;
   - after the interpreter stops, a final eret through the
     guest-access funnel (trapped on hardware, rewritten to hvc on
     paravirt) folds the execution mapping and drains the NEVE page, so
     the virtual register files are authoritative in every column when
     the oracle reads them.

   Observations deliberately exclude mechanism-private state: the
   hardware register file (host-owned), the deferred access page and the
   vCPU context region.  What a guest could see must match; what only
   the host sees may differ. *)

module Insn = Arm.Insn
module Sysreg = Arm.Sysreg
module Sysreg_file = Arm.Sysreg_file
module Memory = Arm.Memory
module Cpu = Arm.Cpu
module Interp = Arm.Interp
module Pstate = Arm.Pstate
module Config = Hyp.Config
module Machine = Hyp.Machine
module Host_hyp = Hyp.Host_hyp
module Paravirt = Hyp.Paravirt
module Vcpu = Hyp.Vcpu
module Gaccess = Hyp.Gaccess
module Guest_hyp = Hyp.Guest_hyp

type column = {
  col_name : string;
  col_config : Config.t;
  col_expose : Expose.Policy.t;
}

(* The OoH columns' grant set: every feature with a sysreg surface.
   Dirty_log is migration-layer-only, so granting it here would change
   nothing a fuzz program can touch. *)
let ooh_grant =
  Expose.Policy.of_list [ Expose.Policy.Timer; Expose.Policy.Gic_lrs ]

(* The base matrix plus, per hardware column, an OoH twin: the same
   mechanism with timer + vGIC list registers exposed trap-free.  The
   twin must be architecturally indistinguishable from its base inside
   the group — exposure may only remove exits, never change state. *)
let columns =
  let base =
    List.map
      (fun (name, config) ->
        { col_name = name; col_config = config;
          col_expose = Expose.Policy.none })
      Workloads.Scenario.fuzz_columns
  in
  let ooh =
    List.filter_map
      (fun c ->
        match c.col_config.Config.mech with
        | Config.Hw_v8_3 | Config.Hw_neve ->
          Some { c with col_name = c.col_name ^ " (ooh)";
                 col_expose = ooh_grant }
        | Config.Pv_v8_3 | Config.Pv_neve -> None)
      base
  in
  base @ ooh

let groups =
  let vhe, non_vhe =
    List.partition (fun c -> c.col_config.Config.guest_vhe) columns
  in
  [ ("non-VHE", non_vhe); ("VHE", vhe) ]

let text_base = 0x2000_0000L

(* Branches only go forward and every taken trap re-runs nothing, so the
   true execution length is bounded by the word count; the slack covers
   the post-eret continuation and the final fold. *)
let budget_for words = (2 * Array.length words) + 64

type obs = {
  ob_error : string option;
  ob_outcome : string;
  ob_pc : int64;
  ob_pstate : string;
  ob_in_vel2 : bool;
  ob_regs : string;
  ob_vel2 : (string * int64) list;
  ob_vel1 : (string * int64) list;
  ob_mem : (int * int64) list;
  ob_traps : int;
  ob_cycles : int;
  ob_ctx : Fault.Error.context option;
  ob_events : string list;
}

let empty_obs =
  {
    ob_error = None;
    ob_outcome = "";
    ob_pc = 0L;
    ob_pstate = "";
    ob_in_vel2 = false;
    ob_regs = "";
    ob_vel2 = [];
    ob_vel1 = [];
    ob_mem = [];
    ob_traps = 0;
    ob_cycles = 0;
    ob_ctx = None;
    ob_events = [];
  }

(* Registers and words are tested unboxed; only what differs from reset
   (or zero) is read out. *)
let file_obs (file : Sysreg_file.t) =
  List.filter_map
    (fun r ->
      if Sysreg_file.holds file r (Sysreg_file.reset_value r) then None
      else Some (Sysreg.name r, Sysreg_file.read file r))
    Sysreg.all

let mem_obs mem =
  Memory.nonzero_words mem ~start:(Int64.of_int Gen.scratch_base)
    ~len:(Int64.of_int Gen.scratch_len)

type runner =
  ?stop:(Cpu.t -> bool) -> Cpu.t -> entry:int64 -> max_insns:int ->
  Interp.outcome

(* A one-vCPU nested machine with the guest hypervisor started in
   virtual EL2. *)
let start config expose =
  let m = Machine.create ~ncpus:1 ~expose config Host_hyp.Nested in
  Host_hyp.start_guest_hypervisor m.Machine.hosts.(0);
  m

(* Templates: one started machine per (configuration, grant) column and
   domain, with its mark.  A template runs one program at a time and is
   rewound to its mark as soon as the program is observed, which leaves
   it indistinguishable from a freshly started machine (Machine.rewind)
   while its compiled world-switch plans stay warm: building and
   starting a machine and compiling its plans costs more than the few
   dozen instructions a program runs on it.

   A template kept for a whole campaign is live data, and the major GC
   sizes the heap in proportion to live data, so a template keeps as
   little as it can: every rewind empties its translation cache's
   blocks and its trap memos (only the plans stay), and the templates of
   a domain share one small translation cache — they never run at the
   same time, every rewind flushes its blocks, and a program is a few
   dozen words.  Its decoded words stay across the columns of a program
   (a word decodes the same on every column, and only a paravirtualized
   column's patched sites differ), so each distinct word is decoded once
   per program; [run_words] drops them before each program, so the
   cache never keeps an old program's words alive.
   For the same reason they share the memory pages a program creates
   (the same few on every column: text, scratch): a rewind drops them
   into [spare], and the next run, on whichever template, adopts them
   zeroed (Memory.adopt) instead of allocating them again, so a domain
   keeps one set rather than one per template.  Domain-local, so
   sharded campaigns never share a machine or a page. *)
type template = {
  tp_config : Config.t;
  tp_expose : Expose.Policy.t;
  tp_machine : Machine.t;
  tp_mark : Machine.mark;
}

type domain_templates = {
  mutable tps : template list;
  xlate : Arm.Xlate.t;  (* shared by every template's CPU *)
  mutable spare : (int * Bytes.t) list;  (* pages the last rewind dropped *)
}

let templates =
  Domain.DLS.new_key (fun () ->
      { tps = []; xlate = Arm.Xlate.create ~block_slots:64 (); spare = [] })

(* The column's template, at its mark (every run rewinds it). *)
let lookup d config expose =
  match
    List.find_opt
      (fun tp ->
        tp.tp_config = config && Expose.Policy.equal tp.tp_expose expose)
      d.tps
  with
  | Some tp -> tp
  | None ->
    let m = start config expose in
    Arm.Xlate.flush d.xlate;
    m.Machine.cpus.(0).Cpu.xlate <- d.xlate;
    let tp =
      { tp_config = config; tp_expose = expose; tp_machine = m;
        tp_mark = Machine.mark m }
    in
    d.tps <- tp :: d.tps;
    tp

let template ?(expose = Expose.Policy.none) config =
  let tp = lookup (Domain.DLS.get templates) config expose in
  Machine.rewind tp.tp_machine tp.tp_mark;
  tp.tp_machine

(* Run [f] on the column's template, with the domain's spare pages
   adopted, and rewind it however [f] ends.  A traced run starts its
   event stream at the boot, so it gets a machine of its own. *)
let with_machine ~traced config expose f =
  if traced then f (start config expose)
  else begin
    let d = Domain.DLS.get templates in
    let tp = lookup d config expose in
    let m = tp.tp_machine in
    List.iter (fun (pi, p) -> Memory.adopt m.Machine.mem pi p) d.spare;
    d.spare <- [];
    Fun.protect
      ~finally:(fun () ->
        Machine.rewind m tp.tp_mark ~drop:(fun pi p ->
            d.spare <- (pi, p) :: d.spare))
      (fun () -> f m)
  end

(* Load the program at [text_base], patched under a paravirtualized
   mechanism. *)
let load config m words =
  let host = m.Machine.hosts.(0) in
  let page_base = host.Host_hyp.vcpu.Vcpu.page_base in
  let text =
    if Config.is_paravirt config then
      Paravirt.patch_text config ~page_base words
    else words
  in
  Interp.load m.Machine.mem ~base:text_base text;
  Cpu.set_reg m.Machine.cpus.(0) Paravirt.page_base_reg page_base

(* A generated program is guest-HYPERVISOR code: its scope ends the
   moment an eret leaves virtual EL2.  Running on past that point would
   execute the same (possibly patched) text at virtual EL1, where
   boot-time paravirt rewriting is not meant to be transparent —
   patching assumes the text only ever runs at EL2. *)
let left_vel2 m =
  let vcpu = m.Machine.hosts.(0).Host_hyp.vcpu in
  fun _ -> not vcpu.Vcpu.in_vel2

(* Record where and how the program stopped, then fold: a final eret
   (trapped / rewritten) makes the virtual files authoritative under
   every mechanism before they are read.  The eret goes through the
   machine's own guest-hypervisor funnel, which exists for as long as
   the machine does, rather than a funnel built per observation.

   [seen] holds the register dumps of the program's earlier columns.
   The columns nearly always agree, so a column whose registers equal
   one of them shares that string instead of copying its own: a
   program's observations, live until the last column is compared, hold
   one dump per distinct register file rather than one per column. *)
let observe ?(seen = []) m outcome =
  let cpu = m.Machine.cpus.(0) and host = m.Machine.hosts.(0) in
  let pc = Cpu.pc cpu in
  let pstate = Pstate.to_string cpu.Cpu.pstate in
  let in_vel2 = host.Host_hyp.vcpu.Vcpu.in_vel2 in
  if in_vel2 then
    Option.iter (fun g -> Gaccess.eret g.Guest_hyp.ga) m.Machine.ghyps.(0);
  {
    empty_obs with
    ob_outcome = Interp.outcome_to_string outcome;
    ob_pc = pc;
    ob_pstate = pstate;
    ob_in_vel2 = in_vel2;
    ob_regs =
      (match List.find_opt (Cpu.gprs_equal cpu) seen with
       | Some s -> s
       | None -> Cpu.gprs cpu);
    ob_vel2 = file_obs host.Host_hyp.vcpu.Vcpu.vel2;
    ob_vel1 = file_obs host.Host_hyp.vcpu.Vcpu.vel1;
    ob_mem = mem_obs m.Machine.mem;
    ob_traps = cpu.Cpu.meter.Cost.traps;
    ob_cycles = cpu.Cpu.meter.Cost.cycles;
    ob_ctx = Some (Fault.Error.context_of_cpu cpu);
  }

(* the observation of a column that raised: the exception and the
   meters of the vCPU that was running *)
let error_obs e cpu =
  {
    empty_obs with
    ob_error = Some (Printexc.to_string e);
    ob_traps = cpu.Cpu.meter.Cost.traps;
    ob_cycles = cpu.Cpu.meter.Cost.cycles;
    ob_ctx = Some (Fault.Error.context_of_cpu cpu);
  }

let run_column_seen ?(run : runner = Interp.run) ?(traced = false) ?seen
    ?(expose = Expose.Policy.none) ~budget config words =
  if traced then Trace.enable ~capacity:8192 ();
  (* capture the column's event stream before the ring is reused, then
     drop back to untraced so corpus replays stay byte-identical *)
  let finish obs =
    if not traced then obs
    else begin
      let obs =
        { obs with ob_events = List.map Trace.render (Trace.events ()) }
      in
      Trace.disable ();
      obs
    end
  in
  with_machine ~traced config expose (fun m ->
      let cpu = m.Machine.cpus.(0) in
      try
        load config m words;
        let outcome =
          run cpu ~stop:(left_vel2 m) ~entry:text_base ~max_insns:budget
        in
        finish (observe ?seen m outcome)
      with e -> finish (error_obs e cpu))

let run_column ?run ?traced ?expose ~budget config words =
  run_column_seen ?run ?traced ?expose ~budget config words

(* The ninth column: snapshot-at-k / restore / resume.  The same program
   under the same configuration, but executed as two segments with a
   serialization boundary between them: run [at] instructions, save the
   whole machine through Snap, restore into a fresh machine and resume
   there until the normal stopping condition.  Every architectural
   observation — and the trap count — must be bit-identical to the
   uninterrupted run; anything the snapshot fails to carry (an undrained
   deferred page, a pending fold, meter state, shadow tables) surfaces
   as an ordinary fuzz divergence. *)
let run_column_snapshot ?(run : runner = Interp.run)
    ?(expose = Expose.Policy.none) ~budget ~at config words =
  with_machine ~traced:false config expose (fun m ->
      (* the vCPU an exception is charged to: the restored one once it
         exists *)
      let live = ref m.Machine.cpus.(0) in
      try
        load config m words;
        let first =
          run !live ~stop:(left_vel2 m) ~entry:text_base
            ~max_insns:(min at budget)
        in
        (* Segment 1 ends in Limit only after exactly [min at budget]
           instructions.  Any other outcome recurs on the restored
           machine before it executes an instruction, so the full budget
           is kept. *)
        let rest =
          match first with
          | Interp.Limit -> budget - max 0 (min at budget)
          | _ -> budget
        in
        (* the serialization boundary *)
        let m' = Snap.restore (Snap.to_string m) in
        live := m'.Machine.cpus.(0);
        let outcome =
          run !live ~stop:(left_vel2 m') ~entry:(Cpu.pc !live) ~max_insns:rest
        in
        observe m' outcome
      with e -> error_obs e !live)

(* --- comparison --- *)

let pp_named ppf (n, v) = Fmt.pf ppf "%s=0x%Lx" n v

let first_list_diff pp a b =
  (* both lists are in the same canonical order; report the first
     element present or differing on one side only *)
  let rec go a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' when x = y -> go a' b'
    | _ ->
      let show = function
        | [] -> "<absent>"
        | x :: _ -> Fmt.str "%a" pp x
      in
      Some (Printf.sprintf "ref has %s, column has %s" (show a) (show b))
  in
  go a b

let diff_obs (ref_o : obs) (o : obs) : (string * string) list =
  match (ref_o.ob_error, o.ob_error) with
  | Some e1, Some e2 ->
    if e1 = e2 then []
    else [ ("error", Printf.sprintf "ref raised %s, column raised %s" e1 e2) ]
  | Some e, None -> [ ("error", "ref raised " ^ e ^ ", column did not") ]
  | None, Some e -> [ ("error", "column raised " ^ e ^ ", ref did not") ]
  | None, None ->
    let acc = ref [] in
    let add field detail = acc := (field, detail) :: !acc in
    if ref_o.ob_outcome <> o.ob_outcome then
      add "exit-class"
        (Printf.sprintf "ref %s, column %s" ref_o.ob_outcome o.ob_outcome);
    if ref_o.ob_pc <> o.ob_pc then
      add "pc" (Printf.sprintf "ref 0x%Lx, column 0x%Lx" ref_o.ob_pc o.ob_pc);
    if ref_o.ob_pstate <> o.ob_pstate then
      add "pstate"
        (Printf.sprintf "ref %s, column %s" ref_o.ob_pstate o.ob_pstate);
    if ref_o.ob_in_vel2 <> o.ob_in_vel2 then
      add "in-vel2"
        (Printf.sprintf "ref %b, column %b" ref_o.ob_in_vel2 o.ob_in_vel2);
    let words = min (String.length ref_o.ob_regs) (String.length o.ob_regs) / 8 in
    for i = 0 to words - 1 do
      let v = String.get_int64_ne ref_o.ob_regs (i * 8)
      and w = String.get_int64_ne o.ob_regs (i * 8) in
      if v <> w then
        add (Printf.sprintf "x%d" i)
          (Printf.sprintf "ref 0x%Lx, column 0x%Lx" v w)
    done;
    (match first_list_diff pp_named ref_o.ob_vel2 o.ob_vel2 with
     | Some d -> add "vel2-file" d
     | None -> ());
    (match first_list_diff pp_named ref_o.ob_vel1 o.ob_vel1 with
     | Some d -> add "vel1-file" d
     | None -> ());
    (match
       first_list_diff
         (fun ppf (a, v) -> Fmt.pf ppf "[0x%x]=0x%Lx" a v)
         ref_o.ob_mem o.ob_mem
     with
     | Some d -> add "scratch-memory" d
     | None -> ());
    List.rev !acc

type divergence = {
  dv_group : string;
  dv_ref : string;
  dv_col : string;
  dv_field : string;
  dv_detail : string;
  dv_context : Fault.Error.context option;
}

let divergence_to_string d =
  Fault.Error.to_string
    (Fault.Error.Oracle_divergence
       (Printf.sprintf "[%s] %s vs %s: %s — %s" d.dv_group d.dv_ref d.dv_col
          d.dv_field d.dv_detail))
    d.dv_context

type result = {
  res_obs : (column * obs) list;
  res_divergences : divergence list;
}

(* Trap-count ordering inside a group: each paravirtualized twin must
   produce exactly its hardware twin's count (the repo's methodological
   claim), NEVE must never trap more than trap-and-emulate, and an OoH
   column must never out-trap the base mechanism it extends. *)
let ordering_divergences group cols_obs =
  let find_with has_grant mech =
    List.find_opt
      (fun (c, _) ->
        c.col_config.Config.mech = mech
        && Expose.Policy.is_none c.col_expose <> has_grant)
      cols_obs
  in
  let find = find_with false in
  let find_ooh = find_with true in
  let check rel name_of = function
    | Some (ca, (oa : obs)), Some (cb, (ob : obs))
      when oa.ob_error = None && ob.ob_error = None ->
      if rel oa.ob_traps ob.ob_traps then []
      else
        [
          {
            dv_group = group;
            dv_ref = ca.col_name;
            dv_col = cb.col_name;
            dv_field = "trap-ordering";
            dv_detail =
              Printf.sprintf "%s: %d traps vs %d traps" name_of oa.ob_traps
                ob.ob_traps;
            dv_context = ob.ob_ctx;
          };
        ]
    | _ -> []
  in
  check (fun a b -> a = b) "hw/pv twins must match"
    (find Config.Hw_v8_3, find Config.Pv_v8_3)
  @ check (fun a b -> a = b) "hw/pv twins must match"
      (find Config.Hw_neve, find Config.Pv_neve)
  @ check (fun a b -> b <= a) "NEVE must not out-trap trap-and-emulate"
      (find Config.Hw_v8_3, find Config.Hw_neve)
  @ check (fun a b -> b <= a) "OoH must not out-trap its base mechanism"
      (find Config.Hw_v8_3, find_ooh Config.Hw_v8_3)
  @ check (fun a b -> b <= a) "OoH must not out-trap its base mechanism"
      (find Config.Hw_neve, find_ooh Config.Hw_neve)

(* Restore-equivalence check for one program: every column's
   uninterrupted run against its snapshot-at-k/restore/resume twin.
   Unlike cross-mechanism comparison, here even the trap count must
   match exactly — the resumed machine is supposed to BE the original,
   not merely agree with it architecturally. *)
let snapshot_divergences ~budget res_obs words =
  List.concat_map
    (fun (c, straight) ->
      let o =
        run_column_snapshot ~expose:c.col_expose ~budget ~at:(budget / 2)
          c.col_config words
      in
      let trap_div =
        if
          straight.ob_error = None && o.ob_error = None
          && straight.ob_traps <> o.ob_traps
        then
          [ ( "trap-count",
              Printf.sprintf "ref %d traps, column %d traps"
                straight.ob_traps o.ob_traps ) ]
        else []
      in
      List.map
        (fun (field, detail) ->
          {
            dv_group = "snapshot";
            dv_ref = c.col_name;
            dv_col = c.col_name ^ "+snap";
            dv_field = field;
            dv_detail = detail;
            dv_context = o.ob_ctx;
          })
        (diff_obs straight o @ trap_div))
    res_obs

(* Within each group, every column against the group's first, then the
   trap-count ordering. *)
let group_divergences res_obs =
  List.concat_map
    (fun (group, cols) ->
      let cols_obs =
        List.filter (fun (c, _) -> List.memq c cols) res_obs
      in
      match cols_obs with
      | [] -> []
      | (ref_c, ref_o) :: rest ->
        List.concat_map
          (fun (c, o) ->
            List.map
              (fun (field, detail) ->
                {
                  dv_group = group;
                  dv_ref = ref_c.col_name;
                  dv_col = c.col_name;
                  dv_field = field;
                  dv_detail = detail;
                  dv_context = o.ob_ctx;
                })
              (diff_obs ref_o o))
          rest
        @ ordering_divergences group cols_obs)
    groups

let run_words ?traced ?(snap_oracle = false) words =
  Arm.Xlate.forget_words (Domain.DLS.get templates).xlate;
  let budget = budget_for words in
  (* the distinct register dumps so far, for [observe] to share *)
  let seen = ref [] in
  let res_obs =
    List.map
      (fun c ->
        let o =
          run_column_seen ?traced ~seen:!seen ~expose:c.col_expose ~budget
            c.col_config words
        in
        if o.ob_error = None && not (List.memq o.ob_regs !seen) then
          seen := o.ob_regs :: !seen;
        (c, o))
      columns
  in
  let divergences = group_divergences res_obs in
  let divergences =
    if snap_oracle then
      divergences @ snapshot_divergences ~budget res_obs words
    else divergences
  in
  { res_obs; res_divergences = divergences }

let diverges ?snap_oracle words =
  (run_words ?snap_oracle words).res_divergences <> []
