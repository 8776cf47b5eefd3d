(* Architectural invariant checking.

   Each check inspects one CPU (or one expected/actual pairing) and
   returns the list of violations found, each carrying enough context —
   cpu, EL, PC, a one-line detail — to locate the failure without a
   debugger.  Checks never raise and never mutate machine state, so they
   are safe to run after every exception entry and return. *)

type violation = {
  v_name : string;    (* which invariant *)
  v_cpu : int;
  v_el : Arm.Pstate.el;
  v_pc : int64;
  v_detail : string;
  v_events : string list;  (* rendered trace tail, oldest first *)
}

let v ?(id = 0) (cpu : Arm.Cpu.t) name detail =
  {
    v_name = name;
    v_cpu = id;
    v_el = cpu.Arm.Cpu.pstate.Arm.Pstate.el;
    v_pc = Arm.Cpu.pc cpu;
    v_detail = detail;
    v_events =
      (if Trace.is_on () then List.map Trace.render (Trace.last 8) else []);
  }

let pp_violation ppf x =
  Fmt.pf ppf "%s: cpu%d %s pc=0x%Lx: %s%a" x.v_name x.v_cpu
    (Arm.Pstate.el_name x.v_el) x.v_pc x.v_detail
    Fmt.(
      if x.v_events = [] then nop
      else fun ppf () ->
        pf ppf " events=[%s]" (String.concat "; " x.v_events))
    ()

let to_string x = Fmt.str "%a" pp_violation x

(* Counter watermarks for the monotonicity check. *)
type state = {
  mutable seen_cycles : int;
  mutable seen_insns : int;
  mutable seen_traps : int;
  mutable seen_mem : int;
}

let state () = { seen_cycles = 0; seen_insns = 0; seen_traps = 0; seen_mem = 0 }

let state_dump s = [| s.seen_cycles; s.seen_insns; s.seen_traps; s.seen_mem |]

let state_load s a =
  if Array.length a <> 4 then
    invalid_arg
      (Printf.sprintf "Invariants.state_load: %d watermarks, expected 4" (Array.length a));
  s.seen_cycles <- a.(0);
  s.seen_insns <- a.(1);
  s.seen_traps <- a.(2);
  s.seen_mem <- a.(3)

let aligned4 x = Int64.logand x 3L = 0L

(* A saved SPSR must decode to a legal mode whose EL does not exceed the
   EL of the bank it lives in (an exception never comes from above). *)
let check_spsr ?id cpu ~bank ~bank_el spsr acc =
  match Arm.Pstate.of_spsr_opt spsr with
  | None ->
    v ?id cpu "spsr-mode-legal"
      (Printf.sprintf "%s = 0x%Lx has illegal mode bits" bank spsr)
    :: acc
  | Some p ->
    if Arm.Pstate.compare_el p.Arm.Pstate.el bank_el > 0 then
      v ?id cpu "spsr-el-le-bank"
        (Printf.sprintf "%s = 0x%Lx encodes %s, above %s" bank spsr
           (Arm.Pstate.el_name p.Arm.Pstate.el)
           (Arm.Pstate.el_name bank_el))
      :: acc
    else acc

let check_elr ?id cpu ~bank elr acc =
  if aligned4 elr then acc
  else
    v ?id cpu "elr-aligned"
      (Printf.sprintf "%s = 0x%Lx is not 4-byte aligned" bank elr)
    :: acc

(* Steady-state consistency of one CPU's exception-return state. *)
let check_cpu ?id (cpu : Arm.Cpu.t) =
  let peek r = Arm.Cpu.peek_sysreg cpu r in
  []
  |> check_spsr ?id cpu ~bank:"SPSR_EL2" ~bank_el:Arm.Pstate.EL2
       (peek Arm.Sysreg.SPSR_EL2)
  |> check_spsr ?id cpu ~bank:"SPSR_EL1" ~bank_el:Arm.Pstate.EL1
       (peek Arm.Sysreg.SPSR_EL1)
  |> check_elr ?id cpu ~bank:"ELR_EL2" (peek Arm.Sysreg.ELR_EL2)
  |> check_elr ?id cpu ~bank:"ELR_EL1" (peek Arm.Sysreg.ELR_EL1)
  |> fun acc ->
  let pc = Arm.Cpu.pc cpu in
  if aligned4 pc then acc
  else
    v ?id cpu "pc-aligned"
      (Printf.sprintf "pc = 0x%Lx is not 4-byte aligned" pc)
    :: acc

(* At an EL2 exception entry the interrupted context recorded in
   SPSR_EL2 must be at or below EL2 and the cpu must actually be at EL2
   (EL monotonicity: exceptions never lower the level). *)
let check_entry ?id (cpu : Arm.Cpu.t) =
  let acc =
    if cpu.Arm.Cpu.pstate.Arm.Pstate.el = Arm.Pstate.EL2 then []
    else [ v ?id cpu "entry-at-el2" "EL2 handler invoked while not at EL2" ]
  in
  check_spsr ?id cpu ~bank:"SPSR_EL2" ~bank_el:Arm.Pstate.EL2
    (Arm.Cpu.peek_sysreg cpu Arm.Sysreg.SPSR_EL2)
    acc

(* Cost counters only ever move forward. *)
let check_monotone ?id st (cpu : Arm.Cpu.t) =
  let m = cpu.Arm.Cpu.meter in
  let chk name seen now acc =
    if now < seen then
      v ?id cpu "counters-monotone"
        (Printf.sprintf "%s went backwards: %d -> %d" name seen now)
      :: acc
    else acc
  in
  let acc =
    []
    |> chk "cycles" st.seen_cycles m.Cost.cycles
    |> chk "insns" st.seen_insns m.Cost.insns
    |> chk "traps" st.seen_traps m.Cost.traps
    |> chk "mem_accesses" st.seen_mem m.Cost.mem_accesses
  in
  st.seen_cycles <- max st.seen_cycles m.Cost.cycles;
  st.seen_insns <- max st.seen_insns m.Cost.insns;
  st.seen_traps <- max st.seen_traps m.Cost.traps;
  st.seen_mem <- max st.seen_mem m.Cost.mem_accesses;
  acc

(* Generic expected/actual sweep, used for VNCR deferred-page vs sysreg
   file synchronization and for world-switch save/restore round trips. *)
let check_sync ?id ~name cpu pairs =
  List.filter_map
    (fun (what, expected, actual) ->
      if Int64.equal expected actual then None
      else
        Some
          (v ?id cpu name
             (Printf.sprintf "%s: expected 0x%Lx, found 0x%Lx" what expected
                actual)))
    pairs
