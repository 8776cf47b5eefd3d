(* Architectural invariant checking.

   Each check inspects one CPU (or one expected/actual pairing) and
   reports every violation it finds to a sink, each carrying enough
   context — cpu, EL, PC, a one-line detail — to locate the failure
   without a debugger.  Checks never raise and never mutate machine
   state, so they are safe to run after every exception entry and
   return.  A check that passes allocates nothing: it compares unboxed
   words and builds the violation, detail text included, only when it
   fails. *)

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

(* Where violations go: the machine's record (built once per CPU) or a
   list ({!collect}).  The CPU id stamps every violation. *)
type sink = { id : int; report : violation -> unit }

let sink ~id report = { id; report }

let collect ?(id = 0) f =
  let acc = ref [] in
  f { id; report = (fun x -> acc := x :: !acc) };
  List.rev !acc

let fail s cpu name detail = s.report (v ~id:s.id cpu name detail)

(* Unboxed reads of the words the checks compare.  A value that crosses
   a module boundary as an [int64] is boxed (the development profile
   inlines nothing across modules), so the checks read the register
   file's and the word file's bytes themselves and box a value only to
   print it. *)
external word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] sysreg (cpu : Arm.Cpu.t) i =
  word cpu.Arm.Cpu.sysregs.Arm.Sysreg_file.values (i * 8)

let pc_offset = Arm.Cpu.nregs * 8
let i_spsr_el2 = Arm.Sysreg.index Arm.Sysreg.SPSR_EL2
let i_spsr_el1 = Arm.Sysreg.index Arm.Sysreg.SPSR_EL1
let i_elr_el2 = Arm.Sysreg.index Arm.Sysreg.ELR_EL2
let i_elr_el1 = Arm.Sysreg.index Arm.Sysreg.ELR_EL1

let[@inline] aligned4 x = Int64.equal (Int64.logand x 3L) 0L

(* A saved SPSR must decode to a legal mode whose EL does not exceed the
   EL of the bank it lives in (an exception never comes from above). *)
let check_spsr s cpu ~bank ~bank_el i =
  let spsr = sysreg cpu i in
  let level = Arm.Pstate.spsr_level (Int64.to_int spsr) in
  if level < 0 then
    fail s cpu "spsr-mode-legal"
      (Printf.sprintf "%s = 0x%Lx has illegal mode bits" bank spsr)
  else if level > Arm.Pstate.el_level bank_el then
    fail s cpu "spsr-el-le-bank"
      (Printf.sprintf "%s = 0x%Lx encodes %s, above %s" bank spsr
         (Arm.Pstate.el_name (Arm.Pstate.of_spsr spsr).Arm.Pstate.el)
         (Arm.Pstate.el_name bank_el))

let check_elr s cpu ~bank i =
  let elr = sysreg cpu i in
  if not (aligned4 elr) then
    fail s cpu "elr-aligned"
      (Printf.sprintf "%s = 0x%Lx is not 4-byte aligned" bank elr)

(* Steady-state consistency of one CPU's exception-return state. *)
let check_cpu s (cpu : Arm.Cpu.t) =
  let pc = word cpu.Arm.Cpu.regs pc_offset in
  if not (aligned4 pc) then
    fail s cpu "pc-aligned"
      (Printf.sprintf "pc = 0x%Lx is not 4-byte aligned" pc);
  check_elr s cpu ~bank:"ELR_EL1" i_elr_el1;
  check_elr s cpu ~bank:"ELR_EL2" i_elr_el2;
  check_spsr s cpu ~bank:"SPSR_EL1" ~bank_el:Arm.Pstate.EL1 i_spsr_el1;
  check_spsr s cpu ~bank:"SPSR_EL2" ~bank_el:Arm.Pstate.EL2 i_spsr_el2

(* At an EL2 exception entry the interrupted context recorded in
   SPSR_EL2 must be at or below EL2 and the cpu must actually be at EL2
   (EL monotonicity: exceptions never lower the level). *)
let check_entry s (cpu : Arm.Cpu.t) =
  check_spsr s cpu ~bank:"SPSR_EL2" ~bank_el:Arm.Pstate.EL2 i_spsr_el2;
  if cpu.Arm.Cpu.pstate.Arm.Pstate.el <> Arm.Pstate.EL2 then
    fail s cpu "entry-at-el2" "EL2 handler invoked while not at EL2"

let check_counter s cpu name seen now =
  if now < seen then
    fail s cpu "counters-monotone"
      (Printf.sprintf "%s went backwards: %d -> %d" name seen now)

(* Cost counters only ever move forward. *)
let check_monotone s st (cpu : Arm.Cpu.t) =
  let m = cpu.Arm.Cpu.meter in
  check_counter s cpu "mem_accesses" st.seen_mem m.Cost.mem_accesses;
  check_counter s cpu "traps" st.seen_traps m.Cost.traps;
  check_counter s cpu "insns" st.seen_insns m.Cost.insns;
  check_counter s cpu "cycles" st.seen_cycles m.Cost.cycles;
  st.seen_cycles <- max st.seen_cycles m.Cost.cycles;
  st.seen_insns <- max st.seen_insns m.Cost.insns;
  st.seen_traps <- max st.seen_traps m.Cost.traps;
  st.seen_mem <- max st.seen_mem m.Cost.mem_accesses

(* An expected/actual mismatch found by a synchronization sweep (VNCR
   deferred page vs sysreg file, world-switch save/restore round trips).
   The sweep compares in place and calls this only on a mismatch. *)
let mismatch s cpu ~name what ~expected ~actual =
  fail s cpu name
    (Printf.sprintf "%s: expected 0x%Lx, found 0x%Lx" what expected actual)

let check_sync ?id ~name cpu pairs =
  collect ?id (fun s ->
      List.iter
        (fun (what, expected, actual) ->
          if not (Int64.equal expected actual) then
            mismatch s cpu ~name what ~expected ~actual)
        pairs)
