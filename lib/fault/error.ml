(* The typed error channel for the simulator.

   Two failure populations exist and must never be confused:

   - guest-triggerable conditions (a malformed register encoding in a trap
     syndrome, an out-of-registry hvc operand, an access to a GICH frame
     offset that does not exist).  Real hardware does not crash on these —
     it delivers an UNDEF or an abort to the faulting exception level.
     The hypervisor layers handle these by *injecting* an architectural
     exception and never raise;

   - genuine simulator bugs (an access form missing from the paravirt
     registry, world-switch code touching a register with no context
     slot).  These abort, but through [Sim_fault], which carries enough
     machine context (cpu, EL, PC, recent trap trail) to debug the run
     instead of a bare [Invalid_argument]. *)

type kind =
  | Unknown_sysreg of (int * int * int * int * int)
      (* a trapped access whose encoding maps to no known register *)
  | Bad_hvc_operand of int
      (* a paravirt hvc operand outside the form registry *)
  | Not_gich_register of string
      (* a GICv2 frame access to a register with no GICH mapping *)
  | Unknown_access_form of string
      (* paravirt registry lookup failed for a form the simulator built *)
  | Invariant_broken of string
      (* an architectural invariant check failed hard *)
  | Oracle_divergence of string
      (* differential fuzzing: two trap mechanisms disagreed on an
         architecturally visible outcome *)
  | Bad_topology of string
      (* a machine shape that cannot be built: a CPU count outside the
         per-vCPU memory-region budget *)
  | Bad_intid of string
      (* an interrupt id outside the range its GIC path accepts; the
         guest-reachable encodings mask their intid fields, so a trip
         here is simulator misuse, not guest input *)

let kind_to_string = function
  | Unknown_sysreg (op0, op1, crn, crm, op2) ->
    Printf.sprintf "unknown system register s%d_%d_c%d_c%d_%d" op0 op1 crn
      crm op2
  | Bad_hvc_operand op -> Printf.sprintf "bad hvc operand 0x%x" op
  | Not_gich_register r -> "no GICH frame register backs " ^ r
  | Unknown_access_form a -> "access form outside the paravirt registry: " ^ a
  | Invariant_broken s -> "invariant broken: " ^ s
  | Oracle_divergence s -> "oracle divergence: " ^ s
  | Bad_topology s -> "bad machine topology: " ^ s
  | Bad_intid s -> "bad interrupt id: " ^ s

(* Machine context captured at the raise site. *)
type context = {
  fc_cpu : int;
  fc_el : Arm.Pstate.el;
  fc_pc : int64;
  fc_trail : string list;  (* most recent traps first *)
  fc_events : string list; (* rendered trace tail, oldest first *)
}

exception Sim_fault of kind * context option

let context_of_cpu ?(id = 0) (cpu : Arm.Cpu.t) =
  let name (k, detail) = Cost.trap_kind_name k ^ " " ^ detail in
  let trail = List.map name (Arm.Cpu.trail_entries cpu) in
  let events =
    if Trace.is_on () then List.map Trace.render (Trace.last Arm.Cpu.trail_depth)
    else []
  in
  {
    fc_cpu = id;
    fc_el = cpu.Arm.Cpu.pstate.Arm.Pstate.el;
    fc_pc = Arm.Cpu.pc cpu;
    fc_trail = trail;
    fc_events = events;
  }

let pp_context ppf c =
  Fmt.pf ppf "cpu%d %s pc=0x%Lx%a%a" c.fc_cpu (Arm.Pstate.el_name c.fc_el)
    c.fc_pc
    Fmt.(
      if c.fc_trail = [] then nop
      else fun ppf () ->
        pf ppf " trail=[%s]" (String.concat "; " c.fc_trail))
    ()
    Fmt.(
      if c.fc_events = [] then nop
      else fun ppf () ->
        pf ppf " events=[%s]" (String.concat "; " c.fc_events))
    ()

let to_string kind ctx =
  kind_to_string kind
  ^ match ctx with None -> "" | Some c -> Fmt.str " (%a)" pp_context c

(* A simulator bug surfaced with machine context attached. *)
let sim_bug ?id ?cpu kind =
  raise (Sim_fault (kind, Option.map (context_of_cpu ?id) cpu))

let () =
  Printexc.register_printer (function
    | Sim_fault (kind, ctx) -> Some ("Sim_fault: " ^ to_string kind ctx)
    | _ -> None)
