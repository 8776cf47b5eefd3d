(* Paravirtualization of the guest hypervisor (Sections 4 and 6.4).

   ARMv8.0 hardware has no nested-virtualization support: hypervisor
   instructions executed at EL1 are UNDEFINED rather than trapping to EL2.
   The paper's methodology replaces each such instruction with one that
   behaves — and costs — the same as the *target* architecture would:

   - mimicking ARMv8.3: instructions that would trap are replaced with
     [hvc #op], whose 16-bit operand encodes the original instruction so
     the host hypervisor can emulate it (Section 4);
   - mimicking NEVE: VM-register accesses become loads/stores to a shared
     memory region, hypervisor-control accesses become accesses to the
     corresponding EL1 registers, and only the residual trapping accesses
     become [hvc] (Section 6.4).

   The patcher does not guess: it asks the trap router what the target
   architecture would do with the instruction and translates the answer
   into one ARMv8.0 instruction.  This is exactly why hardware and
   paravirtualized runs produce identical trap counts.

   Operand encoding (16 bits): bits [15:6] = form index + 1 (0 marks a real
   hypercall), bits [5:1] = Rt, bit [0] = direction (1 = read).
   Form index 0x3fe is reserved for eret. *)

module Sysreg = Arm.Sysreg
module Insn = Arm.Insn
module Trap_rules = Arm.Trap_rules

let eret_index = 0x3fe

(* All access forms a guest hypervisor can perform: every direct register
   access, the _EL12 aliases, and the _EL02 timer aliases. *)
let forms : Sysreg.access array =
  Array.of_list
    (List.map Sysreg.direct Sysreg.all
     @ List.map Sysreg.el12 Reglists.el12_capable
     @ List.map Sysreg.el02 Reglists.timer_el0_state)

(* domain-safety: allowlisted global — the closed-over table is fully
   populated at module load and read-only afterwards. *)
let form_index : Sysreg.access -> int =
  let tbl = Hashtbl.create 256 in
  Array.iteri (fun i a -> Hashtbl.replace tbl a i) forms;
  fun a ->
    match Hashtbl.find_opt tbl a with
    | Some i -> i
    | None ->
      (* Only the patcher calls this, with accesses the funnel or the
         decoder built — a miss is a simulator bug, not guest input. *)
      Fault.Error.sim_bug
        (Fault.Error.Unknown_access_form (Sysreg.access_name a))

let () = assert (Array.length forms < eret_index)

let encode_sysreg_op ~(access : Sysreg.access) ~rt ~is_read =
  ((form_index access + 1) lsl 6)
  lor ((rt land 0x1f) lsl 1)
  lor (if is_read then 1 else 0)

let encode_eret_op = (eret_index + 1) lsl 6

type op =
  | Op_hypercall of int           (* a real hypercall, operand < 64 *)
  | Op_sysreg of { access : Sysreg.access; rt : int; is_read : bool }
  | Op_eret
  | Op_invalid of int             (* outside the registry: guest gets UNDEF *)

type kind = K_hypercall | K_sysreg | K_eret | K_invalid

(* The decoder, in pieces that allocate nothing: which kind of operation
   an operand names, then a sysreg operand's fields.  [decode_op] builds
   its record from them; the host's hvc path reads them directly.

   Total: a guest can execute [hvc] with any operand it likes, so an
   out-of-registry index is guest input, not an error — the host injects
   UNDEF for [K_invalid] exactly as ARMv8.3 hardware UNDEFs an
   instruction the paravirt registry would never have produced. *)
let[@inline] form_of operand = ((operand lsr 6) land 0x3ff) - 1

let op_kind operand =
  let form = form_of operand in
  if form < 0 then K_hypercall
  else if form = eret_index then K_eret
  else if form < Array.length forms then K_sysreg
  else K_invalid

let op_access operand = forms.(form_of operand)
let op_rt operand = (operand lsr 1) land 0x1f
let op_is_read operand = operand land 1 = 1

let decode_op operand =
  match op_kind operand with
  | K_hypercall -> Op_hypercall (operand land 0x3f)
  | K_eret -> Op_eret
  | K_sysreg ->
    Op_sysreg
      {
        access = op_access operand;
        rt = op_rt operand;
        is_read = op_is_read operand;
      }
  | K_invalid -> Op_invalid operand

let op_name = function
  | Op_hypercall n -> Printf.sprintf "hypercall#%d" n
  | Op_sysreg { access; rt; is_read } ->
    Printf.sprintf "%s %s x%d"
      (if is_read then "mrs" else "msr")
      (Sysreg.access_name access) rt
  | Op_eret -> "eret"
  | Op_invalid n -> Printf.sprintf "invalid#%d" n

(* What would the target architecture do with this instruction, executed at
   EL1 by the guest hypervisor?  [page_base] is the shared memory region
   standing in for the deferred access page. *)
let target_route (config : Config.t) ~page_base insn =
  let features = Config.target_features config in
  let hcr = Arm.Hcr.decode (Config.target_hcr config) in
  let vncr =
    if Config.is_neve config then Int64.logor page_base 1L else 0L
  in
  Trap_rules.route features ~hcr ~vncr ~el:Arm.Pstate.EL1 insn

(* --- patching (Section 4: compile-time wrappers, or a "fully automated
   approach, for example by binary patching a guest hypervisor image") ---

   Every replacement is one instruction in place of one.  A deferred
   access becomes a load or store of its shared-page slot, named by
   absolute address where the funnel patches the instruction it is about
   to run, and as an offset from x28 in binary text, where x28 holds the
   shared-page base by convention (set once at hypervisor entry). *)

let page_base_reg = 28

type slot = Absolute | Page_relative

let slot_addr slot ~page_base addr =
  match slot with
  | Absolute -> Insn.Abs addr
  | Page_relative -> Insn.Based (page_base_reg, Int64.sub addr page_base)

(* Patch one guest-hypervisor instruction into the ARMv8.0 instruction
   that mimics the target architecture.  An instruction the target
   executes as written, finds UNDEFINED, or would trap in a shape the
   hvc protocol does not encode (an immediate MSR, WFI) is returned as it
   is: the ARMv8.0 hardware then runs it or raises the UNDEF. *)
let patch_routed ~page_base ~slot action (insn : Insn.t) : Insn.t =
  match (action, insn) with
  | Trap_rules.Execute_redirected target, Insn.Mrs (rt, _) ->
    Insn.Mrs (rt, target)
  | Trap_rules.Execute_redirected target, Insn.Msr (_, v) ->
    Insn.Msr (target, v)
  | Trap_rules.Defer_to_memory { addr; reg = _ }, Insn.Mrs (rt, _) ->
    Insn.Ldr (rt, slot_addr slot ~page_base addr)
  | Trap_rules.Defer_to_memory { addr; reg = _ }, Insn.Msr (_, Insn.Reg rt) ->
    Insn.Str (rt, slot_addr slot ~page_base addr)
  | Trap_rules.Read_disguised v, Insn.Mrs (rt, _) ->
    (* "reading the CurrentEL special register is paravirtualized to
       return EL2 as the current exception level" (Section 4) *)
    Insn.Mov (rt, Insn.Imm v)
  | Trap_rules.Trap_to_el2 _, Insn.Eret -> Insn.Hvc encode_eret_op
  | Trap_rules.Trap_to_el2 _, Insn.Mrs (rt, access) ->
    Insn.Hvc (encode_sysreg_op ~access ~rt ~is_read:true)
  | Trap_rules.Trap_to_el2 _, Insn.Msr (access, Insn.Reg rt) ->
    Insn.Hvc (encode_sysreg_op ~access ~rt ~is_read:false)
  (* [target_route] never grants OoH exposure (paravirt guests reach L0
     through the hvc protocol instead); an exposed access, like every
     other case, runs as written. *)
  | _ -> insn

let patch config ~page_base ~slot insn =
  patch_routed ~page_base ~slot (target_route config ~page_base insn) insn

(* The target's routing state is built once per text, never at module
   initialization (a table built at load time is garbage every process
   pays for).  A word that decodes to nothing, or to an instruction the
   router executes under every state ([Xlate.is_plain]), is kept without
   routing. *)
let patch_text config ~page_base words =
  let features = Config.target_features config in
  let hcr = Arm.Hcr.decode (Config.target_hcr config) in
  let vncr =
    if Config.is_neve config then Int64.logor page_base 1L else 0L
  in
  let patch_word w =
    match Arm.Encode.decode w with
    | Arm.Encode.D_unknown _ -> w
    | Arm.Encode.D_insn insn when Arm.Xlate.is_plain insn -> w
    | Arm.Encode.D_insn insn ->
      let action =
        Trap_rules.route features ~hcr ~vncr ~el:Arm.Pstate.EL1 insn
      in
      let p = patch_routed ~page_base ~slot:Page_relative action insn in
      if p == insn then w else Arm.Encode.encode p
  in
  let out = Array.map patch_word words in
  if !Trace.on then begin
    let changed = ref 0 in
    Array.iteri (fun i w -> if w <> out.(i) then incr changed) words;
    Trace.emit
      ~a0:(Int64.of_int !changed)
      ~a1:(Int64.of_int (Array.length words))
      ~detail:(Config.name config) Trace.Pv_patch
  end;
  out
