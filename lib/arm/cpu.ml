(* The simulated CPU: machine state plus the instruction-execution engine.

   Execution is synchronous: when an instruction traps to EL2, the hardware
   exception entry is performed and the installed EL2 handler (the host
   hypervisor) runs immediately; it finishes by executing eret at EL2, which
   restores the interrupted context, and the original [exec] call returns.
   This mirrors the trap-and-emulate flow without needing a scheduler. *)

exception Undefined_instruction of Insn.t * Pstate.el
exception No_el2_handler of Exn.entry

type t = {
  mutable pc : int64;
  regs : int64 array; (* x0..x30 *)
  mutable pstate : Pstate.t;
  sysregs : Sysreg_file.t;
  mem : Memory.t;
  mutable features : Features.t;
  meter : Cost.meter;
  mutable el2_handler : handler option;
  mutable el1_handler : handler option;
  (* When set, an UNDEFINED instruction below EL2 takes the architectural
     EL1 exception vector even with no simulated EL1 handler installed
     (the guest kernel is assumed to have vectors).  Bare CPUs keep the
     historical raise so unit tests can observe the Undef routing. *)
  mutable el1_vectors : bool;
  (* GPR snapshots taken on each EL2 exception entry: the hypervisor's own
     code runs on the same register file (as real KVM's EL2 code does), so
     trapped-access emulation reads and writes the *saved* guest registers,
     restored by the eret that ends the handler. *)
  mutable saved_regs : int64 array list;
  (* NV2 ablation mask (simulator-only knob): which of NEVE's three
     mechanisms are implemented by this "hardware". *)
  mutable nv2_mask : Trap_rules.nv2_mask;
  (* OoH exposure policy: the per-feature grant set L0 handed this
     guest hypervisor.  Granted facilities' vEL2 accesses route as
     [Execute_exposed] instead of trapping; set once by the machine
     builder and immutable for the life of the VM. *)
  mutable expose : Expose.Policy.t;
  (* Decoded-HCR cache: [Hcr.decode] allocates a 12-field record and runs
     on every executed instruction; HCR_EL2 changes only on world
     switches, so the view is reused while the raw value is unchanged. *)
  mutable hcr_raw : int64;
  mutable hcr_cached : Hcr.view;
  (* Per-CPU superblock translation + decode cache (see Xlate).  Owned
     here so every machine gets its own — the former module-global decode
     cache in Interp was shared across machines. *)
  xlate : Xlate.t;
  (* EL2 trap entries keyed by (EC, ISS).  A trap site raises the same
     syndrome every time it traps, and entries are immutable, so the
     record handed to the handler is reused instead of rebuilt per trap. *)
  trap_entries : Exn.entry Memo.t;
  (* The trap log's entry for each trapping instruction, built by the
     first logged trap: a trap site logs the same entry every time, and
     the log keeps every entry for the meter's life. *)
  mutable labels : (Insn.t, Cost.trap_kind * string) Hashtbl.t option;
}

and handler = t -> Exn.entry -> unit

(* Trap-entry memo keys: the EC above the 25-bit ISS. *)
let iss_bits = 25

let entry_of_key k =
  match Exn.ec_of_code (k lsr iss_bits) with
  | Some ec ->
    { Exn.target = Pstate.EL2; ec; iss = k land ((1 lsl iss_bits) - 1);
      fault_addr = None }
  | None -> assert false

let create ?(features = Features.v Features.V8_0) ?table ?mem ?meter () =
  let mem = match mem with Some m -> m | None -> Memory.create () in
  let meter = match meter with Some m -> m | None -> Cost.make_meter ?table () in
  {
    pc = 0x8000_0000L;
    regs = Array.make 31 0L;
    pstate = Pstate.reset;
    sysregs = Sysreg_file.create ();
    mem;
    features;
    meter;
    el2_handler = None;
    el1_handler = None;
    el1_vectors = false;
    saved_regs = [];
    nv2_mask = Trap_rules.nv2_full;
    expose = Expose.Policy.none;
    hcr_raw = 0L;
    hcr_cached = Hcr.decode 0L;
    xlate = Xlate.create ();
    trap_entries = Memo.create entry_of_key;
    labels = None;
  }

(* Register 31 is XZR: A64's 5-bit register fields encode it, and the
   decoder passes it through.  It reads zero and ignores writes, the
   convention [get_trapped_reg] already follows.  (Where A64 would mean
   SP — an ADD/SUB immediate operand, a load/store base — the simulator
   has no stack pointer and treats it as XZR too.) *)
let get_reg t n =
  if n = 31 then 0L
  else begin
    if n < 0 || n > 30 then invalid_arg "Cpu.get_reg";
    t.regs.(n)
  end

let set_reg t n v =
  if n <> 31 then begin
    if n < 0 || n > 30 then invalid_arg "Cpu.set_reg";
    t.regs.(n) <- v
  end

let operand_value t = function
  | Insn.Imm i -> i
  | Insn.Reg n -> get_reg t n

let addr_value t = function
  | Insn.Abs a -> a
  | Insn.Based (r, off) -> Int64.add (get_reg t r) off

(* Unboxed register-file words, by dense index.  The trap round trip
   reads and writes a handful of registers per exception; going through
   [Sysreg_file.read]/[hw_write] would box every value at the module
   boundary.  [sr_set] is [Sysreg_file.hw_write]: value plus dirty bit. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] sr_get t i = get_word t.sysregs.Sysreg_file.values (i * 8)

let[@inline] sr_set t i v =
  set_word t.sysregs.Sysreg_file.values (i * 8) v;
  Bytes.unsafe_set t.sysregs.Sysreg_file.dirty i '\001'

let i_hcr = Sysreg.index Sysreg.HCR_EL2
let i_esr_el2 = Sysreg.index Sysreg.ESR_EL2
let i_elr_el2 = Sysreg.index Sysreg.ELR_EL2
let i_spsr_el2 = Sysreg.index Sysreg.SPSR_EL2
let i_far_el2 = Sysreg.index Sysreg.FAR_EL2
let i_hpfar_el2 = Sysreg.index Sysreg.HPFAR_EL2
let i_esr_el1 = Sysreg.index Sysreg.ESR_EL1
let i_elr_el1 = Sysreg.index Sysreg.ELR_EL1
let i_spsr_el1 = Sysreg.index Sysreg.SPSR_EL1
let i_far_el1 = Sysreg.index Sysreg.FAR_EL1

let hcr_view t =
  let raw = sr_get t i_hcr in
  if not (Int64.equal raw t.hcr_raw) then begin
    t.hcr_raw <- raw;
    t.hcr_cached <- Hcr.decode raw
  end;
  t.hcr_cached

let vncr_value t = Sysreg_file.read t.sysregs Sysreg.VNCR_EL2

let table t = t.meter.Cost.table

(* Raw register-file access for hardware-internal updates and for inspecting
   state from tests; does not model an instruction and costs nothing. *)
let peek_sysreg t r = Sysreg_file.read t.sysregs r
let poke_sysreg t r v = Sysreg_file.hw_write t.sysregs r v

(* --- exception entry and return --- *)

(* The entry for an EL2 trap with this syndrome, from the per-CPU memo. *)
let trap_entry t ec iss =
  if iss >= 0 && iss < 1 lsl iss_bits then
    Memo.find t.trap_entries ((Exn.ec_code ec lsl iss_bits) lor iss)
  else { Exn.target = Pstate.EL2; ec; iss; fault_addr = None }

let exception_entry t (e : Exn.entry) =
  let c = table t in
  match e.target with
  | Pstate.EL2 ->
    sr_set t i_esr_el2 (Int64.of_int (Exn.esr_bits ~ec:e.ec ~iss:e.iss));
    sr_set t i_elr_el2 t.pc;
    sr_set t i_spsr_el2 (Int64.of_int (Pstate.spsr_bits t.pstate));
    (match e.fault_addr with
     | Some a ->
       sr_set t i_far_el2 a;
       sr_set t i_hpfar_el2 (Int64.shift_right_logical a 8)
     | None -> ());
    t.pstate <- Pstate.at Pstate.EL2;
    t.saved_regs <- Array.copy t.regs :: t.saved_regs;
    Cost.charge t.meter c.Cost.trap_entry;
    if !Trace.on then
      Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid
        ~a0:(Int64.of_int (Exn.ec_code e.ec))
        ~a1:(Int64.of_int e.iss) ~detail:(Exn.entry_label e) Trace.Exn_entry;
    (match t.el2_handler with
     | Some h -> h t e
     | None -> raise (No_el2_handler e))
  | Pstate.EL1 ->
    sr_set t i_esr_el1 (Int64.of_int (Exn.esr_bits ~ec:e.ec ~iss:e.iss));
    sr_set t i_elr_el1 t.pc;
    sr_set t i_spsr_el1 (Int64.of_int (Pstate.spsr_bits t.pstate));
    (match e.fault_addr with
     | Some a -> sr_set t i_far_el1 a
     | None -> ());
    t.pstate <- Pstate.at Pstate.EL1;
    Cost.charge t.meter c.Cost.exc_entry_el1;
    if !Trace.on then
      Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid
        ~a0:(Int64.of_int (Exn.ec_code e.ec))
        ~a1:(Int64.of_int e.iss) ~detail:(Exn.entry_label e) Trace.Exn_entry;
    (match t.el1_handler with
     | Some h -> h t e
     | None -> ())
  | Pstate.EL0 -> invalid_arg "Cpu.exception_entry: EL0 cannot take exceptions"

(* Architectural eret at the current EL. *)
let do_eret t =
  let c = table t in
  let at_el2 =
    match t.pstate.Pstate.el with
    | Pstate.EL2 ->
      (match t.saved_regs with
       | saved :: rest ->
         (* The snapshot shares every value the handler did not replace
            with the live file, so only replaced slots are stored back:
            a store into the long-lived file pays the write barrier. *)
         let n = Array.length saved in
         if n <> Array.length t.regs then Array.blit saved 0 t.regs 0 n
         else
           for i = 0 to n - 1 do
             let v = Array.unsafe_get saved i in
             if Array.unsafe_get t.regs i != v then Array.unsafe_set t.regs i v
           done;
         t.saved_regs <- rest
       | [] -> ());
      true
    | Pstate.EL1 -> false
    | Pstate.EL0 -> invalid_arg "Cpu.do_eret at EL0"
  in
  let spsr = sr_get t (if at_el2 then i_spsr_el2 else i_spsr_el1) in
  let elr = sr_get t (if at_el2 then i_elr_el2 else i_elr_el1) in
  (match Pstate.of_spsr_bits (Int64.to_int spsr) with
   | Some p -> t.pstate <- p
   | None ->
     (* Illegal exception return: hardware sets PSTATE.IL and stays at
        the current EL rather than switching into a nonsense mode.  The
        invariant checker reports the corrupt SPSR; execution continues
        at ELR so the simulation stays alive. *)
     ());
  t.pc <- elr;
  Cost.charge t.meter c.Cost.trap_return;
  if !Trace.on then
    Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:elr
      ~detail:(Pstate.el_name t.pstate.Pstate.el) Trace.Exn_return

(* --- system-register read/write with side effects --- *)

let read_sysreg_hw t (r : Sysreg.t) =
  match r with
  | Sysreg.CurrentEL -> Pstate.currentel_bits t.pstate.Pstate.el
  | Sysreg.CNTVCT_EL0 ->
    (* virtual count = a function of cycles consumed, offset by CNTVOFF *)
    Int64.sub
      (Int64.of_int t.meter.Cost.cycles)
      (Sysreg_file.read t.sysregs Sysreg.CNTVOFF_EL2)
  | _ -> Sysreg_file.read t.sysregs r

let write_sysreg_hw t r v = Sysreg_file.write t.sysregs r v

(* --- the execution engine --- *)

let advance_pc t = t.pc <- Int64.add t.pc 4L

(* Scratch register used for normalized immediate MSRs and the mrs/msr
   helpers below. *)
let scratch_reg = 9

let exec_local t (insn : Insn.t) =
  let c = table t in
  (match insn with
   | Insn.Mrs (rt, a) ->
     set_reg t rt (read_sysreg_hw t a.Sysreg.reg);
     Cost.charge_insn t.meter c.Cost.sysreg_read
   | Insn.Msr (a, v) ->
     write_sysreg_hw t a.Sysreg.reg (operand_value t v);
     Cost.charge_insn t.meter c.Cost.sysreg_write
   | Insn.Ldr (rt, a) ->
     set_reg t rt (Memory.read64 t.mem (addr_value t a));
     t.meter.Cost.mem_accesses <- t.meter.Cost.mem_accesses + 1;
     Cost.charge_insn t.meter c.Cost.mem_load
   | Insn.Str (rt, a) ->
     Memory.write64 t.mem (addr_value t a) (get_reg t rt);
     t.meter.Cost.mem_accesses <- t.meter.Cost.mem_accesses + 1;
     Cost.charge_insn t.meter c.Cost.mem_store
   | Insn.Mov (rd, v) ->
     set_reg t rd (operand_value t v);
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Add (rd, rn, v) ->
     set_reg t rd (Int64.add (get_reg t rn) (operand_value t v));
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Sub (rd, rn, v) ->
     set_reg t rd (Int64.sub (get_reg t rn) (operand_value t v));
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.And (rd, rn, v) ->
     set_reg t rd (Int64.logand (get_reg t rn) (operand_value t v));
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Orr (rd, rn, v) ->
     set_reg t rd (Int64.logor (get_reg t rn) (operand_value t v));
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Eor (rd, rn, v) ->
     set_reg t rd (Int64.logxor (get_reg t rn) (operand_value t v));
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Lsl (rd, rn, s) ->
     set_reg t rd (Int64.shift_left (get_reg t rn) s);
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Lsr (rd, rn, s) ->
     set_reg t rd (Int64.shift_right_logical (get_reg t rn) s);
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Isb | Insn.Dsb -> Cost.charge_insn t.meter c.Cost.barrier
   | Insn.Tlbi_vmalls12e1 | Insn.Tlbi_alle2 ->
     Cost.charge_insn t.meter c.Cost.tlbi
   | Insn.Wfi -> Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Nop -> Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Eret -> do_eret t
   | Insn.Svc imm ->
     (* exception to EL1 *)
     Cost.charge_insn t.meter c.Cost.insn_base;
     exception_entry t
       { target = Pstate.EL1; ec = Exn.EC_svc64; iss = imm land 0xffff;
         fault_addr = None }
   | Insn.B off ->
     Cost.charge_insn t.meter c.Cost.insn_base;
     t.pc <- Int64.add t.pc (Int64.of_int (off * 4))
   | Insn.Cbz (rt, off) ->
     Cost.charge_insn t.meter c.Cost.insn_base;
     if get_reg t rt = 0L then t.pc <- Int64.add t.pc (Int64.of_int (off * 4))
     else advance_pc t
   | Insn.Cbnz (rt, off) ->
     Cost.charge_insn t.meter c.Cost.insn_base;
     if get_reg t rt <> 0L then
       t.pc <- Int64.add t.pc (Int64.of_int (off * 4))
     else advance_pc t
   | Insn.Hvc _ | Insn.Smc _ ->
     (* only reached when the router said Execute, i.e. SMC at EL2 *)
     Cost.charge_insn t.meter c.Cost.insn_base);
  match insn with
  | Insn.Eret | Insn.B _ | Insn.Cbz _ | Insn.Cbnz _ -> ()
  | _ -> advance_pc t

(* The trap log's entry for [insn] trapping as [kind]: the rendered
   instruction, shared between the traps of one site.  An instruction
   that traps under another kind elsewhere (a TVM trap from a VM, a
   virtual-EL2 trap from the guest hypervisor) shares the text only. *)
let log_entry t insn kind =
  let tbl =
    match t.labels with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 64 in
      t.labels <- Some tbl;
      tbl
  in
  match Hashtbl.find_opt tbl insn with
  | Some ((k, text) as e) -> if k == kind then e else (kind, text)
  | None ->
    let e = (kind, Insn.to_string insn) in
    Hashtbl.add tbl insn e;
    e

let undef_entry =
  { Exn.target = Pstate.EL1; ec = Exn.EC_unknown; iss = 0; fault_addr = None }

let rec exec t (insn : Insn.t) =
  match insn with
  | Insn.Ldr _ | Insn.Str _ | Insn.Mov _ | Insn.Add _ | Insn.Sub _
  | Insn.And _ | Insn.Orr _ | Insn.Eor _ | Insn.Lsl _ | Insn.Lsr _
  | Insn.Isb | Insn.Dsb | Insn.Tlbi_vmalls12e1 | Insn.Tlbi_alle2 | Insn.Nop
  | Insn.B _ | Insn.Cbz _ | Insn.Cbnz _ | Insn.Svc _ ->
    (* The router returns Execute for these unconditionally (no HCR, EL or
       feature sensitivity — see the final arm of [Trap_rules.route]), so
       skip the route and the HCR/VNCR reads it needs. *)
    exec_local t insn
  | _ -> exec_routed t insn

and exec_routed t (insn : Insn.t) =
  (* Route once per instruction; the only re-route is the immediate-MSR
     normalization below, which must re-route because the synthesized Reg
     form carries a different Rt in the trap syndrome. *)
  let action =
    Trap_rules.route ~mask:t.nv2_mask ~expose:t.expose t.features
      ~hcr:(hcr_view t) ~vncr:(vncr_value t) ~el:t.pstate.Pstate.el insn
  in
  match insn with
  | Insn.Msr (access, Insn.Imm v) when action <> Trap_rules.Execute ->
    (* Normalize: an immediate can only reach a system register through a
       general register, and a trapped access must carry its Rt in the
       syndrome.  Model "mov x9, #v; msr reg, x9". *)
    let c = table t in
    set_reg t scratch_reg v;
    Cost.charge_insn t.meter c.Cost.insn_base;
    exec t (Insn.Msr (access, Insn.Reg scratch_reg))
  | _ -> exec_action t insn action

and exec_action t (insn : Insn.t) action =
  let c = table t in
  match (action : Trap_rules.action) with
  | Trap_rules.Execute -> exec_local t insn
  | Trap_rules.Execute_exposed { feature } ->
    (* OoH: the access runs against the real register at its ordinary
       execute cost; only the saved exit is attributed. *)
    if t.meter.Cost.logging || !Trace.on then
      Cost.record_exposed ~detail:(Insn.to_string insn) t.meter feature
    else Cost.record_exposed t.meter feature;
    exec_local t insn
  | Trap_rules.Execute_redirected target -> begin
      match insn with
      | Insn.Mrs (rt, _) -> exec_local t (Insn.Mrs (rt, target))
      | Insn.Msr (_, v) -> exec_local t (Insn.Msr (target, v))
      | _ -> assert false
    end
  | Trap_rules.Defer_to_memory { addr; reg = _ } -> begin
      (* NV2 transforms the register access into a 64-bit memory access to
         the deferred access page (Section 6.1). *)
      match insn with
      | Insn.Mrs (rt, _) ->
        set_reg t rt (Memory.read64 t.mem addr);
        t.meter.Cost.mem_accesses <- t.meter.Cost.mem_accesses + 1;
        Cost.charge_insn t.meter c.Cost.mem_load;
        if !Trace.on then
          Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:addr ~detail:"read"
            Trace.Vncr_redirect;
        advance_pc t
      | Insn.Msr (_, v) ->
        Memory.write64 t.mem addr (operand_value t v);
        t.meter.Cost.mem_accesses <- t.meter.Cost.mem_accesses + 1;
        Cost.charge_insn t.meter c.Cost.mem_store;
        if !Trace.on then
          Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:addr ~detail:"write"
            Trace.Vncr_redirect;
        advance_pc t
      | _ -> assert false
    end
  | Trap_rules.Read_disguised v -> begin
      match insn with
      | Insn.Mrs (rt, _) ->
        set_reg t rt v;
        Cost.charge_insn t.meter c.Cost.sysreg_read;
        advance_pc t
      | _ -> assert false
    end
  | Trap_rules.Trap_to_el2 { ec; iss; kind } ->
    (* The detail string is only observable through the trap log and the
       tracer; don't pay for rendering the instruction otherwise. *)
    if t.meter.Cost.logging || !Trace.on then
      Cost.record_trap_entry t.meter (log_entry t insn kind)
    else Cost.record_trap t.meter kind;
    advance_pc t;
    (* ELR on a trapped instruction points at the *next* instruction once
       the handler has emulated it; we advance first so the handler's eret
       resumes after the trapping instruction. *)
    exception_entry t (trap_entry t ec iss)
  | Trap_rules.Undef ->
    if
      t.pstate.Pstate.el <> Pstate.EL2
      && (t.el1_vectors || t.el1_handler <> None)
    then begin
      advance_pc t;
      exception_entry t undef_entry
    end
    else raise (Undefined_instruction (insn, t.pstate.Pstate.el))

let exec_with_action = exec_action
let exec_seq t insns = List.iter (exec t) insns

(* A physical interrupt arrives while the CPU runs below EL2 with IMO set:
   route to EL2 (the host hypervisor). *)
let deliver_irq t =
  let c = table t in
  let hcr = hcr_view t in
  if t.pstate.Pstate.el <> Pstate.EL2 && hcr.Hcr.h_imo then begin
    Cost.record_trap ~detail:"irq" t.meter Cost.Trap_irq;
    Cost.charge t.meter c.Cost.irq_delivery;
    exception_entry t (trap_entry t Exn.EC_irq 0);
    true
  end
  else false

(* --- FEAT_RAS virtual SError ---

   The pending state is purely architectural: HCR_EL2.VSE is the pending
   bit, VSESR_EL2 the syndrome it will deliver.  Both live in the
   register file, so a snapshot taken between pend and delivery carries
   the error with it bit-for-bit. *)

let pend_vserror t ~syndrome =
  Sysreg_file.hw_write t.sysregs Sysreg.VSESR_EL2 syndrome;
  Sysreg_file.hw_write t.sysregs Sysreg.HCR_EL2
    (Hcr.set (Sysreg_file.read t.sysregs Sysreg.HCR_EL2) Hcr.vse);
  if !Trace.on then
    Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:syndrome
      ~detail:"vse-pend" Trace.Serror_pend

let vserror_pending t = (hcr_view t).Hcr.h_vse

(* A pending virtual SError is taken as soon as the CPU runs below EL2:
   clear VSE, latch the syndrome into VDISR_EL2 (valid bit 31, as ESB
   would), and take the EC 0x2f exception at EL1. *)
let deliver_vserror t =
  let c = table t in
  let hcr = hcr_view t in
  if t.pstate.Pstate.el <> Pstate.EL2 && hcr.Hcr.h_vse then begin
    let vsesr = Sysreg_file.read t.sysregs Sysreg.VSESR_EL2 in
    let iss = Int64.to_int (Int64.logand vsesr 0x1ff_ffffL) in
    Sysreg_file.hw_write t.sysregs Sysreg.HCR_EL2
      (Hcr.clear_bit (Sysreg_file.read t.sysregs Sysreg.HCR_EL2) Hcr.vse);
    Sysreg_file.hw_write t.sysregs Sysreg.VDISR_EL2
      (Int64.logor 0x8000_0000L vsesr);
    Cost.charge t.meter c.Cost.serror_delivery;
    if !Trace.on then
      Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:vsesr
        ~detail:"vserror->EL1" Trace.Serror_deliver;
    exception_entry t
      { target = Pstate.EL1; ec = Exn.EC_serror; iss; fault_addr = None };
    true
  end
  else false

(* Convenience accessors used by hypervisor code: execute a real MRS/MSR on
   the simulated CPU (so it is costed and routed) and move data in/out.

   The host's own accesses take an EL2 path that builds no instruction
   and skips the router.  It is exact because at EL2 [Trap_rules.route]
   reduces to [route_sysreg_el2] (plus the CurrentEL-write Undef check
   for MSR): a [Direct] access answers [Execute] unless HCR_EL2.E2H is
   set on a VHE-capable CPU and the register has an E2H twin.  Exactly
   those [Execute] cases take the path below, which then does what
   [exec_local] does for the instruction — the same register-file
   access, scratch-register write, meter charge and PC advance.  Every
   other case still runs [exec]. *)
let el2_executes t (a : Sysreg.access) =
  t.pstate.Pstate.el == Pstate.EL2
  && a.Sysreg.alias == Sysreg.Direct
  &&
  match Trap_rules.vhe_el2_twin a.Sysreg.reg with
  | None -> true
  | Some _ -> not ((hcr_view t).Hcr.h_e2h && Features.has_vhe t.features)

let mrs t access =
  if el2_executes t access then begin
    set_reg t scratch_reg (read_sysreg_hw t access.Sysreg.reg);
    Cost.charge_insn t.meter (table t).Cost.sysreg_read;
    advance_pc t
  end
  else exec t (Insn.Mrs (scratch_reg, access));
  get_reg t scratch_reg

(* MSR to CurrentEL is UNDEFINED even at EL2. *)
let writable_access (a : Sysreg.access) =
  match a.Sysreg.reg with Sysreg.CurrentEL -> false | _ -> true

let msr t access v =
  if el2_executes t access && writable_access access then begin
    write_sysreg_hw t access.Sysreg.reg v;
    Cost.charge_insn t.meter (table t).Cost.sysreg_write;
    advance_pc t
  end
  else exec t (Insn.Msr (access, Insn.Imm v))

(* [msr t access (Sysreg_file.read src r)], moving the value as an
   unboxed word on the EL2 path. *)
let msr_from t access (src : Sysreg_file.t) r =
  if el2_executes t access && writable_access access then begin
    let i = Sysreg.index access.Sysreg.reg in
    if Sysreg_file.writable_index i then
      sr_set t i
        (Bytes.get_int64_ne src.Sysreg_file.values (Sysreg.index r * 8));
    Cost.charge_insn t.meter (table t).Cost.sysreg_write;
    advance_pc t
  end
  else msr t access (Sysreg_file.read src r)

(* Access the guest registers as they were at the current trap (and as
   they will be restored by the handler's eret).  Register numbers
   outside x0..x30 decode as xzr — trap syndromes carry a 5-bit Rt, and
   Rt=31 from a guest-built encoding must read zero, not crash. *)
let get_trapped_reg t n =
  if n < 0 || n > 30 then 0L
  else
    match t.saved_regs with
    | saved :: _ -> saved.(n)
    | [] -> get_reg t n

let set_trapped_reg t n v =
  if n < 0 || n > 30 then ()
  else
    match t.saved_regs with
    | saved :: _ -> saved.(n) <- v
    | [] -> set_reg t n v

let pp_state ppf t =
  Fmt.pf ppf "pc=0x%Lx pstate=%a %a" t.pc Pstate.pp t.pstate Hcr.pp
    (hcr_view t)
