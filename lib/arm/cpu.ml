(* The simulated CPU: machine state plus the instruction-execution engine.

   Execution is synchronous: when an instruction traps to EL2, the hardware
   exception entry is performed and the installed EL2 handler (the host
   hypervisor) runs immediately; it finishes by executing eret at EL2, which
   restores the interrupted context, and the original [exec] call returns.
   This mirrors the trap-and-emulate flow without needing a scheduler. *)

exception Undefined_instruction of Insn.t * Pstate.el
exception No_el2_handler of Exn.entry

(* A checked CPU's trap trail: its newest [trail_depth] traps in a ring
   of preallocated slots, so recording one allocates nothing.  A trap
   keeps its instruction, rendered only when the trail is read, or else
   [Nop] (which never traps) and its text. *)
let trail_depth = 8

type trail = {
  kinds : Cost.trap_kind array;
  insns : Insn.t array;
  texts : string array;
  mutable next : int;  (* the slot the next trap fills *)
  mutable len : int;  (* live slots, newest at [next - 1], wrapping *)
}

type t = {
  (* The word file: x0..x30 then the PC, one unboxed 64-bit word each,
     so a register write or a PC advance stores a word and allocates
     nothing. *)
  regs : Bytes.t;
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
  (* GPR frames saved on each EL2 exception entry, oldest first, [depth]
     of them live: the hypervisor's own code runs on the same register
     file (as real KVM's EL2 code does), so trapped-access emulation
     reads and writes the top frame, which the eret that ends the
     handler copies back.  The buffer only grows, when a trap nests
     deeper than any before it. *)
  mutable frames : Bytes.t;
  mutable depth : int;
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
  mutable xlate : Xlate.t;
  trail : trail option;  (* what a [Sim_fault] reports; checked machines only *)
}

and handler = t -> Exn.entry -> unit

(* Unboxed words of a [Bytes.t]: the word file, the frames, and the
   system-register file below. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let nregs = 31
let frame_bytes = nregs * 8
let pc_offset = frame_bytes

let[@inline] pc t = get_word t.regs pc_offset
let[@inline] set_pc t v = set_word t.regs pc_offset v

let pc_is t base off = Int64.equal (pc t) (Int64.add base (Int64.of_int off))

let create ?(features = Features.v Features.V8_0) ?table ?mem ?meter
    ?(trail = false) () =
  let mem = match mem with Some m -> m | None -> Memory.create () in
  let meter = match meter with Some m -> m | None -> Cost.make_meter ?table () in
  let t =
    {
      regs = Bytes.make (frame_bytes + 8) '\000';
      pstate = Pstate.reset;
      sysregs = Sysreg_file.create ();
      mem;
      features;
      meter;
      el2_handler = None;
      el1_handler = None;
      el1_vectors = false;
      frames = Bytes.make (2 * frame_bytes) '\000';
      depth = 0;
      nv2_mask = Trap_rules.nv2_full;
      expose = Expose.Policy.none;
      hcr_raw = 0L;
      hcr_cached = Hcr.decode 0L;
      xlate = Xlate.create ();
      trail =
        (if trail then
           Some
             { kinds = Array.make trail_depth Cost.Trap_hvc;
               insns = Array.make trail_depth Insn.Nop;
               texts = Array.make trail_depth ""; next = 0; len = 0 }
         else None);
    }
  in
  set_pc t 0x8000_0000L;
  t

(* Room for [n] frames, keeping the live ones. *)
let reserve_frames t n =
  if Bytes.length t.frames < n * frame_bytes then begin
    let grown =
      Bytes.make (max n (2 * Bytes.length t.frames / frame_bytes) * frame_bytes)
        '\000'
    in
    Bytes.blit t.frames 0 grown 0 (t.depth * frame_bytes);
    t.frames <- grown
  end

(* Make [src], a whole number of frames oldest first, the live ones. *)
let load_frames t src =
  let depth = Bytes.length src / frame_bytes in
  t.depth <- 0;
  reserve_frames t depth;
  Bytes.blit src 0 t.frames 0 (depth * frame_bytes);
  t.depth <- depth

(* Fill the next slot; once the ring is full, that is the oldest's. *)
let trail_push r kind insn text =
  let i = r.next in
  r.kinds.(i) <- kind;
  r.insns.(i) <- insn;
  r.texts.(i) <- text;
  r.next <- (i + 1) mod trail_depth;
  if r.len < trail_depth then r.len <- r.len + 1

let record_trap t ~detail kind =
  Cost.record_trap ~detail t.meter kind;
  match t.trail with Some r -> trail_push r kind Insn.Nop detail | None -> ()

let trail_entries t =
  match t.trail with
  | None -> []
  | Some r ->
    List.init r.len (fun k ->
        let i = (r.next - 1 - k + trail_depth) mod trail_depth in
        ( r.kinds.(i),
          match r.insns.(i) with Insn.Nop -> r.texts.(i) | insn -> Insn.render insn ))

let load_trail t entries =
  match t.trail with
  | None -> ()
  | Some r ->
    r.len <- 0;
    List.iter (fun (kind, text) -> trail_push r kind Insn.Nop text) (List.rev entries)

(* A mark copies every mutable field except the translation cache.
   Rewinding empties its blocks instead of restoring them: no cached
   block can validate again (the memory's rewind moves its code
   generation on), and a machine kept for many rewinds would otherwise
   hold a program's worth of blocks for good.  Memory is the machine's
   to mark: CPUs share it.  The live frames are copied both ways
   because trap handlers update them in place; the trail is marked as
   its entries' text. *)
type mark = {
  mk_regs : Bytes.t;
  mk_pstate : Pstate.t;
  mk_sysregs : Sysreg_file.mark;
  mk_features : Features.t;
  mk_meter : Cost.meter_mark;
  mk_el2_handler : handler option;
  mk_el1_handler : handler option;
  mk_el1_vectors : bool;
  mk_frames : Bytes.t;
  mk_nv2_mask : Trap_rules.nv2_mask;
  mk_expose : Expose.Policy.t;
  mk_hcr_raw : int64;
  mk_hcr_cached : Hcr.view;
  mk_trail : (Cost.trap_kind * string) list;
}

let mark t =
  {
    mk_regs = Bytes.copy t.regs;
    mk_pstate = t.pstate;
    mk_sysregs = Sysreg_file.mark t.sysregs;
    mk_features = t.features;
    mk_meter = Cost.mark_meter t.meter;
    mk_el2_handler = t.el2_handler;
    mk_el1_handler = t.el1_handler;
    mk_el1_vectors = t.el1_vectors;
    mk_frames = Bytes.sub t.frames 0 (t.depth * frame_bytes);
    mk_nv2_mask = t.nv2_mask;
    mk_expose = t.expose;
    mk_hcr_raw = t.hcr_raw;
    mk_hcr_cached = t.hcr_cached;
    mk_trail = trail_entries t;
  }

let rewind t m =
  Bytes.blit m.mk_regs 0 t.regs 0 (Bytes.length t.regs);
  t.pstate <- m.mk_pstate;
  Sysreg_file.rewind t.sysregs m.mk_sysregs;
  t.features <- m.mk_features;
  Cost.rewind_meter t.meter m.mk_meter;
  t.el2_handler <- m.mk_el2_handler;
  t.el1_handler <- m.mk_el1_handler;
  t.el1_vectors <- m.mk_el1_vectors;
  load_frames t m.mk_frames;
  t.nv2_mask <- m.mk_nv2_mask;
  t.expose <- m.mk_expose;
  t.hcr_raw <- m.mk_hcr_raw;
  t.hcr_cached <- m.mk_hcr_cached;
  load_trail t m.mk_trail;
  Xlate.flush t.xlate

(* Register 31 is XZR: A64's 5-bit register fields encode it, and the
   decoder passes it through.  It reads zero and ignores writes, the
   convention [get_trapped_reg] already follows.  (Where A64 would mean
   SP — an ADD/SUB immediate operand, a load/store base — the simulator
   has no stack pointer and treats it as XZR too.) *)
let[@inline] get_reg t n =
  if n = 31 then 0L
  else begin
    if n < 0 || n > 30 then invalid_arg "Cpu.get_reg";
    get_word t.regs (n * 8)
  end

let[@inline] set_reg t n v =
  if n <> 31 then begin
    if n < 0 || n > 30 then invalid_arg "Cpu.set_reg";
    set_word t.regs (n * 8) v
  end

let gprs t = Bytes.sub_string t.regs 0 frame_bytes

external get_string_word : string -> int -> int64 = "%caml_string_get64u"

let rec gprs_equal_from t s i =
  i = frame_bytes
  || (get_word t.regs i = get_string_word s i && gprs_equal_from t s (i + 8))

let gprs_equal t s = String.length s = frame_bytes && gprs_equal_from t s 0

let[@inline] operand_value t = function
  | Insn.Imm i -> i
  | Insn.Reg n -> get_reg t n

let[@inline] addr_value t = function
  | Insn.Abs a -> a
  | Insn.Based (r, off) -> Int64.add (get_reg t r) off

(* Unboxed register-file words, by dense index.  The trap round trip
   reads and writes a handful of registers per exception; going through
   [Sysreg_file.read]/[hw_write] would box every value at the module
   boundary.  [sr_set] is [Sysreg_file.hw_write]: value plus dirty bit. *)

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

let exception_entry t (e : Exn.entry) =
  let c = table t in
  match e.target with
  | Pstate.EL2 ->
    sr_set t i_esr_el2 (Int64.of_int (Exn.esr_bits ~ec:e.ec ~iss:e.iss));
    sr_set t i_elr_el2 (pc t);
    sr_set t i_spsr_el2 (Int64.of_int (Pstate.spsr_bits t.pstate));
    (match e.fault_addr with
     | Some a ->
       sr_set t i_far_el2 a;
       sr_set t i_hpfar_el2 (Int64.shift_right_logical a 8)
     | None -> ());
    t.pstate <- Pstate.at Pstate.EL2;
    reserve_frames t (t.depth + 1);
    Bytes.blit t.regs 0 t.frames (t.depth * frame_bytes) frame_bytes;
    t.depth <- t.depth + 1;
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
    sr_set t i_elr_el1 (pc t);
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
      if t.depth > 0 then begin
        t.depth <- t.depth - 1;
        Bytes.blit t.frames (t.depth * frame_bytes) t.regs 0 frame_bytes
      end;
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
  set_pc t elr;
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

let[@inline] advance_pc t = set_pc t (Int64.add (pc t) 4L)

(* Scratch register used for normalized immediate MSRs and the mrs/msr
   helpers below. *)
let scratch_reg = 9

(* Register values move as words between the word file, the register
   file and memory ([Memory.load_into]/[store_from] are observably one
   [read64]/[write64]): an [int64] handed across a module boundary is
   boxed.  CurrentEL and CNTVCT_EL0, computed on read, and XZR and
   out-of-range register numbers take [read_sysreg_hw]/[set_reg]/
   [get_reg], which compute, discard, read zero or raise. *)
let[@inline] word_reg n = n >= 0 && n < nregs

let mrs_local t rt (r : Sysreg.t) =
  match r with
  | Sysreg.CurrentEL | Sysreg.CNTVCT_EL0 -> set_reg t rt (read_sysreg_hw t r)
  | _ ->
    if word_reg rt then set_word t.regs (rt * 8) (sr_get t (Sysreg.index r))
    else set_reg t rt (read_sysreg_hw t r)

let msr_local t (r : Sysreg.t) (v : Insn.operand) =
  match v with
  | Insn.Reg n when word_reg n ->
    let i = Sysreg.index r in
    if Sysreg_file.writable_index i then sr_set t i (get_word t.regs (n * 8))
  | _ -> write_sysreg_hw t r (operand_value t v)

let[@inline] count_access t cost =
  t.meter.Cost.mem_accesses <- t.meter.Cost.mem_accesses + 1;
  Cost.charge_insn t.meter cost

(* [base + off], the address given as a base and a byte offset so that
   callers computing it need not box it. *)
let load_reg_at t rt ~base off =
  if word_reg rt then Memory.load_into t.mem ~base off t.regs rt
  else set_reg t rt (Memory.read64 t.mem (Int64.add base (Int64.of_int off)));
  count_access t (table t).Cost.mem_load

let store_reg_at t rt ~base off =
  if word_reg rt then Memory.store_from t.mem ~base off t.regs rt
  else Memory.write64 t.mem (Int64.add base (Int64.of_int off)) (get_reg t rt);
  count_access t (table t).Cost.mem_store

let load_reg t rt addr = load_reg_at t rt ~base:addr 0
let store_reg t rt addr = store_reg_at t rt ~base:addr 0

let exec_local t (insn : Insn.t) =
  let c = table t in
  (match insn with
   | Insn.Mrs (rt, a) ->
     mrs_local t rt a.Sysreg.reg;
     Cost.charge_insn t.meter c.Cost.sysreg_read
   | Insn.Msr (a, v) ->
     msr_local t a.Sysreg.reg v;
     Cost.charge_insn t.meter c.Cost.sysreg_write
   | Insn.Ldr (rt, a) -> load_reg t rt (addr_value t a)
   | Insn.Str (rt, a) -> store_reg t rt (addr_value t a)
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
     set_pc t (Int64.add (pc t) (Int64.of_int (off * 4)))
   | Insn.Cbz (rt, off) ->
     Cost.charge_insn t.meter c.Cost.insn_base;
     if get_reg t rt = 0L then set_pc t (Int64.add (pc t) (Int64.of_int (off * 4)))
     else advance_pc t
   | Insn.Cbnz (rt, off) ->
     Cost.charge_insn t.meter c.Cost.insn_base;
     if get_reg t rt <> 0L then
       set_pc t (Int64.add (pc t) (Int64.of_int (off * 4)))
     else advance_pc t
   | Insn.Hvc _ | Insn.Smc _ ->
     (* only reached when the router said Execute, i.e. SMC at EL2 *)
     Cost.charge_insn t.meter c.Cost.insn_base);
  match insn with
  | Insn.Eret | Insn.B _ | Insn.Cbz _ | Insn.Cbnz _ -> ()
  | _ -> advance_pc t

let undef_entry =
  { Exn.target = Pstate.EL1; ec = Exn.EC_unknown; iss = 0; fault_addr = None }

let route t insn =
  Trap_rules.route ~mask:t.nv2_mask ~expose:t.expose t.features
    ~hcr:(hcr_view t) ~vncr:(vncr_value t) ~el:t.pstate.Pstate.el insn

let rec exec t (insn : Insn.t) =
  (* The router returns Execute for plain instructions unconditionally (no
     HCR, EL or feature sensitivity — see the final arm of
     [Trap_rules.route]), so skip the route and the HCR/VNCR reads it
     needs. *)
  if Xlate.is_plain insn then exec_local t insn else exec_routed t insn

and exec_routed t (insn : Insn.t) =
  (* Route once per instruction; the only re-route is the immediate-MSR
     normalization below, which must re-route because the synthesized Reg
     form carries a different Rt in the trap syndrome. *)
  let action = route t insn in
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
    if !Trace.on then
      Cost.record_exposed ~detail:(Insn.to_string insn) t.meter feature
    else Cost.record_exposed t.meter feature;
    exec_local t insn
  | Trap_rules.Execute_redirected target -> begin
      (* [exec_local] of the access retargeted *)
      match insn with
      | Insn.Mrs (rt, _) ->
        mrs_local t rt target.Sysreg.reg;
        Cost.charge_insn t.meter c.Cost.sysreg_read;
        advance_pc t
      | Insn.Msr (_, v) ->
        msr_local t target.Sysreg.reg v;
        Cost.charge_insn t.meter c.Cost.sysreg_write;
        advance_pc t
      | _ -> assert false
    end
  | Trap_rules.Defer_to_memory { addr; reg = _ } -> begin
      (* NV2 transforms the register access into a 64-bit memory access to
         the deferred access page (Section 6.1). *)
      match insn with
      | Insn.Mrs (rt, _) ->
        load_reg t rt addr;
        if !Trace.on then
          Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:addr ~detail:"read"
            Trace.Vncr_redirect;
        advance_pc t
      | Insn.Msr (_, v) ->
        (match v with
         | Insn.Reg rt -> store_reg t rt addr
         | Insn.Imm i ->
           Memory.write64 t.mem addr i;
           count_access t c.Cost.mem_store);
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
  | Trap_rules.Trap_to_el2 { entry; kind } ->
    (* Only the tracer sees the instruction rendered; the trail keeps the
       instruction itself. *)
    if !Trace.on then
      Cost.record_trap ~detail:(Insn.to_string insn) t.meter kind
    else Cost.record_trap t.meter kind;
    (match t.trail with Some r -> trail_push r kind insn "" | None -> ());
    advance_pc t;
    (* ELR on a trapped instruction points at the *next* instruction once
       the handler has emulated it; we advance first so the handler's eret
       resumes after the trapping instruction. *)
    exception_entry t entry
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

let ldr_at t rt ~base off =
  load_reg_at t rt ~base off;
  advance_pc t

let str_at t rt ~base off =
  store_reg_at t rt ~base off;
  advance_pc t

let get_reg_into t n dst off =
  if word_reg n then set_word dst off (get_word t.regs (n * 8))
  else set_word dst off (get_reg t n)

let set_reg_from t n src off =
  if word_reg n then set_word t.regs (n * 8) (get_word src off)
  else set_reg t n (get_word src off)

(* The HCR_EL2 bits tested outside routing are read raw: [hcr_view]
   keeps one decoded value, and asking it at an operation boundary or
   from the host's EL2 code, where HCR_EL2 differs from the value the
   last route decoded, would build a fresh view every time. *)
let[@inline] hcr_bit t bit = Int64.logand (sr_get t i_hcr) bit <> 0L

let irq_entry =
  { Exn.target = Pstate.EL2; ec = Exn.EC_irq; iss = 0; fault_addr = None }

(* A physical interrupt arrives while the CPU runs below EL2 with IMO set:
   route to EL2 (the host hypervisor). *)
let deliver_irq t =
  let c = table t in
  if t.pstate.Pstate.el <> Pstate.EL2 && hcr_bit t Hcr.imo then begin
    record_trap t ~detail:"irq" Cost.Trap_irq;
    Cost.charge t.meter c.Cost.irq_delivery;
    exception_entry t irq_entry;
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

let vserror_pending t = hcr_bit t Hcr.vse

(* A pending virtual SError is taken as soon as the CPU runs below EL2:
   clear VSE, latch the syndrome into VDISR_EL2 (valid bit 31, as ESB
   would), and take the EC 0x2f exception at EL1. *)
let deliver_vserror t =
  let c = table t in
  if t.pstate.Pstate.el <> Pstate.EL2 && hcr_bit t Hcr.vse then begin
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
   other case still runs [exec].  E2H is tested as a raw bit first: the
   host runs between HCR_EL2 = 0 and the guest's value, so a decoded
   view would be rebuilt on every switch, and no twin lookup is needed
   while E2H is clear. *)
let el2_executes t (a : Sysreg.access) =
  t.pstate.Pstate.el == Pstate.EL2
  && a.Sysreg.alias == Sysreg.Direct
  && ((not (hcr_bit t Hcr.e2h))
      || (not (Features.has_vhe t.features))
      || Trap_rules.vhe_el2_twin a.Sysreg.reg == None)

let mrs_scratch t access =
  if el2_executes t access then begin
    mrs_local t scratch_reg access.Sysreg.reg;
    Cost.charge_insn t.meter (table t).Cost.sysreg_read;
    advance_pc t
  end
  else exec t (Insn.Mrs (scratch_reg, access))

let mrs t access =
  mrs_scratch t access;
  get_reg t scratch_reg

(* [Sysreg_file.hw_write dst r (mrs t access)], the value moved as a
   word. *)
let mrs_into t access (dst : Sysreg_file.t) r =
  mrs_scratch t access;
  let i = Sysreg.index r in
  set_word dst.Sysreg_file.values (i * 8) (get_word t.regs (scratch_reg * 8));
  Bytes.unsafe_set dst.Sysreg_file.dirty i '\001'

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

let top_frame t = (t.depth - 1) * frame_bytes

(* Access the guest registers as they were at the current trap (and as
   they will be restored by the handler's eret).  Register numbers
   outside x0..x30 decode as xzr — trap syndromes carry a 5-bit Rt, and
   Rt=31 from a guest-built encoding must read zero, not crash. *)
let[@inline] trapped_word t n =
  if n < 0 || n > 30 then 0L
  else if t.depth > 0 then get_word t.frames (top_frame t + (n * 8))
  else get_word t.regs (n * 8)

let get_trapped_reg = trapped_word

let set_trapped_reg t n v =
  if n < 0 || n > 30 then ()
  else if t.depth > 0 then set_word t.frames (top_frame t + (n * 8)) v
  else set_reg t n v

(* The same accesses as word moves between the trap frame and a
   register file or memory, for the host's trapped-access emulation: a
   value returned as an [int64] from here would be boxed. *)
let get_trapped_into t n (dst : Sysreg_file.t) r =
  let i = Sysreg.index r in
  set_word dst.Sysreg_file.values (i * 8) (trapped_word t n);
  Bytes.unsafe_set dst.Sysreg_file.dirty i '\001'

let set_trapped_from t n (src : Sysreg_file.t) r =
  let v = get_word src.Sysreg_file.values (Sysreg.index r * 8) in
  if n < 0 || n > 30 then ()
  else if t.depth > 0 then set_word t.frames (top_frame t + (n * 8)) v
  else set_word t.regs (n * 8) v

let set_trapped_load t n ~base off =
  if n < 0 || n > 30 then
    ignore (Memory.read64 t.mem (Int64.add base (Int64.of_int off)))
  else if t.depth > 0 then
    Memory.load_into t.mem ~base off t.frames ((top_frame t / 8) + n)
  else Memory.load_into t.mem ~base off t.regs n

(* The live frames as boxed words, innermost first: for serialization
   and tests, never on a trap path. *)
let saved_frames t =
  List.init t.depth (fun k ->
      let base = (t.depth - 1 - k) * frame_bytes in
      Array.init nregs (fun n -> get_word t.frames (base + (n * 8))))

let set_saved_frames t frames =
  if List.exists (fun f -> Array.length f <> nregs) frames then
    invalid_arg "Cpu.set_saved_frames";
  let depth = List.length frames in
  let src = Bytes.create (depth * frame_bytes) in
  List.iteri
    (fun k f ->
      let base = (depth - 1 - k) * frame_bytes in
      Array.iteri (fun n v -> set_word src (base + (n * 8)) v) f)
    frames;
  load_frames t src
