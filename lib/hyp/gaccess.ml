(* Guest-hypervisor access funnel.

   Every architectural interaction the guest hypervisor (L1) performs goes
   through this module as an instruction executed on the simulated CPU at
   EL1.  Under a hardware mechanism (Hw_v8_3 / Hw_neve) the instruction is
   executed as written and the CPU's trap router does the rest; under a
   paravirtualized mechanism it is the instruction the paper's
   compile-time wrappers put in its place (Paravirt.patch), one for one.

   Each access the guest hypervisor executes — a register and alias,
   read or written — is a route site (Arm.Route_key): its instruction is
   built and patched once, and its action is routed once per routing
   state and replayed while that state holds, the memo World_switch's
   copy plans keep on the same key.  A guest hypervisor touches a few
   dozen such sites; NEVE turns each into the same load, store or EL1
   access on every exit (Section 6.1). *)

module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Sysreg = Arm.Sysreg

type t = {
  cpu : Cpu.t;
  config : Config.t;
  page_base : int64;  (* shared page / deferred access page base *)
  (* One-shot fault-injection corruption: applied to the next value read
     through [rd]/[ld], then cleared. *)
  mutable tamper : (int64 -> int64) option;
  (* the funnel as World_switch ops, and the compiled plans of the
     world-switch loops run through it *)
  copier : World_switch.copier;
  (* the route sites of [rd]/[wr]/[eret] (numbered by [access_id]) and
     of the last [hvc] immediate *)
  sites : Arm.Route_key.table;
  mutable hvc_site : (int * Arm.Route_key.site) option;
}

(* Data-moving register for MRS results and MSR sources. *)
let data_reg = 10

(* Apply a pending corruption to the value just read into the data
   register. *)
let tamper_data t =
  match t.tamper with
  | None -> ()
  | Some f ->
    t.tamper <- None;
    Cpu.set_reg t.cpu data_reg (f (Cpu.get_reg t.cpu data_reg))

(* Site numbers: two per (register, alias) of the model, the read
   first, then one for eret. *)
let alias_code = function
  | Sysreg.Direct -> 0
  | Sysreg.EL12 -> 1
  | Sysreg.EL02 -> 2

let access_id (a : Sysreg.access) ~write =
  (((Sysreg.index a.Sysreg.reg * 3) + alias_code a.Sysreg.alias) * 2)
  + Bool.to_int write

let eret_id = Sysreg.count * 6
let data_src = Insn.Reg data_reg

(* The instruction the guest hypervisor's code holds for [insn]: as
   written under a hardware mechanism, patched under a paravirtualized
   one. *)
let image config ~page_base =
  if Config.is_paravirt config then
    Paravirt.patch config ~page_base ~slot:Paravirt.Absolute
  else Fun.id

let patched t insn = image t.config ~page_base:t.page_base insn

let insn_of_id image id =
  image
    (if id = eret_id then Insn.Eret
     else
       let reg = Sysreg.of_index (id / 6) in
       let access =
         match id / 2 mod 3 with
         | 0 -> Sysreg.direct reg
         | 1 -> Sysreg.el12 reg
         | _ -> Sysreg.el02 reg
       in
       if id land 1 = 0 then Insn.Mrs (data_reg, access)
       else Insn.Msr (access, data_src))

(* A banked register past its bank (no site number) runs afresh.  The
   [_data] forms leave the value read in the data register, or write
   the one already there, so a caller that keeps it as a word boxes
   nothing. *)
let rd_data t access =
  if Sysreg.in_range access.Sysreg.reg then
    Arm.Route_key.exec_id t.cpu t.sites (access_id access ~write:false)
  else Cpu.exec t.cpu (patched t (Insn.Mrs (data_reg, access)));
  tamper_data t

let rd t access =
  rd_data t access;
  Cpu.get_reg t.cpu data_reg

let wr_data t access =
  if Sysreg.in_range access.Sysreg.reg then
    Arm.Route_key.exec_id t.cpu t.sites (access_id access ~write:true)
  else Cpu.exec t.cpu (patched t (Insn.Msr (access, data_src)))

let wr t access v =
  Cpu.set_reg t.cpu data_reg v;
  wr_data t access

(* Plain memory accesses (to the hypervisor's own data structures): a
   load or store executes as written under every mechanism.  The [_at]
   forms take the address as a base and a byte offset and move the
   value through the data register, boxing neither. *)
let ld_at t ~base off =
  Cpu.ldr_at t.cpu data_reg ~base off;
  tamper_data t

let st_at t ~base off = Cpu.str_at t.cpu data_reg ~base off

let ld t addr =
  ld_at t ~base:addr 0;
  Cpu.get_reg t.cpu data_reg

let st t addr v =
  Cpu.set_reg t.cpu data_reg v;
  st_at t ~base:addr 0

let hvc t imm =
  let s =
    match t.hvc_site with
    | Some (i, s) when i = imm -> s
    | _ ->
      let s = Arm.Route_key.site (patched t (Insn.Hvc imm)) in
      t.hvc_site <- Some (imm, s);
      s
  in
  Arm.Route_key.exec t.cpu s

let eret t = Arm.Route_key.exec_id t.cpu t.sites eret_id

(* GICv2: the hypervisor control interface is a memory-mapped frame.  The
   host leaves it unmapped at stage 2 for deprivileged software, so every
   access from the guest hypervisor takes a data abort to EL2 — the
   "trivially traps" path of Section 4.  The emulated value moves through
   [data_reg], matching the host's MMIO-emulation convention. *)
let gich_access t (reg : Sysreg.t) ~is_write =
  match Gic.Gicv2.of_ich reg with
  | None ->
    (* No GICH frame register backs this access.  From deprivileged
       code that is guest input: inject the UNDEF real hardware raises
       for a reserved frame offset.  From the host's own EL2 world
       switch it is a simulator bug. *)
    let cpu = t.cpu in
    if cpu.Cpu.pstate.Arm.Pstate.el = Arm.Pstate.EL2 then
      Fault.Error.sim_bug ~cpu
        (Fault.Error.Not_gich_register (Sysreg.name reg))
    else begin
      Cpu.advance_pc cpu;
      Cpu.exception_entry cpu
        { Arm.Exn.target = Arm.Pstate.EL1; ec = Arm.Exn.EC_unknown; iss = 0;
          fault_addr = None }
    end
  | Some gich ->
    let addr = Gic.Gicv2.address_of gich in
    let cpu = t.cpu in
    if cpu.Cpu.pstate.Arm.Pstate.el = Arm.Pstate.EL2 then
      (* the host maps the frame for itself: a plain device access *)
      Cost.charge cpu.Cpu.meter (Cpu.table cpu).Cost.gic_mmio_access
    else begin
      Cpu.record_trap cpu ~detail:(Sysreg.name reg) Cost.Trap_mmio;
      Cost.charge cpu.Cpu.meter (Cpu.table cpu).Cost.insn_base;
      Cpu.exception_entry cpu
        { Arm.Exn.target = Arm.Pstate.EL2; ec = Arm.Exn.EC_dabt_lower;
          iss = (if is_write then 0x40 else 0); fault_addr = Some addr }
    end

(* The funnel's ops close over [t], which holds them in its copier: the
   knot is tied through a lazy value. *)
let v cpu config ~page_base =
  let image = image config ~page_base in
  let rec t =
    lazy
      {
        cpu; config; page_base; tamper = None;
        sites = Arm.Route_key.table (eret_id + 1) (insn_of_id image);
        hvc_site = None;
        copier =
          World_switch.copier cpu
            {
              World_switch.rd = (fun a -> rd (Lazy.force t) a);
              wr = (fun a v -> wr (Lazy.force t) a v);
              ld = (fun addr -> ld (Lazy.force t) addr);
              st = (fun addr v -> st (Lazy.force t) addr v);
            }
            ~data:data_reg ~imm_msr:false ~patch:image;
      }
  in
  Lazy.force t

(* The world-switch operation record used by World_switch. *)
let ops t = World_switch.ops_of t.copier

(* A pending fault corruption applies to the next value read, which
   only the reference loops read one at a time. *)
let compiled t = t.tamper == None

let save_ctx t ~alias ~ctx regs =
  if compiled t then World_switch.save t.copier ~alias ~ctx regs
  else World_switch.save_array (ops t) ~ctx ~via:(World_switch.via alias) regs

let restore_ctx t ~alias ~ctx regs =
  if compiled t then World_switch.restore t.copier ~alias ~ctx regs
  else
    World_switch.restore_array (ops t) ~ctx ~via:(World_switch.via alias) regs

