(* The routing state as a value, and route memos keyed on it (see
   route_key.mli). *)

type t = Xlate.key

(* [hcr]: HCR_EL2's value, boxed. *)
let make (cpu : Cpu.t) hcr =
  {
    Xlate.hcr;
    vncr = Cpu.peek_sysreg cpu Sysreg.VNCR_EL2;
    features = cpu.Cpu.features;
    mask = cpu.Cpu.nv2_mask;
    expose = cpu.Cpu.expose;
    el = cpu.Cpu.pstate.Pstate.el;
  }

let current cpu = make cpu (Cpu.peek_sysreg cpu Sysreg.HCR_EL2)

let holds (k : t) (cpu : Cpu.t) =
  Sysreg_file.holds cpu.Cpu.sysregs Sysreg.HCR_EL2 k.hcr
  && Sysreg_file.holds cpu.Cpu.sysregs Sysreg.VNCR_EL2 k.vncr
  && k.features == cpu.Cpu.features
  && k.mask == cpu.Cpu.nv2_mask
  && Expose.Policy.equal k.expose cpu.Cpu.expose
  && k.el = cpu.Cpu.pstate.Pstate.el

(* Its callers route first, which refreshes [hcr_raw], the raw value
   behind the CPU's decoded HCR view: a new key shares that box rather
   than boxing HCR_EL2 again. *)
let share (s : Xlate.shared_key) (cpu : Cpu.t) =
  if not (holds s.last cpu) then begin
    let hcr = cpu.Cpu.hcr_raw in
    s.last <-
      (if Sysreg_file.holds cpu.Cpu.sysregs Sysreg.HCR_EL2 hcr then make cpu hcr
       else current cpu)
  end;
  s.last

(* --- sites --- *)

type site = {
  insn : Insn.t;
  mutable key : t;
  mutable action : Trap_rules.action;
}

let site (insn : Insn.t) =
  match insn with
  | Insn.Msr (_, Insn.Imm _) -> invalid_arg "Route_key.site: immediate MSR"
  | _ -> { insn; key = Xlate.unrouted; action = Trap_rules.Undef }

let exec cpu s =
  if not (holds s.key cpu) then begin
    s.action <- Cpu.route cpu s.insn;
    s.key <- current cpu
  end;
  Cpu.exec_with_action cpu s.insn s.action

(* --- tables ---

   [ids] maps a number to 1 + its site's position in [sites] (0: not
   built yet), one byte per number: a table costs its caller one byte
   per number it may use and one site per number it did use.  A table's
   sites mostly miss together, on a change of routing state, so they
   share one key ([share]). *)

type table = {
  n : int;
  insn_of : int -> Insn.t;
  mutable ids : Bytes.t;
  mutable sites : site array;
  mutable used : int;
  shared : Xlate.shared_key;
}

let max_sites = 255

let table n insn_of =
  if n < 0 then invalid_arg "Route_key.table";
  {
    n;
    insn_of;
    ids = Bytes.empty;
    sites = [||];
    used = 0;
    shared = { Xlate.last = Xlate.unrouted };
  }

let add tbl i =
  let s = site (tbl.insn_of i) in
  if Array.length tbl.sites = tbl.used then begin
    let grown = Array.make (max 8 (2 * tbl.used)) s in
    Array.blit tbl.sites 0 grown 0 tbl.used;
    tbl.sites <- grown
  end;
  tbl.sites.(tbl.used) <- s;
  tbl.used <- tbl.used + 1;
  Bytes.set tbl.ids i (Char.chr tbl.used);
  s

let exec_id cpu tbl i =
  if i < 0 || i >= tbl.n then invalid_arg "Route_key.exec_id";
  if Bytes.length tbl.ids = 0 then tbl.ids <- Bytes.make tbl.n '\000';
  let id = Char.code (Bytes.unsafe_get tbl.ids i) in
  if id = 0 && tbl.used = max_sites then Cpu.exec cpu (tbl.insn_of i)
  else begin
    let s = if id > 0 then Array.unsafe_get tbl.sites (id - 1) else add tbl i in
    if not (holds s.key cpu) then begin
      s.action <- Cpu.route cpu s.insn;
      s.key <- share tbl.shared cpu
    end;
    Cpu.exec_with_action cpu s.insn s.action
  end
