(* VNCR_EL2: the one new register NEVE adds (Section 6.1, Table 2).

   Fields: bits [52:12] BADDR (physical base address of the deferred access
   page), bits [11:1] reserved, bit [0] Enable.  The architecture mandates a
   page-aligned BADDR so the implementation needs no alignment checks or
   translation-fault handling on redirected accesses (Section 6.3); we
   enforce that at construction.  The fields are read with the trap
   router's own decoder, so a value means here what it means to an
   access it redirects. *)

module Sysreg = Arm.Sysreg
module Trap_rules = Arm.Trap_rules

type t = { baddr : int64; enable : bool }

exception Invalid_vncr of string

let v ~baddr ~enable =
  if Int64.logand baddr 0xfffL <> 0L then
    raise (Invalid_vncr (Printf.sprintf "BADDR 0x%Lx is not page-aligned" baddr));
  if Trap_rules.vncr_baddr baddr <> baddr then
    raise (Invalid_vncr (Printf.sprintf "BADDR 0x%Lx exceeds bits [52:12]" baddr));
  { baddr; enable }

let encode t =
  Int64.logor (Trap_rules.vncr_baddr t.baddr) (if t.enable then 1L else 0L)

let decode v =
  { baddr = Trap_rules.vncr_baddr v; enable = Trap_rules.vncr_enable v }

let disabled_value = 0L

(* Program the hardware VNCR_EL2 of a simulated CPU.  This is a host
   hypervisor (EL2) operation; it is performed as a raw write because the
   host owns the register. *)
let program (cpu : Arm.Cpu.t) t =
  Arm.Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 (encode t);
  if !Trace.on then
    Trace.emit ~a0:t.baddr
      ~a1:(if t.enable then 1L else 0L)
      Trace.Vncr_program

let read (cpu : Arm.Cpu.t) = decode (Arm.Cpu.peek_sysreg cpu Sysreg.VNCR_EL2)

(* Recursive virtualization (Section 6.2): the L1 guest hypervisor's write
   of its virtual VNCR_EL2 was itself deferred to its page.  To run an L2
   guest hypervisor with hardware NEVE, L0 translates the L1-physical BADDR
   to a machine address and programs that into the real VNCR_EL2. *)
let recursive virt ~translate_ipa =
  if not virt.enable then None
  else
    Option.map (fun baddr -> v ~baddr ~enable:true) (translate_ipa virt.baddr)

let pp ppf t =
  Fmt.pf ppf "VNCR{baddr=0x%Lx enable=%b}" t.baddr t.enable
