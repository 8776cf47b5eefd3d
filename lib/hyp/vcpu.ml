(* Virtual CPU state maintained by the host hypervisor.

   A vCPU carries two virtual register contexts:
   - [vel2]: the virtual EL2 state of a guest hypervisor running
     deprivileged in this vCPU (Section 4, "providing a virtual EL2 mode");
   - [vel1]: the EL1/EL0 state of the *nested* VM below that guest
     hypervisor, as last programmed through trapped or deferred accesses.

   The vCPU also owns two fixed memory regions in the simulated machine:
   a context save/restore area used by world-switch code, and a page used
   as the NEVE deferred access page (or, for paravirtualized NEVE, the
   shared memory region between host and guest hypervisor). *)

module Sysreg = Arm.Sysreg
module Sysreg_file = Arm.Sysreg_file

(* Fixed layout of per-vCPU memory regions.  The region array grows from
   [vcpu_region_base] and must stay below the next fixed address in the
   simulated layout (the guest hypervisor's virtual VTTBR root at
   0x5000_0000) — that address budget bounds how many vCPUs one machine
   can carry. *)
let vcpu_region_base = 0x4000_0000L
let vcpu_region_size = 0x1_0000L
let vcpu_region_limit = 0x5000_0000L

let max_vcpus =
  Int64.to_int
    (Int64.div
       (Int64.sub vcpu_region_limit vcpu_region_base)
       vcpu_region_size)

type t = {
  id : int;
  vel1 : Sysreg_file.t;
  vel2 : Sysreg_file.t;
  ctx_base : int64;        (* world-switch context area (guest hypervisor) *)
  host_ctx_base : int64;   (* context area used by the host hypervisor *)
  page_base : int64;       (* deferred access / shared page *)
  mutable in_vel2 : bool;  (* guest hypervisor (vEL2) vs nested VM running *)
  mutable nested_launched : bool; (* an L2 context exists *)
  mutable used_lrs : int;  (* list registers the guest hypervisor has in use *)
  (* The details of the exit being injected into virtual EL2, as KVM
     keeps a vCPU's fault information: the host writes them before it
     injects an [Exit_mmio], [Exit_virq] or [Exit_sgi], and the guest
     hypervisor reads them while it handles that exit.  Fields rather
     than constructor payloads, so an exit allocates nothing; neither
     marked nor serialized, since each is written before the injection
     that reads it. *)
  exit_far : Bytes.t;          (* Exit_mmio: the faulting address, a word *)
  mutable exit_is_write : bool;  (* Exit_mmio *)
  mutable exit_intid : int;    (* Exit_virq, Exit_sgi *)
  mutable exit_target : int;   (* Exit_sgi: the target vCPU *)
  mutable exit_rt : int;       (* Exit_sgi: the register its write moved *)
}

let region_of id = Int64.add vcpu_region_base (Int64.mul (Int64.of_int id) vcpu_region_size)

let create ~id =
  let base = region_of id in
  {
    id;
    vel1 = Sysreg_file.create ();
    vel2 = Sysreg_file.create ();
    ctx_base = base;
    host_ctx_base = Int64.add base 0x4000L;
    page_base = Int64.add base 0x8000L;
    in_vel2 = false;
    nested_launched = false;
    used_lrs = 0;
    exit_far = Bytes.make 8 '\000';
    exit_is_write = false;
    exit_intid = 0;
    exit_target = 0;
    exit_rt = 0;
  }

(* A mark: the run flags and both virtual register files. *)
type mark = {
  mk_in_vel2 : bool;
  mk_nested_launched : bool;
  mk_used_lrs : int;
  mk_vel1 : Sysreg_file.mark;
  mk_vel2 : Sysreg_file.mark;
}

let mark t =
  {
    mk_in_vel2 = t.in_vel2;
    mk_nested_launched = t.nested_launched;
    mk_used_lrs = t.used_lrs;
    mk_vel1 = Sysreg_file.mark t.vel1;
    mk_vel2 = Sysreg_file.mark t.vel2;
  }

let rewind t m =
  t.in_vel2 <- m.mk_in_vel2;
  t.nested_launched <- m.mk_nested_launched;
  t.used_lrs <- m.mk_used_lrs;
  Sysreg_file.rewind t.vel1 m.mk_vel1;
  Sysreg_file.rewind t.vel2 m.mk_vel2

(* Reads/writes of the virtual EL2 file. *)
let read_vel2 t r = Sysreg_file.read t.vel2 r
let[@inline] write_vel2 t r v = Sysreg_file.hw_write t.vel2 r v

let read_vel1 t r = Sysreg_file.read t.vel1 r

(* Is the guest hypervisor in this vCPU configured as VHE?  Its virtual
   HCR_EL2.E2H bit says so. *)
let guest_is_vhe t = Arm.Hcr.(is_set (read_vel2 t Sysreg.HCR_EL2) e2h)

let pp ppf t =
  Fmt.pf ppf "vcpu%d{%s%s}" t.id
    (if t.in_vel2 then "vEL2" else "vEL1/0")
    (if t.nested_launched then " nested" else "")

let exit_far t = Bytes.get_int64_ne t.exit_far 0

(* Why a nested VM exited — the reason the host hypervisor forwards to the
   guest hypervisor along with the virtual EL2 exception. *)
type nested_exit =
  | Exit_hypercall
  | Exit_mmio
    (* a data abort on an emulated device: [exit_far], [exit_is_write] *)
  | Exit_virq  (* a physical interrupt meant for the nested VM: [exit_intid] *)
  | Exit_sgi
    (* nested VM sent an IPI: [exit_target], [exit_intid], and [exit_rt],
       needed to encode a faithful ISS *)
  | Exit_wfi
  (* recursive virtualization (Section 6.2): the nested VM is itself a
     hypervisor, and executed a hypervisor instruction the guest
     hypervisor must emulate *)
  | Exit_hyp_insn of { access : Arm.Sysreg.access; rt : int; is_read : bool }
  | Exit_hyp_eret

let exit_name t = function
  | Exit_hypercall -> "hypercall"
  | Exit_mmio ->
    Printf.sprintf "mmio-%s@0x%Lx" (if t.exit_is_write then "w" else "r")
      (exit_far t)
  | Exit_virq -> Printf.sprintf "virq%d" t.exit_intid
  | Exit_sgi -> Printf.sprintf "sgi%d->cpu%d" t.exit_intid t.exit_target
  | Exit_wfi -> "wfi"
  | Exit_hyp_insn { access; is_read; _ } ->
    Printf.sprintf "hyp-insn-%s-%s"
      (if is_read then "rd" else "wr")
      (Arm.Sysreg.access_name access)
  | Exit_hyp_eret -> "hyp-eret"
