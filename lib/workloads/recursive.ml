(* Recursive virtualization, measured (Section 6.2).

   Four levels: L0 host hypervisor -> L1 guest hypervisor -> L2 guest
   hypervisor -> L3 VM.  The L2 hypervisor runs deprivileged at EL1; its
   hypervisor instructions trap to L0, which forwards each one to L1 for
   emulation — and every forwarded instruction costs L1 a full exit-
   handling path.  Exit multiplication therefore *compounds*: an L3
   hypercall on ARMv8.3 costs roughly (L2 path length) x (L1 traps per
   exit) traps, thousands of them.

   With NEVE the same stack collapses twice over: the L2 hypervisor's
   deferred accesses go straight to memory through the hardware VNCR
   (programmed by L0 with L1's translated BADDR), and the few residual
   forwards hit L1's own NEVE-thinned path.  The paper argues recursion
   works ("NEVE avoids the same amount of traps between the L2 and L1
   guest hypervisors as in the normal nested case"); this module puts
   numbers on it. *)

module Machine = Hyp.Machine
module Config = Hyp.Config

type result = {
  r_label : string;
  r_l3_traps : int;      (* physical traps for one L3 hypercall *)
  r_l3_cycles : int;
  r_l2_traps : int;      (* ... for one L2 hypercall, for comparison *)
}

(* L1 places the L2 hypervisor's deferred access page at L1-physical
   [l1_page] and writes that into its virtual VNCR_EL2.  L0 backs L1's
   physical memory at machine [l1_ram]. *)
let l1_page = 0x0800_0000L
let l1_ram = 0x4000_0000L
let translate_ipa ipa = Some (Int64.add l1_ram ipa)

(* The machine-physical page backing the L2 hypervisor's deferred accesses:
   owned by L1, translated and programmed into the hardware VNCR by L0. *)
let l2_page = Option.get (translate_ipa l1_page)

let make config =
  let m = Machine.create ~ncpus:1 config Hyp.Host_hyp.Nested in
  Machine.boot m;
  let host = m.Machine.hosts.(0) in
  (* the nested VM is itself a hypervisor *)
  host.Hyp.Host_hyp.l2_is_hyp <- true;
  if Config.is_neve config then
    host.Hyp.Host_hyp.l2_vncr <-
      Option.map Core.Vncr.encode
        (Core.Vncr.recursive
           (Core.Vncr.v ~baddr:l1_page ~enable:true)
           ~translate_ipa);
  (* re-arm the hardware for the L2 hypervisor (normally done on the next
     entry; the stack is already sitting in the nested VM) *)
  Arm.Cpu.poke_sysreg m.Machine.cpus.(0) Arm.Sysreg.HCR_EL2
    (Hyp.Host_hyp.hcr_for host ~vel2:false);
  (match host.Hyp.Host_hyp.l2_vncr with
   | Some v -> Arm.Cpu.poke_sysreg m.Machine.cpus.(0) Arm.Sysreg.VNCR_EL2 v
   | None -> ());
  (* the L2 hypervisor: the same KVM/ARM-shaped code, running one level
     deeper — its access funnel executes at EL1 under the forwarded-NV
     configuration *)
  let l2_vcpu = Hyp.Vcpu.create ~id:8 in
  let ga = Hyp.Gaccess.v m.Machine.cpus.(0) config ~page_base:l2_page in
  let l2_hyp = Hyp.Guest_hyp.create ga ~vcpu:l2_vcpu in
  (m, l2_hyp)

(* One hypercall from the L3 VM: L0 takes the physical trap and forwards
   to L1 (which handles "its nested VM exited"); L1 re-injects into the
   L2 hypervisor, whose own exit path then runs — every hypervisor
   instruction of it multiplying through L1 again. *)
let l3_hypercall m l2_hyp =
  Machine.hypercall m ~cpu:0;
  Hyp.Guest_hyp.handle_exit l2_hyp Hyp.Vcpu.Exit_hypercall

let measure config ~label =
  (* L2 hypercall baseline: the ordinary two-level nested case *)
  let m2 = Machine.create ~ncpus:1 config Hyp.Host_hyp.Nested in
  Machine.boot m2;
  Machine.hypercall m2 ~cpu:0;
  let s = Machine.snapshot m2 in
  Machine.hypercall m2 ~cpu:0;
  let l2_traps = (Machine.delta_since m2 s).Cost.d_traps in
  (* L3 hypercall through the four-level stack *)
  let m, l2_hyp = make config in
  l3_hypercall m l2_hyp;
  let s = Machine.snapshot m in
  l3_hypercall m l2_hyp;
  let d = Machine.delta_since m s in
  {
    r_label = label;
    r_l3_traps = d.Cost.d_traps;
    r_l3_cycles = d.Cost.d_cycles;
    r_l2_traps = l2_traps;
  }

let run () =
  [
    measure (Config.v Config.Hw_v8_3) ~label:"ARMv8.3";
    measure (Config.v Config.Hw_neve) ~label:"NEVE";
  ]

let pp ppf results =
  Fmt.pf ppf "%-10s %14s %14s %16s@." "" "L2 hypercall" "L3 hypercall"
    "L3 cycles";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-10s %11d tr %11d tr %16d@." r.r_label r.r_l2_traps
        r.r_l3_traps r.r_l3_cycles)
    results;
  match results with
  | [ v83; neve ] ->
    Fmt.pf ppf
      "@.recursion multiplies exit multiplication: %dx more traps at L3@."
      (v83.r_l3_traps / max 1 v83.r_l2_traps);
    Fmt.pf ppf "NEVE contains it: %d vs %d traps (%.0fx reduction)@."
      neve.r_l3_traps v83.r_l3_traps
      (float_of_int v83.r_l3_traps /. float_of_int (max 1 neve.r_l3_traps))
  | _ -> ()
