(* Register-list scaling sweep.

   Exit multiplication is proportional to the number of registers the
   guest hypervisor touches per exit (Section 6: "The more often a guest
   hypervisor accesses system registers, the greater potential performance
   benefit").  This sweep executes save/restore sequences of increasing
   length through the guest-hypervisor access funnel and records the
   physical trap count under each mechanism:

   - ARMv8.3: traps grow linearly with the list length (slope 2: one trap
     for the save-read, one for the restore-write);
   - NEVE: flat at zero extra traps — every access is deferred. *)

module Sysreg = Arm.Sysreg
module Config = Hyp.Config
module WS = Hyp.World_switch

type point = {
  p_regs : int;       (* registers in the switched context *)
  p_traps : int;      (* physical traps for one save+restore *)
  p_cycles : int;
}

type series = {
  s_label : string;
  s_points : point list;
}

(* The register pool the sweep draws from: the EL1 context in its KVM
   order. *)
let pool = Hyp.Reglists.el1_state_arr

let ctx = 0x2_0000L
let page = 0x5_0000L

(* One save+restore of the first [n] registers, executed at EL1 under the
   given mechanism, with a minimal trap-and-return host. *)
let measure_point config n =
  let cpu = Arm.Cpu.create ~features:(Config.hw_features config) () in
  cpu.Arm.Cpu.el2_handler <- Some (fun c _ -> Arm.Cpu.do_eret c);
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2
    (if Config.is_paravirt config then 0L else Config.target_hcr config);
  if Config.is_neve config && not (Config.is_paravirt config) then
    Arm.Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 (Int64.logor page 1L);
  cpu.Arm.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  let ga = Hyp.Gaccess.v cpu config ~page_base:page in
  let ops = Hyp.Gaccess.ops ga in
  let regs = Array.sub pool 0 n in
  WS.save_array ops ~ctx ~via:Sysreg.direct regs;
  WS.restore_array ops ~ctx ~via:Sysreg.direct regs;
  {
    p_regs = n;
    p_traps = cpu.Arm.Cpu.meter.Cost.traps;
    p_cycles = cpu.Arm.Cpu.meter.Cost.cycles;
  }

let sizes = [ 0; 4; 8; 12; 16; 20; 22 ]

let measure_series config ~label =
  { s_label = label; s_points = List.map (measure_point config) sizes }

let run () =
  [
    measure_series (Config.v Config.Hw_v8_3) ~label:"ARMv8.3";
    measure_series (Config.v Config.Hw_neve) ~label:"NEVE";
  ]

(* Least-squares slope of traps over registers, for the tests and report. *)
let slope points =
  let n = float_of_int (List.length points) in
  let xs = List.map (fun p -> float_of_int p.p_regs) points in
  let ys = List.map (fun p -> float_of_int p.p_traps) points in
  let sum = List.fold_left ( +. ) 0. in
  let sx = sum xs and sy = sum ys in
  let sxy = sum (List.map2 ( *. ) xs ys) in
  let sxx = sum (List.map (fun x -> x *. x) xs) in
  let denom = (n *. sxx) -. (sx *. sx) in
  if denom = 0. then 0. else ((n *. sxy) -. (sx *. sy)) /. denom

let pp ppf series =
  Fmt.pf ppf "%-10s" "registers";
  (match series with
   | s :: _ -> List.iter (fun p -> Fmt.pf ppf " %8d" p.p_regs) s.s_points
   | [] -> ());
  Fmt.pf ppf "@.";
  List.iter
    (fun s ->
      Fmt.pf ppf "%-10s" s.s_label;
      List.iter (fun p -> Fmt.pf ppf " %8d" p.p_traps) s.s_points;
      Fmt.pf ppf "   (slope %.2f traps/register)@." (slope s.s_points))
    series
