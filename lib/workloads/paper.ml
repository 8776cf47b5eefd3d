(* The paper's published numbers, as data.

   Tables 1, 6 and 7 of Lim et al., SOSP 2017, transcribed for automated
   paper-vs-measured reporting (EXPERIMENTS.md, the bench harness) and for
   the shape assertions in the test suite.  Figure 2 is published only as
   a chart; the [fig2_*] entries are approximate bar readings and carry
   wider tolerances. *)

type micro_row = {
  m_bench : Micro.benchmark;
  m_vm : int;             (* ARM VM *)
  m_nested : int;         (* ARMv8.3 nested *)
  m_nested_vhe : int;
  m_neve : int option;    (* None in Table 1 *)
  m_neve_vhe : int option;
  m_x86_vm : int;
  m_x86_nested : int;
}

(* Table 1 + Table 6 (cycle counts). *)
let cycles : micro_row list =
  [
    { m_bench = Micro.Hypercall; m_vm = 2_729; m_nested = 422_720;
      m_nested_vhe = 307_363; m_neve = Some 92_385; m_neve_vhe = Some 100_895;
      m_x86_vm = 1_188; m_x86_nested = 36_345 };
    { m_bench = Micro.Device_io; m_vm = 3_534; m_nested = 436_924;
      m_nested_vhe = 312_148; m_neve = Some 96_002; m_neve_vhe = Some 105_071;
      m_x86_vm = 2_307; m_x86_nested = 39_108 };
    { m_bench = Micro.Virtual_ipi; m_vm = 8_364; m_nested = 611_686;
      m_nested_vhe = 494_765; m_neve = Some 184_657;
      m_neve_vhe = Some 213_256; m_x86_vm = 2_751; m_x86_nested = 45_360 };
    { m_bench = Micro.Virtual_eoi; m_vm = 71; m_nested = 71;
      m_nested_vhe = 71; m_neve = Some 71; m_neve_vhe = Some 71;
      m_x86_vm = 316; m_x86_nested = 316 };
  ]

(* Table 7 (trap counts). *)
type trap_row = {
  t_bench : Micro.benchmark;
  t_nested : int;
  t_nested_vhe : int;
  t_neve : int;
  t_neve_vhe : int;
  t_x86 : int;
}

let traps : trap_row list =
  [
    { t_bench = Micro.Hypercall; t_nested = 126; t_nested_vhe = 82;
      t_neve = 15; t_neve_vhe = 15; t_x86 = 5 };
    { t_bench = Micro.Device_io; t_nested = 128; t_nested_vhe = 82;
      t_neve = 15; t_neve_vhe = 15; t_x86 = 5 };
    { t_bench = Micro.Virtual_ipi; t_nested = 261; t_nested_vhe = 172;
      t_neve = 37; t_neve_vhe = 38; t_x86 = 9 };
    { t_bench = Micro.Virtual_eoi; t_nested = 0; t_nested_vhe = 0;
      t_neve = 0; t_neve_vhe = 0; t_x86 = 0 };
  ]

(* Section 5 trap-cost measurement: cycles to return from a trap. *)
let trap_return = 65

let cycles_row bench = List.find (fun r -> r.m_bench = bench) cycles
let traps_row bench = List.find (fun r -> r.t_bench = bench) traps

(* Relative deviation of a measured value from the paper's, as a signed
   fraction. *)
let deviation ~paper ~measured =
  if paper = 0. then 0. else (measured -. paper) /. paper

let pp_deviation ppf d = Fmt.pf ppf "%+.0f%%" (100. *. d)
