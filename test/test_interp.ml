(* Tests for the fetch-decode-execute interpreter and the in-memory
   binary-patching path (Section 4's automated paravirtualization,
   executed for real). *)

module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Interp = Arm.Interp
module Encode = Arm.Encode
module Sysreg = Arm.Sysreg

let check = Alcotest.check

let base = 0x8_0000L

let fresh () = Arm.Cpu.create ()

let test_store_fetch32 () =
  let mem = Arm.Memory.create () in
  Arm.Memory.store32 mem ~base:0x1000L 0 0xdeadbeef;
  Arm.Memory.store32 mem ~base:0x1000L 4 0x12345678;
  check Alcotest.int "low word" 0xdeadbeef (Interp.fetch32 mem ~base:0x1000L 0);
  check Alcotest.int "high word" 0x12345678 (Interp.fetch32 mem ~base:0x1000L 4);
  (* the two 32-bit halves live in one 64-bit word *)
  check Alcotest.int64 "packed" 0x12345678_deadbeefL
    (Arm.Memory.read64 mem 0x1000L)

(* [Interp.load] stores words unboxed: loading 512 words allocates no
   more than loading one, and the words read back through [fetch32]. *)
let test_load_allocation () =
  let mem = Arm.Memory.create () in
  let words n = Array.init n (fun i -> 0x1000 + i) in
  let one = words 1 and many = words 512 in
  let load_words w =
    let w0 = Gc.minor_words () in
    Interp.load mem ~base w;
    int_of_float (Gc.minor_words () -. w0)
  in
  ignore (load_words many);
  let a = load_words one in
  let b = load_words many in
  check Alcotest.int "words allocated: 512-word load = 1-word load" a b;
  check Alcotest.int "last word" 0x11ff
    (Interp.fetch32 mem ~base (511 * 4));
  check Alcotest.int "halt marker after the program" Interp.halt_marker
    (Interp.fetch32 mem ~base (512 * 4))

let test_straight_line () =
  let cpu = fresh () in
  Interp.load_program cpu.Cpu.mem ~base
    [ Insn.Mov (0, Insn.Imm 7L); Insn.Mov (1, Insn.Imm 5L);
      Insn.Add (2, 0, Insn.Reg 1) ];
  (match Interp.run cpu ~entry:base ~max_insns:100 with
   | Interp.Breakpoint -> ()
   | o -> Alcotest.failf "expected breakpoint, got %a" Interp.pp_outcome o);
  check Alcotest.int64 "7 + 5" 12L (Cpu.get_reg cpu 2)

let test_loop () =
  (* count x0 down from 10, accumulating in x1 *)
  let cpu = fresh () in
  Interp.load_program cpu.Cpu.mem ~base
    [ Insn.Mov (0, Insn.Imm 10L);      (* 0 *)
      Insn.Mov (1, Insn.Imm 0L);       (* 1 *)
      Insn.Add (1, 1, Insn.Reg 0);     (* 2: loop body *)
      Insn.Sub (0, 0, Insn.Imm 1L);    (* 3 *)
      Insn.Cbnz (0, -2) ];             (* 4: back to the add *)
  (match Interp.run cpu ~entry:base ~max_insns:1000 with
   | Interp.Breakpoint -> ()
   | o -> Alcotest.failf "loop did not terminate: %a" Interp.pp_outcome o);
  check Alcotest.int64 "sum 10..1" 55L (Cpu.get_reg cpu 1)

let test_forward_branch () =
  let cpu = fresh () in
  Interp.load_program cpu.Cpu.mem ~base
    [ Insn.Mov (0, Insn.Imm 1L);
      Insn.B 2;                        (* skip the next instruction *)
      Insn.Mov (0, Insn.Imm 99L);
      Insn.Mov (1, Insn.Imm 2L) ];
  ignore (Interp.run cpu ~entry:base ~max_insns:100);
  check Alcotest.int64 "skipped" 1L (Cpu.get_reg cpu 0);
  check Alcotest.int64 "landed" 2L (Cpu.get_reg cpu 1)

let test_cbz_taken_and_not () =
  let cpu = fresh () in
  Interp.load_program cpu.Cpu.mem ~base
    [ Insn.Mov (0, Insn.Imm 0L);
      Insn.Cbz (0, 2);                 (* taken *)
      Insn.Mov (1, Insn.Imm 99L);
      Insn.Mov (2, Insn.Imm 1L) ];
  ignore (Interp.run cpu ~entry:base ~max_insns:100);
  check Alcotest.int64 "cbz skipped the poison" 0L (Cpu.get_reg cpu 1);
  check Alcotest.int64 "cbz landed" 1L (Cpu.get_reg cpu 2)

let test_budget_limit () =
  let cpu = fresh () in
  Interp.load_program cpu.Cpu.mem ~base
    [ Insn.Mov (0, Insn.Imm 1L); Insn.Cbnz (0, 0) ] (* spin on itself *);
  match Interp.run cpu ~entry:base ~max_insns:50 with
  | Interp.Limit -> ()
  | o -> Alcotest.failf "expected limit, got %a" Interp.pp_outcome o

(* Regression: a non-positive budget is already exhausted.  [run] used to
   test [budget = 0] exactly, so a negative budget decremented forever. *)
let test_budget_nonpositive () =
  let cpu = fresh () in
  Interp.load_program cpu.Cpu.mem ~base
    [ Insn.Mov (0, Insn.Imm 1L); Insn.Cbnz (0, 0) ];
  List.iter
    (fun budget ->
      match Interp.run cpu ~entry:base ~max_insns:budget with
      | Interp.Limit -> ()
      | o ->
        Alcotest.failf "budget %d: expected limit, got %a" budget
          Interp.pp_outcome o)
    [ 0; -1; -1000 ]

(* The decode cache must be invisible: same result as a direct decode for
   any word, including two words that collide in the same cache slot.
   The cache is per-CPU state now (Xlate), so exercise a fresh one. *)
let test_decode_cache_equivalence () =
  let xc = Arm.Xlate.create () in
  let words =
    List.map Encode.encode
      [ Insn.Nop; Insn.Hvc 7; Insn.Eret;
        Insn.Mrs (3, Sysreg.direct Sysreg.HCR_EL2);
        Insn.Msr (Sysreg.direct Sysreg.VTTBR_EL2, Insn.Reg 4);
        Insn.B 5; Insn.Cbnz (2, -3) ]
    @ [ 0x12345678; 0xdeadbeef; 0 ]
  in
  (* same-slot partners: identical low bits select the same cache line *)
  let colliders = List.map (fun w -> (w + 0x400) land 0xffff_ffff) words in
  List.iter
    (fun w ->
      (* twice: once cold (fills the slot), once warm (served from it) *)
      for _ = 1 to 2 do
        let direct = Encode.decode w and cached = Arm.Xlate.decode xc w in
        if direct <> cached then Alcotest.failf "word 0x%08x: cache differs" w
      done)
    (words @ colliders @ words)

(* --- the interpreter vs the reference loop (Ref_interp) ---------------- *)

(* Regression: [fetch32] used to silently read the containing aligned
   word for a misaligned PC and run a skewed instruction stream; a
   misaligned PC must be a deterministic alignment halt, under the
   interpreter and the reference loop and from both misalignment
   sources (a misaligned entry and a misaligned ELR restored by eret). *)
let test_misaligned_pc_halts () =
  List.iter
    (fun (name, (run : Fuzz.Diff.runner)) ->
      let cpu = fresh () in
      Interp.load_program cpu.Cpu.mem ~base [ Insn.Nop; Insn.Nop ];
      let entry = Int64.add base 2L in
      (match run cpu ~entry ~max_insns:10 with
       | Interp.Halted a ->
         check Alcotest.int64 "halted at the misaligned entry" entry a
       | o ->
         Alcotest.failf "%s: expected alignment halt, got %a" name
           Interp.pp_outcome o);
      (* eret onto a misaligned ELR: the halt happens at dispatch, after
         the eret itself executed *)
      let cpu = fresh () in
      cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL2;
      let bad = Int64.add base 0x102L in
      Arm.Cpu.poke_sysreg cpu Sysreg.ELR_EL2 bad;
      Arm.Cpu.poke_sysreg cpu Sysreg.SPSR_EL2
        (Arm.Pstate.to_spsr (Arm.Pstate.at Arm.Pstate.EL1));
      Interp.load_program cpu.Cpu.mem ~base [ Insn.Eret ];
      match run cpu ~entry:base ~max_insns:10 with
      | Interp.Halted a ->
        check Alcotest.int64 "halted at the misaligned ELR" bad a
      | o ->
        Alcotest.failf "%s: expected halt after eret, got %a" name
          Interp.pp_outcome o)
    Ref_interp.engines

(* Self-modifying code (the Section-4 binary-patching path at runtime): a
   program that overwrites two later instructions of its own block.  The
   store bumps the memory's code generation, so the interpreter must
   side-exit and re-decode instead of replaying the stale poison ops,
   and make the reference loop's observations. *)
let test_self_modifying_code_invalidation () =
  let data = 0x9000L in
  let patch_at = Int64.add base 16L in (* instructions 4 and 5 *)
  let nop = Encode.encode Insn.Nop in
  let packed_nops =
    Int64.logor
      (Int64.shift_left (Int64.of_int nop) 32)
      (Int64.of_int nop)
  in
  let run name (run : Fuzz.Diff.runner) =
    let cpu = fresh () in
    Arm.Memory.write64 cpu.Cpu.mem data packed_nops;
    Arm.Memory.write64 cpu.Cpu.mem (Int64.add data 8L) patch_at;
    Interp.load_program cpu.Cpu.mem ~base
      [ Insn.Mov (1, Insn.Imm data);         (* 0 *)
        Insn.Ldr (0, Insn.Based (1, 0L));    (* 1: packed nop pair *)
        Insn.Ldr (3, Insn.Based (1, 8L));    (* 2: patch address *)
        Insn.Str (0, Insn.Based (3, 0L));    (* 3: overwrite 4 and 5 *)
        Insn.Mov (2, Insn.Imm 99L);          (* 4: poison *)
        Insn.Mov (4, Insn.Imm 77L) ];        (* 5: poison *)
    (match run cpu ~entry:base ~max_insns:100 with
     | Interp.Breakpoint -> ()
     | o -> Alcotest.failf "%s: %a" name Interp.pp_outcome o);
    ( Cpu.get_reg cpu 2, Cpu.get_reg cpu 4,
      cpu.Cpu.meter.Cost.cycles, cpu.Cpu.meter.Cost.insns )
  in
  let x2, x4, cyc, insns = run "Interp.run" Interp.run in
  check Alcotest.int64 "patched-over poison (x2) never executed" 0L x2;
  check Alcotest.int64 "patched-over poison (x4) never executed" 0L x4;
  let x2', x4', cyc', insns' = run "reference" Ref_interp.run in
  check Alcotest.int64 "reference agrees on x2" x2' x2;
  check Alcotest.int64 "reference agrees on x4" x4' x4;
  check Alcotest.int "identical cycle charges" cyc' cyc;
  check Alcotest.int "identical instruction counts" insns' insns

(* A mid-block HCR_EL2 change must invalidate the block's cached routes:
   at EL2 under VHE, setting E2H redirects later EL1-register accesses to
   their EL2 twins.  A stale block would keep writing SCTLR_EL1. *)
let test_mid_block_hcr_side_exit () =
  let data = 0x9000L in
  let run name (run : Fuzz.Diff.runner) =
    let cpu =
      Arm.Cpu.create ~features:(Arm.Features.v Arm.Features.V8_4) ()
    in
    cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL2;
    Arm.Memory.write64 cpu.Cpu.mem data Arm.Hcr.e2h;
    Interp.load_program cpu.Cpu.mem ~base
      [ Insn.Mov (1, Insn.Imm data);
        Insn.Ldr (0, Insn.Based (1, 0L));                    (* E2H bit *)
        Insn.Mov (2, Insn.Imm 0x11L);
        Insn.Msr (Sysreg.direct Sysreg.SCTLR_EL1, Insn.Reg 2);
        Insn.Msr (Sysreg.direct Sysreg.HCR_EL2, Insn.Reg 0); (* set E2H *)
        Insn.Mov (3, Insn.Imm 0x22L);
        Insn.Msr (Sysreg.direct Sysreg.SCTLR_EL1, Insn.Reg 3) ];
    (match run cpu ~entry:base ~max_insns:100 with
     | Interp.Breakpoint -> ()
     | o -> Alcotest.failf "%s: %a" name Interp.pp_outcome o);
    ( Arm.Cpu.peek_sysreg cpu Sysreg.SCTLR_EL1,
      Arm.Cpu.peek_sysreg cpu Sysreg.SCTLR_EL2,
      cpu.Cpu.meter.Cost.cycles )
  in
  let el1, el2, cyc = run "Interp.run" Interp.run in
  check Alcotest.int64 "pre-E2H write landed in SCTLR_EL1" 0x11L el1;
  check Alcotest.int64 "post-E2H write redirected to SCTLR_EL2" 0x22L el2;
  let el1', el2', cyc' = run "reference" Ref_interp.run in
  check Alcotest.int64 "reference agrees on SCTLR_EL1" el1' el1;
  check Alcotest.int64 "reference agrees on SCTLR_EL2" el2' el2;
  check Alcotest.int "identical cycle charges" cyc' cyc

(* --- each block is a route memo keyed on the routing state --- *)

(* Two deferred-access pages with different contents, so a deferred
   access at the wrong BADDR shows. *)
let page_a = 0x4_0000L
let page_b = 0x6_0000L
let enabled page = Int64.logor page 1L

(* A NEVE CPU at EL1 running a guest hypervisor: HCR_EL2.NV/NV2 set,
   VNCR_EL2 enabled at [page_a].  Trapped accesses and UNDEFINED ones
   are skipped by handlers that only return. *)
let memo_cpu () =
  let cpu = Arm.Cpu.create ~features:(Arm.Features.v Arm.Features.V8_4) () in
  cpu.Cpu.el2_handler <- Some (fun c _ -> Cpu.do_eret c);
  cpu.Cpu.el1_handler <- Some (fun c _ -> Cpu.do_eret c);
  Cpu.poke_sysreg cpu Sysreg.HCR_EL2
    (List.fold_left Arm.Hcr.set 0L Arm.Hcr.[ vm; nv; nv2 ]);
  Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 (enabled page_a);
  cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  for k = 0 to 511 do
    let off = Int64.of_int (8 * k) in
    Arm.Memory.write64 cpu.Cpu.mem (Int64.add page_a off) (Int64.of_int (0xa000 + k));
    Arm.Memory.write64 cpu.Cpu.mem (Int64.add page_b off) (Int64.of_int (0xb000 + k))
  done;
  for r = 0 to 30 do
    Cpu.set_reg cpu r (Int64.of_int (0x100 + r))
  done;
  cpu

(* Two blocks (the branch ends the first) of accesses that route
   differently under each field of the routing state: trapped, deferred
   to memory, redirected to EL1, disguised, exposed by an OoH grant. *)
let memo_program =
  let d = Sysreg.direct in
  [ Insn.Mrs (1, d Sysreg.SCTLR_EL1);
    Insn.Mrs (2, d Sysreg.ESR_EL2);
    Insn.Mrs (3, d Sysreg.VTTBR_EL2);
    Insn.Mrs (4, d Sysreg.CNTHP_CTL_EL2);
    Insn.Mrs (5, d (Sysreg.ICH_LR_EL2 0));
    Insn.B 1;
    Insn.Msr (d Sysreg.VMPIDR_EL2, Insn.Reg 6);
    Insn.Msr (d Sysreg.SCTLR_EL2, Insn.Reg 7);
    Insn.Msr (d Sysreg.TPIDR_EL1, Insn.Reg 8);
    Insn.Mrs (10, d Sysreg.CurrentEL);
    Insn.Mrs (11, Sysreg.el12 Sysreg.SCTLR_EL1);
    Insn.Mrs (12, d Sysreg.HCR_EL2);
    Insn.Mrs (13, d Sysreg.ICH_HCR_EL2) ]

(* What a run leaves behind: registers, system registers, memory and
   the meter. *)
let memo_state (cpu : Cpu.t) =
  let mt = cpu.Cpu.meter in
  ( (Cpu.gprs cpu, Cpu.pc cpu, cpu.Cpu.pstate.Arm.Pstate.el),
    List.map (fun (r, v) -> (Sysreg.name r, v)) (Arm.Sysreg_file.dump cpu.Cpu.sysregs),
    Arm.Memory.sorted_words cpu.Cpu.mem,
    (mt.Cost.cycles, mt.Cost.insns, mt.Cost.traps, mt.Cost.mem_accesses) )

(* Twin CPUs, one running [Interp.run] and one the reference loop, run
   [program] from [entry] after each change [(what, entry, change)] is
   applied to both.  The interpreter's blocks stay cached throughout
   (nothing flushes or rewinds them), so each run after a change replays
   blocks routed under the state before it. *)
let twin_runs ~program changes =
  let a = memo_cpu () and b = memo_cpu () in
  Interp.load_program a.Cpu.mem ~base program;
  Interp.load_program b.Cpu.mem ~base program;
  List.iter
    (fun (what, entry, change) ->
      change a;
      change b;
      let outcome (run : Fuzz.Diff.runner) cpu =
        match run cpu ~entry ~max_insns:100 with
        | o -> Interp.outcome_to_string o
        | exception e -> Printexc.to_string e
      in
      check Alcotest.string (what ^ ": outcome") (outcome Ref_interp.run b)
        (outcome Interp.run a);
      let (ga, pa, ea), ra, wa, ma = memo_state a
      and (gb, pb, eb), rb, wb, mb = memo_state b in
      check Alcotest.bool (what ^ ": general registers") true (ga = gb);
      check Alcotest.int64 (what ^ ": pc") pb pa;
      check Alcotest.bool (what ^ ": EL") true (ea = eb);
      check Alcotest.(list (pair string int64)) (what ^ ": system registers") rb ra;
      check Alcotest.(list (pair int64 int64)) (what ^ ": memory") wb wa;
      check Alcotest.bool (what ^ ": cycles, instructions, traps, accesses")
        true (ma = mb))
    changes

let set_el el (cpu : Cpu.t) = cpu.Cpu.pstate <- Arm.Pstate.at el
let set_vncr v (cpu : Cpu.t) = Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 v

(* Each field of the routing state changed alone, and changed back: every
   run must equal the reference loop's.  A block that kept actions
   routed under another state, or took a key before routing, would
   defer to the old page, trap where the state now redirects, or miss
   an exposed register. *)
let test_block_memo_exact () =
  let at_el1 f (cpu : Cpu.t) =
    set_el Arm.Pstate.EL1 cpu;
    f cpu
  in
  let unchanged = ("unchanged", set_el Arm.Pstate.EL1) in
  twin_runs ~program:memo_program
    (List.map
       (fun (what, change) -> (what, base, change))
       [ ("base state", set_el Arm.Pstate.EL1);
         ( "features (a new ARMv8.3 record)",
           at_el1 (fun c -> c.Cpu.features <- Arm.Features.v Arm.Features.V8_3) );
         ( "features (a new ARMv8.4 record)",
           at_el1 (fun c -> c.Cpu.features <- Arm.Features.v Arm.Features.V8_4) );
         unchanged;
         ( "NV2 mask without deferral",
           at_el1 (fun c ->
               c.Cpu.nv2_mask <- { Arm.Trap_rules.nv2_full with m_defer = false }) );
         ( "NV2 mask back to full",
           at_el1 (fun c -> c.Cpu.nv2_mask <- Arm.Trap_rules.nv2_full) );
         ("OoH grant: all", at_el1 (fun c -> c.Cpu.expose <- Expose.Policy.all));
         ( "OoH grant: timer",
           at_el1 (fun c ->
               c.Cpu.expose <- Expose.Policy.of_list [ Expose.Policy.Timer ]) );
         ("OoH grant: none", at_el1 (fun c -> c.Cpu.expose <- Expose.Policy.none));
         ("VNCR BADDR moved", at_el1 (set_vncr (enabled page_b)));
         ("VNCR BADDR back", at_el1 (set_vncr (enabled page_a)));
         ("VNCR Enable cleared", at_el1 (set_vncr page_a));
         ("VNCR Enable set", at_el1 (set_vncr (enabled page_a)));
         ("EL2", set_el Arm.Pstate.EL2);
         ("EL1 again", set_el Arm.Pstate.EL1);
         ( "HCR_EL2.NV2 cleared",
           at_el1 (fun c ->
               Cpu.poke_sysreg c Sysreg.HCR_EL2
                 (List.fold_left Arm.Hcr.set 0L Arm.Hcr.[ vm; nv ])) );
         unchanged ])

(* VNCR_EL2 written by an MSR in the middle of an EL2 block, which then
   returns (eret) into an EL1 block routed under the old BADDR: the EL1
   block's deferred accesses must move to the new page. *)
let test_mid_block_vncr_write () =
  let d = Sysreg.direct in
  let el1_entry = Int64.add base 20L in
  let program =
    [ Insn.Mov (2, Insn.Imm 0x5L);                   (* EL2 entry *)
      Insn.Msr (d Sysreg.VNCR_EL2, Insn.Reg 0);
      Insn.Mrs (1, d Sysreg.VNCR_EL2);
      Insn.Msr (d Sysreg.SCTLR_EL1, Insn.Reg 2);
      Insn.Eret;
      Insn.Mrs (3, d Sysreg.VTTBR_EL2);              (* EL1 entry *)
      Insn.Msr (d Sysreg.VMPIDR_EL2, Insn.Reg 3);
      Insn.Mrs (4, d Sysreg.ESR_EL2) ]
  in
  let from_el2 (cpu : Cpu.t) =
    set_el Arm.Pstate.EL2 cpu;
    Cpu.set_reg cpu 0 (enabled page_b);
    Cpu.poke_sysreg cpu Sysreg.ELR_EL2 el1_entry;
    Cpu.poke_sysreg cpu Sysreg.SPSR_EL2
      (Arm.Pstate.to_spsr (Arm.Pstate.at Arm.Pstate.EL1))
  in
  twin_runs ~program
    [ ("EL1 block under page A", el1_entry, set_el Arm.Pstate.EL1);
      ("EL2 block moves BADDR to page B", base, from_el2) ]

let test_halt_on_garbage () =
  let cpu = fresh () in
  (* jump straight into unwritten memory: fetch reads zeros *)
  match Interp.run cpu ~entry:0x9_0000L ~max_insns:10 with
  | Interp.Halted a -> check Alcotest.int64 "halt address" 0x9_0000L a
  | o -> Alcotest.failf "expected halt, got %a" Interp.pp_outcome o

let test_branch_roundtrips () =
  List.iter
    (fun i ->
      check Alcotest.bool (Insn.to_string i ^ " roundtrips") true
        (Encode.roundtrips i))
    [ Insn.B 1; Insn.B (-200); Insn.B 0x1ffff; Insn.Cbz (3, -7);
      Insn.Cbnz (30, 1000); Insn.Cbz (0, 0x3ffff) ]

let test_disassemble () =
  let mem = Arm.Memory.create () in
  Interp.load_program mem ~base [ Insn.Nop; Insn.Eret ];
  match Interp.disassemble mem ~base ~count:2 with
  | [ (_, "nop"); (_, "eret") ] -> ()
  | l ->
    Alcotest.failf "unexpected disassembly: %s"
      (String.concat "; " (List.map snd l))

(* --- the headline test: a binary-patched guest-hypervisor routine,
   executed from memory, behaves like the semantic rewrite --- *)

(* A fragment of a guest hypervisor's entry path, as it would be compiled
   for real EL2. *)
let hypervisor_fragment =
  [ Insn.Mrs (0, Sysreg.direct Sysreg.ESR_EL2);
    Insn.Mrs (1, Sysreg.direct Sysreg.ELR_EL2);
    Insn.Mrs (2, Sysreg.direct Sysreg.SCTLR_EL1);
    Insn.Msr (Sysreg.direct Sysreg.HCR_EL2, Insn.Reg 0);
    Insn.Msr (Sysreg.direct Sysreg.VTTBR_EL2, Insn.Reg 1);
    Insn.Nop ]

let run_patched config =
  let cpu =
    Arm.Cpu.create ~features:(Hyp.Config.hw_features config) ()
  in
  let page = 0x5_0000L in
  (* a minimal host hypervisor: emulate trapped accesses as no-ops *)
  cpu.Cpu.el2_handler <- Some (fun c _ -> Cpu.do_eret c);
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2
    (if Hyp.Config.is_paravirt config then 0L
     else Hyp.Config.target_hcr config);
  (if Hyp.Config.is_neve config && not (Hyp.Config.is_paravirt config) then
     Arm.Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 (Int64.logor page 1L));
  cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  (* x28 = shared page base, the binary-patching convention *)
  Cpu.set_reg cpu 28 page;
  let words =
    Array.of_list (List.map Encode.encode hypervisor_fragment)
  in
  let text =
    if Hyp.Config.is_paravirt config then
      Hyp.Paravirt.patch_text config ~page_base:page words
    else words
  in
  Interp.load cpu.Cpu.mem ~base text;
  (match Interp.run cpu ~entry:base ~max_insns:100 with
   | Interp.Breakpoint -> ()
   | o -> Alcotest.failf "patched program failed: %a" Interp.pp_outcome o);
  cpu.Cpu.meter.Cost.traps

let test_patched_image_equivalence () =
  (* the paper's methodology, executed from memory: the patched image on
     "v8.0" takes exactly the traps the target hardware would *)
  check Alcotest.int "v8.3 hw == patched image"
    (run_patched (Hyp.Config.v Hyp.Config.Hw_v8_3))
    (run_patched (Hyp.Config.v Hyp.Config.Pv_v8_3));
  check Alcotest.int "NEVE hw == patched image"
    (run_patched (Hyp.Config.v Hyp.Config.Hw_neve))
    (run_patched (Hyp.Config.v Hyp.Config.Pv_neve));
  (* and the counts are the expected ones: every access traps on v8.3;
     under NEVE only the HCR/VTTBR... no wait — all five are
     deferred/redirected, so zero traps *)
  check Alcotest.int "v8.3: five trapping accesses" 5
    (run_patched (Hyp.Config.v Hyp.Config.Hw_v8_3));
  check Alcotest.int "NEVE: none" 0
    (run_patched (Hyp.Config.v Hyp.Config.Hw_neve))

(* Register 31 decodes as XZR: "mov x31, #1" (0xd280003f) must run,
   discard its write, and leave x31 reading zero — interpreter and
   reference loop alike — instead of escaping as Invalid_argument from
   the register file. *)
let test_x31_is_xzr () =
  List.iter
    (fun (name, (run : Fuzz.Diff.runner)) ->
      let cpu = fresh () in
      Interp.load cpu.Cpu.mem ~base
        [| 0xd280003f; Encode.encode (Insn.Add (2, 31, Insn.Imm 5L)) |];
      (match run cpu ~entry:base ~max_insns:10 with
       | Interp.Breakpoint -> ()
       | o ->
         Alcotest.failf "%s: expected breakpoint, got %a" name
           Interp.pp_outcome o);
      check Alcotest.int64 "x31 reads zero" 0L (Cpu.get_reg cpu 31);
      check Alcotest.int64 "xzr + 5" 5L (Cpu.get_reg cpu 2);
      check Alcotest.bool "x0..x30 untouched except x2" true
        (List.for_all
           (fun n -> n = 2 || Cpu.get_reg cpu n = 0L)
           (List.init 31 Fun.id)))
    Ref_interp.engines;
  let cpu = fresh () in
  Alcotest.check_raises "x32 is still rejected"
    (Invalid_argument "Cpu.set_reg") (fun () -> Cpu.set_reg cpu 32 1L)

let suite =
  [
    ("32-bit packing in 64-bit memory", `Quick, test_store_fetch32);
    ("program load allocates per load, not per word", `Quick,
     test_load_allocation);
    ("straight-line program", `Quick, test_straight_line);
    ("countdown loop (cbnz)", `Quick, test_loop);
    ("forward branch", `Quick, test_forward_branch);
    ("cbz taken", `Quick, test_cbz_taken_and_not);
    ("instruction budget", `Quick, test_budget_limit);
    ("non-positive budget returns Limit", `Quick, test_budget_nonpositive);
    ("decode cache is invisible", `Quick, test_decode_cache_equivalence);
    ("misaligned PC is a deterministic halt", `Quick,
     test_misaligned_pc_halts);
    ("self-modifying code invalidates superblocks", `Quick,
     test_self_modifying_code_invalidation);
    ("mid-block HCR change side-exits and re-routes", `Quick,
     test_mid_block_hcr_side_exit);
    ("a block is an exact route memo for every key field", `Quick,
     test_block_memo_exact);
    ("mid-block VNCR_EL2 write moves deferred accesses", `Quick,
     test_mid_block_vncr_write);
    ("halt on unencodable words", `Quick, test_halt_on_garbage);
    ("branch encodings roundtrip", `Quick, test_branch_roundtrips);
    ("disassembler", `Quick, test_disassemble);
    ("binary-patched image == target hardware", `Quick,
     test_patched_image_equivalence);
    ("x31 is XZR (mov x31, #1 runs)", `Quick, test_x31_is_xzr);
  ]
