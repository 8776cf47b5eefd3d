(* Tests for the CPU execution engine: instruction semantics, exception
   entry/return, the saved-GPR discipline, and cost accounting. *)

module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Sysreg = Arm.Sysreg
module Pstate = Arm.Pstate
module Hcr = Arm.Hcr
module Exn = Arm.Exn
module Features = Arm.Features

let check = Alcotest.check

let fresh ?(features = Features.v Features.V8_0) () = Cpu.create ~features ()

let at_el1 cpu = cpu.Cpu.pstate <- Pstate.at Pstate.EL1

let test_arithmetic () =
  let cpu = fresh () in
  Cpu.exec cpu (Insn.Mov (0, Insn.Imm 40L));
  Cpu.exec cpu (Insn.Add (1, 0, Insn.Imm 2L));
  check Alcotest.int64 "40 + 2" 42L (Cpu.get_reg cpu 1);
  Cpu.exec cpu (Insn.Sub (2, 1, Insn.Reg 0));
  check Alcotest.int64 "42 - 40" 2L (Cpu.get_reg cpu 2);
  Cpu.exec cpu (Insn.Lsl (3, 2, 4));
  check Alcotest.int64 "2 << 4" 32L (Cpu.get_reg cpu 3);
  Cpu.exec cpu (Insn.Orr (4, 3, Insn.Imm 1L));
  check Alcotest.int64 "32 | 1" 33L (Cpu.get_reg cpu 4);
  Cpu.exec cpu (Insn.And (5, 4, Insn.Imm 0xf0L));
  check Alcotest.int64 "33 & 0xf0" 32L (Cpu.get_reg cpu 5);
  Cpu.exec cpu (Insn.Eor (6, 4, Insn.Reg 4));
  check Alcotest.int64 "x ^ x" 0L (Cpu.get_reg cpu 6)

let test_memory_ops () =
  let cpu = fresh () in
  Cpu.exec cpu (Insn.Mov (0, Insn.Imm 0xcafeL));
  Cpu.exec cpu (Insn.Str (0, Insn.Abs 0x1000L));
  Cpu.exec cpu (Insn.Ldr (1, Insn.Abs 0x1000L));
  check Alcotest.int64 "store/load" 0xcafeL (Cpu.get_reg cpu 1);
  Cpu.exec cpu (Insn.Mov (2, Insn.Imm 0x1000L));
  Cpu.exec cpu (Insn.Ldr (3, Insn.Based (2, 0L)));
  check Alcotest.int64 "based addressing" 0xcafeL (Cpu.get_reg cpu 3)

let test_sysreg_access_at_el2 () =
  let cpu = fresh () in
  Cpu.msr cpu (Sysreg.direct Sysreg.VTTBR_EL2) 0x1234L;
  check Alcotest.int64 "msr/mrs" 0x1234L
    (Cpu.mrs cpu (Sysreg.direct Sysreg.VTTBR_EL2))

let test_read_only_register () =
  let cpu = fresh () in
  let before = Cpu.mrs cpu (Sysreg.direct Sysreg.MIDR_EL1) in
  Cpu.msr cpu (Sysreg.direct Sysreg.MIDR_EL1) 0L;
  check Alcotest.int64 "MIDR write ignored" before
    (Cpu.mrs cpu (Sysreg.direct Sysreg.MIDR_EL1))

let test_pc_advances () =
  let cpu = fresh () in
  let pc0 = Cpu.pc cpu in
  Cpu.exec cpu Insn.Nop;
  Cpu.exec cpu Insn.Nop;
  check Alcotest.int64 "pc advanced by 8" (Int64.add pc0 8L) (Cpu.pc cpu)

let test_undef_raises () =
  let cpu = fresh () in
  at_el1 cpu;
  (* EL2 access at EL1 on v8.0 hardware: the crash case *)
  match Cpu.exec cpu (Insn.Msr (Sysreg.direct Sysreg.HCR_EL2, Insn.Imm 1L)) with
  | () -> Alcotest.fail "expected Undefined_instruction"
  | exception Cpu.Undefined_instruction (_, el) ->
    check Alcotest.bool "raised at EL1" true (el = Pstate.EL1)

let test_exception_entry_state () =
  let cpu = fresh ~features:(Features.v Features.V8_3) () in
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2 (List.fold_left Hcr.set 0L [ Hcr.vm; Hcr.nv ]);
  at_el1 cpu;
  let entered = ref None in
  cpu.Cpu.el2_handler <-
    Some
      (fun c e ->
        entered := Some (e, c.Cpu.pstate.Pstate.el,
                         Cpu.peek_sysreg c Sysreg.ELR_EL2);
        Cpu.do_eret c);
  let pc0 = Cpu.pc cpu in
  Cpu.exec cpu (Insn.Hvc 5);
  (match !entered with
   | Some (e, el, elr) ->
     check Alcotest.bool "handler ran at EL2" true (el = Pstate.EL2);
     check Alcotest.bool "EC is HVC" true (e.Exn.ec = Exn.EC_hvc64);
     check Alcotest.int "immediate in ISS" 5 (e.Exn.iss land 0xffff);
     check Alcotest.int64 "ELR points past the hvc" (Int64.add pc0 4L) elr
   | None -> Alcotest.fail "handler did not run");
  check Alcotest.bool "back at EL1 after eret" true
    (cpu.Cpu.pstate.Pstate.el = Pstate.EL1)

let hvc_entry =
  { Exn.target = Pstate.EL2; ec = Exn.EC_hvc64; iss = 0 }

let frame_reg cpu k n = (List.nth (Cpu.saved_frames cpu) k).(n)

let test_saved_regs_restored () =
  (* The handler's own register usage must not leak into the guest, and
     values the handler writes to the *trapped* registers must be visible
     after the eret — the KVM GPR save/restore discipline.  A trap taken
     inside the handler pushes a second frame: the inner handler's
     writes reach only that frame, and each eret restores its own. *)
  let cpu = fresh ~features:(Features.v Features.V8_3) () in
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2 (List.fold_left Hcr.set 0L [ Hcr.vm; Hcr.nv ]);
  at_el1 cpu;
  let inner c _ =
    check Alcotest.int "two frames live in the inner handler" 2 c.Cpu.depth;
    check Alcotest.int64 "inner frame holds the outer handler's x7" 0xdeadL
      (Cpu.get_trapped_reg c 7);
    Cpu.set_trapped_reg c 8 0x99L;
    Cpu.set_reg c 7 0xbeefL;
    check Alcotest.int64 "set_trapped_reg wrote the top frame" 0x99L
      (frame_reg c 0 8);
    check Alcotest.int64 "the outer frame is untouched" 0x42L
      (frame_reg c 1 8);
    Cpu.do_eret c
  in
  let outer c _ =
    Cpu.set_reg c 7 0xdeadL (* clobber a live register *);
    Cpu.set_trapped_reg c 8 0x42L (* emulation result for the guest *);
    (* a nested entry overwrites ELR/SPSR_EL2: keep them, as a real
       handler would *)
    let elr = Cpu.peek_sysreg c Sysreg.ELR_EL2
    and spsr = Cpu.peek_sysreg c Sysreg.SPSR_EL2 in
    c.Cpu.el2_handler <- Some inner;
    Cpu.exception_entry c hvc_entry;
    check Alcotest.int "one frame left after the inner eret" 1 c.Cpu.depth;
    check Alcotest.int64 "inner eret restored the inner frame's x7" 0xdeadL
      (Cpu.get_reg c 7);
    check Alcotest.int64 "inner eret restored the inner frame's x8" 0x99L
      (Cpu.get_reg c 8);
    check Alcotest.int64 "the outer trapped x8 survives" 0x42L
      (Cpu.get_trapped_reg c 8);
    Cpu.poke_sysreg c Sysreg.ELR_EL2 elr;
    Cpu.poke_sysreg c Sysreg.SPSR_EL2 spsr;
    Cpu.do_eret c
  in
  cpu.Cpu.el2_handler <- Some outer;
  Cpu.set_reg cpu 7 0x1111L;
  Cpu.set_reg cpu 8 0L;
  Cpu.exec cpu (Insn.Hvc 0);
  check Alcotest.int "no frame live after the last eret" 0 cpu.Cpu.depth;
  check Alcotest.bool "back at EL1" true (cpu.Cpu.pstate.Pstate.el = Pstate.EL1);
  check Alcotest.int64 "clobber undone by eret" 0x1111L (Cpu.get_reg cpu 7);
  check Alcotest.int64 "emulated result visible" 0x42L (Cpu.get_reg cpu 8)

(* A mark taken two traps deep puts back the live registers, the PC and
   both frames, whatever ran after it. *)
let test_mark_rewind_frames () =
  let cpu = fresh ~features:(Features.v Features.V8_3) () in
  for n = 0 to 30 do
    Cpu.set_reg cpu n (Int64.of_int (0x100 + n))
  done;
  cpu.Cpu.el2_handler <- Some (fun _ _ -> ());
  Cpu.exception_entry cpu hvc_entry;
  Cpu.set_reg cpu 3 0x333L;
  Cpu.exception_entry cpu hvc_entry;
  Cpu.set_reg cpu 4 0x444L;
  Cpu.set_pc cpu 0x5000L;
  let frames = Cpu.saved_frames cpu and regs = Cpu.gprs cpu in
  let mk = Cpu.mark cpu in
  Cpu.set_trapped_reg cpu 5 0x555L;
  Cpu.set_reg cpu 6 0x666L;
  Cpu.do_eret cpu;
  Cpu.set_trapped_reg cpu 5 0x777L;
  Cpu.do_eret cpu;
  Cpu.exception_entry cpu hvc_entry;
  check Alcotest.int "depth moved on" 1 cpu.Cpu.depth;
  Cpu.rewind cpu mk;
  check Alcotest.int "depth 2 again" 2 cpu.Cpu.depth;
  check Alcotest.bool "both frames put back" true
    (Cpu.saved_frames cpu = frames);
  check Alcotest.int64 "inner frame's x3" 0x333L (frame_reg cpu 0 3);
  check Alcotest.int64 "outer frame's x3" 0x103L (frame_reg cpu 1 3);
  check Alcotest.string "live registers put back" regs (Cpu.gprs cpu);
  check Alcotest.int64 "pc put back" 0x5000L (Cpu.pc cpu)

(* [gprs_equal] answers whether a dump still matches the live registers,
   word by word and without allocating. *)
let test_gprs_equal () =
  let cpu = fresh () in
  for n = 0 to 30 do
    Cpu.set_reg cpu n (Int64.of_int (0x100 + n))
  done;
  let regs = Cpu.gprs cpu in
  let w0 = Gc.minor_words () in
  let same = Cpu.gprs_equal cpu regs in
  let w1 = Gc.minor_words () in
  check Alcotest.bool "its own dump" true same;
  check Alcotest.int "words allocated" 0 (int_of_float (w1 -. w0));
  Cpu.set_reg cpu 30 0x31L;
  check Alcotest.bool "x30 moved" false (Cpu.gprs_equal cpu regs);
  check Alcotest.bool "the new dump" true (Cpu.gprs_equal cpu (Cpu.gprs cpu));
  check Alcotest.bool "a short string" false
    (Cpu.gprs_equal cpu (String.sub regs 0 8))

(* Killing the nested VM drops the frames of every interrupted trap. *)
let test_kill_l2_drops_frames () =
  let m =
    Workloads.Scenario.make_arm
      (Workloads.Scenario.Arm_nested (Hyp.Config.v Hyp.Config.Hw_v8_3))
  in
  let cpu = m.Hyp.Machine.cpus.(0) in
  let handler = cpu.Cpu.el2_handler in
  cpu.Cpu.el2_handler <- Some (fun _ _ -> ());
  Cpu.exception_entry cpu hvc_entry;
  Cpu.exception_entry cpu hvc_entry;
  cpu.Cpu.el2_handler <- handler;
  check Alcotest.int "two interrupted traps" 2 cpu.Cpu.depth;
  Hyp.Machine.kill_l2 m ~cpu:0;
  check Alcotest.int "no frame after kill_l2" 0 cpu.Cpu.depth;
  check Alcotest.int "no violation" 0
    (List.length (Hyp.Machine.check_invariants m));
  let insns = cpu.Cpu.meter.Cost.insns in
  Hyp.Machine.hypercall m ~cpu:0;
  check Alcotest.bool "L1 runs again" true (cpu.Cpu.meter.Cost.insns > insns)

let test_trap_counted () =
  let cpu = fresh ~features:(Features.v Features.V8_3) () in
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2 (List.fold_left Hcr.set 0L [ Hcr.vm; Hcr.nv ]);
  at_el1 cpu;
  cpu.Cpu.el2_handler <- Some (fun c _ -> Cpu.do_eret c);
  Cpu.exec cpu (Insn.Hvc 0);
  Cpu.exec cpu Insn.Eret;
  check Alcotest.int "two traps" 2 cpu.Cpu.meter.Cost.traps;
  check Alcotest.int "one hvc" 1 (Cost.traps_of_kind cpu.Cpu.meter Cost.Trap_hvc);
  check Alcotest.int "one eret" 1
    (Cost.traps_of_kind cpu.Cpu.meter Cost.Trap_eret)

let test_trap_cost_uniform () =
  (* Section 5: the cost of a trap is the same whatever the instruction *)
  let cpu = fresh ~features:(Features.v Features.V8_3) () in
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2
    (List.fold_left Hcr.set 0L [ Hcr.vm; Hcr.nv; Hcr.nv1; Hcr.tvm; Hcr.trvm ]);
  at_el1 cpu;
  cpu.Cpu.el2_handler <- Some (fun c _ -> Cpu.do_eret c);
  let cost insn =
    let c0 = cpu.Cpu.meter.Cost.cycles in
    Cpu.exec cpu insn;
    cpu.Cpu.meter.Cost.cycles - c0
  in
  let costs =
    List.map cost
      [ Insn.Hvc 0;
        Insn.Mrs (0, Sysreg.direct Sysreg.HCR_EL2);
        Insn.Msr (Sysreg.direct Sysreg.VTTBR_EL2, Insn.Reg 0);
        Insn.Mrs (0, Sysreg.direct Sysreg.SCTLR_EL1) ]
  in
  let lo = List.fold_left min max_int costs in
  let hi = List.fold_left max 0 costs in
  check Alcotest.bool "spread under 10%" true
    (float_of_int (hi - lo) /. float_of_int hi < 0.10)

let test_nv2_defer_execution () =
  (* an NV2-deferred MSR becomes a store into the deferred page *)
  let cpu = fresh ~features:(Features.v Features.V8_4) () in
  let page = 0x7_0000L in
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2
    (List.fold_left Hcr.set 0L [ Hcr.vm; Hcr.nv; Hcr.nv1; Hcr.nv2 ]);
  Arm.Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 (Int64.logor page 1L);
  at_el1 cpu;
  Cpu.exec cpu (Insn.Msr (Sysreg.direct Sysreg.VTTBR_EL2, Insn.Imm 0xabcL));
  check Alcotest.int "no trap" 0 cpu.Cpu.meter.Cost.traps;
  let slot =
    Int64.add page (Int64.of_int (Option.get (Sysreg.vncr_offset Sysreg.VTTBR_EL2)))
  in
  check Alcotest.int64 "value in the page" 0xabcL
    (Arm.Memory.read64 cpu.Cpu.mem slot);
  Cpu.exec cpu (Insn.Mrs (4, Sysreg.direct Sysreg.VTTBR_EL2));
  check Alcotest.int64 "read back from the page" 0xabcL (Cpu.get_reg cpu 4)

let test_currentel_disguise_execution () =
  let cpu = fresh ~features:(Features.v Features.V8_3) () in
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2 (List.fold_left Hcr.set 0L [ Hcr.vm; Hcr.nv ]);
  at_el1 cpu;
  Cpu.exec cpu (Insn.Mrs (2, Sysreg.direct Sysreg.CurrentEL));
  check Alcotest.int64 "reads as EL2" (Pstate.currentel_bits Pstate.EL2)
    (Cpu.get_reg cpu 2);
  check Alcotest.int "without trapping" 0 cpu.Cpu.meter.Cost.traps

let test_deliver_irq_gating () =
  let cpu = fresh () in
  (* no IMO: not delivered *)
  at_el1 cpu;
  check Alcotest.bool "masked without IMO" false (Cpu.deliver_irq cpu);
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2 (Hcr.set 0L Hcr.imo);
  cpu.Cpu.el2_handler <- Some (fun c _ -> Cpu.do_eret c);
  check Alcotest.bool "delivered with IMO at EL1" true (Cpu.deliver_irq cpu);
  cpu.Cpu.pstate <- Pstate.at Pstate.EL2;
  check Alcotest.bool "not delivered at EL2" false (Cpu.deliver_irq cpu)

let test_shared_memory () =
  let mem = Arm.Memory.create () in
  let a = Cpu.create ~mem () in
  let b = Cpu.create ~mem () in
  Cpu.exec a (Insn.Mov (0, Insn.Imm 99L));
  Cpu.exec a (Insn.Str (0, Insn.Abs 0x2000L));
  Cpu.exec b (Insn.Ldr (1, Insn.Abs 0x2000L));
  check Alcotest.int64 "cpus share memory" 99L (Cpu.get_reg b 1)

let test_memory_alignment () =
  let mem = Arm.Memory.create () in
  (match Arm.Memory.read64 mem 0x1003L with
   | _ -> Alcotest.fail "unaligned read should raise"
   | exception Invalid_argument _ -> ());
  Arm.Memory.write64 mem 0x1000L 5L;
  Arm.Memory.zero_range mem ~start:0x1000L ~len:0x1000L;
  check Alcotest.int64 "zeroed" 0L (Arm.Memory.read64 mem 0x1000L)

(* [zero_range] over [0x1ff0, 0x3010): the tail of page 1, all of the
   absent page 2 and the head of page 3.  Words in range read zero, the
   neighbours outside it keep their values, the absent page stays
   absent, the overlapped code envelope is invalidated without a write
   notification, and the call allocates nothing. *)
let test_zero_range_pagewise () =
  let module M = Arm.Memory in
  let mem = M.create () in
  List.iter
    (fun (a, v) -> M.write64 mem a v)
    [ (0x1fe8L, 1L); (0x1ff0L, 2L); (0x1ff8L, 3L); (0x3000L, 4L);
      (0x3008L, 5L); (0x3010L, 6L) ];
  M.track_code mem ~lo:0x3000L ~hi:0x3008L;
  let writes = ref 0 in
  mem.M.on_write <- Some (fun _ -> incr writes);
  let gen = M.code_gen mem in
  let zero () = M.zero_range mem ~start:0x1ff0L ~len:0x1020L in
  let w0 = Gc.minor_words () in
  zero ();
  let w1 = Gc.minor_words () in
  check Alcotest.int "words allocated" 0 (int_of_float (w1 -. w0));
  check
    Alcotest.(list (pair int64 int64))
    "only the words outside the range survive"
    [ (0x1fe8L, 1L); (0x3010L, 6L) ]
    (M.sorted_words mem);
  check Alcotest.bool "absent page stays absent" false
    (Hashtbl.mem mem.M.pages 2);
  check Alcotest.int "code envelope invalidated" (gen + 1) (M.code_gen mem);
  check Alcotest.int "no write notification" 0 !writes

(* [Memory.rewind]: marked contents come back, a page created since the
   mark is dropped (and handed to [drop], as it was left), the code
   envelope is restored, and the code generation moves forward — the
   text address is reused, so a generation put back would let a block
   decoded before the rewind validate again.  [Memory.adopt] backs an
   absent page with a dropped one, zeroed, and leaves a backed page
   alone. *)
let test_memory_rewind () =
  let module M = Arm.Memory in
  let mem = M.create () in
  M.write64 mem 0x1008L 7L;
  let mk = M.mark mem in
  M.write64 mem 0x1008L 9L;
  M.write64 mem 0x1010L 5L;
  M.write64 mem 0x5008L 1L;
  M.track_code mem ~lo:0x5000L ~hi:0x5010L;
  let gen = M.code_gen mem in
  let dropped = ref [] in
  M.rewind mem mk ~drop:(fun pi p -> dropped := (pi, p) :: !dropped);
  check
    Alcotest.(list (pair int64 int64))
    "contents as marked" [ (0x1008L, 7L) ] (M.sorted_words mem);
  check Alcotest.bool "page created since the mark dropped" false
    (Hashtbl.mem mem.M.pages 5);
  check Alcotest.(list int) "dropped page handed on" [ 5 ]
    (List.map fst !dropped);
  check Alcotest.bool "code generation moved forward" true
    (M.code_gen mem > gen);
  let gen = M.code_gen mem in
  M.write64 mem 0x5000L 2L;
  check Alcotest.int "code envelope restored" gen (M.code_gen mem);
  let page = snd (List.hd !dropped) in
  M.adopt mem 5 page;
  check Alcotest.bool "a backed page is not replaced" true
    (Hashtbl.find mem.M.pages 5 != page);
  M.adopt mem 6 page;
  check Alcotest.bool "an absent page is backed by the adopted one" true
    (Hashtbl.find mem.M.pages 6 == page);
  check
    Alcotest.(list (pair int64 int64))
    "adopted page reads zero" [ (0x1008L, 7L); (0x5000L, 2L) ]
    (M.sorted_words mem);
  M.write64 mem 0x6010L 3L;
  check Alcotest.int64 "a store lands in the adopted page" 3L
    (Bytes.get_int64_le page 0x10)

let suite =
  [
    ("arithmetic semantics", `Quick, test_arithmetic);
    ("memory load/store", `Quick, test_memory_ops);
    ("sysreg access at EL2", `Quick, test_sysreg_access_at_el2);
    ("read-only registers ignore writes", `Quick, test_read_only_register);
    ("pc advances", `Quick, test_pc_advances);
    ("v8.0 UNDEF raises", `Quick, test_undef_raises);
    ("exception entry sets ESR/ELR/SPSR", `Quick, test_exception_entry_state);
    ("GPRs saved on trap, restored by eret", `Quick, test_saved_regs_restored);
    ("mark/rewind two traps deep puts back both frames", `Quick,
     test_mark_rewind_frames);
    ("gprs_equal: in place, no allocation", `Quick, test_gprs_equal);
    ("kill_l2 drops every GPR frame", `Quick, test_kill_l2_drops_frames);
    ("traps are counted by kind", `Quick, test_trap_counted);
    ("trap cost is instruction-independent", `Quick, test_trap_cost_uniform);
    ("NV2 deferral executes as memory access", `Quick, test_nv2_defer_execution);
    ("CurrentEL disguise during execution", `Quick,
     test_currentel_disguise_execution);
    ("IRQ delivery gating", `Quick, test_deliver_irq_gating);
    ("CPUs share physical memory", `Quick, test_shared_memory);
    ("memory enforces alignment", `Quick, test_memory_alignment);
    ("zero_range: page by page, absent pages skipped", `Quick,
     test_zero_range_pagewise);
    ("memory rewind: contents, pages, envelope, generation", `Quick,
     test_memory_rewind);
  ]
