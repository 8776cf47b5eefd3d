(* Tests for the GIC model: interrupt state machine, distributor, the
   virtual interface (list registers), and the GICv2 MMIO frame. *)

module Irq = Gic.Irq
module Dist = Gic.Dist
module Vgic = Gic.Vgic
module Gicv2 = Gic.Gicv2

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- interrupt state machine --- *)

let state_arb =
  QCheck.make
    ~print:Irq.state_name
    QCheck.Gen.(oneofl [ Irq.Inactive; Irq.Pending; Irq.Active; Irq.Pending_and_active ])

let test_state_bits_roundtrip =
  QCheck.Test.make ~count:100 ~name:"irq: state bits roundtrip" state_arb
    (fun s -> Irq.state_of_bits (Irq.state_bits s) = s)

let test_state_machine_invariants =
  QCheck.Test.make ~count:200
    ~name:"irq: pend/activate/deactivate invariants" state_arb (fun s ->
      (* adding pending always leaves the interrupt pending-visible *)
      let p = Irq.add_pending s in
      (p = Irq.Pending || p = Irq.Pending_and_active)
      (* deactivating an activated interrupt never yields active *)
      && Irq.deactivate (Irq.activate p) <> Irq.Active
      && Irq.activate (Irq.add_pending Irq.Inactive) = Irq.Active)

let test_intid_kinds () =
  check Alcotest.bool "SGI" true (Irq.kind_of_intid 5 = Irq.SGI);
  check Alcotest.bool "PPI" true (Irq.kind_of_intid 27 = Irq.PPI);
  check Alcotest.bool "SPI" true (Irq.kind_of_intid 40 = Irq.SPI)

(* --- distributor --- *)

let test_dist_ack_eoi () =
  let d = Dist.create ~ncpus:2 in
  Dist.enable d ~cpu:0 ~intid:40;
  Dist.set_target d ~intid:40 ~cpu:0;
  Dist.raise_irq d ~cpu:0 ~intid:40;
  check Alcotest.bool "pending" true (Dist.best_pending d ~cpu:0 = Some 40);
  check Alcotest.bool "ack returns the intid" true
    (Dist.acknowledge d ~cpu:0 = Some 40);
  check Alcotest.bool "active, not pending" true
    (Dist.state d ~cpu:0 ~intid:40 = Irq.Active);
  Dist.eoi d ~cpu:0 ~intid:40;
  check Alcotest.bool "inactive after EOI" true
    (Dist.state d ~cpu:0 ~intid:40 = Irq.Inactive)

let test_dist_disabled_not_delivered () =
  let d = Dist.create ~ncpus:1 in
  Dist.raise_irq d ~cpu:0 ~intid:40;
  check Alcotest.bool "disabled interrupt stays invisible" true
    (Dist.best_pending d ~cpu:0 = None)

let test_dist_priority () =
  let d = Dist.create ~ncpus:1 in
  List.iter
    (fun (intid, prio) ->
      Dist.enable d ~cpu:0 ~intid;
      Dist.set_priority d ~cpu:0 ~intid prio;
      Dist.raise_irq d ~cpu:0 ~intid)
    [ (40, 0xa0); (41, 0x20); (42, 0xe0) ];
  check Alcotest.bool "highest priority (lowest value) wins" true
    (Dist.acknowledge d ~cpu:0 = Some 41)

let test_dist_sgi_routing () =
  let d = Dist.create ~ncpus:4 in
  Dist.enable d ~cpu:2 ~intid:5;
  Dist.send_sgi d ~src:0 ~dst:2 ~intid:5;
  check Alcotest.bool "SGI lands on the target cpu" true
    (Dist.best_pending d ~cpu:2 = Some 5);
  check Alcotest.bool "not on others" true (Dist.best_pending d ~cpu:0 = None)

let test_dist_sgi_bad_intid () =
  let d = Dist.create ~ncpus:2 in
  (match Dist.send_sgi d ~src:0 ~dst:1 ~intid:40 with
   | _ -> Alcotest.fail "SPI as SGI should be rejected"
   | exception Fault.Error.Sim_fault (Fault.Error.Bad_intid _, _) -> ());
  match Dist.send_sgi d ~src:0 ~dst:7 ~intid:3 with
  | _ -> Alcotest.fail "out-of-range destination cpu should be rejected"
  | exception Fault.Error.Sim_fault (Fault.Error.Bad_intid _, _) -> ()

(* Equal-priority interrupts pending together are acknowledged in the
   distributor's own record order (its tables' iteration order, which
   depends on the order records were created in), banked records before
   shared ones: SGIs and PPIs of CPU 0 and SPIs targeting it, one of
   each kind at a higher priority, and an SGI pending on CPU 1 that CPU 0
   must not see.  The order is pinned for a fresh distributor, after a
   rewind that only copies fields back, and after one that drops
   records created since the mark and rebuilds the tables. *)
let tie_sgis = [ 5; 0; 15; 3; 9; 12 ]
let tie_ppis = [ 27; 16; 31; 20 ]
let tie_spis = [ 40; 33; 1019; 32; 100; 64; 57 ]

let tie_dist () =
  let d = Dist.create ~ncpus:2 in
  for cpu = 0 to 1 do
    for intid = 0 to 15 do
      Dist.enable d ~cpu ~intid
    done
  done;
  List.iter (fun intid -> Dist.enable d ~cpu:0 ~intid) tie_ppis;
  List.iter
    (fun intid ->
      Dist.enable d ~cpu:0 ~intid;
      Dist.set_target d ~intid ~cpu:0)
    tie_spis;
  List.iter
    (fun intid -> Dist.set_priority d ~cpu:0 ~intid 0x80)
    [ 12; 20; 64 ];
  d

let pend_all d =
  Dist.send_sgi d ~src:0 ~dst:1 ~intid:7;
  List.iter (fun intid -> Dist.send_sgi d ~src:1 ~dst:0 ~intid) tie_sgis;
  List.iter (fun intid -> Dist.raise_irq d ~cpu:0 ~intid) (tie_ppis @ tie_spis)

let rec ack_order d acc =
  match Dist.acknowledge d ~cpu:0 with
  | None -> List.rev acc
  | Some intid ->
    Dist.eoi d ~cpu:0 ~intid;
    ack_order d (intid :: acc)

let tie_order =
  [ 20; 12; 64; 0; 31; 9; 27; 16; 15; 5; 3; 100; 57; 33; 1019; 40; 32 ]

let test_dist_tie_break_order () =
  let d = tie_dist () in
  let m = Dist.mark d in
  pend_all d;
  check Alcotest.(list int) "fresh" tie_order (ack_order d []);
  check Alcotest.bool "CPU 1's SGI stays pending" true
    (Dist.best_pending d ~cpu:1 = Some 7);
  Dist.rewind d m;
  pend_all d;
  check Alcotest.(list int) "after a rewind in place" tie_order (ack_order d []);
  (* records created after the mark: the rewind drops them *)
  List.iter
    (fun intid ->
      Dist.enable d ~cpu:0 ~intid;
      Dist.set_target d ~intid ~cpu:0;
      Dist.raise_irq d ~cpu:0 ~intid)
    [ 34; 35; 200; 21 ];
  Dist.rewind d m;
  pend_all d;
  check Alcotest.(list int) "after a rewind that rebuilds" tie_order
    (ack_order d [])

(* --- list registers --- *)

let lr_gen =
  QCheck.Gen.(
    let* lr_state =
      oneofl [ Irq.Inactive; Irq.Pending; Irq.Active; Irq.Pending_and_active ]
    in
    let* lr_hw = bool in
    let* lr_group1 = bool in
    let* lr_priority = int_bound 0xff in
    let* lr_pintid = int_bound 0x1fff in
    let* lr_vintid = int_bound 1019 in
    return { Vgic.lr_state; lr_hw; lr_group1; lr_priority; lr_pintid; lr_vintid })

let test_lr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"vgic: list-register encode/decode"
    (QCheck.make ~print:(fun l -> Fmt.str "%a" Vgic.pp_lr (Vgic.encode_lr l)) lr_gen)
    (fun l -> Vgic.decode_lr (Vgic.encode_lr l) = l)

let fresh_lrs () = Array.make 4 0L

let test_inject_ack_eoi () =
  let lrs = fresh_lrs () in
  (match Vgic.inject lrs ~vintid:27 () with
   | Some 0 -> ()
   | _ -> Alcotest.fail "first free LR should be 0");
  check Alcotest.int "one pending" 1 (Vgic.pending_count lrs);
  (match Vgic.v_acknowledge lrs with
   | Some 27 -> ()
   | _ -> Alcotest.fail "ack should return vintid 27");
  check Alcotest.int "none pending after ack" 0 (Vgic.pending_count lrs);
  check Alcotest.bool "EOI finds the active interrupt" true
    (Vgic.v_eoi lrs ~vintid:27);
  check Alcotest.bool "slot is free again" true (Vgic.find_free_lr lrs = Some 0)

let test_ack_priority_order () =
  let lrs = fresh_lrs () in
  ignore (Vgic.inject lrs ~vintid:10 ~priority:0xc0 ());
  ignore (Vgic.inject lrs ~vintid:11 ~priority:0x10 ());
  check Alcotest.bool "higher priority acked first" true
    (Vgic.v_acknowledge lrs = Some 11)

let test_lr_exhaustion () =
  let lrs = fresh_lrs () in
  for i = 0 to 3 do
    check Alcotest.bool "inject succeeds" true
      (Vgic.inject lrs ~vintid:(30 + i) () <> None)
  done;
  check Alcotest.bool "fifth injection fails" true
    (Vgic.inject lrs ~vintid:50 () = None)

let test_eoi_wrong_vintid () =
  let lrs = fresh_lrs () in
  ignore (Vgic.inject lrs ~vintid:27 ());
  ignore (Vgic.v_acknowledge lrs);
  check Alcotest.bool "EOI of a different vintid fails" false
    (Vgic.v_eoi lrs ~vintid:99)

(* The acknowledge and EOI the list-register words implement, on
   decoded records. *)
let ref_acknowledge lrs =
  let best = ref None in
  Array.iteri
    (fun i v ->
      let l = Vgic.decode_lr v in
      if l.Vgic.lr_state = Irq.Pending then
        match !best with
        | Some (_, bl) when bl.Vgic.lr_priority <= l.Vgic.lr_priority -> ()
        | _ -> best := Some (i, l))
    lrs;
  match !best with
  | None -> None
  | Some (i, l) ->
    lrs.(i) <- Vgic.encode_lr { l with Vgic.lr_state = Irq.Active };
    Some l.Vgic.lr_vintid

let ref_eoi lrs ~vintid =
  let found = ref false in
  Array.iteri
    (fun i v ->
      let l = Vgic.decode_lr v in
      if (not !found) && l.Vgic.lr_vintid = vintid
         && (l.Vgic.lr_state = Irq.Active || l.Vgic.lr_state = Irq.Pending_and_active)
      then begin
        found := true;
        let s = Irq.deactivate l.Vgic.lr_state in
        lrs.(i) <-
          Vgic.encode_lr
            (if s = Irq.Inactive then Vgic.empty_lr else { l with Vgic.lr_state = s })
      end)
    lrs;
  !found

(* Four LRs drawn so that states, priorities and vintids collide, some
   with bits set outside every field. *)
let lrs_gen =
  let open QCheck.Gen in
  let lr =
    let* lr_state = oneofl [ Irq.Inactive; Irq.Pending; Irq.Active; Irq.Pending_and_active ] in
    let* lr_hw = bool and* lr_group1 = bool in
    let* lr_priority = oneofl [ 0x10; 0xa0; 0xa0; 0xc0 ] in
    let* lr_pintid = int_bound 0x1fff and* lr_vintid = int_bound 3 in
    let+ junk = oneofl [ 0L; 0L; 0x0f00_e000_0000_0000L ] in
    Int64.logor junk
      (Vgic.encode_lr { Vgic.lr_state; lr_hw; lr_group1; lr_priority; lr_pintid; lr_vintid })
  in
  pair (array_size (return 4) lr) (int_range 1 3)

let lr_index i = Arm.Sysreg.index (Arm.Sysreg.ICH_LR_EL2 i)

(* [v_acknowledge]/[v_eoi] on an array and [acknowledge_in]/[eoi_in] on
   a register file agree with the decoded-record reference: results, LR
   words, and the in-place forms set the dirty bits of exactly the LRs
   they cover. *)
let test_lr_words_match_records =
  QCheck.Test.make ~count:1000 ~name:"vgic: LR word operations == decoded records"
    (QCheck.make lrs_gen) (fun (lrs, vintid) ->
      let want = Array.copy lrs and arr = Array.copy lrs in
      let f = Arm.Sysreg_file.create () in
      Array.iteri (fun i v -> Arm.Sysreg_file.set_index f (lr_index i) v) lrs;
      let file_lrs () = Array.init 4 (fun i -> Arm.Sysreg_file.get_index f (lr_index i)) in
      let dirty i = Bytes.get f.Arm.Sysreg_file.dirty (lr_index i) = '\001' in
      let in_place r = if r < 0 then None else Some r in
      let acked = ref_acknowledge want in
      let ack_ok =
        Vgic.v_acknowledge arr = acked
        && in_place (Vgic.acknowledge_in f ~lrs:4) = acked
        && arr = want && file_lrs () = want
      in
      let eoid = ref_eoi want ~vintid in
      ack_ok
      && Vgic.v_eoi arr ~vintid = eoid
      && Vgic.eoi_in f ~lrs:4 ~vintid = eoid
      && arr = want && file_lrs () = want
      && List.for_all dirty [ 0; 1; 2; 3 ]
      && not (dirty 4))

let test_status_registers () =
  let lrs = fresh_lrs () in
  check Alcotest.int64 "all empty: ELRSR = 0b1111" 0xfL (Vgic.compute_elrsr lrs);
  ignore (Vgic.inject lrs ~vintid:27 ());
  check Alcotest.int64 "LR0 busy: ELRSR = 0b1110" 0xeL (Vgic.compute_elrsr lrs);
  check Alcotest.int64 "nothing EOId yet" 0L (Vgic.compute_eisr lrs);
  (* an inactive LR with a leftover vintid reads as EOId *)
  lrs.(1) <-
    Vgic.encode_lr { Vgic.empty_lr with Vgic.lr_state = Irq.Inactive; lr_vintid = 30 };
  check Alcotest.int64 "EISR flags LR1" 2L (Vgic.compute_eisr lrs);
  check Alcotest.int64 "MISR.EOI set" 1L (Vgic.compute_misr lrs)

(* --- GICv2 MMIO frame --- *)

let test_gicv2_decode () =
  let at off = Gicv2.reg_of_offset off in
  check Alcotest.bool "GICH_HCR at 0" true (at 0x0 = Some Gicv2.GICH_HCR);
  check Alcotest.bool "GICH_VMCR at 8" true (at 0x8 = Some Gicv2.GICH_VMCR);
  check Alcotest.bool "GICH_LR0 at 0x100" true (at 0x100 = Some (Gicv2.GICH_LR 0));
  check Alcotest.bool "GICH_LR3 at 0x10c" true (at 0x10c = Some (Gicv2.GICH_LR 3));
  check Alcotest.bool "hole decodes to None" true (at 0x0c = None)

let test_gicv2_to_ich () =
  check Alcotest.bool "GICH_HCR -> ICH_HCR_EL2" true
    (Gicv2.to_ich Gicv2.GICH_HCR = Some Arm.Sysreg.ICH_HCR_EL2);
  check Alcotest.bool "GICH_LR5 -> ICH_LR5_EL2" true
    (Gicv2.to_ich (Gicv2.GICH_LR 5) = Some (Arm.Sysreg.ICH_LR_EL2 5));
  check Alcotest.bool "out-of-range LR -> None" true
    (Gicv2.to_ich (Gicv2.GICH_LR 40) = None)

let test_gicv2_frame_addressing () =
  check Alcotest.bool "address inside the frame decodes" true
    (Gicv2.decode_access (Int64.add Gicv2.gich_base 0x8L) = Some Gicv2.GICH_VMCR);
  check Alcotest.bool "address outside decodes to None" true
    (Gicv2.decode_access 0x1000L = None)

(* The guest hypervisor fills a list register with [pending_lr]'s word,
   built without a record: it must be the record encoding's word for
   every interrupt ID the model has (SGIs, PPIs, SPIs and the special
   IDs up to 1023), and for the ends of the 32-bit field. *)
let test_pending_lr_word () =
  List.iter
    (fun lr_vintid ->
      let expected =
        Vgic.encode_lr { Vgic.empty_lr with lr_state = Irq.Pending; lr_vintid }
      in
      if not (Int64.equal (Vgic.pending_lr lr_vintid) expected) then
        Alcotest.failf "pending_lr %d: 0x%Lx, encode_lr gives 0x%Lx" lr_vintid
          (Vgic.pending_lr lr_vintid) expected)
    (List.init 1024 Fun.id @ [ Irq.virtio_net_spi; 8192; 0xffff_ffff ])

let suite =
  [
    qtest test_state_bits_roundtrip;
    qtest test_state_machine_invariants;
    ("irq: intid kinds", `Quick, test_intid_kinds);
    ("dist: acknowledge and EOI", `Quick, test_dist_ack_eoi);
    ("dist: disabled interrupts invisible", `Quick, test_dist_disabled_not_delivered);
    ("dist: priority order", `Quick, test_dist_priority);
    ("dist: SGI routing", `Quick, test_dist_sgi_routing);
    ("dist: SGI intid validation", `Quick, test_dist_sgi_bad_intid);
    ("dist: equal-priority tie-break order", `Quick, test_dist_tie_break_order);
    qtest test_lr_roundtrip;
    ("vgic: inject/ack/EOI lifecycle", `Quick, test_inject_ack_eoi);
    ("vgic: acknowledge priority order", `Quick, test_ack_priority_order);
    ("vgic: LR exhaustion", `Quick, test_lr_exhaustion);
    ("vgic: EOI with wrong vintid", `Quick, test_eoi_wrong_vintid);
    ("vgic: EISR/ELRSR/MISR", `Quick, test_status_registers);
    qtest test_lr_words_match_records;
    ("vgic: pending LR word == encode_lr of the record", `Quick,
     test_pending_lr_word);
    ("gicv2: MMIO offset decoding", `Quick, test_gicv2_decode);
    ("gicv2: mapping to ICH registers", `Quick, test_gicv2_to_ich);
    ("gicv2: frame addressing", `Quick, test_gicv2_frame_addressing);
  ]
