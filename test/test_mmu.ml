(* Tests for the MMU: descriptors, walks, shadow stage-2 collapse, and
   the TLB. *)

module Memory = Arm.Memory

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let perms_gen =
  QCheck.Gen.(
    let* readable = bool in
    let* writable = bool in
    let* executable = bool in
    return { Mmu.Pte.readable; writable; executable })

let test_pte_roundtrip =
  QCheck.Test.make ~count:300 ~name:"pte: page descriptor roundtrip"
    (QCheck.make
       ~print:(fun (a, p) ->
         Fmt.str "0x%Lx r=%b w=%b x=%b" a p.Mmu.Pte.readable p.Mmu.Pte.writable
           p.Mmu.Pte.executable)
       QCheck.Gen.(
         let* page = int_bound 0xfffff in
         let* perms = perms_gen in
         return (Int64.of_int (page * 4096), perms)))
    (fun (output, perms) ->
      let d = { Mmu.Pte.kind = Mmu.Pte.Page; output; perms } in
      Mmu.Pte.decode ~level:3 (Mmu.Pte.encode ~level:3 d) = d)

let test_pte_invalid () =
  check Alcotest.bool "zero decodes invalid" true
    (Mmu.Pte.decode ~level:3 0L = Mmu.Pte.invalid);
  check Alcotest.int64 "invalid encodes to zero" 0L
    (Mmu.Pte.encode ~level:1 Mmu.Pte.invalid)

let test_pte_table_at_level3_rejected () =
  match
    Mmu.Pte.encode ~level:3
      { Mmu.Pte.kind = Mmu.Pte.Table; output = 0x1000L; perms = Mmu.Pte.rwx }
  with
  | _ -> Alcotest.fail "table at level 3 should be rejected"
  | exception Invalid_argument _ -> ()

let fresh_world () =
  let mem = Memory.create () in
  let alloc = Mmu.Walk.allocator ~start:0x10_0000L in
  (mem, alloc)

let test_map_and_walk () =
  let mem, alloc = fresh_world () in
  let s2 = Mmu.Stage2.create mem alloc ~vmid:1 in
  Mmu.Stage2.map_page s2 ~ipa:0x8000L ~pa:0x4_0000L ~perms:Mmu.Pte.rw;
  (match Mmu.Stage2.translate s2 ~ipa:0x8123L ~is_write:false with
   | Ok tr ->
     check Alcotest.int64 "offset preserved" 0x4_0123L tr.Mmu.Walk.t_pa;
     check Alcotest.int "resolved at level 3" 3 tr.Mmu.Walk.t_level
   | Error f -> Alcotest.failf "unexpected fault: %a" Mmu.Walk.pp_fault f);
  match Mmu.Stage2.translate s2 ~ipa:0x9000L ~is_write:false with
  | Error { Mmu.Walk.f_reason = `Translation; _ } -> ()
  | _ -> Alcotest.fail "unmapped address should fault"

let test_permission_fault () =
  let mem, alloc = fresh_world () in
  let s2 = Mmu.Stage2.create mem alloc ~vmid:1 in
  Mmu.Stage2.map_page s2 ~ipa:0x8000L ~pa:0x4_0000L ~perms:Mmu.Pte.ro;
  (match Mmu.Stage2.translate s2 ~ipa:0x8000L ~is_write:false with
   | Ok _ -> ()
   | Error f -> Alcotest.failf "read should succeed: %a" Mmu.Walk.pp_fault f);
  match Mmu.Stage2.translate s2 ~ipa:0x8000L ~is_write:true with
  | Error { Mmu.Walk.f_reason = `Permission; _ } -> ()
  | _ -> Alcotest.fail "write to read-only page should permission-fault"

let test_unmap () =
  let mem, alloc = fresh_world () in
  let s2 = Mmu.Stage2.create mem alloc ~vmid:1 in
  Mmu.Stage2.map_page s2 ~ipa:0x8000L ~pa:0x4_0000L ~perms:Mmu.Pte.rw;
  Mmu.Stage2.unmap_page s2 ~ipa:0x8000L;
  match Mmu.Stage2.translate s2 ~ipa:0x8000L ~is_write:false with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unmapped page still translates"

let test_block_mapping () =
  let mem, alloc = fresh_world () in
  let base = Mmu.Walk.alloc_page alloc mem in
  Mmu.Walk.map_block2 mem alloc ~base ~ia:0x20_0000L ~pa:0x4000_0000L
    ~perms:Mmu.Pte.rwx;
  match Mmu.Walk.walk mem ~base ~ia:0x2a_bcd8L ~is_write:true with
  | Ok tr ->
    check Alcotest.int "resolved at level 2" 2 tr.Mmu.Walk.t_level;
    check Alcotest.int64 "2MB block offset" 0x400a_bcd8L tr.Mmu.Walk.t_pa
  | Error f -> Alcotest.failf "block walk failed: %a" Mmu.Walk.pp_fault f

let test_map_range_walk_random =
  QCheck.Test.make ~count:100 ~name:"walk: mapped ranges translate linearly"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 0xffff))
    (fun off ->
      let mem, alloc = fresh_world () in
      let s2 = Mmu.Stage2.create mem alloc ~vmid:3 in
      Mmu.Stage2.map_range s2 ~ipa:0x40_0000L ~pa:0x80_0000L ~len:0x10000L
        ~perms:Mmu.Pte.rw;
      match
        Mmu.Stage2.translate s2 ~ipa:(Int64.add 0x40_0000L (Int64.of_int off))
          ~is_write:false
      with
      | Ok tr -> tr.Mmu.Walk.t_pa = Int64.add 0x80_0000L (Int64.of_int off)
      | Error _ -> false)

let test_shadow_collapse () =
  let mem, alloc = fresh_world () in
  let guest_s2 = Mmu.Stage2.create mem alloc ~vmid:2 in
  let host_s2 = Mmu.Stage2.create mem alloc ~vmid:1 in
  Mmu.Stage2.map_page guest_s2 ~ipa:0x3000L ~pa:0x8_0000L ~perms:Mmu.Pte.rw;
  Mmu.Stage2.map_page host_s2 ~ipa:0x8_0000L ~pa:0x20_0000L ~perms:Mmu.Pte.rw;
  let sh = Mmu.Shadow.create mem alloc ~vmid:9 in
  (* miss, then resolve, then hit *)
  (match Mmu.Shadow.translate sh ~l2_ipa:0x3000L ~is_write:false with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "shadow should start cold");
  (match Mmu.Shadow.handle_fault sh ~guest_s2 ~host_s2 ~l2_ipa:0x3010L ~is_write:true with
   | Mmu.Shadow.Resolved pa -> check Alcotest.int64 "collapsed PA" 0x20_0010L pa
   | _ -> Alcotest.fail "fault should resolve");
  (match Mmu.Shadow.translate sh ~l2_ipa:0x3018L ~is_write:true with
   | Ok tr -> check Alcotest.int64 "warm hit" 0x20_0018L tr.Mmu.Walk.t_pa
   | Error _ -> Alcotest.fail "shadow should be warm");
  check Alcotest.int "one shadowed page" 1 (Mmu.Shadow.shadowed_pages sh)

let test_shadow_guest_fault_reflected () =
  let mem, alloc = fresh_world () in
  let guest_s2 = Mmu.Stage2.create mem alloc ~vmid:2 in
  let host_s2 = Mmu.Stage2.create mem alloc ~vmid:1 in
  let sh = Mmu.Shadow.create mem alloc ~vmid:9 in
  match Mmu.Shadow.handle_fault sh ~guest_s2 ~host_s2 ~l2_ipa:0x5000L ~is_write:false with
  | Mmu.Shadow.Guest_s2_fault _ -> ()
  | _ -> Alcotest.fail "unmapped guest stage-2 should reflect to L1"

let test_shadow_permission_intersection () =
  let mem, alloc = fresh_world () in
  let guest_s2 = Mmu.Stage2.create mem alloc ~vmid:2 in
  let host_s2 = Mmu.Stage2.create mem alloc ~vmid:1 in
  (* guest grants rw; host only ro: the shadow must be ro *)
  Mmu.Stage2.map_page guest_s2 ~ipa:0x3000L ~pa:0x8_0000L ~perms:Mmu.Pte.rw;
  Mmu.Stage2.map_page host_s2 ~ipa:0x8_0000L ~pa:0x20_0000L ~perms:Mmu.Pte.ro;
  let sh = Mmu.Shadow.create mem alloc ~vmid:9 in
  (match Mmu.Shadow.handle_fault sh ~guest_s2 ~host_s2 ~l2_ipa:0x3000L ~is_write:false with
   | Mmu.Shadow.Resolved _ -> ()
   | _ -> Alcotest.fail "read fault should resolve");
  match Mmu.Shadow.translate sh ~l2_ipa:0x3000L ~is_write:true with
  | Error { Mmu.Walk.f_reason = `Permission; _ } -> ()
  | _ -> Alcotest.fail "shadow write should inherit host's read-only"

let test_shadow_invalidate () =
  let mem, alloc = fresh_world () in
  let guest_s2 = Mmu.Stage2.create mem alloc ~vmid:2 in
  let host_s2 = Mmu.Stage2.create mem alloc ~vmid:1 in
  Mmu.Stage2.map_page guest_s2 ~ipa:0x3000L ~pa:0x8_0000L ~perms:Mmu.Pte.rw;
  Mmu.Stage2.map_page host_s2 ~ipa:0x8_0000L ~pa:0x20_0000L ~perms:Mmu.Pte.rw;
  let sh = Mmu.Shadow.create mem alloc ~vmid:9 in
  ignore (Mmu.Shadow.handle_fault sh ~guest_s2 ~host_s2 ~l2_ipa:0x3000L ~is_write:false);
  Mmu.Shadow.invalidate sh;
  check Alcotest.int "no shadowed pages" 0 (Mmu.Shadow.shadowed_pages sh);
  match Mmu.Shadow.translate sh ~l2_ipa:0x3000L ~is_write:false with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalidated shadow still translates"

(* Model-based test: random map/unmap sequences against an association
   list reference. *)
let mmu_op_gen =
  QCheck.Gen.(
    list_size (int_range 1 30)
      (let* page = int_bound 63 in
       let* mapped_to = int_bound 255 in
       let* unmap = bool in
       return (page, mapped_to, unmap)))

let test_mmu_vs_model =
  QCheck.Test.make ~count:100 ~name:"stage2: agrees with a reference model"
    (QCheck.make
       ~print:(fun ops ->
         String.concat ";"
           (List.map (fun (p, m, u) -> Printf.sprintf "%d->%d%s" p m
               (if u then "!" else "")) ops))
       mmu_op_gen)
    (fun ops ->
      let mem, alloc = fresh_world () in
      let s2 = Mmu.Stage2.create mem alloc ~vmid:1 in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (page, mapped_to, unmap) ->
          let ipa = Int64.of_int (page * 4096) in
          if unmap then begin
            Mmu.Stage2.unmap_page s2 ~ipa;
            Hashtbl.remove model page
          end
          else begin
            let pa = Int64.of_int (0x10_0000 + (mapped_to * 4096)) in
            (* the walker refuses remaps; mirror that in the driver *)
            if not (Hashtbl.mem model page) then begin
              Mmu.Stage2.map_page s2 ~ipa ~pa ~perms:Mmu.Pte.rw;
              Hashtbl.replace model page pa
            end
          end)
        ops;
      (* every page agrees with the model *)
      List.for_all
        (fun page ->
          let ipa = Int64.of_int (page * 4096) in
          match
            ( Mmu.Stage2.translate s2 ~ipa ~is_write:false,
              Hashtbl.find_opt model page )
          with
          | Ok tr, Some pa -> tr.Mmu.Walk.t_pa = pa
          | Error _, None -> true
          | _ -> false)
        (List.init 64 Fun.id))

let test_tlb () =
  let tlb = Mmu.Tlb.create ~capacity:8 () in
  check Alcotest.bool "cold miss" true
    (Mmu.Tlb.lookup tlb ~vmid:1 ~asid:0 0x1234L = None);
  Mmu.Tlb.insert tlb ~vmid:1 ~asid:0 ~va:0x1000L ~pa:0x9000L ~perms:Mmu.Pte.rw;
  (match Mmu.Tlb.lookup tlb ~vmid:1 ~asid:0 0x1234L with
   | Some (pa, _) -> check Alcotest.int64 "hit with offset" 0x9234L pa
   | None -> Alcotest.fail "expected hit");
  check Alcotest.bool "other vmid misses" true
    (Mmu.Tlb.lookup tlb ~vmid:2 ~asid:0 0x1234L = None);
  Mmu.Tlb.invalidate_vmid tlb ~vmid:1;
  check Alcotest.bool "invalidated" true
    (Mmu.Tlb.lookup tlb ~vmid:1 ~asid:0 0x1234L = None);
  check Alcotest.bool "hit rate tracked" true (Mmu.Tlb.hit_rate tlb > 0.)

let test_tlb_hit_rate_fresh () =
  (* zero lookups: the rate must be a well-defined 0.0, not 0/0 = NaN *)
  let tlb = Mmu.Tlb.create ~capacity:8 () in
  let r = Mmu.Tlb.hit_rate tlb in
  check Alcotest.bool "not NaN" false (Float.is_nan r);
  check (Alcotest.float 0.0) "fresh TLB rate is 0.0" 0.0 r;
  (* one miss, one hit: rate is exactly 1/2 *)
  ignore (Mmu.Tlb.lookup tlb ~vmid:1 ~asid:0 0x1000L);
  Mmu.Tlb.insert tlb ~vmid:1 ~asid:0 ~va:0x1000L ~pa:0x9000L
    ~perms:Mmu.Pte.rw;
  ignore (Mmu.Tlb.lookup tlb ~vmid:1 ~asid:0 0x1000L);
  check (Alcotest.float 1e-9) "half" 0.5 (Mmu.Tlb.hit_rate tlb)

let test_tlb_set_eviction () =
  let tlb = Mmu.Tlb.create ~capacity:8 () in
  (* flood far past capacity: occupancy must stay bounded by nsets*ways,
     every overflow must be a single-entry eviction, and the most recent
     insert must always still be resident (it just went into its set) *)
  for i = 0 to 63 do
    let va = Int64.of_int (i * 0x1000) in
    Mmu.Tlb.insert tlb ~vmid:1 ~asid:0 ~va ~pa:va ~perms:Mmu.Pte.rw;
    check Alcotest.bool "just-inserted page resident" true
      (Mmu.Tlb.lookup tlb ~vmid:1 ~asid:0 va <> None)
  done;
  let cap = Mmu.Tlb.nsets tlb * Mmu.Tlb.ways tlb in
  check Alcotest.bool "occupancy bounded" true (Mmu.Tlb.occupancy tlb <= cap);
  check Alcotest.bool "evictions counted" true (Mmu.Tlb.evictions tlb > 0);
  (* re-inserting a resident page must not evict anything *)
  let before = Mmu.Tlb.evictions tlb in
  Mmu.Tlb.insert tlb ~vmid:1 ~asid:0 ~va:(Int64.of_int (63 * 0x1000))
    ~pa:0x7000L ~perms:Mmu.Pte.rw;
  check Alcotest.int "refresh does not evict" before (Mmu.Tlb.evictions tlb);
  (* TLBI removals land in the invalidation counter, not evictions *)
  let occ = Mmu.Tlb.occupancy tlb in
  Mmu.Tlb.invalidate_vmid tlb ~vmid:1;
  check Alcotest.int "invalidations counted" occ (Mmu.Tlb.invalidations tlb);
  check Alcotest.int "empty after TLBI" 0 (Mmu.Tlb.occupancy tlb)

(* --- dirty tracking: what a round copies of one page --- *)

(* [Dirty.page_words] writes exactly the page's nonzero words, ascending,
   as (address, value) pairs, whatever else memory holds, and allocates
   nothing. *)
let test_dirty_page_words () =
  let mem = Arm.Memory.create () in
  List.iter
    (fun (a, v) -> Arm.Memory.write64 mem a v)
    [ (0x5008L, 7L); (0x5ff8L, -1L); (0x5010L, 0L); (0x4ff8L, 3L); (0x6000L, 9L);
      (0x8000_5000L, 5L) ];
  let t = Mmu.Dirty.attach mem in
  let buf = Bytes.create (512 * 16) in
  let pairs page =
    let e = Mmu.Dirty.page_words t page buf 0 in
    List.init (e / 16) (fun k ->
        (Bytes.get_int64_ne buf (16 * k), Bytes.get_int64_ne buf ((16 * k) + 8)))
  in
  check
    Alcotest.(list (pair int64 int64))
    "page 0x5000's nonzero words" [ (0x5008L, 7L); (0x5ff8L, -1L) ] (pairs 0x5000L);
  check Alcotest.(list (pair int64 int64)) "an absent page" [] (pairs 0x9000L);
  ignore (pairs 0x5000L);
  let w0 = Gc.minor_words () in
  ignore (Mmu.Dirty.page_words t 0x5000L buf 0 : int);
  check Alcotest.int "words allocated staging a page" 0 (int_of_float (Gc.minor_words () -. w0));
  Mmu.Dirty.detach t

let suite =
  [
    qtest test_pte_roundtrip;
    ("pte: invalid descriptors", `Quick, test_pte_invalid);
    ("pte: level constraints", `Quick, test_pte_table_at_level3_rejected);
    ("walk: map then translate", `Quick, test_map_and_walk);
    ("walk: permission faults", `Quick, test_permission_fault);
    ("walk: unmap", `Quick, test_unmap);
    ("walk: 2MB block mappings", `Quick, test_block_mapping);
    qtest test_map_range_walk_random;
    ("shadow: collapse on fault", `Quick, test_shadow_collapse);
    ("shadow: guest faults reflected", `Quick, test_shadow_guest_fault_reflected);
    ("shadow: permissions intersect", `Quick, test_shadow_permission_intersection);
    ("shadow: invalidation", `Quick, test_shadow_invalidate);
    qtest test_mmu_vs_model;
    ("tlb: hits, misses, invalidation", `Quick, test_tlb);
    ("tlb: hit rate defined on zero lookups", `Quick, test_tlb_hit_rate_fresh);
    ("tlb: per-set eviction and counters", `Quick, test_tlb_set_eviction);
    ("dirty: a page's words, and only its", `Quick, test_dirty_page_words);
  ]
