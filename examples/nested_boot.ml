(* Booting a nested VM with real shadow stage-2 page tables.

   This example exercises the memory-virtualization path of Section 4:
   - the guest hypervisor (L1) owns a stage-2 table translating the nested
     VM's physical addresses (L2 IPA -> L1 PA);
   - the host hypervisor (L0) owns a stage-2 table translating the guest
     hypervisor's physical addresses (L1 PA -> machine PA);
   - the nested VM's accesses fault into L0, which lazily collapses both
     into shadow stage-2 entries (L2 IPA -> machine PA), exactly like
     Turtles on x86.

   Run with: dune exec examples/nested_boot.exe *)

module Machine = Hyp.Machine

let page = 0x1000L

let () =
  let config = Hyp.Config.v Hyp.Config.Hw_neve in
  let m = Machine.create ~ncpus:1 config Hyp.Host_hyp.Nested in
  let mem = m.Machine.mem in
  let alloc = Mmu.Walk.allocator ~start:0x8_0000_0000L in

  (* L1's stage-2: map the nested VM's first 16 "RAM" pages at L1 PAs
     starting at 0x4800_0000; leave everything else (devices!) unmapped. *)
  let guest_s2 = Mmu.Stage2.create mem alloc ~vmid:7 in
  Mmu.Stage2.map_range guest_s2 ~ipa:0x0L ~pa:0x4800_0000L
    ~len:(Int64.mul 16L page) ~perms:Mmu.Pte.rwx;

  (* L0's stage-2: map L1's view of RAM onto machine pages at 0x9000_0000. *)
  let host_s2 = Mmu.Stage2.create mem alloc ~vmid:1 in
  Mmu.Stage2.map_range host_s2 ~ipa:0x4800_0000L ~pa:0x9000_0000L
    ~len:(Int64.mul 16L page) ~perms:Mmu.Pte.rwx;

  let shadow = Machine.install_shadow m ~cpu:0 ~guest_s2 ~host_s2 in
  Machine.boot m;

  Fmt.pr "nested VM booted; shadow stage-2 is empty (%d pages)@."
    (Mmu.Shadow.shadowed_pages shadow);

  (* The nested VM touches its RAM: each first touch faults to L0, which
     collapses the two stage-2 translations into a shadow entry. *)
  let meter = m.Machine.cpus.(0).Arm.Cpu.meter in
  for i = 0 to 15 do
    let addr = Int64.mul (Int64.of_int i) page in
    Machine.data_abort m ~cpu:0 ~addr ~is_write:true
  done;
  Fmt.pr "after touching 16 pages: %d shadow entries, %d stage-2 faults@."
    (Mmu.Shadow.shadowed_pages shadow) shadow.Mmu.Shadow.faults;

  (* Verify the collapsed translation end to end. *)
  (match Mmu.Shadow.translate shadow ~l2_ipa:0x3008L ~is_write:false with
   | Ok tr ->
     Fmt.pr "shadow translation: L2 IPA 0x3008 -> machine PA 0x%Lx@."
       tr.Mmu.Walk.t_pa
   | Error f -> Fmt.pr "unexpected fault: %a@." Mmu.Walk.pp_fault f);

  (* A second pass over the same pages: the shadow is warm, so the nested
     VM runs without any stage-2 exits. *)
  let before = Cost.snapshot meter in
  (* (nothing faults: the pages are mapped; model the VM computing) *)
  Machine.compute m ~cpu:0 ~insns:10_000;
  let d = Cost.delta_since meter before in
  Fmt.pr "warm run: %d traps (shadow hits need no exits)@." d.Cost.d_traps;

  Fmt.pr "done.@."
