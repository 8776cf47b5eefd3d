(* Versioned, byte-deterministic snapshots of the complete machine.

   A snapshot is the canonical bytes of a typed value (ints, bools,
   strings, lists, named records; see {!Codec}): fixed-width big-endian
   payloads, length-prefixed strings, fields written in a fixed order and
   every hash table written through a sorted view.  Saving the same
   machine twice therefore yields byte-identical images, which is what
   lets the fuzzer compare run-to-completion against
   snapshot/restore/resume, and lets live migration assert the
   destination equals the source.

   Each component is declared once, as fields with a name, a getter, a
   setter and a typed codec; [save], [restore], [diff] and [leaves] all
   derive from the declarations, reading and writing the image's bytes
   directly, and every codec carries its check: int ranges (NZCV 0..15,
   list-register counts 0..Sysreg.lr_count, ncpus 1..Vcpu.max_vcpus,
   costs 0..2^32, counters non-negative, version 1, every int within 63
   bits), enumerations (EL, mechanism, revision, scenario, trap and
   fault kinds, OoH features, exposure bits), lengths (ncpus entries per per-vCPU list, Cpu.nregs
   GPRs per frame, Sysreg.count values and dirty bytes per file, 43
   costs, 4 watermarks, at most Cpu.trail_depth trail entries) and
   8-byte-aligned memory addresses.  Cross-field rules keep one custom
   codec each, written and read as bytes (see [counts], [keeps_trail],
   [trail], [shadow], [tamper], [memory_words], [Opt] in place).

   The image covers everything mutable: physical memory (canonical
   nonzero-word list plus MMIO regions), each CPU's PC/GPRs/PSTATE,
   system-register file with its dirty bitmap, GPR trap snapshots, NV2
   ablation mask and cost meter (including the per-kind trap counters),
   a checked machine's trap trails, each host hypervisor's vCPU — both
   virtual register files, the virtual-EL2 flag — shadow-stage-2 tables,
   each guest hypervisor's software state, the fault plan's PRNG cursor
   and event ledger, invariant watermarks and recorded violations.

   The NEVE deferred access page needs no special handling precisely
   because the snapshot captures rather than drains it: the page's slots
   live in guest memory and the fold of the guest hypervisor's execution
   mapping back into the virtual EL2 file happens only at its trapped
   eret (Host_hyp.emulate_eret).  Draining at snapshot time would be a
   hidden fold — it would mutate register state mid-flight and diverge
   from an undisturbed run the moment the guest hypervisor touches a
   twin-redirected register again.  Capturing the raw page plus both
   virtual files reproduces the eventual fold exactly.  For diagnostics
   the image also carries a derived "deferred_page" view (the VNCR layout
   slots decoded by register name) so {!diff} can name a diverging slot;
   restore ignores it, memory already holds the truth.

   Closures are never serialized.  Everything closure-shaped on the
   machine (EL2 handlers, IPI senders, the vEL2-entry hook, the stage-2
   injection point) is deterministically rebuilt by [Machine.create]
   from the serialized configuration; the one-shot sysreg-corruption
   thunk is re-armed from the restored plan.  Device MMIO backends
   ([Guest_hyp.on_mmio]) are the caller's to re-attach. *)

module Memory = Arm.Memory
module Cpu = Arm.Cpu
module Sysreg = Arm.Sysreg
module Sysreg_file = Arm.Sysreg_file
module Pstate = Arm.Pstate
module Features = Arm.Features
module Trap_rules = Arm.Trap_rules
module Config = Hyp.Config
module Machine = Hyp.Machine
module Host_hyp = Hyp.Host_hyp
module Guest_hyp = Hyp.Guest_hyp
module Gaccess = Hyp.Gaccess
module Vcpu = Hyp.Vcpu
module Plan = Fault.Plan
module Invariants = Fault.Invariants

open Codec

let magic = "NEVE-SNAP"
let version = 1

exception Format_error = Codec.Format_error

(* The codecs and component declarations below are functions: [declare]
   builds the machine's whole declaration from them once per domain, on
   first use (see [declaration]). *)

(* The vGIC save/restore loops run once per used list register. *)
let lrs () = Int (0, Sysreg.lr_count)

(* The largest cost-table entry a snapshot may carry: 2^32 cycles, far
   above any calibration (the largest default entry is 150,000) and far
   enough below [max_int] that a per-operation product stays exact.
   [Cost.charge] asserts a non-negative cost, and the hypervisors
   multiply entries by context sizes (the deferred page's length times
   [mem_load]), which must not wrap. *)
let max_cost = 1 lsl 32

let el () = enum "EL" Pstate.[ (EL0, 0); (EL1, 1); (EL2, 2) ]
let mech () = enum "mechanism" Config.[ (Hw_v8_3, 0); (Pv_v8_3, 1); (Hw_neve, 2); (Pv_neve, 3) ]
let revision () = enum "revision" Features.[ (V8_0, 0); (V8_1, 1); (V8_3, 3); (V8_4, 4) ]
let trap_kind () = indexed "trap kind" Cost.all_trap_kinds
let fault_kind () = indexed "fault kind" Plan.all_kinds

let feature () =
  enum "OoH feature" (List.map (fun f -> (f, Cost.exposed_index f)) Expose.Policy.all_features)

let scenario () =
  let name s = (s, Name (Host_hyp.scenario_name s)) in
  Enum { what = "scenario"; members = Host_hyp.[ name Single_vm; name Nested ] }

let exposure () =
  conv Expose.Policy.to_bits
    (fun b ->
      match Expose.Policy.of_bits b with Some p -> p | None -> fail "bad exposure bits 0x%x" b)
    int

(* Each record is declared under a local open of its module, for its
   field labels; no opened module defines a name this file declares. *)
let pstate () =
  Pstate.(
    record
      [ field "el" (el ()) (fun p -> p.el) (Update (fun p el -> { p with el }));
        field "sp_sel" Bool (fun p -> p.sp_sel) (Update (fun p sp_sel -> { p with sp_sel }));
        field "irq_masked" Bool (fun p -> p.irq_masked)
          (Update (fun p irq_masked -> { p with irq_masked }));
        field "fiq_masked" Bool (fun p -> p.fiq_masked)
          (Update (fun p fiq_masked -> { p with fiq_masked }));
        field "nzcv" (Int (0, 15)) (fun p -> p.nzcv) (Update (fun p nzcv -> { p with nzcv })) ])

let sysreg_file () =
  Sysreg_file.(
    record
      [ field "values" (words Sysreg.count (fun f -> f.values)) Fun.id In_place;
        field "dirty" (Bytes Sysreg.count) (fun f -> Bytes.to_string f.dirty)
          (Set (fun f s -> Bytes.blit_string s 0 f.dirty 0 Sysreg.count)) ])

(* A meter's per-kind and per-feature counts: canonical member order,
   zero counts omitted. *)
let rec fill_counts index a = function
  | [] -> ()
  | (k, c) :: tl ->
    a.(index k) <- c;
    fill_counts index a tl

let counts code members index =
  let entries = List (Pair (code, int)) in
  Into
    { enc =
        (fun o a ->
          put_list_of o (fun o ->
              List.fold_left
                (fun n k ->
                  match a.(index k) with
                  | 0 -> n
                  | c ->
                    put_list o 2;
                    write o code k;
                    put_int o c;
                    n + 1)
                0 members));
      dec =
        (fun _ a i ->
          Array.fill a 0 (Array.length a) 0;
          fill_counts index a (read None entries i);
          a) }

(* The meter node keeps its historical field names: "logging" is whether
   the CPU keeps a trap trail, which must agree with the image's
   "checking" that built the machine, and "log" is the trail, newest
   first, no longer than the CPU's slots (none without a trail). *)
let keeps c = Option.is_some c.Cpu.trail

let keeps_trail =
  Into
    { enc = (fun o c -> put_bool o (keeps c));
      dec =
        (fun _ c i ->
          let b = read None Bool i in
          if b <> keeps c then fail "%b, but the image's checking is %b" b (keeps c);
          c) }

let trail () =
  let entries = List (Pair (trap_kind (), Str)) in
  Into
    { enc = (fun o c -> write o entries (Cpu.trail_entries c));
      dec =
        (fun _ c i ->
          let l = read None entries i and slots = if keeps c then Cpu.trail_depth else 0 in
          if List.length l > slots then fail "%d entries, this CPU keeps %d" (List.length l) slots;
          Cpu.load_trail c l;
          c) }

let meter () =
  let m (c : Cpu.t) = c.meter in
  Cost.(
    record
      [ field "cycles" nat (fun c -> (m c).cycles) (Set (fun c v -> (m c).cycles <- v));
        field "insns" nat (fun c -> (m c).insns) (Set (fun c v -> (m c).insns <- v));
        field "traps" nat (fun c -> (m c).traps) (Set (fun c v -> (m c).traps <- v));
        field "mem_accesses" nat (fun c -> (m c).mem_accesses)
          (Set (fun c v -> (m c).mem_accesses <- v));
        field "tid" nat (fun c -> (m c).tid) (Set (fun c v -> (m c).tid <- v));
        field "logging" keeps_trail Fun.id In_place;
        field "by_kind" (counts (trap_kind ()) all_trap_kinds kind_index) (fun c -> (m c).by_kind)
          In_place;
        field "exposed"
          (counts (feature ()) Expose.Policy.all_features exposed_index)
          (fun c -> (m c).exposed) In_place;
        field "log" (trail ()) Fun.id In_place ])

let features () =
  Features.(
    record
      [ field "revision" (revision ()) (fun f -> f.revision)
          (Update (fun f revision -> { f with revision }));
        field "gicv3" Bool (fun f -> f.gicv3) (Update (fun f gicv3 -> { f with gicv3 })) ])

let nv2_mask () =
  Trap_rules.(
    record
      [ field "defer" Bool (fun m -> m.m_defer) (Update (fun m m_defer -> { m with m_defer }));
        field "redirect" Bool (fun m -> m.m_redirect)
          (Update (fun m m_redirect -> { m with m_redirect }));
        field "cached" Bool (fun m -> m.m_cached)
          (Update (fun m m_cached -> { m with m_cached })) ])

(* hcr_raw/hcr_cached are recomputed lazily from the HCR_EL2 sysreg
   (Cpu.route re-decodes on mismatch), so they are not format. *)
let cpu () =
  Cpu.(
    record
      [ field "pc" word pc (Set set_pc);
        field "regs" (words nregs (fun c -> c.regs)) Fun.id In_place;
        field "pstate" (pstate ()) (fun c -> c.pstate) (Set (fun c p -> c.pstate <- p));
        field "sysregs" (sysreg_file ()) (fun c -> c.sysregs) In_place;
        field "features" (features ()) (fun c -> c.features) (Set (fun c f -> c.features <- f));
        field "el1_vectors" Bool (fun c -> c.el1_vectors)
          (Set (fun c v -> c.el1_vectors <- v));
        field "saved_regs" (List (Array (nregs, word))) saved_frames (Set set_saved_frames);
        field "nv2_mask" (nv2_mask ()) (fun c -> c.nv2_mask) (Set (fun c m -> c.nv2_mask <- m));
        (* the armed OoH routing grant (non-none while the snapshot caught
           the guest hypervisor in virtual EL2) *)
        field "expose" (exposure ()) (fun c -> c.expose) (Set (fun c p -> c.expose <- p));
        field "meter" (meter ()) Fun.id In_place ])

let vcpu () =
  Vcpu.(
    record
      [ field "in_vel2" Bool (fun v -> v.in_vel2) (Set (fun v b -> v.in_vel2 <- b));
        field "nested_launched" Bool (fun v -> v.nested_launched)
          (Set (fun v b -> v.nested_launched <- b));
        field "used_lrs" (lrs ()) (fun v -> v.used_lrs) (Set (fun v n -> v.used_lrs <- n));
        field "vel1" (sysreg_file ()) (fun v -> v.vel1) In_place;
        field "vel2" (sysreg_file ()) (fun v -> v.vel2) In_place ])

(* The shadow stage-2 as the image holds it.  Its three tables may share
   one bump allocator; each names its allocator by index into [allocs],
   so restore rebuilds the same sharing. *)
type table_ref = { base : int64; vmid : int; alloc : int }

type shadow_view = {
  shadow : table_ref;
  guest : table_ref;
  host : table_ref;
  faults : int;
  entries : int64 list;
  allocs : Mmu.Walk.allocator list;
}

let no_table = { base = 0L; vmid = 0; alloc = 0 }

let table_ref () =
  record ~zero:no_table
    [ field "base" word (fun t -> t.base) (Update (fun t base -> { t with base }));
      field "vmid" int (fun t -> t.vmid) (Update (fun t vmid -> { t with vmid }));
      field "alloc" int (fun t -> t.alloc) (Update (fun t alloc -> { t with alloc })) ]

let shadow_view () =
  record
    ~zero:
      { shadow = no_table; guest = no_table; host = no_table; faults = 0; entries = [];
        allocs = [] }
    [ field "shadow" (table_ref ()) (fun v -> v.shadow)
        (Update (fun v shadow -> { v with shadow }));
      field "guest" (table_ref ()) (fun v -> v.guest) (Update (fun v guest -> { v with guest }));
      field "host" (table_ref ()) (fun v -> v.host) (Update (fun v host -> { v with host }));
      field "faults" int (fun v -> v.faults) (Update (fun v faults -> { v with faults }));
      field "entries" (List word) (fun v -> v.entries)
        (Update (fun v entries -> { v with entries }));
      field "allocs"
        (List (conv (fun a -> a.Mmu.Walk.next) (fun next -> { Mmu.Walk.next }) word))
        (fun v -> v.allocs)
        (Update (fun v allocs -> { v with allocs })) ]

let view_of_shadow (sh, guest_s2, host_s2) =
  let allocs = ref [] in
  let table (s : Mmu.Stage2.t) =
    let rec index i = function
      | [] ->
        allocs := !allocs @ [ s.alloc ];
        i
      | x :: tl -> if x == s.alloc then i else index (i + 1) tl
    in
    { base = s.base; vmid = s.vmid; alloc = index 0 !allocs }
  in
  let shadow = table sh.Mmu.Shadow.shadow in
  let guest = table guest_s2 in
  let host = table host_s2 in
  { shadow; guest; host; faults = sh.Mmu.Shadow.faults; entries = sh.entries; allocs = !allocs }

let shadow_of_view mem v =
  let allocs = Array.of_list v.allocs in
  let s2 t =
    if t.alloc < 0 || t.alloc >= Array.length allocs then fail "bad allocator index %d" t.alloc;
    { Mmu.Stage2.mem; alloc = allocs.(t.alloc); base = t.base; vmid = t.vmid }
  in
  ( { Mmu.Shadow.shadow = s2 v.shadow; faults = v.faults; entries = v.entries },
    s2 v.guest,
    s2 v.host )

(* Read in place because the tables need the host's memory. *)
let shadow () =
  let view = Opt (shadow_view ()) in
  Into
    { enc = (fun o h -> write o view (Option.map view_of_shadow h.Host_hyp.shadow));
      dec =
        (fun _ h i ->
          let mem = h.Host_hyp.cpu.Cpu.mem in
          h.Host_hyp.shadow <- Option.map (shadow_of_view mem) (read None view i);
          h) }

(* Derived view of the NEVE deferred access page, slot by register name:
   lets diff say "deferred_page.SPSR_EL1" instead of a raw memory
   address.  Restore skips it — the words section already carries the
   page. *)
let deferred_page () =
  let slot = Bytes.create 8 in
  Into
    { enc =
        (fun o (page : Core.Deferred_page.t) ->
          put_record o Core.Deferred_page.layout_len;
          List.iter
            (fun r ->
              put_name o (Sysreg.name r);
              Memory.load_into page.mem ~base:page.base (Sysreg.vncr_slot r) slot 0;
              put_word_at o slot 0)
            Sysreg.vncr_layout);
      dec = (fun _ _ _ -> invalid_arg "Snap.Image: the deferred-page view is not read") }

let host () =
  Host_hyp.(
    record
      [ field "vcpu" (vcpu ()) (fun h -> h.vcpu) In_place;
        field "shadow_vttbr" word (fun h -> h.shadow_vttbr)
          (Set (fun h v -> h.shadow_vttbr <- v));
        field "in_l1" Bool (fun h -> h.in_l1) (Set (fun h v -> h.in_l1 <- v));
        field "exits" nat (fun h -> h.exits) (Set (fun h v -> h.exits <- v));
        field "undef_injected" nat (fun h -> h.undef_injected)
          (Set (fun h v -> h.undef_injected <- v));
        field "pending_vserror" (Opt word) (fun h -> h.pending_vserror)
          (Set (fun h v -> h.pending_vserror <- v));
        field "serror_contained" nat (fun h -> h.serror_contained)
          (Set (fun h v -> h.serror_contained <- v));
        field "serror_injected" nat (fun h -> h.serror_injected)
          (Set (fun h v -> h.serror_injected <- v));
        field "pending_irq" (Opt int) (fun h -> h.pending_irq)
          (Set (fun h v -> h.pending_irq <- v));
        field "l2_is_hyp" Bool (fun h -> h.l2_is_hyp) (Set (fun h v -> h.l2_is_hyp <- v));
        field "l2_vncr" (Opt word) (fun h -> h.l2_vncr) (Set (fun h v -> h.l2_vncr <- v));
        field "shadow" (shadow ()) Fun.id In_place;
        field "deferred_page" (deferred_page ()) (fun h -> h.page) Skip ])

(* The corruption thunk is a pure function of the plan, whose PRNG
   cursor is itself restored — re-arming reproduces the same mask. *)
let tamper =
  Into
    { enc = (fun o t -> put_bool o (Option.is_some t));
      dec =
        (fun plan _ i ->
          match plan with
          | Some p -> if read None Bool i then Some (Plan.corrupt p) else None
          | None ->
            skip i;
            None) }

let ghyp () =
  Guest_hyp.(
    record
      [ field "used_lrs" (lrs ()) (fun g -> g.used_lrs) (Set (fun g n -> g.used_lrs <- n));
        field "cntvoff" word (fun g -> g.cntvoff) (Set (fun g v -> g.cntvoff <- v));
        field "pending_virqs" (List int) pending_virqs (Set set_pending_virqs);
        field "nested_elr" word nested_elr (Set set_nested_elr);
        field "nested_spsr" word nested_spsr (Set set_nested_spsr);
        field "exits_handled" nat (fun g -> g.exits_handled)
          (Set (fun g v -> g.exits_handled <- v));
        field "debug_active" Bool (fun g -> g.debug_active)
          (Set (fun g v -> g.debug_active <- v));
        field "pmu_active" Bool (fun g -> g.pmu_active) (Set (fun g v -> g.pmu_active <- v));
        field "tamper_armed" tamper (fun g -> g.ga.Gaccess.tamper)
          (Set (fun g t -> g.ga.Gaccess.tamper <- t)) ])

let plan () =
  Plan.(
    conv to_raw of_raw
      (record
         ~zero:{ raw_seed = 0; raw_rng = 0L; raw_events = []; raw_injected = [] }
         [ field "seed" int (fun r -> r.raw_seed)
             (Update (fun r raw_seed -> { r with raw_seed }));
           field "rng" word (fun r -> r.raw_rng) (Update (fun r raw_rng -> { r with raw_rng }));
           field "events" (List (Triple (int, fault_kind (), Bool))) (fun r -> r.raw_events)
             (Update (fun r raw_events -> { r with raw_events }));
           field "injected" (List (Pair (int, fault_kind ()))) (fun r -> r.raw_injected)
             (Update (fun r raw_injected -> { r with raw_injected })) ]))

let violation () =
  Invariants.(
    record
      ~zero:{ v_name = ""; v_cpu = 0; v_el = Pstate.EL0; v_pc = 0L; v_detail = ""; v_events = [] }
      [ field "name" Str (fun v -> v.v_name) (Update (fun v v_name -> { v with v_name }));
        field "cpu" int (fun v -> v.v_cpu) (Update (fun v v_cpu -> { v with v_cpu }));
        field "el" (el ()) (fun v -> v.v_el) (Update (fun v v_el -> { v with v_el }));
        field "pc" word (fun v -> v.v_pc) (Update (fun v v_pc -> { v with v_pc }));
        field "detail" Str (fun v -> v.v_detail)
          (Update (fun v v_detail -> { v with v_detail }));
        field "events" (List Str) (fun v -> v.v_events)
          (Update (fun v v_events -> { v with v_events })) ])

(* Memory: the canonical nonzero-word list, [address; value] in address
   order, written page by page from each page's nonzero words and read
   straight into the machine's memory at 8-byte-aligned addresses; and
   the MMIO layout.  [pairs] holds one page's words while they are
   written. *)
let memory_words () =
  let pairs = Bytes.create (Mmu.Walk.page_size / 8 * 16) in
  let put_page mem o n pi =
    let e = Memory.page_nonzero mem pi pairs 0 in
    for k = 0 to (e / 16) - 1 do
      put_list o 2;
      put_word_at o pairs (16 * k);
      put_word_at o pairs ((16 * k) + 8)
    done;
    n + (e / 16)
  in
  Into
    { enc =
        (fun o mem ->
          put_list_of o (fun o -> List.fold_left (put_page mem o) 0 (Memory.sorted_pages mem)));
      dec =
        (fun _ mem i ->
          Memory.clear mem;
          for _ = 1 to list_node i do
            let a = word_pair i ~align:8 ~bad:"bad memory word" in
            Memory.store_be mem i.s ~addr:a ~value:(a + 9)
          done;
          mem) }

let memory () =
  record
    [ field "words" (memory_words ()) Fun.id In_place;
      field ~topology:true "mmio" (List (Triple (word, word, Str))) (fun mem -> mem.Memory.mmio)
        (Set (fun mem l -> mem.Memory.mmio <- l)) ]

(* the four watermarks of [Invariants.state_dump] *)
let watermarks () =
  let of_dump a =
    let s = Invariants.state () in
    Invariants.state_load s a;
    s
  in
  conv Invariants.state_dump of_dump (Array (4, int))

(* The machine.  The fields marked [Skip] parameterize [Machine.create];
   [restore] reads them by themselves, first. *)
type declaration = {
  machine : Machine.t field list;
  out : out;  (* where this domain's images are written *)
  magic_f : (Machine.t, unit) fld;
  version_f : (Machine.t, int) fld;
  config_f : (Machine.t, Config.t) fld;
  scenario_f : (Machine.t, Host_hyp.scenario) fld;
  expose_f : (Machine.t, Expose.Policy.t) fld;
  ncpus_f : (Machine.t, int) fld;
  table_f : (Machine.t, Cost.table) fld;
  checking_f : (Machine.t, bool) fld;
  fault_f : (Machine.t, Plan.t option) fld;
}

let declare () =
  let magic_f =
    let check s = if s <> magic then fail "not a NEVE snapshot (bad magic)" in
    fld "magic" (conv (fun () -> magic) check Str) ignore Skip
  in
  let version_f = fld "version" (Int (version, version)) (fun _ -> version) Skip in
  let config_f =
    Config.(
      fld ~topology:true "config"
        (record ~zero:(v Hw_v8_3)
           [ field "mech" (mech ()) (fun c -> c.mech) (Update (fun c mech -> { c with mech }));
             field "guest_vhe" Bool (fun c -> c.guest_vhe)
               (Update (fun c guest_vhe -> { c with guest_vhe }));
             field "gicv2" Bool (fun c -> c.gicv2) (Update (fun c gicv2 -> { c with gicv2 })) ])
        (fun m -> m.Machine.config) Skip)
  in
  let scenario_f = fld ~topology:true "scenario" (scenario ()) (fun m -> m.Machine.scenario) Skip in
  let expose_f = fld ~topology:true "expose" (exposure ()) (fun m -> m.Machine.expose) Skip in
  let ncpus_f = fld ~topology:true "ncpus" (Int (1, Vcpu.max_vcpus)) Machine.ncpus Skip in
  let table_f =
    fld "table"
      (conv Cost.table_to_array Cost.table_of_array (Array (Cost.table_size, Int (0, max_cost))))
      (fun m -> m.Machine.cpus.(0).Cpu.meter.Cost.table)
      Skip
  in
  let checking_f = fld "checking" Bool (fun m -> m.Machine.checking) Skip in
  let fault_f = fld "fault" (Opt (plan ())) (fun m -> m.Machine.fault) Skip in
  let machine =
    Machine.
      [ F magic_f; F version_f; F config_f; F scenario_f; F expose_f; F ncpus_f; F table_f;
        F checking_f;
        field "mem" (memory ()) (fun m -> m.mem) In_place;
        field "cpus" (each (cpu ())) (fun m -> m.cpus) In_place;
        field "hosts" (each (host ())) (fun m -> m.hosts) In_place;
        field "ghyps" (each (Opt (ghyp ()))) (fun m -> m.ghyps) In_place;
        F fault_f;
        field "inv_states" (each (watermarks ())) (fun m -> m.inv_states) In_place;
        field "violations" (List (violation ())) (fun m -> m.violations)
          (Set (fun m v -> m.violations <- v));
        field "violation_count" nat (fun m -> m.violation_count)
          (Set (fun m v -> m.violation_count <- v));
        field "irq_fault" (each (Opt (fault_kind ()))) (fun m -> m.irq_fault) In_place;
        field "hung" (each Bool) (fun m -> m.hung) In_place ]
  in
  { machine; out = out (); magic_f; version_f; config_f; scenario_f; expose_f; ncpus_f; table_f;
    checking_f; fault_f }

(* Built on first use in each domain, so that a program that never
   takes a snapshot allocates nothing for the declarations: the
   benchmark workloads that take none keep the heap they had. *)
let declared = Domain.DLS.new_key declare

let declaration () = Domain.DLS.get declared

let to_string m =
  let d = declaration () in
  Codec.to_string d.out d.machine m

let save m =
  let s = to_string m in
  let b = Buffer.create (String.length s) in
  Buffer.add_string b s;
  b

let restore s =
  let i = validate s in
  let d = declaration () in
  read_named None d.magic_f i;
  ignore (read_named None d.version_f i : int);
  let config = read_named None d.config_f i in
  let scenario = read_named None d.scenario_f i in
  let expose = read_named None d.expose_f i in
  let ncpus = read_named None d.ncpus_f i in
  let table = read_named None d.table_f i in
  let checking = read_named None d.checking_f i in
  let plan = read_named None d.fault_f i in
  (* Rebuild the skeleton — handlers, hooks, IPI wiring, injection point
     — exactly as the original was built, then overwrite every mutable
     field from the image. *)
  let m =
    Machine.create ?fault_plan:plan ~check_invariants:checking ~ncpus ~table ~expose config
      scenario
  in
  load plan d.machine m i

let leaves m = walk (declaration ()).machine m

(* Machines of different shapes (cpu count, mechanism, memory layout)
   are not state-divergent, they are incomparable: report the differing
   topology field as a topology mismatch, instead of a misleading
   "cpus: 2 vs 4 elements" state diff. *)
let diff m1 m2 =
  let s1 = to_string m1 in
  let s2 = to_string m2 in
  match topology (declaration ()).machine s1 s2 with
  | Some (path, detail) -> Some (path, "topology mismatch: " ^ detail)
  | None -> Codec.diff s1 s2
