(* Cross-vCPU TLB shootdown and stage-2 break-before-make.

   Armv8-A's relaxed virtual memory rules ("Relaxed virtual memory in
   Armv8-A", named in PAPERS.md) make two demands of anyone who changes
   a live translation:

   - a changed output address must go through break-before-make: the old
     entry is invalidated (break), the change is broadcast with a TLBI
     and completed with a DSB, and only then may the new entry be
     written (make).  Skipping a step lets two PEs hold different
     translations for the same input address — TLB conflict aborts, or
     silent reads of the stale frame;

   - a TLBI is a *broadcast*: it must reach every PE's TLB (and, for
     nested guests, every shadow stage-2 entry collapsing the page),
     not just the invoking PE's.

   This module owns the machine's shared SMP stage-2 (the ground truth
   the vCPUs race over), one TLB per vCPU, and the break-before-make
   state machine, and it is its own checker: every translation served is
   audited against the protocol, and violations are counted rather than
   silently served.  During the break window (break issued, DSB not yet
   completed) a remote vCPU may still legitimately use its cached copy
   of the *old* mapping — the architecture permits stale use until the
   invalidation completes — so only post-completion service from a
   broken or stale entry is a violation.

   Costs: the invoking vCPU pays the local [tlbi]/[barrier] charges as
   before; each *recipient* of the broadcast is charged
   [Cost.tlbi_recipient] on its own meter, and the initiator pays
   [Cost.dvm_sync] per recipient at the DSB — the distributed-virtual-
   memory completion wait that makes shootdowns scale with the vCPU
   count.  The GIC traffic (the shootdown IPI itself) is driven by the
   machine layer through [Dist.send_sgi], not here. *)

type scope =
  | By_page of int64  (* TLBI IPAS2E1IS: one IPA page *)
  | By_vmid           (* TLBI VMALLS12E1IS: everything under the VMID *)
  | All_e1            (* TLBI ALLE1IS: everything *)

let scope_name = function
  | By_page p -> Printf.sprintf "ipa=0x%Lx" p
  | By_vmid -> "vmid"
  | All_e1 -> "alle1"

(* One page mid-protocol: broken, and — once the broadcast's DSB has
   completed — invalidated everywhere, so stale use is over. *)
type broken = { b_old_pa : int64; mutable b_completed : bool }

type t = {
  vmid : int;
  tlbs : Tlb.t array;              (* one per vCPU *)
  s2 : Stage2.t;                   (* the shared SMP stage-2 *)
  truth : (int64, int64) Hashtbl.t;  (* page -> pa the tables hold now *)
  broken : (int64, broken) Hashtbl.t; (* pages between break and make *)
  (* checker verdicts *)
  mutable stale_serves : int;      (* hit disagreed with the tables, not
                                      covered by a break window *)
  mutable broken_serves : int;     (* served from a broken entry after
                                      the shootdown completed *)
  mutable bbm_violations : int;    (* make without break, or before the
                                      broadcast completed *)
  (* bookkeeping *)
  mutable shootdowns : int;        (* broadcasts completed (DSBs) *)
  mutable recipients : int;        (* per-recipient invalidations *)
}

let create mem ~ncpus ~vmid ~tlb_capacity =
  let alloc = Walk.allocator ~start:0xA_0000_0000L in
  {
    vmid;
    tlbs = Array.init ncpus (fun _ -> Tlb.create ~capacity:tlb_capacity ());
    s2 = Stage2.create mem alloc ~vmid;
    truth = Hashtbl.create 64;
    broken = Hashtbl.create 8;
    stale_serves = 0;
    broken_serves = 0;
    bbm_violations = 0;
    shootdowns = 0;
    recipients = 0;
  }

let ncpus t = Array.length t.tlbs

(* The shootdown layer caches stage-2 (IPA) translations; no stage-1 is
   modeled here, so every entry lives under the global ASID. *)
let asid = 0

let default_perms = { Pte.readable = true; writable = true; executable = false }

(* --- mapping ground truth --- *)

(* First map of a page: no prior entry exists, so no break is required
   (BBM only governs *changes* to a live entry). *)
let map t ~ipa ~pa =
  let page = Walk.page_base ipa in
  Stage2.map_page t.s2 ~ipa:page ~pa:(Walk.page_base pa) ~perms:default_perms;
  Hashtbl.replace t.truth page (Walk.page_base pa)

(* --- break-before-make --- *)

let break t ~ipa =
  let page = Walk.page_base ipa in
  (match Hashtbl.find_opt t.truth page with
   | Some old_pa ->
     Stage2.unmap_page t.s2 ~ipa:page;
     Hashtbl.remove t.truth page;
     Hashtbl.replace t.broken page { b_old_pa = old_pa; b_completed = false }
   | None ->
     (* breaking an unmapped page is a protocol error: there is nothing
        to break, so the following make would skip BBM on a live entry
        elsewhere *)
     t.bbm_violations <- t.bbm_violations + 1);
  if !Trace.on then
    Trace.emit ~a0:page ~a1:(Int64.of_int t.vmid) Trace.Bbm_break

(* One vCPU's TLB processes the invalidation (locally or as a broadcast
   recipient). *)
let invalidate_cpu t ~cpu scope =
  match scope with
  | By_page page -> Tlb.invalidate_page t.tlbs.(cpu) ~vmid:t.vmid ~page
  | By_vmid -> Tlb.invalidate_vmid t.tlbs.(cpu) ~vmid:t.vmid
  | All_e1 -> Tlb.invalidate_all t.tlbs.(cpu)

(* The initiator's DSB: the broadcast has completed on every PE, so any
   surviving cached copy of a broken page is now a protocol violation,
   and make may proceed. *)
let dsb_complete t =
  Hashtbl.iter (fun _ b -> b.b_completed <- true) t.broken;
  t.shootdowns <- t.shootdowns + 1

let make t ~ipa ~pa =
  let page = Walk.page_base ipa in
  (match Hashtbl.find_opt t.broken page with
   | Some b when b.b_completed -> Hashtbl.remove t.broken page
   | Some _ ->
     (* make before the TLBI broadcast + DSB completed: the window where
        another PE can cache the *new* entry while still holding the old
        one — exactly what BBM exists to prevent *)
     t.bbm_violations <- t.bbm_violations + 1;
     Hashtbl.remove t.broken page
   | None -> t.bbm_violations <- t.bbm_violations + 1);
  Stage2.map_page t.s2 ~ipa:page ~pa:(Walk.page_base pa) ~perms:default_perms;
  Hashtbl.replace t.truth page (Walk.page_base pa);
  if !Trace.on then
    Trace.emit ~a0:page ~a1:(Walk.page_base pa) Trace.Bbm_make

(* --- translation, audited --- *)

type serve =
  | Fresh of int64        (* agrees with the tables *)
  | Stale of int64        (* cached copy the protocol should have killed *)
  | Stale_in_window of int64  (* old mapping, break not yet completed:
                                 architecturally permitted *)
  | Unmapped

(* Audit one served translation [pa] for [page] against the protocol
   state.  Returns the caller-visible classification and records
   violations. *)
let audit t ~page ~pa =
  match Hashtbl.find_opt t.truth page with
  | Some want when Walk.page_base pa = want -> Fresh pa
  | maybe_truth -> begin
      match Hashtbl.find_opt t.broken page with
      | Some b when not b.b_completed && Walk.page_base pa = b.b_old_pa ->
        Stale_in_window pa
      | Some _ ->
        t.broken_serves <- t.broken_serves + 1;
        Stale pa
      | None ->
        ignore maybe_truth;
        t.stale_serves <- t.stale_serves + 1;
        Stale pa
    end

(* Translate [ipa] for [cpu], charging [meter]: a TLB hit costs one
   load; a miss walks the shared stage-2 (four levels) and fills the
   TLB.  Every serve is audited. *)
let read t ~cpu ~(meter : Cost.meter) ~ipa =
  let page = Walk.page_base ipa in
  let c = meter.Cost.table in
  match Tlb.lookup t.tlbs.(cpu) ~vmid:t.vmid ~asid ipa with
  | Some (pa, _perms) ->
    Cost.charge meter c.Cost.mem_load;
    audit t ~page ~pa
  | None -> begin
      Cost.charge meter (4 * c.Cost.mem_load);
      match Stage2.translate t.s2 ~ipa ~is_write:false with
      | Ok tr ->
        let pa = tr.Walk.t_pa in
        Tlb.insert t.tlbs.(cpu) ~vmid:t.vmid ~asid ~va:ipa ~pa
          ~perms:tr.Walk.t_perms;
        audit t ~page ~pa
      | Error _ -> Unmapped
    end

(* --- checker verdicts --- *)

type stats = {
  s_stale_serves : int;
  s_broken_serves : int;
  s_bbm_violations : int;
  s_shootdowns : int;
  s_recipients : int;
  s_tlb_hits : int;
  s_tlb_misses : int;
  s_tlb_invalidations : int;
}

let stats t =
  let sum f = Array.fold_left (fun acc tlb -> acc + f tlb) 0 t.tlbs in
  {
    s_stale_serves = t.stale_serves;
    s_broken_serves = t.broken_serves;
    s_bbm_violations = t.bbm_violations;
    s_shootdowns = t.shootdowns;
    s_recipients = t.recipients;
    s_tlb_hits = sum Tlb.hits;
    s_tlb_misses = sum Tlb.misses;
    s_tlb_invalidations = sum Tlb.invalidations;
  }

let clean s =
  s.s_stale_serves = 0 && s.s_broken_serves = 0 && s.s_bbm_violations = 0

let note_recipient t = t.recipients <- t.recipients + 1

let pp_stats ppf s =
  Fmt.pf ppf
    "shootdowns=%d recipients=%d tlb=[hits=%d misses=%d inval=%d] \
     violations=[stale=%d broken=%d bbm=%d]"
    s.s_shootdowns s.s_recipients s.s_tlb_hits s.s_tlb_misses
    s.s_tlb_invalidations s.s_stale_serves s.s_broken_serves
    s.s_bbm_violations
