(* Exit-attribution tracing: a preallocated ring of typed events plus
   per-exit-class counters keyed by the paper's Table 7 taxonomy.

   The design constraint is the disabled path: every emission site in the
   simulator is guarded by [if !Trace.on then ...], so a run with tracing
   off pays one load-and-branch per site and allocates nothing — the
   bench guard against BENCH_PR7.json holds the simulator to that.  When
   tracing is on, events are written in place into preallocated mutable
   records (the ring never allocates per event; only the argument strings
   the call sites build do).

   Time is simulated time, never wall clock: an event's [cycles] come
   from the emitting meter where one exists, and the sink carries the
   last-seen cycle count forward for emitters that have no meter (TLB,
   vGIC codec, fault plans).  Sequence numbers order everything totally,
   so traces are byte-deterministic for a given run — the fuzzer's
   same-seed guarantee survives tracing. *)

type kind =
  | Trap            (* a classified trap (Cost.record_trap chokepoint) *)
  | Exn_entry       (* architectural exception entry *)
  | Exn_return      (* eret *)
  | Ws_enter        (* world switch into the host hypervisor (l0_enter) *)
  | Ws_exit         (* world switch back out (l0_exit) *)
  | Page_populate   (* deferred access page populated *)
  | Page_drain      (* deferred access page drained/folded *)
  | Vncr_program    (* VNCR_EL2 written by the host *)
  | Vncr_redirect   (* an access redirected to the page by NV2 *)
  | Tlb_hit
  | Tlb_miss
  | Tlb_evict
  | Tlb_invalidate
  | S2_walk         (* stage-2 table walk *)
  | Gic_inject      (* virtual interrupt placed in a list register *)
  | Gic_ack         (* VM acknowledged a virtual interrupt *)
  | Gic_eoi         (* VM completed a virtual interrupt *)
  | Fault_inject    (* the fault plan fired an event *)
  | Pv_hvc          (* paravirt hvc protocol operand decoded *)
  | Pv_patch        (* binary patcher rewrote a text section *)
  | Run_begin       (* interpreter run started *)
  | Run_end         (* interpreter run finished *)
  | Serror_pend     (* virtual SError pended (HCR_EL2.VSE set) *)
  | Serror_deliver  (* SError exception taken by a guest EL *)
  | Watchdog_fire   (* supervision watchdog detected a sick vCPU *)
  | Recover_begin   (* recovery policy started executing *)
  | Recover_end     (* recovery policy finished *)
  | Mig_abort       (* migration attempt aborted on a stream failure *)
  | Mig_retry       (* migration retried after backoff *)
  | Tlb_shootdown   (* broadcast TLBI: every vCPU's TLB + shadow hit *)
  | Bbm_break       (* break-before-make: old stage-2 entry broken *)
  | Bbm_make        (* break-before-make: new stage-2 entry installed *)
  | Exposed_access  (* OoH grant made a vEL2 access run trap-free *)

let kind_name = function
  | Trap -> "trap"
  | Exn_entry -> "exn-entry"
  | Exn_return -> "exn-return"
  | Ws_enter -> "ws-enter"
  | Ws_exit -> "ws-exit"
  | Page_populate -> "page-populate"
  | Page_drain -> "page-drain"
  | Vncr_program -> "vncr-program"
  | Vncr_redirect -> "vncr-redirect"
  | Tlb_hit -> "tlb-hit"
  | Tlb_miss -> "tlb-miss"
  | Tlb_evict -> "tlb-evict"
  | Tlb_invalidate -> "tlb-invalidate"
  | S2_walk -> "s2-walk"
  | Gic_inject -> "gic-inject"
  | Gic_ack -> "gic-ack"
  | Gic_eoi -> "gic-eoi"
  | Fault_inject -> "fault-inject"
  | Pv_hvc -> "pv-hvc"
  | Pv_patch -> "pv-patch"
  | Run_begin -> "run-begin"
  | Run_end -> "run-end"
  | Serror_pend -> "serror-pend"
  | Serror_deliver -> "serror-deliver"
  | Watchdog_fire -> "watchdog-fire"
  | Recover_begin -> "recover-begin"
  | Recover_end -> "recover-end"
  | Mig_abort -> "mig-abort"
  | Mig_retry -> "mig-retry"
  | Tlb_shootdown -> "tlb-shootdown"
  | Bbm_break -> "bbm-break"
  | Bbm_make -> "bbm-make"
  | Exposed_access -> "exposed-access"

(* In-place ring slot: every field mutable so emission writes, never
   allocates. *)
type event = {
  mutable e_seq : int;
  mutable e_cycles : int;
  mutable e_tid : int;      (* emitting CPU id (trace lane) *)
  mutable e_kind : kind;
  mutable e_cls : string;   (* exit class, for [Trap] events *)
  mutable e_a0 : int64;
  mutable e_a1 : int64;
  mutable e_detail : string;
}

(* Immutable copy handed out by the accessors. *)
type view = {
  v_seq : int;
  v_cycles : int;
  v_tid : int;
  v_kind : kind;
  v_cls : string;
  v_a0 : int64;
  v_a1 : int64;
  v_detail : string;
}

let default_capacity = 4096

type sink = {
  mutable enabled : bool;   (* this domain's emission gate *)
  mutable ring : event array;
  mutable next : int;       (* total events ever emitted *)
  mutable clock : int;      (* last simulated-cycle stamp seen *)
  mutable tid : int;        (* last emitting CPU seen; lane for emitters
                               that carry no CPU identity themselves *)
  counters : (string, int ref) Hashtbl.t;
}

let fresh_event () =
  { e_seq = 0; e_cycles = 0; e_tid = 0; e_kind = Trap; e_cls = ""; e_a0 = 0L;
    e_a1 = 0L; e_detail = "" }

(* All mutable trace state is domain-local: each domain that traces owns
   its own ring, counters and clock, so fleet shards on separate domains
   emit race-free and their per-machine counter snapshots stay
   byte-deterministic.  Cross-domain aggregation is the caller's job
   (the fleet merges per-machine counts in machine-index order). *)
let key =
  Domain.DLS.new_key (fun () ->
      {
        enabled = false;
        ring = [||];
        next = 0;
        clock = 0;
        tid = 0;
        counters = Hashtbl.create 16;
      })

let sink () = Domain.DLS.get key

(* domain-safety: allowlisted global.  The single branch the disabled
   path pays — exposed as a ref so call sites compile to a load and a
   conditional jump, nothing more.  It is a cross-domain *may-trace*
   guard, not state: flipping it true is idempotent and races benignly;
   flipping it false must only happen when no other domain is tracing
   (single-domain use, or a fleet coordinator after Domain.join — worker
   domains use {!detach}).  Everything an emission actually touches
   lives in the domain-local sink above. *)
let on = ref false

let is_on () = !on && (sink ()).enabled

let reset () =
  let s = sink () in
  s.next <- 0;
  s.clock <- 0;
  s.tid <- 0;
  Hashtbl.reset s.counters

let enable ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.enable: capacity must be positive";
  let s = sink () in
  if Array.length s.ring <> capacity then
    s.ring <- Array.init capacity (fun _ -> fresh_event ());
  reset ();
  s.enabled <- true;
  on := true

let detach () = (sink ()).enabled <- false

let disable () =
  detach ();
  on := false

let emit ?cycles ?tid ?(cls = "") ?(a0 = 0L) ?(a1 = 0L) ?(detail = "") kind =
  if !on then begin
    let sink = sink () in
    if sink.enabled then begin
      let cyc =
        match cycles with
        | Some c ->
          if c > sink.clock then sink.clock <- c;
          c
        | None -> sink.clock
      in
      let lane =
        match tid with
        | Some t ->
          sink.tid <- t;
          t
        | None -> sink.tid
      in
      let e = sink.ring.(sink.next mod Array.length sink.ring) in
      e.e_seq <- sink.next;
      e.e_cycles <- cyc;
      e.e_tid <- lane;
      e.e_kind <- kind;
      e.e_cls <- cls;
      e.e_a0 <- a0;
      e.e_a1 <- a1;
      e.e_detail <- detail;
      sink.next <- sink.next + 1;
      if kind = Trap then
        match Hashtbl.find_opt sink.counters cls with
        | Some r -> incr r
        | None -> Hashtbl.add sink.counters cls (ref 1)
    end
  end

let total_emitted () = (sink ()).next

let dropped () =
  let s = sink () in
  max 0 (s.next - Array.length s.ring)

let view_of (e : event) = {
  v_seq = e.e_seq;
  v_cycles = e.e_cycles;
  v_tid = e.e_tid;
  v_kind = e.e_kind;
  v_cls = e.e_cls;
  v_a0 = e.e_a0;
  v_a1 = e.e_a1;
  v_detail = e.e_detail;
}

(* The newest [k] events still in the window, oldest first; only the
   returned events get a view. *)
let newest k =
  let sink = sink () in
  let cap = Array.length sink.ring in
  let k = max 0 (min k (min sink.next cap)) in
  let first = sink.next - k in
  List.init k (fun i -> view_of sink.ring.((first + i) mod cap))

let events () = newest max_int
let last n = newest n

(* Monotonically-aggregated per-exit-class counters: only [Trap] events
   count, so the class totals sum to exactly the number of classified
   traps the run took. *)
let class_counts () =
  Hashtbl.fold (fun cls r acc -> (cls, !r) :: acc) (sink ()).counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let class_count cls =
  match Hashtbl.find_opt (sink ()).counters cls with
  | Some r -> !r
  | None -> 0

let class_total () =
  Hashtbl.fold (fun _ r acc -> acc + !r) (sink ()).counters 0

(* --- rendering --- *)

let pp_view ppf v =
  Fmt.pf ppf "#%d @%d%s %s%s%a%a%s" v.v_seq v.v_cycles
    (if v.v_tid = 0 then "" else Printf.sprintf " cpu%d" v.v_tid)
    (kind_name v.v_kind)
    (if v.v_cls = "" then "" else "/" ^ v.v_cls)
    Fmt.(if v.v_a0 = 0L then nop else fun ppf () -> pf ppf " a0=0x%Lx" v.v_a0)
    ()
    Fmt.(if v.v_a1 = 0L then nop else fun ppf () -> pf ppf " a1=0x%Lx" v.v_a1)
    ()
    (if v.v_detail = "" then "" else " " ^ v.v_detail)

let render v = Fmt.str "%a" pp_view v

(* --- exporters --- *)

(* Chrome trace-event JSON (the "JSON object format": a {"traceEvents":
   [...]} wrapper).  One process per named stream, every event an instant
   ("ph":"i") stamped with its sequence number — strictly monotonic and
   deterministic, which wall-clock stamps would not be.  Simulated cycles
   ride along in args. *)
let chrome_json streams =
  let meta name pid tid arg =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String arg) ]);
      ]
  in
  let instant pid v =
    Json.Obj
      [
        ( "name",
          Json.String
            (if v.v_cls = "" then kind_name v.v_kind
             else kind_name v.v_kind ^ "/" ^ v.v_cls) );
        ("cat", Json.String (kind_name v.v_kind));
        ("ph", Json.String "i");
        ("s", Json.String "t");
        ("ts", Json.Int v.v_seq);
        ("pid", Json.Int pid);
        ("tid", Json.Int v.v_tid);
        ( "args",
          Json.Obj
            [
              ("cycles", Json.Int v.v_cycles);
              ("cls", Json.String v.v_cls);
              ("a0", Json.String (Printf.sprintf "0x%Lx" v.v_a0));
              ("a1", Json.String (Printf.sprintf "0x%Lx" v.v_a1));
              ("detail", Json.String v.v_detail);
            ] );
      ]
  in
  let process pid (name, views) =
    (* one lane per emitting CPU: name each tid so multi-core runs
       render per-core rows instead of interleaving on tid 0 *)
    let tids = List.sort_uniq compare (List.map (fun v -> v.v_tid) views) in
    let thread tid = meta "thread_name" pid tid (Printf.sprintf "cpu%d" tid) in
    (meta "process_name" pid 0 name :: List.map thread tids)
    @ List.map (instant pid) views
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.concat (List.mapi process streams)));
      ("displayTimeUnit", Json.String "ms");
    ]

(* Aggregate metrics JSON: per-stream class counts and totals. *)
let metrics_json ?(extra = []) streams =
  let config (name, counts, meter_traps) =
    Json.Obj
      [
        ("name", Json.String name);
        ("traps", Json.Int (List.fold_left (fun a (_, n) -> a + n) 0 counts));
        ("meter_traps", Json.Int meter_traps);
        ("classes", Json.Obj (List.map (fun (c, n) -> (c, Json.Int n)) counts));
      ]
  in
  Json.Obj
    ((("schema", Json.String "neve-trace-metrics/1")
     :: List.map (fun (k, v) -> (k, Json.Int v)) extra)
    @ [ ("configs", Json.List (List.map config streams)) ])
