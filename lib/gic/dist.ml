(* GIC distributor: tracks interrupt state per (cpu, intid) for banked
   SGI/PPI and globally for SPI, decides the highest-priority pending
   interrupt for each CPU, and generates SGIs (IPIs). *)

type irq_record = {
  mutable state : Irq.state;
  mutable enabled : bool;
  mutable priority : int;  (* 0 = highest *)
  mutable target : int;    (* CPU for SPIs *)
}

let fresh_record () =
  { state = Irq.Inactive; enabled = false; priority = 0xa0; target = 0 }

(* Fault-injection verdict for one raised interrupt. *)
type disposition = Deliver | Drop | Duplicate

type t = {
  ncpus : int;
  (* banked SGI/PPI state: (cpu, intid<32) -> record; SPI: intid -> record *)
  banked : (int * int, irq_record) Hashtbl.t;
  shared : (int, irq_record) Hashtbl.t;
  mutable enabled : bool;
  (* Fault-injection hook consulted on every raise_irq; [None] (and a
     [Deliver] verdict) is normal delivery. *)
  mutable inject : (cpu:int -> intid:int -> disposition) option;
}

let create ~ncpus =
  {
    ncpus;
    banked = Hashtbl.create 64;
    shared = Hashtbl.create 64;
    enabled = true;
    inject = None;
  }

(* A mark: the flags plus a copy of every record.  Records are never
   removed, so a table holding as many records as its mark holds the
   marked ones, in the marked layout, and rewinding copies the fields
   back in place.  A table that gained records is rebuilt:
   [Hashtbl.fold] walks each bucket head first and a bucket's chain is
   newest first, so consing the fold's results lists every bucket's
   records in the order they were added, and adding copies back in that
   order to the emptied table reproduces the marked layout — and with
   it the iteration order [best_pending] breaks priority ties by. *)
type mark = {
  mk_enabled : bool;
  mk_inject : (cpu:int -> intid:int -> disposition) option;
  mk_banked : (int * int) array;  (* keys, in the order they were added *)
  mk_banked_records : irq_record array;  (* copies, same order *)
  mk_shared : int array;
  mk_shared_records : irq_record array;
}

let copy_record (r : irq_record) = { r with state = r.state }

let bindings tbl =
  let l = Hashtbl.fold (fun k r acc -> (k, copy_record r) :: acc) tbl [] in
  (Array.of_list (List.map fst l), Array.of_list (List.map snd l))

let mark t =
  let banked, banked_records = bindings t.banked
  and shared, shared_records = bindings t.shared in
  {
    mk_enabled = t.enabled;
    mk_inject = t.inject;
    mk_banked = banked;
    mk_banked_records = banked_records;
    mk_shared = shared;
    mk_shared_records = shared_records;
  }

let refill tbl keys records =
  if Hashtbl.length tbl = Array.length keys then
    Array.iteri
      (fun i k ->
        let r = Hashtbl.find tbl k and s = records.(i) in
        r.state <- s.state;
        r.enabled <- s.enabled;
        r.priority <- s.priority;
        r.target <- s.target)
      keys
  else begin
    Hashtbl.reset tbl;
    Array.iteri (fun i k -> Hashtbl.add tbl k (copy_record records.(i))) keys
  end

let rewind t m =
  t.enabled <- m.mk_enabled;
  t.inject <- m.mk_inject;
  refill t.banked m.mk_banked m.mk_banked_records;
  refill t.shared m.mk_shared m.mk_shared_records

let record t ~cpu ~intid =
  if intid < 32 then begin
    match Hashtbl.find_opt t.banked (cpu, intid) with
    | Some r -> r
    | None ->
      let r = fresh_record () in
      Hashtbl.replace t.banked (cpu, intid) r;
      r
  end
  else begin
    match Hashtbl.find_opt t.shared intid with
    | Some r -> r
    | None ->
      let r = fresh_record () in
      Hashtbl.replace t.shared intid r;
      r
  end

let enable t ~cpu ~intid = (record t ~cpu ~intid).enabled <- true
let disable t ~cpu ~intid = (record t ~cpu ~intid).enabled <- false

let set_priority t ~cpu ~intid p = (record t ~cpu ~intid).priority <- p
let set_target t ~intid ~cpu = (record t ~cpu ~intid).target <- cpu

(* Make an interrupt pending.  For SPIs the registered target CPU receives
   it; for SGI/PPI the caller names the CPU.  The fault-injection hook can
   drop the interrupt or deliver it twice; our [Irq.state] collapses
   double-pending into pending (as level-triggered hardware does), so a
   duplicate only shows up when the first was already acknowledged. *)
let raise_irq t ~cpu ~intid =
  let disposition =
    match t.inject with Some f -> f ~cpu ~intid | None -> Deliver
  in
  let r = record t ~cpu ~intid in
  match disposition with
  | Drop -> ()
  | Deliver -> r.state <- Irq.add_pending r.state
  | Duplicate ->
    r.state <- Irq.add_pending r.state;
    r.state <- Irq.add_pending r.state

(* Send an SGI (IPI) from [src] to [dst]: the distributor makes the SGI
   pending on the destination CPU's bank. *)
let send_sgi t ~src:_ ~dst ~intid =
  (* The guest-reachable encoding (ICC_SGI1R_EL1) masks its intid field
     to four bits, so an out-of-range id here is a simulator bug, not
     guest input — surface it typed, with the PR-1 [Fault.Error]
     convention, never as a bare [Invalid_argument]. *)
  if intid < 0 || intid >= 16 then
    Fault.Error.sim_bug
      (Fault.Error.Bad_intid
         (Printf.sprintf "Dist.send_sgi: intid %d is not an SGI (0..15)"
            intid));
  if dst < 0 || dst >= t.ncpus then
    Fault.Error.sim_bug
      (Fault.Error.Bad_intid
         (Printf.sprintf
            "Dist.send_sgi: destination cpu %d outside 0..%d" dst
            (t.ncpus - 1)));
  raise_irq t ~cpu:dst ~intid

(* Highest-priority pending enabled interrupt for a CPU, if any. *)
let best_pending t ~cpu =
  if not t.enabled then None
  else begin
    let best = ref None in
    let consider intid (r : irq_record) =
      let pending =
        r.enabled
        && (r.state = Irq.Pending || r.state = Irq.Pending_and_active)
      in
      if pending then
        match !best with
        | Some (_, bp) when bp <= r.priority -> ()
        | _ -> best := Some (intid, r.priority)
    in
    Hashtbl.iter (fun (c, intid) r -> if c = cpu then consider intid r) t.banked;
    Hashtbl.iter (fun intid r -> if r.target = cpu then consider intid r) t.shared;
    Option.map fst !best
  end

(* CPU interface acknowledge: pending -> active, returns the intid. *)
let acknowledge t ~cpu =
  match best_pending t ~cpu with
  | None -> None
  | Some intid ->
    let r = record t ~cpu ~intid in
    r.state <- Irq.activate r.state;
    Some intid

(* End of interrupt: active -> inactive (or back to pending). *)
let eoi t ~cpu ~intid =
  let r = record t ~cpu ~intid in
  r.state <- Irq.deactivate r.state

let state t ~cpu ~intid = (record t ~cpu ~intid).state
