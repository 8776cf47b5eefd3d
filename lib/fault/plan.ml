(* Deterministic, seed-driven fault plans.

   A plan is built once from (seed, faults, horizon) and schedules each
   fault at a trap count drawn from the plan's own PRNG.  Nothing here
   touches [Stdlib.Random] or wall-clock state, so the same seed always
   produces the same plan and — because consumers only pull events out in
   trap order — the same injected-fault sequence, byte for byte. *)

module Rng = struct
  (* splitmix64: tiny, fast, and good enough to scatter fault sites.
     Self-contained so plans never depend on global PRNG state. *)
  type t = { mutable s : int64 }

  let make seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9e3779b97f4a7c15L;
    let z = t.s in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Fault.Plan.Rng.int: bound must be > 0";
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int)
                    (Int64.of_int bound))

  let bool t = Int64.logand (next t) 1L = 1L
end

type kind =
  | Spurious_trap   (* an exception entry to EL2 with no architectural cause *)
  | Corrupt_sysreg  (* the next hypervisor-visible sysreg read is corrupted *)
  | Drop_irq        (* the next raised interrupt is lost *)
  | Duplicate_irq   (* the next raised interrupt is delivered twice *)
  | S2_fault        (* a spurious stage-2 translation fault *)
  | Serror          (* a physical SError arrives at L0 (RAS containment) *)
  | Hang_vcpu       (* the vCPU stops retiring guest work (hung guest) *)

(* Appended at the end: snapshot images encode kinds positionally. *)
let all_kinds =
  [ Spurious_trap; Corrupt_sysreg; Drop_irq; Duplicate_irq; S2_fault;
    Serror; Hang_vcpu ]

let kind_name = function
  | Spurious_trap -> "spurious-trap"
  | Corrupt_sysreg -> "corrupt-sysreg"
  | Drop_irq -> "drop-irq"
  | Duplicate_irq -> "duplicate-irq"
  | S2_fault -> "s2-fault"
  | Serror -> "serror"
  | Hang_vcpu -> "hang-vcpu"

type event = {
  ev_trap : int;          (* fires when total traps reach this count *)
  ev_kind : kind;
  mutable ev_fired : bool;
}

type t = {
  seed : int;
  rng : Rng.t;
  events : event array;   (* sorted by ev_trap *)
  mutable injected : (int * kind) list;  (* newest first *)
  (* the trap count of the earliest event not yet fired ([max_int] once
     all have): below it there is nothing to pop, and [due], which runs
     at the top of every guest operation and on every stage-2 walk,
     returns at once *)
  mutable next_due : int;
}

(* The earliest trap count among the unfired events from index [i] on,
   or [earliest] if that is earlier.  (A restored plan's events need not
   be sorted.) *)
let rec next_unfired events i earliest =
  if i >= Array.length events then earliest
  else
    let ev = events.(i) in
    next_unfired events (i + 1)
      (if (not ev.ev_fired) && ev.ev_trap < earliest then ev.ev_trap
       else earliest)

let make ~seed ~faults ~horizon =
  let rng = Rng.make seed in
  let events =
    Array.init (max 0 faults) (fun _ ->
        {
          ev_trap = 1 + Rng.int rng (max 1 horizon);
          ev_kind = List.nth all_kinds (Rng.int rng (List.length all_kinds));
          ev_fired = false;
        })
  in
  Array.sort (fun a b -> compare a.ev_trap b.ev_trap) events;
  { seed; rng; events; injected = []; next_due = next_unfired events 0 max_int }

(* Fire the unfired events from index [i] on that are scheduled at or
   before [traps] (and are of [kind], if given), in order; their kinds,
   prepended to [fired] newest first. *)
let rec fire t kind traps i fired =
  if i >= Array.length t.events then fired
  else
    let ev = t.events.(i) in
    if
      (not ev.ev_fired)
      && ev.ev_trap <= traps
      && match kind with None -> true | Some k -> k = ev.ev_kind
    then begin
      ev.ev_fired <- true;
      t.injected <- (ev.ev_trap, ev.ev_kind) :: t.injected;
      if !Trace.on then
        Trace.emit ~a0:(Int64.of_int ev.ev_trap)
          ~detail:(kind_name ev.ev_kind) Trace.Fault_inject;
      fire t kind traps (i + 1) (ev.ev_kind :: fired)
    end
    else fire t kind traps (i + 1) fired

let due ?kind t ~traps =
  if traps < t.next_due then []
  else begin
    let fired = List.rev (fire t kind traps 0 []) in
    t.next_due <- next_unfired t.events 0 max_int;
    fired
  end

let corrupt t v =
  (* A guaranteed-nonzero xor mask so corruption never degenerates into
     the identity. *)
  let mask = Int64.logor (Rng.next t.rng) 1L in
  Int64.logxor v mask

let pick t bound = Rng.int t.rng bound
let flip t = Rng.bool t.rng

let injected t = List.rev t.injected

(* --- raw state, for checkpoint/restore ---

   A plan is deterministic but stateful: the PRNG cursor, the fired flag
   on each event and the injected log all advance as the machine runs.
   Snapshotting a machine mid-plan must carry that cursor exactly, or the
   restored machine would re-fire events (or corrupt with a different
   mask) and diverge from the original run. *)

type raw = {
  raw_seed : int;
  raw_rng : int64;                       (* splitmix64 cursor *)
  raw_events : (int * kind * bool) list; (* (trap, kind, fired), in order *)
  raw_injected : (int * kind) list;      (* newest first, as stored *)
}

let to_raw t =
  {
    raw_seed = t.seed;
    raw_rng = t.rng.Rng.s;
    raw_events =
      Array.to_list
        (Array.map (fun ev -> (ev.ev_trap, ev.ev_kind, ev.ev_fired)) t.events);
    raw_injected = t.injected;
  }

let of_raw r =
  let events =
    Array.of_list
      (List.map
         (fun (trap, kind, fired) ->
           { ev_trap = trap; ev_kind = kind; ev_fired = fired })
         r.raw_events)
  in
  {
    seed = r.raw_seed;
    rng = { Rng.s = r.raw_rng };
    events;
    injected = r.raw_injected;
    next_due = next_unfired events 0 max_int;
  }

let injected_counts t =
  List.map
    (fun k -> (k, List.length (List.filter (fun (_, k') -> k' = k) t.injected)))
    all_kinds

let pending t =
  Array.fold_left (fun n ev -> if ev.ev_fired then n else n + 1) 0 t.events

let pp ppf t =
  Fmt.pf ppf "plan seed=%d events=%d fired=%d [%s]" t.seed
    (Array.length t.events)
    (Array.length t.events - pending t)
    (String.concat "; "
       (List.map
          (fun (at, k) -> Printf.sprintf "%s@%d" (kind_name k) at)
          (injected t)))
