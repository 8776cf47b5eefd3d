(* What every workload's loop goes through: one closed-loop client on one
   domain, each operation issued when the previous one returned.

   Untraced, [op] and [call] only run their argument.  In the traced pass
   every [sample_every]-th operation is sampled: it gets a span (and its
   layer calls get child spans), and when the event ring is on for the
   current segment the ring is reset before it and its events are
   counted after it, so the per-operation event counts are exact and a
   wrapped ring shows as [dropped] instead of silently short counts. *)

(* large enough for the events of one serve machine (40 requests, two
   migrations) *)
let ring_capacity = 1 lsl 18

(* Nearest-rank percentile of durations in nanoseconds, at whole-ns
   resolution. *)
let percentile q ns =
  float_of_int (Cost.Stats.percentile q (Array.to_list (Array.map Float.to_int ns)))

let median = percentile 0.5

(* Host-speed calibration.  The host is shared, and neighbours slow this
   process by up to 2x for stretches of seconds to minutes, which
   segment medians cannot average away.  A fixed loop timed between
   segments measures the host's speed at that moment.  It is a small
   interpreter with the simulator's own mix of work (variant dispatch
   over a 4096-instruction program, loads and stores into 512 KiB of
   memory, hash-table lookups): of the kernels tried, its time tracked
   the simulator's best under interference.  It allocates nothing, so
   its time does not depend on the simulator's heap, and it is benchmark
   code, so it is the same on every commit.  The nominal time is its
   median on the reference host (2-vCPU Xeon); scaling by it keeps
   normalised throughput in op/s. *)
let calibration_nominal_ns = 7.8e6

type cal_insn =
  | Load of int * int
  | Store of int * int
  | Add of int * int
  | Branch of int * int
  | Lookup of int

let cal_state =
  lazy
    (let prog =
       Array.init 4096 (fun i ->
           match i * 7919 mod 5 with
           | 0 -> Load (i land 15, i * 31 land 0xffff)
           | 1 -> Store (i land 15, i * 17 land 0xffff)
           | 2 -> Add (i land 15, i)
           | 3 -> Branch (i land 15, i * 13 land 4095)
           | _ -> Lookup (i land 255))
     in
     let mem = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 16) in
     Bigarray.Array1.fill mem 0;
     let tbl = Hashtbl.create 256 in
     for i = 0 to 255 do
       Hashtbl.replace tbl i (i * 3)
     done;
     (prog, mem, tbl, Array.make 16 0))

let calibrate () =
  let prog, mem, tbl, regs = Lazy.force cal_state in
  let t0 = Spans.now_ns () in
  let pc = ref 0 and acc = ref 0 in
  for _ = 1 to 1_200_000 do
    (match Array.unsafe_get prog !pc with
     | Load (r, a) ->
       regs.(r) <- Bigarray.Array1.unsafe_get mem ((a + (regs.(r) * 8)) land 0xffff)
     | Store (r, a) -> Bigarray.Array1.unsafe_set mem ((a + regs.(r)) land 0xffff) regs.(r)
     | Add (r, k) -> regs.(r) <- regs.(r) + k
     | Branch (r, t) -> if regs.(r) land 1 = 0 then pc := t - 1
     | Lookup k -> acc := !acc + Hashtbl.find tbl k);
    pc := (!pc + 1) land 4095
  done;
  ignore (Sys.opaque_identity !acc);
  Spans.now_ns () -. t0

type t = {
  spans : Spans.t option;      (* Some _ only in the traced pass *)
  sample_every : int;
  mutable ring : bool;         (* Trace enabled for the current segment *)
  mutable next_op : int;
  mutable cur : int;           (* open span of the sampled op, else -1 *)
  mutable segment_span : int;
  events : (string, int ref) Hashtbl.t;  (* ring counts by event kind *)
  classes : (string, int ref) Hashtbl.t; (* trap counts by exit class *)
  mutable ring_ops : int;      (* operations the counts cover *)
  mutable dropped : int;
}

let create ?spans ~sample_every () =
  {
    spans;
    sample_every;
    ring = false;
    next_op = 0;
    cur = -1;
    segment_span = -1;
    events = Hashtbl.create 32;
    classes = Hashtbl.create 16;
    ring_ops = 0;
    dropped = 0;
  }

let bump tbl k n =
  match Hashtbl.find_opt tbl k with
  | Some r -> r := !r + n
  | None -> Hashtbl.add tbl k (ref n)

let count tbl k = match Hashtbl.find_opt tbl k with Some r -> !r | None -> 0

(* Fold the ring's window (everything one sampled call emitted) into the
   running counts; [ops] is how many workload operations the call was. *)
let absorb h ~ops =
  h.dropped <- h.dropped + Trace.dropped ();
  List.iter
    (fun (v : Trace.view) -> bump h.events (Trace.kind_name v.Trace.v_kind) 1)
    (Trace.events ());
  List.iter (fun (cls, n) -> bump h.classes cls n) (Trace.class_counts ());
  h.ring_ops <- h.ring_ops + ops

(* Segment boundaries: in the traced pass every eighth segment (from the
   fourth on) runs with the ring on and the others with it off, so the
   ring's overhead is measured inside one process on interleaved work.
   Only an eighth, because the ring slows fuzz-cold tenfold. *)
let ring_segment k = k mod 8 = 3

let begin_segment h k =
  match h.spans with
  | None -> ()
  | Some sp ->
    h.ring <- ring_segment k;
    if h.ring then Trace.enable ~capacity:ring_capacity () else Trace.disable ();
    h.segment_span <- Spans.start sp ~name:"segment" ~parent:(-1) ~op:(-1)

let end_segment h =
  match h.spans with
  | None -> ()
  | Some sp ->
    Spans.stop sp h.segment_span;
    if h.ring then Trace.disable ();
    h.ring <- false

(* One workload operation worth [ops] counted operations (a serve machine
   is 40 requests). *)
let op h ~name ~ops f =
  let id = h.next_op in
  h.next_op <- id + 1;
  match h.spans with
  | Some sp when id mod h.sample_every = 0 ->
    if h.ring then Trace.reset ();
    let s = Spans.start sp ~name ~parent:h.segment_span ~op:id in
    h.cur <- s;
    let finish () =
      Spans.stop sp s;
      h.cur <- -1;
      if h.ring then absorb h ~ops
    in
    Fun.protect ~finally:finish f
  | _ -> f ()

(* A call into one layer from inside [op]. *)
let call h ~name f =
  match h.spans with
  | Some sp when h.cur >= 0 ->
    let parent = h.cur in
    let s = Spans.start sp ~name ~parent ~op:sp.Spans.op.(parent) in
    h.cur <- s;
    Fun.protect f ~finally:(fun () ->
        Spans.stop sp s;
        h.cur <- parent)
  | _ -> f ()
