(* Bench-side spans: one record (name, start, end, parent, op id) per
   call the benchmark makes into a layer, kept in preallocated arrays so
   recording never grows the heap mid-run, and written out once at exit
   as Chrome trace-event JSON.  A span's self time is its duration minus
   the part of it its children cover; the children of one span run one
   after another on one domain, so that part is the sum of their
   durations. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type t = {
  name : string array;
  start : float array;
  stop : float array;
  parent : int array;
  op : int array;
  mutable len : int;
  mutable dropped : int;  (* spans refused because the buffer was full *)
}

let create capacity =
  {
    name = Array.make capacity "";
    start = Array.make capacity 0.;
    stop = Array.make capacity 0.;
    parent = Array.make capacity (-1);
    op = Array.make capacity (-1);
    len = 0;
    dropped = 0;
  }

(* Returns the span's slot, or -1 when the buffer is full. *)
let start t ~name ~parent ~op =
  if t.len >= Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.len in
    t.len <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.op.(i) <- op;
    t.start.(i) <- now_ns ();
    t.stop.(i) <- nan;
    i
  end

let stop t i = if i >= 0 then t.stop.(i) <- now_ns ()

let duration t i = t.stop.(i) -. t.start.(i)

(* Self time of every span, in nanoseconds. *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. duration t i
  done;
  self

type summary = {
  s_name : string;
  s_count : int;
  s_total_ns : float;
  s_self_ns : float;
}

(* Per-name totals, in first-seen order. *)
let summary t =
  let self = self_times t in
  let order = ref [] and tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let n = t.name.(i) in
    let c, tot, s =
      match Hashtbl.find_opt tbl n with
      | Some v -> v
      | None ->
        order := n :: !order;
        (0, 0., 0.)
    in
    Hashtbl.replace tbl n (c + 1, tot +. duration t i, s +. self.(i))
  done;
  List.rev_map
    (fun n ->
      let c, tot, s = Hashtbl.find tbl n in
      { s_name = n; s_count = c; s_total_ns = tot; s_self_ns = s })
    !order

(* The invariants a span tree must satisfy: every span closed, every
   self time non-negative (up to clock rounding), and the self times of
   a root's subtree summing to at most the root's duration.  Returns the
   violations found. *)
let check t =
  let self = self_times t in
  let problems = ref [] in
  let slack = 1e3 (* ns *) in
  let root = Array.make t.len (-1) in
  let subtree = Array.make t.len 0. in
  for i = 0 to t.len - 1 do
    if Float.is_nan t.stop.(i) then
      problems := Printf.sprintf "span %d (%s) never closed" i t.name.(i) :: !problems
    else if self.(i) < -.slack then
      problems :=
        Printf.sprintf "span %d (%s) has negative self time %.0f ns" i
          t.name.(i) self.(i)
        :: !problems;
    let p = t.parent.(i) in
    root.(i) <- (if p < 0 then i else root.(p));
    subtree.(root.(i)) <- subtree.(root.(i)) +. self.(i)
  done;
  for i = 0 to t.len - 1 do
    if t.parent.(i) < 0 && subtree.(i) > duration t i +. slack then
      problems :=
        Printf.sprintf "segment span %d: self times sum to %.0f ns > %.0f ns" i
          subtree.(i) (duration t i)
        :: !problems
  done;
  List.rev !problems

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first span), one lane, nesting shown by time containment. *)
let write_chrome t path =
  let oc = open_out path in
  let t0 = if t.len > 0 then t.start.(0) else 0. in
  output_string oc "{\"traceEvents\": [\n";
  for i = 0 to t.len - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
       \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"op\": %d}}"
      t.name.(i)
      ((t.start.(i) -. t0) /. 1e3)
      (duration t i /. 1e3)
      i t.parent.(i) t.op.(i)
  done;
  output_string oc "\n], \"displayTimeUnit\": \"ms\"}\n";
  close_out oc
