(* Deterministic sharded execution on OCaml 5 domains.

   Determinism comes from structure, not synchronization: the result
   placement (slot i for job i) is fixed before any domain starts, every
   result slot is written by exactly one job, and the caller only reads
   after Domain.join — which publishes every worker write.  The only
   cross-domain communication while work is in flight is an atomic
   counter handing out job indices one at a time, and which domain runs
   which job is the one thing the results cannot depend on. *)

(* --- splitmix64 --- *)

let gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Job [index]'s seed is a pure function of (seed, index): the splitmix64
   stream element at position index+1, never a draw from a shared
   sequence.  This is what keeps machine k's behavior fixed when -n grows
   or the shard count changes. *)
let derive ~seed ~index =
  mix64 (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (index + 1)) gamma))

let derive_int ~seed ~index = Int64.to_int (derive ~seed ~index) land max_int

(* --- FNV-1a: 64-bit, chainable for index-ordered digest folds; 32-bit
   for seeds derived from a name ([Hashtbl.hash] is only specified
   per runtime version) --- *)

let fnv1a_64 ?(init = 0xcbf29ce484222325L) s =
  let h = ref init in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let fnv1a_32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffff_ffff)
    s;
  !h

(* --- the engine --- *)

(* OCaml 5.1 runs at most 128 domains, the main one included: the most
   it can spawn beside it.  A larger count is refused up front rather
   than failing in [Domain.spawn] with the campaign half started. *)
let max_shards = 127

let map ~shards ~jobs f =
  if shards > max_shards then
    invalid_arg
      (Printf.sprintf "Shard.map: %d shards (at most %d)" shards max_shards);
  if jobs <= 0 then [||]
  else begin
    (* slot i holds job i's outcome; a failure is kept with its job so
       that the lowest failing index can be re-raised after the join *)
    let results = Array.make jobs None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < jobs then begin
        results.(i) <-
          Some
            (match f i with
            | r -> Ok r
            | exception e -> Error (e, Printexc.get_raw_backtrace ()));
        worker ()
      end
    in
    let helpers =
      Array.init (max 1 (min shards jobs) - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join helpers;
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end
