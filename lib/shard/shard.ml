(* Deterministic sharded execution on OCaml 5 domains.

   Determinism comes from structure, not synchronization: the partition
   (strided by job index) and the result placement (slot i for job i)
   are fixed before any domain starts, every result slot is written by
   exactly one job, and the caller only reads after Domain.join — which
   publishes every worker write.  The only cross-domain communication
   while work is in flight is an atomic shard counter handing slices to
   the pool, and which domain runs which slice is the one thing the
   results cannot depend on. *)

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

let recommended_domains () = Domain.recommended_domain_count ()

let map ?domains ~shards ~jobs f =
  if jobs <= 0 then [||]
  else begin
    let shards = max 1 (min shards jobs) in
    let pool =
      match domains with
      | Some d -> max 1 (min d shards)
      | None -> max 1 (min shards (recommended_domains ()))
    in
    let results = Array.make jobs None in
    (* first failure per shard, by job index; re-raised after the join so
       the surfaced error does not depend on domain scheduling *)
    let failures = Array.make shards None in
    let run_shard s =
      let i = ref s in
      try
        while !i < jobs do
          results.(!i) <- Some (f !i);
          i := !i + shards
        done
      with e -> failures.(s) <- Some (!i, e, Printexc.get_raw_backtrace ())
    in
    if pool = 1 then
      for s = 0 to shards - 1 do
        run_shard s
      done
    else begin
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let s = Atomic.fetch_and_add next 1 in
          if s < shards then begin
            run_shard s;
            loop ()
          end
        in
        loop ()
      in
      let ds = Array.init pool (fun _ -> Domain.spawn worker) in
      Array.iter Domain.join ds
    end;
    (match
       Array.fold_left
         (fun acc fl ->
           match (acc, fl) with
           | None, f -> f
           | Some (i, _, _), Some (j, _, _) when j < i -> fl
           | acc, _ -> acc)
         None failures
     with
     | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.map (function Some r -> r | None -> assert false) results
  end
