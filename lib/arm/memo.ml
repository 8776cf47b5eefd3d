(* A two-way set-associative memo of an [int -> 'a] function (see
   memo.mli).  Slots [2s] and [2s+1] form set [s]; a miss moves the set's
   first entry to the second slot and takes the first. *)

type 'a t = {
  make : int -> 'a;
  mutable keys : int array;  (* -1: empty slot (keys are non-negative) *)
  mutable vals : 'a array;
  mutable misses : int;      (* since the table last grew *)
}

let max_slots = 128

let create make = { make; keys = [||]; vals = [||]; misses = 0 }

let[@inline] slot_of k n = ((k * 0x9e37_79b1) lsr 16) land (n - 2)

let miss t k =
  let v = t.make k in
  t.misses <- t.misses + 1;
  let n = Array.length t.keys in
  if n = 0 || (t.misses > 2 * n && n < max_slots) then begin
    let n' = if n = 0 then 16 else 2 * n in
    t.keys <- Array.make n' (-1);
    t.vals <- Array.make n' v;
    t.misses <- 0
  end;
  if k >= 0 then begin
    let i = slot_of k (Array.length t.keys) in
    Array.unsafe_set t.keys (i + 1) (Array.unsafe_get t.keys i);
    Array.unsafe_set t.vals (i + 1) (Array.unsafe_get t.vals i);
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v
  end;
  v

let find t k =
  let n = Array.length t.keys in
  if n = 0 || k < 0 then miss t k
  else
    let i = slot_of k n in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
    else if Array.unsafe_get t.keys (i + 1) = k then
      Array.unsafe_get t.vals (i + 1)
    else miss t k
