(* The snapshot format's building blocks: a typed node tree with a
   canonical binary encoding, and typed field codecs.  A component is
   declared once, as fields with a name, a getter, a setter and a codec;
   its encoder ([write_record]), its checked decoder ([load]), the
   topology comparison ([topology]) and the leaf walk ([walk]) all derive
   from that declaration.  The machine's declarations are in {!Image}. *)

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

(* ------------------------------------------------------------------ *)
(* The node tree and its canonical binary encoding                     *)
(* ------------------------------------------------------------------ *)

type node =
  | I of int64
  | B of bool
  | S of string
  | L of node list
  | R of (string * node) list  (** fields in fixed, writer-chosen order *)

(* The length of a node's canonical bytes. *)
let rec encoded_size = function
  | I _ -> 9
  | B _ -> 2
  | S s -> 5 + String.length s
  | L xs -> List.fold_left (fun n x -> n + encoded_size x) 5 xs
  | R fs ->
    List.fold_left
      (fun n (name, x) -> n + 4 + String.length name + encoded_size x)
      5 fs

(* The canonical bytes, written into a string of exactly their length:
   an image is one allocation, not a growing buffer and its copy. *)
let encode n =
  let b = Bytes.create (encoded_size n) in
  let len pos k = Bytes.set_int32_be b pos (Int32.of_int k) in
  let str pos s =
    len pos (String.length s);
    Bytes.blit_string s 0 b (pos + 4) (String.length s);
    pos + 4 + String.length s
  in
  let rec put pos = function
    | I v ->
      Bytes.set b pos 'I';
      Bytes.set_int64_be b (pos + 1) v;
      pos + 9
    | B v ->
      Bytes.set b pos 'B';
      Bytes.set b (pos + 1) (if v then '\001' else '\000');
      pos + 2
    | S s ->
      Bytes.set b pos 'S';
      str (pos + 1) s
    | L xs ->
      Bytes.set b pos 'L';
      len (pos + 1) (List.length xs);
      List.fold_left put (pos + 5) xs
    | R fs ->
      Bytes.set b pos 'R';
      len (pos + 1) (List.length fs);
      List.fold_left (fun pos (name, x) -> put (str pos name) x) (pos + 5) fs
  in
  ignore (put 0 n : int);
  Bytes.unsafe_to_string b

let decode s =
  let pos = ref 0 in
  let len = String.length s in
  let need n = if !pos + n > len then fail "truncated snapshot at byte %d" !pos in
  let byte () =
    need 1;
    let c = s.[!pos] in
    incr pos;
    c
  in
  let i64 () =
    need 8;
    let v = String.get_int64_be s !pos in
    pos := !pos + 8;
    v
  in
  let count () =
    need 4;
    let v = Int32.to_int (String.get_int32_be s !pos) land 0xffff_ffff in
    pos := !pos + 4;
    (* a count of n items needs at least n more bytes *)
    if v > len - !pos then fail "implausible length %d at byte %d" v !pos;
    v
  in
  let str () =
    let n = count () in
    need n;
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  let rec node () =
    match byte () with
    | 'I' -> I (i64 ())
    | 'B' -> B (byte () <> '\000')
    | 'S' -> S (str ())
    | 'L' -> L (nodes (count ()) [])
    | 'R' -> R (fields (count ()) [])
    | c -> fail "bad node tag %C at byte %d" c (!pos - 1)
  and nodes n acc =
    if n = 0 then List.rev acc
    else
      let x = node () in
      nodes (n - 1) (x :: acc)
  and fields n acc =
    if n = 0 then List.rev acc
    else
      let name = str () in
      let x = node () in
      fields (n - 1) ((name, x) :: acc)
  in
  let n = node () in
  if !pos <> len then fail "trailing bytes after snapshot (%d of %d consumed)" !pos len;
  n

(* Typed accessors: every shape error surfaces as Format_error. *)

let get_i = function I v -> v | _ -> fail "expected int node"
let get_b = function B v -> v | _ -> fail "expected bool node"
let get_s = function S v -> v | _ -> fail "expected string node"
let get_l = function L xs -> xs | _ -> fail "expected list node"

let rec assoc name = function
  | [] -> fail "missing field %S" name
  | (k, v) :: tl -> if String.equal k name then v else assoc name tl

let lookup name = function
  | R fs -> assoc name fs
  | _ -> fail "expected record node (looking for %S)" name

let num n = I (Int64.of_int n)

(* ------------------------------------------------------------------ *)
(* Typed field codecs                                                  *)
(* ------------------------------------------------------------------ *)

(* A codec writes one value as a node and reads it back, applying the
   check it carries.  [Record], [Slots], [Into] and an [Opt] of those
   read into the value the reader already holds (a restored machine's
   CPUs, register files and meters are built by [Machine.create] and
   overwritten in place); the others read a fresh value. *)
type _ codec =
  | Int : int * int -> int codec  (** within [lo, hi] *)
  | Word : int -> int64 codec  (** a multiple of the given power of two *)
  | Bool : bool codec
  | Str : string codec
  | Bytes : int -> string codec  (** exactly n bytes *)
  | Enum : 'a enum -> 'a codec
  | Opt : 'a codec -> 'a option codec
      (** an empty or singleton list; read in place, its presence must
          match the value held *)
  | List : 'a codec -> 'a list codec
  | Array : int * 'a codec -> 'a array codec  (** exactly n elements *)
  | Pair : 'a codec * 'b codec -> ('a * 'b) codec
  | Triple : 'a codec * 'b codec * 'c codec -> ('a * 'b * 'c) codec
  | Record : 'r record -> 'r codec
  | Slots : ('r, 'a) slots -> 'r codec
  | Conv : ('a, 'b) conv -> 'a codec
  | Into : 'a into -> 'a codec  (** a custom codec reading in place *)

and 'a enum = { what : string; members : ('a * node) list }

(* [zero] is where a record read outside the machine (a list element, a
   construction field) starts. *)
and 'r record = { fields : 'r field list; zero : 'r option }

and 'r field = F : ('r, 'a) fld -> 'r field

and ('r, 'a) fld = {
  name : string;
  codec : 'a codec;
  get : 'r -> 'a;
  set : ('r, 'a) set;
  topology : bool;  (** a difference is a topology mismatch, not state *)
}

and ('r, 'a) set =
  | Set of ('r -> 'a -> unit)
  | Update of ('r -> 'a -> 'r)  (** a field of an immutable record *)
  | In_place  (** the codec reads into [get r] itself *)
  | Skip  (** not read by [load]: read by itself first, or a derived view *)

(* [len r] elements of a mutable [r], by index: a register file, the
   GPRs, or a per-vCPU array (whose length is ncpus); a node list of
   another length is rejected. *)
and ('r, 'a) slots =
  { len : 'r -> int; nth : 'r -> int -> 'a; set_nth : 'r -> int -> 'a -> unit; elt : 'a codec }

and ('a, 'b) conv = { to_ : 'a -> 'b; of_ : 'b -> 'a; via : 'b codec }

(* [plan] is the restored fault plan, the one thing a decoder needs
   beyond its node and the value it reads into. *)
and 'a into = { enc : 'a -> node; dec : Fault.Plan.t option -> 'a -> node -> 'a }

(* A failure inside a field: its path is built on the way out, as in
   "cpus[0].pstate.el", and named in the [Format_error] [load] raises. *)
exception Bad_field of string * string

let join a b = if b <> "" && b.[0] = '[' then a ^ b else a ^ "." ^ b

(* [e], raised inside the field or element [at], with its path extended. *)
let inside at = function
  | Format_error msg -> Bad_field (at, msg)
  | Bad_field (p, msg) -> Bad_field (join at p, msg)
  | e -> e

let index i = Printf.sprintf "[%d]" i

let rec node_of e v = function
  | [] -> invalid_arg ("Snap.Codec: no code for this " ^ e.what)
  | (x, n) :: tl -> if x = v then n else node_of e v tl

let rec value_of e n = function
  | [] -> (
    match n with
    | I c -> fail "bad %s code %Ld" e.what c
    | S s -> fail "bad %s %S" e.what s
    | _ -> fail "bad %s node" e.what)
  | (x, m) :: tl -> if m = n then x else value_of e n tl

let rec write : type a. a codec -> a -> node =
 fun c v ->
  match c with
  | Int _ -> num v
  | Word _ -> I v
  | Bool -> B v
  | Str -> S v
  | Bytes _ -> S v
  | Enum e -> node_of e v e.members
  | Opt c -> ( match v with None -> L [] | Some x -> L [ write c x ])
  | List c -> L (write_list c v)
  | Array (_, c) -> L (write_list c (Array.to_list v))
  | Pair (a, b) -> L [ write a (fst v); write b (snd v) ]
  | Triple (a, b, c) ->
    let x, y, z = v in
    L [ write a x; write b y; write c z ]
  | Record r -> R (write_fields v r.fields)
  | Slots s -> L (write_slots s v (s.len v - 1) [])
  | Conv c -> write c.via (c.to_ v)
  | Into c -> c.enc v

and[@tail_mod_cons] write_list : type a. a codec -> a list -> node list =
 fun c -> function [] -> [] | x :: tl -> write c x :: write_list c tl

and write_slots : type r a. (r, a) slots -> r -> int -> node list -> node list =
 fun s r i acc -> if i < 0 then acc else write_slots s r (i - 1) (write s.elt (s.nth r i) :: acc)

and[@tail_mod_cons] write_fields : type r. r -> r field list -> (string * node) list =
 fun r -> function [] -> [] | F f :: tl -> (f.name, write f.codec (f.get r)) :: write_fields r tl

let rec in_place : type a. a codec -> bool = function
  | Record _ | Slots _ | Into _ -> true
  | Opt c -> in_place c
  | _ -> false

let rec read : type a. Fault.Plan.t option -> a codec -> node -> a =
 fun plan c n ->
  match c with
  | Int (lo, hi) ->
    let w = get_i n in
    let v = Int64.to_int w in
    if not (Int64.equal (Int64.of_int v) w) then fail "0x%Lx is outside the int range" w;
    if v < lo || v > hi then fail "%d outside %d..%d" v lo hi;
    v
  | Word align ->
    let v = get_i n in
    if Int64.logand v (Int64.of_int (align - 1)) <> 0L then
      fail "0x%Lx is not %d-byte aligned" v align;
    v
  | Bool -> get_b n
  | Str -> get_s n
  | Bytes len ->
    let s = get_s n in
    if String.length s <> len then fail "%d bytes, this build has %d" (String.length s) len;
    s
  | Enum e -> value_of e n e.members
  | Opt c -> (
    match n with L [] -> None | L [ x ] -> Some (read plan c x) | _ -> fail "expected option node")
  | List c -> read_list plan c 0 (get_l n)
  | Array (len, c) ->
    let l = get_l n in
    if List.length l <> len then fail "%d elements, this build has %d" (List.length l) len;
    Array.of_list (read_list plan c 0 l)
  | Pair (a, b) -> (
    match get_l n with [ x; y ] -> (read plan a x, read plan b y) | _ -> fail "expected a pair")
  | Triple (a, b, c) -> (
    match get_l n with
    | [ x; y; z ] -> (read plan a x, read plan b y, read plan c z)
    | _ -> fail "expected a triple")
  | Record { zero = Some z; fields } -> read_fields plan z fields n
  | Conv c -> c.of_ (read plan c.via n)
  | Record { zero = None; _ } | Slots _ | Into _ -> invalid_arg "Snap.Codec.read: reads in place"

and[@tail_mod_cons] read_list : type a. Fault.Plan.t option -> a codec -> int -> node list -> a list
    =
 fun plan c i -> function
  | [] -> []
  | x :: tl ->
    (match read plan c x with v -> v | exception e -> raise (inside (index i) e))
    :: read_list plan c (i + 1) tl

and read_into : type a. Fault.Plan.t option -> a codec -> a -> node -> a =
 fun plan c base n ->
  match (c, base, n) with
  | Record r, _, _ -> read_fields plan base r.fields n
  | Slots s, _, _ ->
    let l = get_l n in
    if List.length l <> s.len base then
      fail "%d entries, this machine has %d" (List.length l) (s.len base);
    read_slots plan s base 0 l;
    base
  | Into c, _, _ -> c.dec plan base n
  | Opt c, Some b, L [ x ] when in_place c -> Some (read_into plan c b x)
  | Opt c, None, L [ _ ] when in_place c -> fail "the image carries state this machine lacks"
  | Opt c, Some _, L [] when in_place c -> fail "this machine has state the image lacks"
  | c, _, _ -> read plan c n

and read_fields : type r. Fault.Plan.t option -> r -> r field list -> node -> r =
 fun plan r fields n ->
  match fields with [] -> r | F f :: tl -> read_fields plan (read_field plan r f n) tl n

and read_field : type r a. Fault.Plan.t option -> r -> (r, a) fld -> node -> r =
 fun plan r f n ->
  match f.set with
  | Skip -> r
  | set -> (
    let x = lookup f.name n in
    match if in_place f.codec then read_into plan f.codec (f.get r) x else read plan f.codec x with
    | v -> ( match set with Set s -> s r v; r | Update u -> u r v | In_place | Skip -> r)
    | exception e -> raise (inside f.name e))

and read_slots : type r a. Fault.Plan.t option -> (r, a) slots -> r -> int -> node list -> unit =
 fun plan s r i -> function
  | [] -> ()
  | x :: tl ->
    (match if in_place s.elt then read_into plan s.elt (s.nth r i) x else read plan s.elt x with
     | v -> s.set_nth r i v
     | exception e -> raise (inside (index i) e));
    read_slots plan s r (i + 1) tl

(* The member after [v], wrapping. *)
let rec next e v = function
  | (x, _) :: (y, _) :: _ when x = v -> y
  | _ :: tl -> next e v tl
  | [] -> fst (List.hd e.members)

(* Every int, word, bool and enumeration leaf [load] writes into [r],
   each with a thunk setting it to another value its codec accepts (the
   next in range or in the enumeration, wrapping).  Topology fields,
   [Skip] fields and custom codecs are not walked. *)
let walk fields r =
  let acc = ref [] in
  let leaf path put v = acc := (path, fun () -> put v) :: !acc in
  let rec value : type a. string -> a codec -> a -> (a -> unit) -> unit =
   fun path c v put ->
    match c with
    | Int (lo, hi) -> leaf path put (if v < hi then v + 1 else lo)
    | Word align -> leaf path put (Int64.add v (Int64.of_int align))
    | Bool -> leaf path put (not v)
    | Enum e -> leaf path put (next e v e.members)
    | Opt c when in_place c -> Option.iter (fun x -> value path c x ignore) v
    | Array (_, c) ->
      Array.iteri
        (fun i x ->
          value (path ^ index i) c x (fun x ->
              let a = Array.copy v in
              a.(i) <- x;
              put a))
        v
    | Record r -> record path r.fields v put
    | Slots s ->
      for i = 0 to s.len v - 1 do
        value (path ^ index i) s.elt (s.nth v i) (s.set_nth v i)
      done
    | Conv c -> value path c.via (c.to_ v) (fun x -> put (c.of_ x))
    | _ -> ()
  and record : type r. string -> r field list -> r -> (r -> unit) -> unit =
   fun prefix fields r put ->
    List.iter
      (fun (F f) ->
        let path = if prefix = "" then f.name else join prefix f.name in
        match f.set with
        | _ when f.topology -> ()
        | Skip -> ()
        | Set s -> value path f.codec (f.get r) (s r)
        | Update u -> value path f.codec (f.get r) (fun x -> put (u r x))
        | In_place -> value path f.codec (f.get r) ignore)
      fields
  in
  record "" fields r ignore;
  List.rev !acc

(* Declaration helpers. *)

let fld ?(topology = false) name codec get set = { name; codec; get; set; topology }
let field ?topology name codec get set = F (fld ?topology name codec get set)
let record ?zero fields = Record { fields; zero }
let int = Int (min_int, max_int)
let nat = Int (0, max_int)
let word = Word 1
let enum what codes = Enum { what; members = List.map (fun (x, c) -> (x, num c)) codes }
let indexed what l = enum what (List.mapi (fun i x -> (x, i)) l)
let fixed n nth set_nth elt = Slots { len = (fun _ -> n); nth; set_nth; elt }
let each elt = Slots { len = Array.length; nth = Array.get; set_nth = Array.set; elt }
let conv to_ of_ via = Conv { to_; of_; via }

(* Reading a whole declaration, or one field by itself: a failure inside
   a field raises [Format_error] naming its path. *)

let load plan fields r n =
  match read_fields plan r fields n with
  | r -> r
  | exception Bad_field (p, msg) -> fail "%s: %s" p msg

let read_named (type r a) plan (f : (r, a) fld) n : a =
  match read plan f.codec (lookup f.name n) with
  | v -> v
  | exception e -> (
    match inside f.name e with Bad_field (p, msg) -> fail "%s: %s" p msg | e -> raise e)

let write_record fields r = R (write_fields r fields)

(* ------------------------------------------------------------------ *)
(* Structural diff                                                     *)
(* ------------------------------------------------------------------ *)

let rec diff_node path a b =
  match (a, b) with
  | I x, I y -> if Int64.equal x y then None else Some (path, Printf.sprintf "0x%Lx vs 0x%Lx" x y)
  | B x, B y -> if x = y then None else Some (path, Printf.sprintf "%b vs %b" x y)
  | S x, S y -> if String.equal x y then None else Some (path, Printf.sprintf "%S vs %S" x y)
  | L xs, L ys ->
    if List.length xs <> List.length ys then
      Some (path, Printf.sprintf "%d vs %d elements" (List.length xs) (List.length ys))
    else
      let rec go i = function
        | [], [] -> None
        | x :: xs, y :: ys -> (
          match diff_node (Printf.sprintf "%s[%d]" path i) x y with
          | Some d -> Some d
          | None -> go (i + 1) (xs, ys))
        | _ -> assert false
      in
      go 0 (xs, ys)
  | R xs, R ys ->
    if List.length xs <> List.length ys then
      Some (path, Printf.sprintf "%d vs %d fields" (List.length xs) (List.length ys))
    else
      let rec go = function
        | [], [] -> None
        | (nx, x) :: xs, (ny, y) :: ys ->
          if not (String.equal nx ny) then
            Some (path, Printf.sprintf "field %S vs %S" nx ny)
          else (
            match diff_node (if path = "" then nx else path ^ "." ^ nx) x y with
            | Some d -> Some d
            | None -> go (xs, ys))
        | _ -> assert false
      in
      go (xs, ys)
  | _ -> Some (path, "node kinds differ")

(* The first declared topology field whose nodes differ, searching
   records depth-first in declaration order. *)
let rec topology : type r. string -> r field list -> node -> node -> (string * string) option =
 fun path fields n1 n2 ->
  match fields with
  | [] -> None
  | F f :: tl -> (
    let p = if path = "" then f.name else path ^ "." ^ f.name in
    let d =
      match f.codec with
      | _ when f.topology -> diff_node p (lookup f.name n1) (lookup f.name n2)
      | Record r -> topology p r.fields (lookup f.name n1) (lookup f.name n2)
      | _ -> None
    in
    match d with Some _ -> d | None -> topology path tl n1 n2)
