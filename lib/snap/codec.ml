(* The snapshot format: typed field declarations and the one interpreter
   of them, in both directions.  A component is declared once, as fields
   with a name, a getter, a setter and a codec; the encoder
   ([write_record]), the checked decoder ([load]), the comparison
   ([diff], [topology]) and the leaf walk ([walk]) all derive from that
   declaration and work on the image's bytes directly: nothing builds an
   intermediate tree.  The machine's declarations are in {!Image}.

   The bytes: every value is a node — 'I' and an 8-byte word, 'B' and a
   byte (nonzero is true), 'S', a 4-byte length and the bytes, 'L', a
   4-byte count and the elements, 'R', a 4-byte count and each field as
   a length-prefixed name and its node; every payload big-endian.

   Reading runs in two passes.  [validate] walks the structure, checking
   it along the bytes, and allocates nothing.  Then the typed pass reads
   each declared field from the node it is at: a record's fields are
   expected in declaration order, and when the next field in the image
   is not the one wanted, the record is searched for the first field of
   that name.  Either way the field read is the first of its name, so an
   image with reordered, duplicated or extra fields reads the same. *)

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type out = { mutable buf : Bytes.t; mutable len : int }

let out () = { buf = Bytes.create 32768; len = 0 }

(* Room for [n] more bytes. *)
let room o n =
  if o.len + n > Bytes.length o.buf then begin
    let b = Bytes.create (max (o.len + n) (2 * Bytes.length o.buf)) in
    Bytes.blit o.buf 0 b 0 o.len;
    o.buf <- b
  end

let[@inline] put_u32 o n =
  Bytes.set_int32_be o.buf o.len (Int32.of_int n);
  o.len <- o.len + 4

let[@inline] put_head o tag n =
  room o 5;
  Bytes.unsafe_set o.buf o.len tag;
  o.len <- o.len + 1;
  put_u32 o n

let[@inline] put_word o v =
  room o 9;
  Bytes.unsafe_set o.buf o.len 'I';
  Bytes.set_int64_be o.buf (o.len + 1) v;
  o.len <- o.len + 9

let put_int o v = put_word o (Int64.of_int v)
let put_word_at o b off = put_word o (Bytes.get_int64_ne b off)

let put_bool o v =
  room o 2;
  Bytes.unsafe_set o.buf o.len 'B';
  Bytes.unsafe_set o.buf (o.len + 1) (if v then '\001' else '\000');
  o.len <- o.len + 2

let put_bytes o s =
  let n = String.length s in
  room o n;
  Bytes.blit_string s 0 o.buf o.len n;
  o.len <- o.len + n

let put_str o s =
  put_head o 'S' (String.length s);
  put_bytes o s

let put_list o n = put_head o 'L' n
let put_record o n = put_head o 'R' n

let put_name o s =
  room o 4;
  put_u32 o (String.length s);
  put_bytes o s

let put_list_of o f =
  put_head o 'L' 0;
  let at = o.len - 4 in
  let n = f o in
  Bytes.set_int32_be o.buf at (Int32.of_int n)

(* ------------------------------------------------------------------ *)
(* The structural pass                                                 *)
(* ------------------------------------------------------------------ *)

type input = { s : string; mutable pos : int }

let[@inline] u32 s p = Int32.to_int (String.get_int32_be s p) land 0xffff_ffff

let need s p n = if p + n > String.length s then fail "truncated snapshot at byte %d" p

(* The count at [p]: [n] items need at least [n] more bytes. *)
let count s p =
  need s p 4;
  let n = u32 s p in
  if n > String.length s - (p + 4) then fail "implausible length %d at byte %d" n (p + 4);
  n

(* The end of the node at [p], checked. *)
let rec node_end s p =
  need s p 1;
  match String.unsafe_get s p with
  | 'I' ->
    need s (p + 1) 8;
    p + 9
  | 'B' ->
    need s (p + 1) 1;
    p + 2
  | 'S' -> p + 5 + count s (p + 1)
  | 'L' -> elems_end s (count s (p + 1)) (p + 5)
  | 'R' -> fields_end s (count s (p + 1)) (p + 5)
  | c -> fail "bad node tag %C at byte %d" c p

and elems_end s n p = if n = 0 then p else elems_end s (n - 1) (node_end s p)

and fields_end s n p = if n = 0 then p else fields_end s (n - 1) (node_end s (p + 4 + count s p))

let validate s =
  let e = node_end s 0 in
  if e <> String.length s then
    fail "trailing bytes after snapshot (%d of %d consumed)" e (String.length s);
  { s; pos = 0 }

let skip i = i.pos <- node_end i.s i.pos

(* Readers of validated bytes: each checks the node's kind, as the typed
   accessors of the format always have, and moves past it. *)

let[@inline] tag i = String.unsafe_get i.s i.pos

(* The count of the list at [pos], moving to its first element. *)
let list_node i =
  if tag i <> 'L' then fail "expected list node";
  let n = u32 i.s (i.pos + 1) in
  i.pos <- i.pos + 5;
  n

let[@inline] word_node i =
  if tag i <> 'I' then fail "expected int node";
  let v = String.get_int64_be i.s (i.pos + 1) in
  i.pos <- i.pos + 9;
  v

let bool_node i =
  if tag i <> 'B' then fail "expected bool node";
  let v = String.unsafe_get i.s (i.pos + 1) <> '\000' in
  i.pos <- i.pos + 2;
  v

let str_node i =
  if tag i <> 'S' then fail "expected string node";
  let n = u32 i.s (i.pos + 1) in
  let v = String.sub i.s (i.pos + 5) n in
  i.pos <- i.pos + 5 + n;
  v

(* The node at [pos] as a pair of words, [bad] unless it is a list of two
   nodes: the offset of the first word's payload (the second's is 9
   later), after checking the second and then the first is a word and
   the first is a multiple of [align]. *)
let word_pair i ~align ~bad =
  if tag i <> 'L' || u32 i.s (i.pos + 1) <> 2 then fail "%s" bad;
  let a = i.pos + 5 in
  let v = node_end i.s a in
  if String.unsafe_get i.s v <> 'I' || String.unsafe_get i.s a <> 'I' then
    fail "expected int node";
  if Char.code i.s.[a + 8] land (align - 1) <> 0 then
    fail "0x%Lx is not %d-byte aligned" (String.get_int64_be i.s (a + 1)) align;
  i.pos <- v + 9;
  a + 1

(* Whether the name at [p] is [name], compared in place. *)
let name_is s p name =
  let n = String.length name in
  u32 s p = n
  &&
  let rec go k =
    k = n || (String.unsafe_get s (p + 4 + k) = String.unsafe_get name k && go (k + 1))
  in
  go 0

(* The value of the first field named [name] in the record node at [r]. *)
let lookup s r name =
  if String.unsafe_get s r <> 'R' then fail "expected record node (looking for %S)" name;
  let rec go k p =
    if k = 0 then fail "missing field %S" name
    else
      let v = p + 4 + u32 s p in
      if name_is s p name then v else go (k - 1) (node_end s v)
  in
  go (u32 s (r + 1)) (r + 5)

(* ------------------------------------------------------------------ *)
(* Typed field codecs                                                  *)
(* ------------------------------------------------------------------ *)

(* A codec writes one value as a node and reads it back, applying the
   check it carries.  [Record], [Slots], [Words], [Into] and an [Opt] of
   those read into the value the reader already holds (a restored
   machine's CPUs, register files and meters are built by
   [Machine.create] and overwritten in place); the others read a fresh
   value. *)
type key = Code of int | Name of string

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
  | Words : int * ('r -> Bytes.t) -> 'r codec
  | Conv : ('a, 'b) conv -> 'a codec
  | Into : 'a into -> 'a codec  (** a custom codec reading in place *)

and 'a enum = { what : string; members : ('a * key) list }

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

(* [len r] elements of a mutable [r], by index: a per-vCPU array (whose
   length is ncpus); a list of another length is rejected. *)
and ('r, 'a) slots =
  { len : 'r -> int; nth : 'r -> int -> 'a; set_nth : 'r -> int -> 'a -> unit; elt : 'a codec }

and ('a, 'b) conv = { to_ : 'a -> 'b; of_ : 'b -> 'a; via : 'b codec }

(* [plan] is the restored fault plan, the one thing a decoder needs
   beyond its input and the value it reads into. *)
and 'a into = { enc : out -> 'a -> unit; dec : Fault.Plan.t option -> 'a -> input -> 'a }

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

let rec key_of e v = function
  | [] -> invalid_arg ("Snap.Codec: no code for this " ^ e.what)
  | (x, k) :: tl -> if x = v then k else key_of e v tl

let rec write : type a. out -> a codec -> a -> unit =
 fun o c v ->
  match c with
  | Int _ -> put_int o v
  | Word _ -> put_word o v
  | Bool -> put_bool o v
  | Str -> put_str o v
  | Bytes _ -> put_str o v
  | Enum e -> ( match key_of e v e.members with Code k -> put_int o k | Name s -> put_str o s)
  | Opt c -> (
    match v with
    | None -> put_list o 0
    | Some x ->
      put_list o 1;
      write o c x)
  | List c ->
    put_list o (List.length v);
    write_list o c v
  | Array (_, c) ->
    put_list o (Array.length v);
    for k = 0 to Array.length v - 1 do
      write o c v.(k)
    done
  | Pair (a, b) ->
    put_list o 2;
    write o a (fst v);
    write o b (snd v)
  | Triple (a, b, c) ->
    let x, y, z = v in
    put_list o 3;
    write o a x;
    write o b y;
    write o c z
  | Record r -> write_record o r.fields v
  | Slots s ->
    let n = s.len v in
    put_list o n;
    for k = 0 to n - 1 do
      write o s.elt (s.nth v k)
    done
  | Words (n, buf) ->
    let b = buf v in
    put_list o n;
    for k = 0 to n - 1 do
      put_word_at o b (8 * k)
    done
  | Conv c -> write o c.via (c.to_ v)
  | Into c -> c.enc o v

and write_list : type a. out -> a codec -> a list -> unit =
 fun o c -> function
  | [] -> ()
  | x :: tl ->
    write o c x;
    write_list o c tl

and write_record : type r. out -> r field list -> r -> unit =
 fun o fields r ->
  put_record o (List.length fields);
  write_fields o fields r

and write_fields : type r. out -> r field list -> r -> unit =
 fun o fields r ->
  match fields with
  | [] -> ()
  | F f :: tl ->
    put_name o f.name;
    write o f.codec (f.get r);
    write_fields o tl r

let to_string (o : out) fields r =
  o.len <- 0;
  write_record o fields r;
  Bytes.sub_string o.buf 0 o.len

let rec in_place : type a. a codec -> bool = function
  | Record _ | Slots _ | Words _ | Into _ -> true
  | Opt c -> in_place c
  | _ -> false

(* The member whose key is the node at [pos]. *)
let read_enum e i =
  let s = i.s and p = i.pos in
  match String.unsafe_get s p with
  | 'I' ->
    let c = String.get_int64_be s (p + 1) in
    i.pos <- p + 9;
    let v = Int64.to_int c in
    let rec find = function
      | [] -> fail "bad %s code %Ld" e.what c
      | (x, Code k) :: _ when k = v && Int64.equal (Int64.of_int v) c -> x
      | _ :: tl -> find tl
    in
    find e.members
  | 'S' ->
    let rec find = function
      | [] -> fail "bad %s %S" e.what (String.sub s (p + 5) (u32 s (p + 1)))
      | (x, Name n) :: _ when name_is s (p + 1) n -> x
      | _ :: tl -> find tl
    in
    let x = find e.members in
    i.pos <- p + 5 + u32 s (p + 1);
    x
  | _ -> fail "bad %s node" e.what

(* Pairs and triples read their last element first, then the others
   backwards: the order their checks have always run in. *)
let rec read : type a. Fault.Plan.t option -> a codec -> input -> a =
 fun plan c i ->
  match c with
  | Int (lo, hi) ->
    let w = word_node i in
    let v = Int64.to_int w in
    if not (Int64.equal (Int64.of_int v) w) then fail "0x%Lx is outside the int range" w;
    if v < lo || v > hi then fail "%d outside %d..%d" v lo hi;
    v
  | Word align ->
    let v = word_node i in
    if Int64.logand v (Int64.of_int (align - 1)) <> 0L then
      fail "0x%Lx is not %d-byte aligned" v align;
    v
  | Bool -> bool_node i
  | Str -> str_node i
  | Bytes len ->
    let s = str_node i in
    if String.length s <> len then fail "%d bytes, this build has %d" (String.length s) len;
    s
  | Enum e -> read_enum e i
  | Opt c -> (
    if tag i <> 'L' then fail "expected option node";
    match u32 i.s (i.pos + 1) with
    | 0 ->
      i.pos <- i.pos + 5;
      None
    | 1 ->
      i.pos <- i.pos + 5;
      Some (read plan c i)
    | _ -> fail "expected option node")
  | List c ->
    let n = list_node i in
    read_elts plan c i 0 n
  | Array (len, c) ->
    let n = list_node i in
    if n <> len then fail "%d elements, this build has %d" n len;
    if n = 0 then [||]
    else
      let a = Array.make n (read_elt plan c i 0) in
      for k = 1 to n - 1 do
        a.(k) <- read_elt plan c i k
      done;
      a
  | Pair (a, b) ->
    if tag i <> 'L' then fail "expected list node";
    if u32 i.s (i.pos + 1) <> 2 then fail "expected a pair";
    let x = i.pos + 5 in
    i.pos <- node_end i.s x;
    let vb = read plan b i in
    let e = i.pos in
    i.pos <- x;
    let va = read plan a i in
    i.pos <- e;
    (va, vb)
  | Triple (a, b, c) ->
    if tag i <> 'L' then fail "expected list node";
    if u32 i.s (i.pos + 1) <> 3 then fail "expected a triple";
    let x = i.pos + 5 in
    let y = node_end i.s x in
    i.pos <- node_end i.s y;
    let vc = read plan c i in
    let e = i.pos in
    i.pos <- y;
    let vb = read plan b i in
    i.pos <- x;
    let va = read plan a i in
    i.pos <- e;
    (va, vb, vc)
  | Record { zero = Some z; fields } -> read_record plan z fields i
  | Conv c -> c.of_ (read plan c.via i)
  | Record { zero = None; _ } | Slots _ | Words _ | Into _ ->
    invalid_arg "Snap.Codec.read: reads in place"

and read_elt : type a. Fault.Plan.t option -> a codec -> input -> int -> a =
 fun plan c i k -> match read plan c i with v -> v | exception e -> raise (inside (index k) e)

and[@tail_mod_cons] read_elts :
    type a. Fault.Plan.t option -> a codec -> input -> int -> int -> a list =
 fun plan c i k n ->
  if k = n then []
  else
    let v = read_elt plan c i k in
    v :: read_elts plan c i (k + 1) n

and read_into : type a. Fault.Plan.t option -> a codec -> a -> input -> a =
 fun plan c base i ->
  match c with
  | Record r -> read_record plan base r.fields i
  | Slots s ->
    let n = list_node i in
    if n <> s.len base then fail "%d entries, this machine has %d" n (s.len base);
    for k = 0 to n - 1 do
      match if in_place s.elt then read_into plan s.elt (s.nth base k) i else read plan s.elt i with
      | v -> s.set_nth base k v
      | exception e -> raise (inside (index k) e)
    done;
    base
  | Words (len, buf) ->
    let n = list_node i in
    if n <> len then fail "%d entries, this machine has %d" n len;
    let b = buf base in
    for k = 0 to n - 1 do
      if tag i <> 'I' then raise (Bad_field (index k, "expected int node"));
      Bytes.set_int64_ne b (8 * k) (String.get_int64_be i.s (i.pos + 1));
      i.pos <- i.pos + 9
    done;
    base
  | Into c -> c.dec plan base i
  | Opt c when in_place c -> (
    let n = if tag i = 'L' then u32 i.s (i.pos + 1) else -1 in
    match (base, n) with
    | Some b, 1 ->
      i.pos <- i.pos + 5;
      Some (read_into plan c b i)
    | None, 1 -> fail "the image carries state this machine lacks"
    | Some _, 0 -> fail "this machine has state the image lacks"
    | None, 0 ->
      i.pos <- i.pos + 5;
      None
    | _ -> fail "expected option node")
  | c -> read plan c i

(* The record node at [pos] into [r], field by field in declaration
   order.  [at] is the image field expected next and [left] how many
   follow it: every image field before [at] carries the name of a
   declared field already read, so one whose name matches there is the
   first of its name.  A field not there is looked up; [at] stays. *)
and read_record : type r. Fault.Plan.t option -> r -> r field list -> input -> r =
 fun plan r fields i ->
  let rp = i.pos in
  if tag i <> 'R' then begin
    (* the first field read looks for itself in vain *)
    let r = read_fields plan r fields i rp 0 0 in
    i.pos <- node_end i.s rp;
    r
  end
  else read_fields plan r fields i rp (rp + 5) (u32 i.s (rp + 1))

and read_fields :
    type r. Fault.Plan.t option -> r -> r field list -> input -> int -> int -> int -> r =
 fun plan r fields i rp at left ->
  match fields with
  | [] ->
    i.pos <- fields_end i.s left at;
    r
  | F f :: tl ->
    if left > 0 && name_is i.s at f.name then begin
      let v = at + 4 + String.length f.name in
      let r =
        match f.set with
        | Skip ->
          i.pos <- node_end i.s v;
          r
        | _ ->
          i.pos <- v;
          read_field plan r f i
      in
      read_fields plan r tl i rp i.pos (left - 1)
    end
    else
      let r =
        match f.set with
        | Skip -> r
        | _ ->
          i.pos <- lookup i.s rp f.name;
          read_field plan r f i
      in
      read_fields plan r tl i rp at left

and read_field : type r a. Fault.Plan.t option -> r -> (r, a) fld -> input -> r =
 fun plan r f i ->
  match if in_place f.codec then read_into plan f.codec (f.get r) i else read plan f.codec i with
  | v -> (
    match f.set with
    | Set s ->
      s r v;
      r
    | Update u -> u r v
    | In_place | Skip -> r)
  | exception e -> raise (inside f.name e)

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
    | Words (n, buf) ->
      let b = buf v in
      for i = 0 to n - 1 do
        value (path ^ index i) (Word 1) (Bytes.get_int64_ne b (8 * i))
          (Bytes.set_int64_ne b (8 * i))
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
let enum what codes = Enum { what; members = List.map (fun (x, c) -> (x, Code c)) codes }
let indexed what l = enum what (List.mapi (fun i x -> (x, i)) l)
let words n buf = Words (n, buf)
let each elt = Slots { len = Array.length; nth = Array.get; set_nth = Array.set; elt }
let conv to_ of_ via = Conv { to_; of_; via }

(* Reading a whole declaration, or one field by itself: a failure inside
   a field raises [Format_error] naming its path. *)

let load plan fields r i =
  match read_record plan r fields i with
  | r -> r
  | exception Bad_field (p, msg) -> fail "%s: %s" p msg

let read_named (type r a) plan (f : (r, a) fld) i : a =
  let at = i.pos in
  match
    i.pos <- lookup i.s at f.name;
    read plan f.codec i
  with
  | v ->
    i.pos <- at;
    v
  | exception e -> (
    match inside f.name e with Bad_field (p, msg) -> fail "%s: %s" p msg | e -> raise e)

(* ------------------------------------------------------------------ *)
(* Structural diff, in place                                           *)
(* ------------------------------------------------------------------ *)

(* Equal bytes are equal nodes, so only a differing pair is descended
   into, and only its path is built. *)
let same a pa b pb n =
  let rec go k =
    k = n || (String.unsafe_get a (pa + k) = String.unsafe_get b (pb + k) && go (k + 1))
  in
  go 0

let rec diff_at path a pa b pb =
  let ea = node_end a pa and eb = node_end b pb in
  if ea - pa = eb - pb && same a pa b pb (ea - pa) then None
  else
    match (String.unsafe_get a pa, String.unsafe_get b pb) with
    | 'I', 'I' ->
      Some
        ( path,
          Printf.sprintf "0x%Lx vs 0x%Lx" (String.get_int64_be a (pa + 1))
            (String.get_int64_be b (pb + 1)) )
    | 'B', 'B' ->
      Some (path, Printf.sprintf "%b vs %b" (a.[pa + 1] <> '\000') (b.[pb + 1] <> '\000'))
    | 'S', 'S' ->
      Some
        ( path,
          Printf.sprintf "%S vs %S"
            (String.sub a (pa + 5) (u32 a (pa + 1)))
            (String.sub b (pb + 5) (u32 b (pb + 1))) )
    | 'L', 'L' ->
      let n = u32 a (pa + 1) and m = u32 b (pb + 1) in
      if n <> m then Some (path, Printf.sprintf "%d vs %d elements" n m)
      else
        let rec go k pa pb =
          if k = n then None
          else
            let ea = node_end a pa and eb = node_end b pb in
            if ea - pa = eb - pb && same a pa b pb (ea - pa) then go (k + 1) ea eb
            else diff_at (Printf.sprintf "%s[%d]" path k) a pa b pb
        in
        go 0 (pa + 5) (pb + 5)
    | 'R', 'R' ->
      let n = u32 a (pa + 1) and m = u32 b (pb + 1) in
      if n <> m then Some (path, Printf.sprintf "%d vs %d fields" n m)
      else
        let rec go k pa pb =
          if k = n then None
          else
            let la = u32 a pa and lb = u32 b pb in
            let va = pa + 4 + la and vb = pb + 4 + lb in
            if not (la = lb && same a (pa + 4) b (pb + 4) la) then
              Some
                ( path,
                  Printf.sprintf "field %S vs %S" (String.sub a (pa + 4) la)
                    (String.sub b (pb + 4) lb) )
            else
              let ea = node_end a va and eb = node_end b vb in
              if ea - va = eb - vb && same a va b vb (ea - va) then go (k + 1) ea eb
              else
                let nx = String.sub a (pa + 4) la in
                diff_at (if path = "" then nx else path ^ "." ^ nx) a va b vb
        in
        go 0 (pa + 5) (pb + 5)
    | _ -> Some (path, "node kinds differ")

let diff a b = diff_at "" a 0 b 0

(* The first declared topology field whose nodes differ, searching
   records depth-first in declaration order. *)
let topology fields a b =
  let rec search : type r. string -> r field list -> int -> int -> (string * string) option =
   fun path fields pa pb ->
    match fields with
    | [] -> None
    | F f :: tl -> (
      let p () = if path = "" then f.name else path ^ "." ^ f.name in
      let d =
        match f.codec with
        | _ when f.topology -> diff_at (p ()) a (lookup a pa f.name) b (lookup b pb f.name)
        | Record r -> search (p ()) r.fields (lookup a pa f.name) (lookup b pb f.name)
        | _ -> None
      in
      match d with Some _ -> d | None -> search path tl pa pb)
  in
  search "" fields 0 0
