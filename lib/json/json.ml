(* The one JSON writer: a value type and a compact printer.  See json.mli
   for the escape rule. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_seq b ~first ~last add xs =
  Buffer.add_char b first;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add x)
    xs;
  Buffer.add_char b last

let rec add b = function
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (Printf.sprintf "%.4f" f)
  | String s -> add_string b s
  | List xs -> add_seq b ~first:'[' ~last:']' (add b) xs
  | Obj kvs ->
    add_seq b ~first:'{' ~last:'}'
      (fun (k, v) ->
        add_string b k;
        Buffer.add_char b ':';
        add b v)
      kvs

let to_string v =
  let b = Buffer.create 1024 in
  add b v;
  Buffer.contents b
