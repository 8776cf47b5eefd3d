(** The one JSON writer every report goes through.

    A report builds a {!t} and prints it with {!to_string}; no other
    module formats JSON punctuation or escapes strings itself.  The
    constructors are the ones the reports use, nothing more. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float  (** printed as [%.4f]; callers pass finite values *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** keys printed in the order given *)

val to_string : t -> string
(** Compact JSON: no whitespace between tokens.  Strings and keys are
    escaped byte by byte: a double quote and a backslash get a
    backslash in front, newline becomes [\n], any other byte below 0x20
    becomes [\u00xx] (lowercase hex), and every other byte is copied
    verbatim, so UTF-8 text passes through unchanged. *)
