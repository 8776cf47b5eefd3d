(* The domain-safety lint: no module-level mutable state in lib/.

   The fleet engine runs machines concurrently on OCaml domains, so any
   module-global ref/table a machine touches is a cross-domain data
   race.  The rule enforced here: a parameterless top-level [let] in
   lib/ must not allocate mutable state (ref, Hashtbl/Buffer/Queue/
   Bytes/Stack.create, Array.make, Atomic.make) unless it is

   - domain-local ([Domain.DLS.new_key] — each domain gets its own), or
   - allowlisted with a justification comment containing the marker
     "domain-safety: allowlisted global" within the 12 lines above the
     binding (the sanctioned cases: read-only lookup tables populated at
     module load, Trace.on's may-trace guard, Memory.no_page's immutable
     sentinel).

   The lint reads the real sources (dune's source_tree dep), so a new
   global introduced anywhere in lib/ fails this test with file:line
   until it is made domain-local or argued for in a comment the reviewer
   can see. *)

open Alcotest

let marker = "domain-safety: allowlisted global"

let mutable_constructors =
  [
    "Hashtbl.create"; "Buffer.create"; "Queue.create"; "Bytes.create";
    "Array.make"; "Atomic.make"; "Stack.create";
  ]

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* word-boundary substring search, so "ref" does not match "prefix" *)
let contains_word s w =
  let n = String.length w and m = String.length s in
  let rec go i =
    if i + n > m then false
    else if
      String.sub s i n = w
      && (i = 0 || not (is_ident_char s.[i - 1]))
      && (i + n = m || not (is_ident_char s.[i + n]))
    then true
    else go (i + 1)
  in
  go 0

let contains_sub s w =
  let n = String.length w and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = w || go (i + 1)) in
  go 0

let allocates_mutable text =
  contains_word text "ref"
  || List.exists (fun c -> contains_sub text c) mutable_constructors

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      Array.of_list (List.rev acc)
  in
  go []

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then ml_files path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

(* A top-level value binding: a column-0 [let name] where the first
   token after the (possibly type-annotated) name is [=] or [:] — i.e.
   no parameters, so the right-hand side is evaluated once at module
   load and shared by every domain.  Function bindings allocate per
   call and are fine. *)
let binding_name line =
  if String.length line > 4 && String.sub line 0 4 = "let " then begin
    let rest = String.sub line 4 (String.length line - 4) in
    if rest = "" || not ((rest.[0] >= 'a' && rest.[0] <= 'z') || rest.[0] = '_')
    then None
    else begin
      let i = ref 0 in
      while !i < String.length rest && is_ident_char rest.[!i] do incr i done;
      let name = String.sub rest 0 !i in
      while !i < String.length rest && rest.[!i] = ' ' do incr i done;
      if !i < String.length rest && (rest.[!i] = '=' || rest.[!i] = ':') then
        Some name
      else None
    end
  end
  else None

type finding = { f_path : string; f_line : int; f_name : string }

(* continuation lines of a top-level binding: indented, blank, or a
   dangling close-paren *)
let is_continuation line =
  line = "" || line.[0] = ' ' || line.[0] = '\t' || line.[0] = ')'

let lint_file path =
  let lines = read_lines path in
  let findings = ref [] in
  let allowlisted = ref 0 in
  let i = ref 0 in
  while !i < Array.length lines do
    (match binding_name lines.(!i) with
    | None -> incr i
    | Some name ->
      let start = !i in
      let body = Buffer.create 256 in
      Buffer.add_string body lines.(start);
      incr i;
      while !i < Array.length lines && is_continuation lines.(!i) do
        Buffer.add_char body '\n';
        Buffer.add_string body lines.(!i);
        incr i
      done;
      let text = Buffer.contents body in
      if allocates_mutable text && not (contains_sub text "Domain.DLS.new_key")
      then begin
        let above = Buffer.create 256 in
        for j = max 0 (start - 12) to start - 1 do
          Buffer.add_string above lines.(j);
          Buffer.add_char above '\n'
        done;
        if contains_sub (Buffer.contents above) marker then incr allowlisted
        else
          findings :=
            { f_path = path; f_line = start + 1; f_name = name } :: !findings
      end);
    ()
  done;
  (List.rev !findings, !allowlisted)

(* dune runtest runs in _build/default/test (lib is a sibling via the
   source_tree dep); dune exec test/test_main.exe runs from the project
   root *)
let lib_dir =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then "../lib"
  else "lib"

let test_no_unreviewed_globals () =
  let findings, _ =
    List.fold_left
      (fun (fs, al) path ->
        let f, a = lint_file path in
        (fs @ f, al + a))
      ([], 0) (ml_files lib_dir)
  in
  if findings <> [] then
    fail
      ("module-level mutable state outside the allowlist (make it \
        domain-local with Domain.DLS, or justify it with a \""
      ^ marker ^ "\" comment):\n"
      ^ String.concat "\n"
          (List.map
             (fun f -> Printf.sprintf "  %s:%d: %s" f.f_path f.f_line f.f_name)
             findings))

let test_allowlist_is_small_and_justified () =
  let allowlisted =
    List.fold_left
      (fun acc path -> acc + snd (lint_file path))
      0 (ml_files lib_dir)
  in
  (* the sanctioned globals: Trace.on, Memory.no_page and the
     module-load-time lookup tables.  Growing this number is a review
     event — raise the bound consciously, with a justification comment at
     the new site. *)
  check bool
    (Printf.sprintf "allowlist has %d entries (expected 1..9)" allowlisted)
    true
    (allowlisted >= 1 && allowlisted <= 9)

let test_lint_sees_the_tree () =
  (* guard the lint against a silent no-op if the source tree moves *)
  let files = ml_files lib_dir in
  check bool
    (Printf.sprintf "lint scanned %d files (expected > 40)"
       (List.length files))
    true
    (List.length files > 40)

let suite =
  [
    test_case "lib/ has no unreviewed module-level mutable state" `Quick
      test_no_unreviewed_globals;
    test_case "the allowlist stays small and justified" `Quick
      test_allowlist_is_small_and_justified;
    test_case "the lint actually scans the tree" `Quick test_lint_sees_the_tree;
  ]
