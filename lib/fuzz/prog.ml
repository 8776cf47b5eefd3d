(* Fuzzer programs as snippet lists.

   The snippet structure is the well-formedness invariant: a memory
   access is generated together with the [mov] that materializes its base
   address, and branches skip whole snippets, so removing any subset of
   snippets (the shrinker's only operation) or clamping a branch past the
   end never produces a load from an address the generator did not
   choose.  That matters because the mechanisms legitimately differ on
   memory the oracle must not look at — the NEVE deferred access page
   exists only under NV2. *)

module Insn = Arm.Insn
module Encode = Arm.Encode

type branch_kind = K_b | K_cbz of int | K_cbnz of int

type snippet =
  | Straight of Insn.t list
  | Skip of branch_kind * int

type t = snippet list

let snippet_len = function
  | Straight l -> List.length l
  | Skip _ -> 1

let insns (prog : t) : Insn.t list =
  let n = List.length prog in
  let starts = Array.make (n + 1) 0 in
  List.iteri
    (fun i s -> starts.(i + 1) <- starts.(i) + snippet_len s)
    prog;
  List.concat
    (List.mapi
       (fun i s ->
         match s with
         | Straight l -> l
         | Skip (kind, skip) ->
           let target = starts.(min n (i + 1 + skip)) in
           (* a skip of 0 snippets is just the next instruction; keep the
              offset >= 1 so the branch never loops on itself *)
           let off = max 1 (target - starts.(i)) in
           (match kind with
            | K_b -> [ Insn.B off ]
            | K_cbz r -> [ Insn.Cbz (r, off) ]
            | K_cbnz r -> [ Insn.Cbnz (r, off) ]))
       prog)

let to_words prog = Array.of_list (List.map Encode.encode (insns prog))

(* --- repro files --- *)

let save ~path ~header words =
  let oc = open_out path in
  List.iter (fun l -> Printf.fprintf oc "# %s\n" l) header;
  Array.iter
    (fun w ->
      let disasm =
        match Encode.decode w with
        | Encode.D_insn i -> Insn.to_string i
        | Encode.D_unknown _ -> "?"
      in
      Printf.fprintf oc "%08x  # %s\n" w disasm)
    words;
  close_out oc

type repro = {
  r_path : string;
  r_header : string list;
  r_words : int array;
}

let load ~path =
  let ic = open_in path in
  let header = ref [] and words = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line = "" then ()
       else if String.length line > 0 && line.[0] = '#' then
         header :=
           String.trim (String.sub line 1 (String.length line - 1))
           :: !header
       else
         (* strip a trailing comment after the hex word *)
         let hex =
           match String.index_opt line '#' with
           | Some i -> String.trim (String.sub line 0 i)
           | None -> line
         in
         match int_of_string_opt ("0x" ^ hex) with
         | Some w -> words := w :: !words
         | None ->
           close_in ic;
           failwith
             (Printf.sprintf "%s: not a hex instruction word: %S" path hex)
     done
   with End_of_file -> close_in ic);
  {
    r_path = path;
    r_header = List.rev !header;
    r_words = Array.of_list (List.rev !words);
  }
