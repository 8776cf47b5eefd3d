module Memory = Arm.Memory

(* Generic page-table walker over simulated physical memory.

   39-bit input addresses, 4 KB granule, three levels:
   level 1 indexes IA[38:30], level 2 IA[29:21], level 3 IA[20:12].
   Tables live in the simulated machine's memory, so a walk performs real
   (costed, if walked via the CPU) memory reads. *)

type fault = {
  f_level : int;
  f_ia : int64;
  f_reason : [ `Translation | `Permission ];
}

let pp_fault ppf f =
  Fmt.pf ppf "%s fault at level %d, ia=0x%Lx"
    (match f.f_reason with `Translation -> "translation" | `Permission -> "permission")
    f.f_level f.f_ia

type translation = {
  t_pa : int64;
  t_perms : Pte.perms;
  t_level : int;  (* level at which the walk resolved (block or page) *)
}

let page_shift = 12
let page_size = 1 lsl page_shift
let index_bits = 9

let level_shift level = page_shift + ((3 - level) * index_bits)

let index_at ~level ia =
  Int64.to_int
    (Int64.logand
       (Int64.shift_right_logical ia (level_shift level))
       (Int64.of_int ((1 lsl index_bits) - 1)))

let descriptor_addr ~table ~level ia =
  Int64.add table (Int64.of_int (index_at ~level ia * 8))

let page_base a = Int64.logand a (Int64.lognot (Int64.of_int (page_size - 1)))
let page_offset a = Int64.logand a (Int64.of_int (page_size - 1))

let block_base ~level a =
  let sz = Int64.shift_left 1L (level_shift level) in
  Int64.logand a (Int64.lognot (Int64.sub sz 1L))

let block_offset ~level a =
  let sz = Int64.shift_left 1L (level_shift level) in
  Int64.logand a (Int64.sub sz 1L)

(* Walk the table rooted at [base] for input address [ia].  The memory's
   injection hook is asked first: a walk it fails misses at level 1
   without touching the tables.  The hook belongs to the machine that
   owns the memory, so it perturbs that machine's walks, from CPU-driven
   stage-2 lookups and host shadow-table maintenance alike, and no
   other's. *)
let walk mem ~base ~ia ~is_write : (translation, fault) result =
  if mem.Memory.s2_inject ia then Error { f_level = 1; f_ia = ia; f_reason = `Translation }
  else
  let rec go table level =
    let daddr = descriptor_addr ~table ~level ia in
    let d = Pte.decode ~level (Memory.read64 mem daddr) in
    match d.Pte.kind with
    | Pte.Invalid -> Error { f_level = level; f_ia = ia; f_reason = `Translation }
    | Pte.Table -> go d.Pte.output (level + 1)
    | Pte.Block | Pte.Page ->
      if is_write && not d.Pte.perms.Pte.writable then
        Error { f_level = level; f_ia = ia; f_reason = `Permission }
      else if (not is_write) && not d.Pte.perms.Pte.readable then
        Error { f_level = level; f_ia = ia; f_reason = `Permission }
      else
        let off =
          if d.Pte.kind = Pte.Page then page_offset ia
          else block_offset ~level ia
        in
        Ok { t_pa = Int64.add d.Pte.output off; t_perms = d.Pte.perms; t_level = level }
  in
  go base 1

(* A trivial physical-page allocator for table memory. *)
type allocator = { mutable next : int64 }

let allocator ~start = { next = start }

let alloc_page a mem =
  let p = a.next in
  a.next <- Int64.add a.next (Int64.of_int page_size);
  Memory.zero_range mem ~start:p ~len:(Int64.of_int page_size);
  p

(* Install a 4 KB page mapping ia -> pa, creating intermediate tables. *)
let map_page mem alloc ~base ~ia ~pa ~perms =
  let rec go table level =
    let daddr = descriptor_addr ~table ~level ia in
    if level = 3 then
      Memory.write64 mem daddr
        (Pte.encode ~level { Pte.kind = Pte.Page; output = page_base pa; perms })
    else
      let d = Pte.decode ~level (Memory.read64 mem daddr) in
      match d.Pte.kind with
      | Pte.Table -> go d.Pte.output (level + 1)
      | Pte.Invalid ->
        let nt = alloc_page alloc mem in
        Memory.write64 mem daddr
          (Pte.encode ~level { Pte.kind = Pte.Table; output = nt; perms = Pte.rwx });
        go nt (level + 1)
      | Pte.Block | Pte.Page ->
        invalid_arg "Walk.map_page: remapping over a block mapping"
  in
  go base 1

(* Install a block mapping at level 2 (2 MB). *)
let map_block2 mem alloc ~base ~ia ~pa ~perms =
  let rec go table level =
    let daddr = descriptor_addr ~table ~level ia in
    if level = 2 then
      Memory.write64 mem daddr
        (Pte.encode ~level
           { Pte.kind = Pte.Block; output = block_base ~level pa; perms })
    else
      let d = Pte.decode ~level (Memory.read64 mem daddr) in
      match d.Pte.kind with
      | Pte.Table -> go d.Pte.output (level + 1)
      | Pte.Invalid ->
        let nt = alloc_page alloc mem in
        Memory.write64 mem daddr
          (Pte.encode ~level { Pte.kind = Pte.Table; output = nt; perms = Pte.rwx });
        go nt (level + 1)
      | Pte.Block | Pte.Page ->
        invalid_arg "Walk.map_block2: remapping over a block mapping"
  in
  go base 1

let unmap_page mem ~base ~ia =
  let rec go table level =
    let daddr = descriptor_addr ~table ~level ia in
    let d = Pte.decode ~level (Memory.read64 mem daddr) in
    match d.Pte.kind with
    | Pte.Invalid -> ()
    | Pte.Table -> go d.Pte.output (level + 1)
    | Pte.Block | Pte.Page -> Memory.write64 mem daddr 0L
  in
  go base 1

(* Map a contiguous range with 4 KB pages. *)
let map_range mem alloc ~base ~ia ~pa ~len ~perms =
  let pages = (Int64.to_int len + page_size - 1) / page_size in
  for i = 0 to pages - 1 do
    let off = Int64.of_int (i * page_size) in
    map_page mem alloc ~base ~ia:(Int64.add ia off) ~pa:(Int64.add pa off)
      ~perms
  done
