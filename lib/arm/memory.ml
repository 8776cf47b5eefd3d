(* Sparse physical memory: 64-bit words addressed by byte address.

   Addresses must be 8-byte aligned; the simulator only performs aligned
   64-bit accesses (the deferred access page is defined in 8-byte slots).

   Representation: 4 KB pages of flat [Bytes.t] keyed by page index
   (byte address lsr 12) in an int-keyed hash table, with a small
   direct-mapped front cache of recently touched pages.  Loads and
   stores that hit the front cache never enter the hash table, so the
   interpreter's fetch/load/store path costs a bytes read plus a couple
   of integer compares instead of an int64-keyed hash lookup per access.
   Bytes pages hold their words unboxed and are opaque to the GC: a
   store is a plain 8-byte write with no int64 box allocation and no
   write barrier, and the collector never scans page contents.

   The memory also tracks a code envelope [code_lo, code_hi): stores that
   land inside it bump [code_gen], which the interpreter's superblock
   translation cache uses to invalidate decoded blocks when guest code is
   patched at runtime (the paper's Section 4 binary-patching path). *)

let page_bytes = 4096
let page_words = page_bytes / 8
let cache_slots = 64

(* Distinguished empty page: physical equality marks an absent page in
   the front cache without an option allocation.
   domain-safety: allowlisted global — an immutable zero-length sentinel
   that is compared by identity and never written. *)
let no_page : Bytes.t = Bytes.create 0

let no_inject _ = false

type t = {
  pages : (int, Bytes.t) Hashtbl.t; (* page index -> 4096 bytes *)
  cache_idx : int array; (* direct-mapped front cache: page indices *)
  cache_pg : Bytes.t array; (* matching pages ([no_page] = empty) *)
  mutable mmio : (int64 * int64 * string) list;
      (* [start, start+len) regions with no backing store; accesses to them
         are what stage-2 leaves unmapped so they fault for emulation *)
  mutable on_write : (int64 -> unit) option;
      (* write observer (dirty-page tracking): called with the byte
         address after every stored word.  One option check on the store
         path when unused. *)
  mutable s2_inject : int64 -> bool;
      (* stage-2 fault injection: asked before every table walk over this
         memory with the input address; [true] fails the walk.  The
         machine owning the memory arms it from its fault plan. *)
  mutable code_lo : int64; (* tracked code envelope, inclusive *)
  mutable code_hi : int64; (* exclusive; empty when lo >= hi *)
  mutable code_gen : int; (* bumped on any store into the envelope *)
}

let create () =
  {
    pages = Hashtbl.create 64;
    cache_idx = Array.make cache_slots min_int;
    cache_pg = Array.make cache_slots no_page;
    mmio = [];
    on_write = None;
    s2_inject = no_inject;
    code_lo = Int64.max_int;
    code_hi = Int64.min_int;
    code_gen = 0;
  }

(* Unsafe unboxed word accessors: every caller derives the offset from a
   masked page-relative index, so bounds hold by construction. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Cold path split out so [check_aligned] stays small enough to inline
   into every load/store. *)
let[@inline never] misaligned addr =
  invalid_arg (Printf.sprintf "Memory: unaligned access at 0x%Lx" addr)

let[@inline] check_aligned addr =
  if Int64.logand addr 7L <> 0L then misaligned addr

let[@inline] page_index addr = Int64.to_int (Int64.shift_right_logical addr 12)
let[@inline] byte_index addr = Int64.to_int addr land (page_bytes - 1)

(* Page lookup through the front cache; [no_page] on a miss.  Misses are
   not cached (a later store creating the page would have to invalidate). *)
let[@inline] find_page t pi =
  let slot = pi land (cache_slots - 1) in
  if Array.unsafe_get t.cache_idx slot = pi then Array.unsafe_get t.cache_pg slot
  else
    match Hashtbl.find_opt t.pages pi with
    | Some p ->
        Array.unsafe_set t.cache_idx slot pi;
        Array.unsafe_set t.cache_pg slot p;
        p
    | None -> no_page

let get_or_create_page t pi =
  let p = find_page t pi in
  if p != no_page then p
  else begin
    let p = Bytes.make page_bytes '\000' in
    Hashtbl.replace t.pages pi p;
    let slot = pi land (cache_slots - 1) in
    Array.unsafe_set t.cache_idx slot pi;
    Array.unsafe_set t.cache_pg slot p;
    p
  end

let read64 t addr =
  check_aligned addr;
  let p = find_page t (page_index addr) in
  if p == no_page then 0L else get_word p (byte_index addr)

(* After-store bookkeeping shared by every word store: invalidate decoded
   code inside the envelope, then notify the write observer. *)
let[@inline] stored t addr =
  if addr >= t.code_lo && addr < t.code_hi then t.code_gen <- t.code_gen + 1;
  match t.on_write with None -> () | Some f -> f addr

let write64 t addr v =
  check_aligned addr;
  let p = get_or_create_page t (page_index addr) in
  set_word p (byte_index addr) v;
  stored t addr

(* Word kernels: move words between pages and a caller's byte buffer (a
   register file), entirely inside this module.  A value crossing a
   module boundary as an [int64] is boxed, so the world-switch copy loops
   use these instead of [read64]/[write64] pairs.  Addresses are a base
   plus an [int] offset, so callers keep per-register layouts as plain
   [int array]s; word [w] of a buffer is its bytes [8w, 8w+8).  Each word
   moved is observably one [read64] or [write64]. *)

let[@inline never] bad_word w =
  invalid_arg (Printf.sprintf "Memory: buffer word %d out of bounds" w)

let[@inline] check_word (b : Bytes.t) w =
  if w < 0 || w >= Bytes.length b / 8 then bad_word w

let store_from t ~base off (src : Bytes.t) w =
  check_word src w;
  let addr = Int64.add base (Int64.of_int off) in
  check_aligned addr;
  let p = get_or_create_page t (page_index addr) in
  set_word p (byte_index addr) (get_word src (w * 8));
  stored t addr

let load_into t ~base off (dst : Bytes.t) w =
  check_word dst w;
  let addr = Int64.add base (Int64.of_int off) in
  check_aligned addr;
  let p = find_page t (page_index addr) in
  set_word dst (w * 8)
    (if p == no_page then 0L else get_word p (byte_index addr))

let holds_word t ~base off (b : Bytes.t) w =
  check_word b w;
  let addr = Int64.add base (Int64.of_int off) in
  check_aligned addr;
  let p = find_page t (page_index addr) in
  Int64.equal
    (if p == no_page then 0L else get_word p (byte_index addr))
    (get_word b (w * 8))

(* Whole copy loops: a loop's context slots share a page, so the page
   found for one word serves the next without another lookup.  A write
   observer may touch memory, so after it runs the next word looks its
   page up afresh. *)
let store_words t ~base (offs : int array) (src : Bytes.t)
    (words : int array) =
  let n = Array.length offs in
  if Array.length words <> n then invalid_arg "Memory.store_words";
  let last_pi = ref min_int and last_p = ref no_page in
  for k = 0 to n - 1 do
    let w = Array.unsafe_get words k in
    check_word src w;
    let addr = Int64.add base (Int64.of_int (Array.unsafe_get offs k)) in
    check_aligned addr;
    let pi = page_index addr in
    if pi <> !last_pi then begin
      last_p := get_or_create_page t pi;
      last_pi := pi
    end;
    set_word !last_p (byte_index addr) (get_word src (w * 8));
    if addr >= t.code_lo && addr < t.code_hi then t.code_gen <- t.code_gen + 1;
    match t.on_write with
    | None -> ()
    | Some f ->
      f addr;
      last_pi := min_int
  done

let load_words t ~base (offs : int array) (dst : Bytes.t)
    (words : int array) =
  let n = Array.length offs in
  if Array.length words <> n then invalid_arg "Memory.load_words";
  let last_pi = ref min_int and last_p = ref no_page in
  for k = 0 to n - 1 do
    let w = Array.unsafe_get words k in
    check_word dst w;
    let addr = Int64.add base (Int64.of_int (Array.unsafe_get offs k)) in
    check_aligned addr;
    let pi = page_index addr in
    if pi <> !last_pi then begin
      last_p := find_page t pi;
      last_pi := pi
    end;
    let p = !last_p in
    set_word dst (w * 8)
      (if p == no_page then 0L else get_word p (byte_index addr))
  done

(* A 32-bit store (program loading): the low 32 bits of [v] into the half
   of the aligned word at [base + off] that bit 2 of the address names,
   observably one [read64] and one [write64] of that word. *)
let store32 t ~base off v =
  let addr = Int64.add base (Int64.of_int off) in
  let waddr = Int64.logand addr (Int64.lognot 7L) in
  let p = get_or_create_page t (page_index waddr) in
  let i = byte_index waddr in
  let sh = if Int64.logand addr 4L <> 0L then 32 else 0 in
  let keep = Int64.lognot (Int64.shift_left 0xffff_ffffL sh) in
  let v64 = Int64.logand (Int64.of_int v) 0xffff_ffffL in
  set_word p i
    (Int64.logor (Int64.logand (get_word p i) keep) (Int64.shift_left v64 sh));
  stored t waddr

(* A 32-bit fetch (instruction words): the half of the aligned word at
   [base + off] that bit 2 of the address names, as an [int] — the
   mirror of [store32], observably one [read64] of that word.  Inlined
   into the translator's fetch loop, it allocates nothing. *)
let[@inline] fetch32 t ~base off =
  let addr = Int64.add base (Int64.of_int off) in
  let p = find_page t (page_index addr) in
  if p == no_page then 0
  else
    let word = get_word p (byte_index (Int64.logand addr (Int64.lognot 7L))) in
    Int64.to_int
      (if Int64.logand addr 4L <> 0L then Int64.shift_right_logical word 32
       else word)
    land 0xffff_ffff

let copy64 t ~src ~dst =
  check_aligned src;
  let sp = find_page t (page_index src) in
  let v = if sp == no_page then 0L else get_word sp (byte_index src) in
  check_aligned dst;
  let p = get_or_create_page t (page_index dst) in
  set_word p (byte_index dst) v;
  stored t dst

let clear t =
  Hashtbl.reset t.pages;
  Array.fill t.cache_idx 0 cache_slots min_int;
  Array.fill t.cache_pg 0 cache_slots no_page;
  (* contents changed wholesale (snapshot restore): decoded code is stale *)
  t.code_gen <- t.code_gen + 1

(* Grow the tracked code envelope to cover [lo, hi) and count the load
   itself as a code change (any blocks decoded from the old contents of
   that range are stale). *)
let track_code t ~lo ~hi =
  if lo < t.code_lo then t.code_lo <- lo;
  if hi > t.code_hi then t.code_hi <- hi;
  t.code_gen <- t.code_gen + 1

let code_gen t = t.code_gen

(* Every backed, nonzero word in ascending address order.  A canonical
   view: an absent word and a stored zero read identically, so zeros are
   dropped — two memories with the same contents produce the same list
   regardless of allocation history. *)
let sorted_words t =
  let acc = ref [] in
  Hashtbl.iter
    (fun pi p ->
      let base = Int64.shift_left (Int64.of_int pi) 12 in
      for i = 0 to page_words - 1 do
        let v = get_word p (i * 8) in
        if v <> 0L then acc := (Int64.add base (Int64.of_int (i * 8)), v) :: !acc
      done)
    t.pages;
  List.sort (fun (a, _) (b, _) -> Int64.compare a b) !acc

(* The index of every backed page holding a nonzero word, in no
   particular order; each page's words are tested unboxed, up to its
   first nonzero one. *)
let iter_nonzero_pages t f =
  Hashtbl.iter
    (fun pi p ->
      let rec nonzero w =
        w < page_bytes && (get_word p w <> 0L || nonzero (w + 8))
      in
      if nonzero 0 then f pi)
    t.pages

(* Every backed page's index, in ascending address order as
   [sorted_words] orders addresses (signed): an index is an address's top
   52 bits, so its bit 51 is the address's sign. *)
let sorted_pages t =
  let key pi = pi lxor (1 lsl 51) in
  Hashtbl.fold (fun pi _ acc -> pi :: acc) t.pages []
  |> List.sort (fun a b -> Int.compare (key a) (key b))

(* The nonzero words of page [pi], ascending, into [dst] from byte [at]
   as (address, value) pairs of native-endian words; the byte after
   them.  Reads that page only, and allocates nothing. *)
let page_nonzero t pi (dst : Bytes.t) at =
  let p = find_page t pi in
  if p == no_page then at
  else begin
    let at = ref at in
    for w = 0 to page_words - 1 do
      let v = get_word p (w * 8) in
      if v <> 0L then begin
        Bytes.set_int64_ne dst !at
          (Int64.logor (Int64.shift_left (Int64.of_int pi) 12) (Int64.of_int (w * 8)));
        Bytes.set_int64_ne dst (!at + 8) v;
        at := !at + 16
      end
    done;
    !at
  end

(* [write64] of two big-endian words of a string (a snapshot image's
   payloads), unboxed. *)
let store_be t s ~addr ~value =
  let addr = String.get_int64_be s addr in
  check_aligned addr;
  let p = get_or_create_page t (page_index addr) in
  set_word p (byte_index addr) (String.get_int64_be s value);
  stored t addr

(* The nonzero words of an aligned range, ascending.  Zero words are
   tested unboxed, so only the words returned allocate. *)
let nonzero_words t ~start ~len =
  check_aligned start;
  let first = Int64.to_int start in
  let acc = ref [] in
  let addr = ref (first + (Int64.to_int len / 8 * 8) - 8) in
  while !addr >= first do
    let p = find_page t (!addr lsr 12) in
    let off = !addr land (page_bytes - 1) in
    if p != no_page && get_word p off <> 0L then
      acc := (!addr, get_word p off) :: !acc;
    addr := !addr - 8
  done;
  !acc

(* Zero an aligned range (used to initialize deferred access pages).
   Like the word store, invalidates decoded code if the range overlaps
   the envelope; unlike it, does not fire the write observer.  Works a
   page at a time: one lookup and one [Bytes.fill] per present page,
   absent pages skipped (they already read as zero).  Offsets are plain
   ints, so the loop allocates nothing. *)
let zero_range t ~start ~len =
  check_aligned start;
  let first = Int64.to_int start in
  let stop = first + (Int64.to_int len / 8 * 8) in
  let addr = ref first in
  while !addr < stop do
    let off = !addr land (page_bytes - 1) in
    let n = min (page_bytes - off) (stop - !addr) in
    let p = find_page t (!addr lsr 12) in
    if p != no_page then Bytes.unsafe_fill p off n '\000';
    addr := !addr + n
  done;
  let stop = Int64.add start len in
  if start < t.code_hi && stop > t.code_lo then t.code_gen <- t.code_gen + 1

(* --- rewinding to a mark ---

   A mark lists each page's nonzero words (a marked machine's pages are
   mostly zero, so this is far smaller than page copies) and the
   bookkeeping fields.  Rewinding zeroes the marked pages and writes the
   words back, and drops every page created since, so the page set is
   the marked one again.  The code generation is the one field that
   never goes back: blocks decoded from the marked-over contents carry
   generations up to the current one, so rewinding moves it forward
   like any other code change. *)

type page_mark = { pm_index : int; pm_offs : int array; pm_words : Bytes.t }

type mark = {
  mk_pages : page_mark list;
  mk_mmio : (int64 * int64 * string) list;
  mk_on_write : (int64 -> unit) option;
  mk_s2_inject : int64 -> bool;
  mk_code_lo : int64;
  mk_code_hi : int64;
}

let page_mark pi p =
  let offs = ref [] in
  for w = page_words - 1 downto 0 do
    if get_word p (w * 8) <> 0L then offs := (w * 8) :: !offs
  done;
  let offs = Array.of_list !offs in
  let words = Bytes.create (8 * Array.length offs) in
  Array.iteri (fun k off -> set_word words (k * 8) (get_word p off)) offs;
  { pm_index = pi; pm_offs = offs; pm_words = words }

let mark t =
  {
    mk_pages = Hashtbl.fold (fun pi p acc -> page_mark pi p :: acc) t.pages [];
    mk_mmio = t.mmio;
    mk_on_write = t.on_write;
    mk_s2_inject = t.s2_inject;
    mk_code_lo = t.code_lo;
    mk_code_hi = t.code_hi;
  }

let marked m pi = List.exists (fun pm -> pm.pm_index = pi) m.mk_pages

let rewind ?(drop = fun _ _ -> ()) t m =
  Hashtbl.filter_map_inplace
    (fun pi p ->
      if marked m pi then begin
        Bytes.fill p 0 page_bytes '\000';
        Some p
      end
      else begin
        drop pi p;
        None
      end)
    t.pages;
  Array.fill t.cache_idx 0 cache_slots min_int;
  Array.fill t.cache_pg 0 cache_slots no_page;
  List.iter
    (fun pm ->
      let p = get_or_create_page t pm.pm_index in
      Array.iteri (fun k off -> set_word p off (get_word pm.pm_words (k * 8)))
        pm.pm_offs)
    m.mk_pages;
  t.mmio <- m.mk_mmio;
  t.on_write <- m.mk_on_write;
  t.s2_inject <- m.mk_s2_inject;
  t.code_lo <- m.mk_code_lo;
  t.code_hi <- m.mk_code_hi;
  t.code_gen <- t.code_gen + 1

(* A zero page reads like an absent one, so backing an absent page with
   a zeroed buffer changes no load, store or walk. *)
let adopt t pi p =
  if find_page t pi == no_page then begin
    Bytes.fill p 0 page_bytes '\000';
    Hashtbl.replace t.pages pi p
  end
