(* Hardware system-register storage.

   A flat [Bytes.t] of unboxed 8-byte slots keyed by the dense
   {!Sysreg.index}, plus a dirty bitmap recording which registers have
   been written since reset.  Reads, writes and register-set copies are
   O(1) accesses — the hashed lookup this replaces was the dominant cost
   of every MSR/MRS on the simulator's hot path, and the bytes
   representation keeps stores free of int64 boxing and write barriers
   (an [int64 array] slot assignment pays both).

   Reset values are architectural where it matters (MPIDR/MIDR
   identification, CurrentEL is synthesized from PSTATE by the CPU,
   ICH_VTR advertises the number of list registers). *)

type t = { values : Bytes.t; dirty : Bytes.t }

let ich_vtr_reset =
  (* ListRegs field [4:0] = number of LRs - 1. *)
  Int64.of_int (Sysreg.lr_count - 1)

let reset_value (r : Sysreg.t) =
  match r with
  | MPIDR_EL1 -> 0x8000_0000L (* uniprocessor-format affinity, cpu 0 *)
  | MIDR_EL1 -> 0x410f_d070L  (* an ARM Ltd part number *)
  | CNTFRQ_EL0 -> 24_000_000L
  | ICH_VTR_EL2 -> ich_vtr_reset
  | _ -> 0L

(* Reset image shared by [create]/[reset]; never mutated. *)
let reset_values : Bytes.t =
  let b = Bytes.make (Sysreg.count * 8) '\000' in
  for i = 0 to Sysreg.count - 1 do
    Bytes.set_int64_ne b (i * 8) (reset_value (Sysreg.of_index i))
  done;
  b

let create () =
  { values = Bytes.copy reset_values; dirty = Bytes.make Sysreg.count '\000' }

(* Raw dense-index accessors (serialization, compiled copy loops).
   Unsafe unboxed accesses: every index comes from the dense
   {!Sysreg.index}, bounded by {!Sysreg.count} by construction. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get_index t i = get_word t.values (i * 8)
let[@inline] set_index t i v = set_word t.values (i * 8) v

let[@inline] read t r = get_index t (Sysreg.index r)

(* Writability by dense index, so the software-write check reuses the
   index computed for the store instead of a second variant dispatch. *)
let writable : Bytes.t =
  Bytes.init Sysreg.count (fun i ->
      if Sysreg.read_only (Sysreg.of_index i) then '\000' else '\001')

let writable_index i = Bytes.get writable i = '\001'

let[@inline] write t r v =
  let i = Sysreg.index r in
  if writable_index i then begin
    set_index t i v;
    Bytes.unsafe_set t.dirty i '\001'
  end

(* Unchecked write, for hardware-internal updates (e.g. the CPU setting
   ESR_EL2 on exception entry, the GIC updating ICH_MISR). *)
let[@inline] hw_write t r v =
  let i = Sysreg.index r in
  set_index t i v;
  Bytes.unsafe_set t.dirty i '\001'

let reset t =
  Bytes.blit reset_values 0 t.values 0 (Sysreg.count * 8);
  Bytes.fill t.dirty 0 Sysreg.count '\000'

(* A mark lists only the registers that differ from a reset file (value
   or dirty bit) — a handful in a freshly started machine; rewinding
   resets the file and writes them back. *)
type mark = { mk_index : int array; mk_values : Bytes.t; mk_dirty : Bytes.t }

let mark t =
  let differs i =
    get_index t i <> get_word reset_values (i * 8)
    || Bytes.get t.dirty i <> '\000'
  in
  let index = List.filter differs (List.init Sysreg.count Fun.id) in
  let index = Array.of_list index in
  let n = Array.length index in
  let values = Bytes.create (8 * n) and dirty = Bytes.create n in
  Array.iteri
    (fun k i ->
      set_word values (k * 8) (get_index t i);
      Bytes.set dirty k (Bytes.get t.dirty i))
    index;
  { mk_index = index; mk_values = values; mk_dirty = dirty }

let rewind t m =
  Bytes.blit reset_values 0 t.values 0 (Sysreg.count * 8);
  Bytes.fill t.dirty 0 Sysreg.count '\000';
  for k = 0 to Array.length m.mk_index - 1 do
    let i = m.mk_index.(k) in
    set_index t i (get_word m.mk_values (k * 8));
    Bytes.unsafe_set t.dirty i (Bytes.get m.mk_dirty k)
  done

(* [hw_write dst r (read src r)], the value moved as a word. *)
let copy_reg ~src ~dst r =
  let i = Sysreg.index r in
  set_index dst i (get_index src i);
  Bytes.unsafe_set dst.dirty i '\001'

(* Copy a register set between two files (used by world switches performed
   by the host hypervisor outside the measured guest). *)
let copy ~src ~dst regs = List.iter (copy_reg ~src ~dst) regs

(* Same, over a precomputed dense-index array: the form the world-switch
   register lists compile to. *)
let copy_indices ~src ~dst (indices : int array) =
  for k = 0 to Array.length indices - 1 do
    let i = Array.unsafe_get indices k in
    set_index dst i (get_index src i);
    Bytes.unsafe_set dst.dirty i '\001'
  done

(* --- word kernels: register file <-> memory ---

   The world-switch copy loops move register values between a file and
   context slots in memory.  Done as [read] + [Memory.write64] (or the
   reverse) the value crosses a module boundary as an [int64] and is
   boxed on every copy; these kernels hand [Memory] the file's byte
   buffer instead, so a copy is two unboxed word moves.  The memory side
   is exactly [Memory.write64]/[read64]: alignment check, code-envelope
   invalidation, write observer. *)

let save_word t i mem ~base off = Memory.store_from mem ~base off t.values i

let load_word t i mem ~base off =
  Memory.load_into mem ~base off t.values i;
  Bytes.unsafe_set t.dirty i '\001'

let save t (indices : int array) mem ~base (offs : int array) =
  Memory.store_words mem ~base offs t.values indices

let restore t (indices : int array) mem ~base (offs : int array) =
  Memory.load_words mem ~base offs t.values indices;
  for k = 0 to Array.length indices - 1 do
    Bytes.unsafe_set t.dirty (Array.unsafe_get indices k) '\001'
  done

let holds t r v = Int64.equal (read t r) v

let dump t =
  Sysreg.all
  |> List.filter_map (fun r ->
      let i = Sysreg.index r in
      if Bytes.get t.dirty i = '\001' && get_index t i <> 0L then
        Some (r, get_index t i)
      else None)
