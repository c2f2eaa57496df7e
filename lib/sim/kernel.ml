(** Fused vector kernels: the second compilation stage.

    Interpreting a {!Plan.t} directly would pay per-element, per-unit
    costs: an operand-variant match, an opcode dispatch and an exception
    classification for every unit at every element.  This module lowers
    a plan once more, into a {!t} whose execution ({!Engine.run_kernel})
    is a handful of native element loops:

    - every operand is pre-resolved to a [(buffer, offset)] pair into a
      uniform pool of padded {!buf} vectors ([Bigarray.Array1] float64,
      c_layout — unboxed, invisible to the minor GC, and read by C through
      the data pointer) — streams, constants, feedback queues and unit
      outputs all read through the same indexing scheme, so the element
      loop contains no variant match and no hashtable lookup;
    - every unit's opcode is resolved {e at compile time} to a native step
      code ({!step}): one call into [native_stubs.c] per unit per element
      block runs the direct float operation and folds the non-finite trap
      scan into the same pass over the output.  The C loops check no
      bounds, so {!compile} checks every operand window once;
    - each read stream is gathered {e once per instruction} with one bulk
      {!Nsc_arch.Memory.read_strided_into} (or cache double-buffer)
      transfer, directly into the pooled buffer;
    - each write stream is flushed with one bulk
      {!Nsc_arch.Memory.write_strided_from} per sink;
    - stream and output buffers are drawn from a domain-local free-list
      pool ({!acquire}/{!release}), so a cached kernel replayed across a
      solve allocates nothing in its hot path.

    Plans without a dense body compile to a kernel without a body; the
    engine falls back to the general evaluator with the plan's cached
    timing analysis. *)

open Nsc_arch
open Nsc_diagram

module Metrics = Nsc_metrics.Metrics
module A1 = Bigarray.Array1

(** Padded executable buffer: unboxed float64, C layout. *)
type buf = Memory.vec

(* Host-side observability: how often plans were lowered to kernels, how
   often a cached kernel was reused, how the buffer pool served
   executions (all always-on), and how often a kernel had to carry the
   general-evaluator fallback instead of a fused body (gated). *)
let c_compiles =
  Metrics.always_counter ~name:"kernel.compiles" ~units:"kernels"
    ~desc:"plans lowered to fused vector kernels"

let c_cache_hits =
  Metrics.always_counter ~name:"kernel.cache_hits" ~units:"hits"
    ~desc:"dispatches that replayed their instruction's compiled kernel and plan"

let c_fallbacks =
  Metrics.counter ~name:"kernel.fallbacks" ~units:"kernels"
    ~desc:"kernels compiled without a fused body (general-evaluator fallback)"

let c_pool_hits =
  Metrics.always_counter ~name:"kernel.pool_hits" ~units:"buffers"
    ~desc:"execution buffers reused from the domain-local pool"

let c_pool_misses =
  Metrics.always_counter ~name:"kernel.pool_misses" ~units:"buffers"
    ~desc:"execution buffers freshly allocated (pool empty for the length)"

let compile_count () = Metrics.total c_compiles
let cache_hit_count () = Metrics.total c_cache_hits
let pool_hit_count () = Metrics.total c_pool_hits
let pool_miss_count () = Metrics.total c_pool_misses

(** One lowered functional unit.  [out] is the absolute buffer slot of the
    unit's output; operands read [buffer.{base + e + off}], so a feedback
    queue is its own output buffer at a negative offset and a shift/delay
    is its stream's buffer at the programmed offset. *)
type kunit = {
  fu : Resource.fu_id;
  op : Opcode.t;
  out : int;
  a_buf : int;
  a_off : int;
  b_buf : int;
  b_off : int;  (** unary units point [b] at the zero buffer *)
}

(** One compile-time-specialised unit step.  [step bufs base e0 e1]
    applies the unit over elements [e0, e1) with element 0 of every
    engaged buffer at index [base] (i.e. [pad]), through one native call
    ({!Nsc_arch.Native.step}).  Returns [true] when a value produced was
    not finite — the trap pre-scan fused into the compute pass.  Opcodes
    whose results are finite by construction (compares, integer ops)
    always return [false]. *)
type step = buf array -> int -> int -> int -> bool

(** The fused executable body.  Buffer slots are laid out
    [zero :: constants @ streams @ unit outputs]; [static] holds the
    read-only prefix (zeros and constant fills), prebuilt at compile time
    and shared by every execution — stream and output buffers are drawn
    from the buffer pool per execution, since memory changes between
    sweeps and a cached kernel may run on several domains at once.

    Every buffer is [pad] elements of zero padding on both sides of the
    [vlen] live elements, with [pad] at least the largest operand-offset
    magnitude — so out-of-range reads (feedback warm-up, shift/delay ends,
    short streams) land in the padding and read 0.0, exactly the
    reference evaluator's bounds-checked semantics, without a branch. *)
type body = {
  vlen : int;
  pad : int;
  blen : int;  (** buffer length: [pad + max vlen 1 + pad] *)
  n_buffers : int;
  static : buf array;  (** slots [0 .. stream_base - 1], prebuilt *)
  stream_base : int;
  unit_base : int;
  units : kunit array;  (** topological order, as in the plan *)
  steps : step array;   (** specialised loop of [units.(k)] *)
  val_slot : int array;
      (** the slot actually holding unit [k]'s values.  Normally
          [units.(k).out]; for an elided pass-through unit (a [Pass] at
          offset 0 whose output no unit reads) it is the source slot
          itself — the copy loop is dropped and sinks, [last_values] and
          the trap rescan read the source directly.  The step of an
          elided unit degenerates to a store-free non-finite scan of the
          source (deduplicated when several passes share one source) or
          to a no-op when the source is finite by construction or already
          scanned by its own producer. *)
  reads : Plan.read_stream array;   (** gathered into slots [stream_base + s] *)
  writes : Plan.write_stream array;
  order_of_sem : int array;
  fus : Resource.fu_id array;  (** the units of [sem.units], in that order *)
}

type t = {
  plan : Plan.t;  (** carries the semantics, timing analysis and cycle cost *)
  body : body option;  (** [None]: fall back to the general evaluator *)
}

(* --- the domain-local buffer pool --------------------------------------- *)

(* Free lists of released buffers keyed by length, one pool per domain so
   acquire/release are lock-free even when a cached kernel executes on
   several domains at once.  Each free list is a fixed-capacity stack, so
   a warm acquire or release allocates nothing.  Released buffers come
   back dirty: the executor zeroes exactly the pad and slack regions it
   relies on, which is what lets reuse skip the full memset a fresh
   allocation pays. *)

(* A generous bound: one kernel draws a few dozen buffers of a single
   length; beyond the bound, releases fall to the GC. *)
let max_pooled_per_len = 128

type free_list = { stack : buf array; mutable depth : int }

let pool_key : (int, free_list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let no_buf : buf = A1.create Bigarray.float64 Bigarray.c_layout 0

let free_list len =
  let pool = Domain.DLS.get pool_key in
  match Hashtbl.find pool len with
  | l -> l
  | exception Not_found ->
      let l = { stack = Array.make max_pooled_per_len no_buf; depth = 0 } in
      Hashtbl.replace pool len l;
      l

let fresh len : buf = A1.create Bigarray.float64 Bigarray.c_layout len

(* a popped slot keeps its stale reference until the next push
   overwrites it: at most [max_pooled_per_len] buffers per length *)
let pop l =
  l.depth <- l.depth - 1;
  Array.unsafe_get l.stack l.depth

let push l b =
  if l.depth < max_pooled_per_len then begin
    Array.unsafe_set l.stack l.depth b;
    l.depth <- l.depth + 1
  end

(** Draw a buffer of exactly [len] elements from the calling domain's
    pool, allocating when the free list is empty.  The contents are
    {e unspecified} — callers must write or zero every element they later
    read. *)
let acquire len : buf =
  let l = free_list len in
  if l.depth > 0 then begin
    Metrics.bump c_pool_hits 1;
    pop l
  end
  else begin
    Metrics.bump c_pool_misses 1;
    fresh len
  end

(** Return a buffer to the calling domain's pool for reuse by a later
    {!acquire} of the same length. *)
let release (b : buf) = push (free_list (A1.dim b)) b

(** Fill [dst.(from) ..] with buffers of exactly [len] elements through a
    single free-list lookup — the per-execution bulk form of {!acquire}
    (a kernel draws all its stream and output buffers at one length). *)
let acquire_into len (dst : buf array) ~from =
  let n = Array.length dst - from in
  if n > 0 then begin
    let l = free_list len in
    let hits = min n l.depth in
    for i = from to from + hits - 1 do
      dst.(i) <- pop l
    done;
    for i = from + hits to Array.length dst - 1 do
      dst.(i) <- fresh len
    done;
    Metrics.bump c_pool_hits hits;
    Metrics.bump c_pool_misses (n - hits)
  end

(** Return [src.(from) ..] (all of length [len]) to the pool: the bulk
    form of {!release}. *)
let release_from (src : buf array) ~from len =
  if Array.length src > from then begin
    let l = free_list len in
    for i = from to Array.length src - 1 do
      push l src.(i)
    done
  end

(** Buffers of length [len] in the calling domain's free list. *)
let pooled len =
  match Hashtbl.find_opt (Domain.DLS.get pool_key) len with
  | Some l -> l.depth
  | None -> 0

(* --- opcode specialisation ----------------------------------------------- *)

(* Bind one unit to its native step.  The opcode resolves to a step code
   here, once per unit per compile: a float unit whose one operand is its
   own output at delay 1 gets the step that carries its running value in
   a register.  The closure only fetches the unit's buffers and hands the
   element range to C, where the loop applies the operation and folds the
   non-finite trap pre-scan into the same pass.  The C loop checks no
   bounds: [compile_body] has checked every operand window against the
   buffer length. *)
let specialise (u : kunit) : step =
  let out = u.out in
  let op =
    if u.a_buf = out && u.a_off = -1 && u.b_buf <> out then
      Native.feedback_code u.op ~self_is_a:true
    else if u.b_buf = out && u.b_off = -1 && u.a_buf <> out then
      Native.feedback_code u.op ~self_is_a:false
    else Native.op_code u.op
  in
  let ab = u.a_buf and ao = u.a_off and bb = u.b_buf and bo = u.b_off in
  fun bufs base e0 e1 ->
    Native.step op bufs.(out) (base + e0) bufs.(ab) (base + ao + e0) bufs.(bb)
      (base + bo + e0) (e1 - e0)

(* Step of an elided pass-through unit whose source is a gathered stream:
   no store — just the native non-finite scan, so a NaN on the wire still
   triggers the exact-order rescan (which reads the source through
   [val_slot] and attributes the trap to this unit). *)
let scan_only src : step =
 fun bufs base e0 e1 ->
  let a = bufs.(src) in
  Native.step Native.scan a (base + e0) a (base + e0) a (base + e0) (e1 - e0)

(* Step of an elided pass-through unit needing no scan either: the source
   is finite by construction (zero or constant), already scanned by its
   producer's own step (a unit output), or already scanned by an earlier
   elided pass of the same stream. *)
let noop_step : step = fun _ _ _ _ -> false

(* --- compilation -------------------------------------------------------- *)

let compile_body (pl : Plan.t) (f : Plan.fast) : body =
  let vlen = pl.Plan.vlen in
  let n_units = Array.length f.Plan.units in
  let n_reads = Array.length f.Plan.reads in
  (* distinct constants, deduplicated by bit pattern *)
  let consts = ref [] and n_consts = ref 0 in
  let const_slot c =
    let bits = Int64.bits_of_float c in
    match List.assoc_opt bits !consts with
    | Some slot -> slot
    | None ->
        let slot = 1 + !n_consts in
        consts := (bits, slot) :: !consts;
        incr n_consts;
        slot
  in
  (* padding: the largest offset magnitude any operand reads at *)
  let pad = ref 0 in
  let note_off off = if abs off > !pad then pad := abs off in
  Array.iter
    (fun (u : Plan.unit_plan) ->
      let note = function
        | Plan.Zero | Plan.Const _ | Plan.Unit _ | Plan.Stream _ -> ()
        | Plan.Self n -> note_off n
        | Plan.Stream_at (_, off) -> note_off off
      in
      note u.Plan.a;
      if u.Plan.binary then note u.Plan.b)
    f.Plan.units;
  (* first pass interns the constants so the slot layout is fixed *)
  Array.iter
    (fun (u : Plan.unit_plan) ->
      let note = function Plan.Const c -> ignore (const_slot c) | _ -> () in
      note u.Plan.a;
      if u.Plan.binary then note u.Plan.b)
    f.Plan.units;
  let stream_base = 1 + !n_consts in
  let unit_base = stream_base + n_reads in
  let pad = !pad in
  let blen = pad + max vlen 1 + pad in
  let static = Array.make stream_base (A1.create Bigarray.float64 Bigarray.c_layout 0) in
  let filled v =
    let b = A1.create Bigarray.float64 Bigarray.c_layout blen in
    A1.fill b v;
    b
  in
  static.(0) <- filled 0.0;
  List.iter (fun (bits, slot) -> static.(slot) <- filled (Int64.float_of_bits bits)) !consts;
  let resolve k = function
    | Plan.Zero -> (0, 0)
    | Plan.Const c -> (const_slot c, 0)
    | Plan.Unit j -> (unit_base + j, 0)
    | Plan.Self n ->
        (* [Plan] builds [Self n] only for a feedback delay n >= 1, so a
           unit never reads its own output ahead of where it writes, and
           the engine scrubs only the pads of a unit buffer *)
        if n < 1 then
          invalid_arg (Printf.sprintf "Kernel.compile: unit %d reads itself at delay %d" k n);
        (unit_base + k, -n)
    | Plan.Stream s -> (stream_base + s, 0)
    | Plan.Stream_at (s, off) -> (stream_base + s, off)
  in
  let units =
    Array.mapi
      (fun k (u : Plan.unit_plan) ->
        let a_buf, a_off = resolve k u.Plan.a in
        let b_buf, b_off = if u.Plan.binary then resolve k u.Plan.b else (0, 0) in
        { fu = u.Plan.fu; op = u.Plan.op; out = unit_base + k; a_buf; a_off; b_buf; b_off })
      f.Plan.units
  in
  (* pass-through elision: a [Pass] at offset 0 whose output no unit
     reads needs no copy loop.  Sinks, [last_values] and the trap rescan
     read the source slot directly through [val_slot]; the unit's step
     shrinks to a store-free non-finite scan of the source, emitted once
     per distinct stream source and not at all when the source cannot
     carry a fresh non-finite (zero, constant, or a unit output whose
     producing step already scans it). *)
  let unit_read = Array.make (max n_units 1) false in
  Array.iter
    (fun (u : kunit) ->
      (* a self-feedback operand lands here too and correctly blocks
         elision of the unit reading its own history *)
      let note b = if b >= unit_base then unit_read.(b - unit_base) <- true in
      note u.a_buf;
      note u.b_buf)
    units;
  (* the native steps check no bounds: every window they touch,
     [pad + off, pad + off + vlen), must lie inside the buffer *)
  let check_window k off =
    if pad + off < 0 || pad + off + vlen > blen then
      invalid_arg
        (Printf.sprintf "Kernel.compile: unit %d operand window [%d, %d) outside %d" k
           (pad + off) (pad + off + vlen) blen)
  in
  Array.iteri
    (fun k (u : kunit) ->
      check_window k 0;
      check_window k u.a_off;
      check_window k u.b_off)
    units;
  let val_slot = Array.map (fun (u : kunit) -> u.out) units in
  let steps = Array.map specialise units in
  let scanned = ref [] in
  Array.iteri
    (fun k (u : kunit) ->
      if u.op = Opcode.Pass && u.a_off = 0 && not unit_read.(k) then begin
        (* a pass of an elided pass resolves transitively: producers
           precede consumers, so val_slot.(j) is final for every j < k *)
        let src =
          if u.a_buf >= unit_base then val_slot.(u.a_buf - unit_base)
          else u.a_buf
        in
        val_slot.(k) <- src;
        steps.(k) <-
          (if src >= stream_base && src < unit_base && not (List.mem src !scanned)
           then begin
             scanned := src :: !scanned;
             scan_only src
           end
           else noop_step)
      end)
    units;
  {
    vlen;
    pad;
    blen;
    n_buffers = unit_base + n_units;
    static;
    stream_base;
    unit_base;
    units;
    steps;
    val_slot;
    reads = f.Plan.reads;
    writes = f.Plan.writes;
    order_of_sem = f.Plan.order_of_sem;
    fus =
      Array.of_list
        (List.map (fun (u : Semantic.unit_program) -> u.Semantic.fu) pl.Plan.sem.Semantic.units);
  }

(** Lower a compiled plan to a fused kernel. *)
let compile (pl : Plan.t) : t =
  Metrics.bump c_compiles 1;
  match pl.Plan.fast with
  | None ->
      Metrics.bump c_fallbacks 1;
      { plan = pl; body = None }
  | Some f -> { plan = pl; body = Some (compile_body pl f) }

(* --- prepared programs ---------------------------------------------------- *)

module Table = Map.Make (Int)

(** One instruction made ready to run: its semantics, for each unit of
    [sem.units] in order the unit's dense global index (where the
    sequencer captures the unit's last value), and its kernel cell,
    filled once on the instruction's first dispatch ({!of_instr}). *)
type instr = { sem : Semantic.t; capture_at : int array; kernel : t option Atomic.t }

(* Two domains racing on an empty cell both compile; the first to fill
   it wins and the other's kernel is dropped, so every dispatch after
   the race runs the one kernel the cell holds. *)
let of_instr p (i : instr) : t =
  match Atomic.get i.kernel with
  | Some kn ->
      Metrics.bump c_cache_hits 1;
      kn
  | None ->
      let kn = compile (Plan.compile p i.sem) in
      if Atomic.compare_and_set i.kernel None (Some kn) then kn
      else Option.get (Atomic.get i.kernel)

(** A program made ready to run by {!Sequencer.prepare}: its instructions
    by number, decoded once, beside the control programme and the machine
    they were laid out for.  Shared by every node and every run; only the
    instructions' kernel cells change, each once. *)
type prepared = {
  table : instr Table.t;
  control : Program.control list;
  params : Params.t;
}

(* --- the compile cache ---------------------------------------------------- *)

type program_key = { machine : Params.t; inputs : int array }

type program = { key : program_key; prepared : prepared }

(** The one compile cache: prepared programs keyed by their builder's
    inputs, a hit validated against the whole key.  Each program carries
    its own kernels, so a resident program's kernels stay with it and
    an evicted program's go with it. *)
type cache = program Lru.t

let make_cache ?bound () : cache = Lru.create ~who:"Kernel" ?bound ()

let evictions = Lru.evictions

let program_hash k = Array.fold_left (fun h x -> (h * 31) + x) 17 k.inputs

let same_key k e =
  (k.machine == e.key.machine || Params.equal k.machine e.key.machine)
  && k.inputs = e.key.inputs

let find_program cache k =
  match Lru.find cache (program_hash k) same_key k with
  | e -> Some e.prepared
  | exception Not_found -> None

let add_program cache key prepared = Lru.add cache (program_hash key) { key; prepared }

(* --- nscbench compatibility — delete when nscbench moves to Run.t ------- *)

let cached (_ : cache) (_ : Plan.cache) p ?honor_timing sem =
  compile (Plan.compile p ?honor_timing sem)
