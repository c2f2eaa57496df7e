(** Fused vector kernels: the second compilation stage.

    Interpreting a {!Plan.t} directly would pay per-element, per-unit
    costs: an operand-variant match, an opcode dispatch and an exception
    classification for every unit at every element.  This module lowers
    a plan once more, into a {!t} whose execution ({!Engine.run_kernel})
    is a handful of fused, closure-free float loops:

    - every operand is pre-resolved to a [(buffer, offset)] pair into a
      uniform pool of padded {!buf} vectors ([Bigarray.Array1] float64,
      c_layout — unboxed, invisible to the minor GC, and FFI-ready for a
      later C-stub path) — streams, constants, feedback queues and unit
      outputs all read through the same indexing scheme, so the element
      loop contains no variant match and no hashtable lookup;
    - every unit's opcode is resolved {e at compile time} into a
      specialised loop closure ({!step}) whose body is the direct float
      operation — dispatch is hoisted entirely out of the per-element and
      per-block hot path, and the closure folds the non-finite trap scan
      into the same pass over the output;
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
    ~desc:"compile-cache hits (a compiled kernel and its plan were reused)"

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

(** One compile-time-specialised unit loop.  [step bufs base e0 e1]
    applies the unit over elements [e0, e1) with element 0 of every
    engaged buffer at index [base] (i.e. [pad]).  Returns an accumulator that is 0.0 when every
    value produced was finite and NaN otherwise — the trap pre-scan fused
    into the compute pass.  Opcodes whose results are finite by
    construction (compares, integer ops) skip the accumulator and return
    0.0 directly. *)
type step = buf array -> int -> int -> int -> float

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
  full_zero : bool array;
      (** [full_zero.(k)]: unit [k] reads its own output at a positive
          (look-ahead) offset, so its whole buffer — not just the pads —
          must be scrubbed before the compute pass *)
  reads : Plan.read_stream array;   (** gathered into slots [stream_base + s] *)
  writes : Plan.write_stream array;
  order_of_sem : int array;
}

type t = {
  plan : Plan.t;  (** carries the semantics, timing analysis and cycle cost *)
  body : body option;  (** [None]: fall back to the general evaluator *)
}

(* --- the domain-local buffer pool --------------------------------------- *)

(* Free lists of released buffers keyed by length, one pool per domain so
   acquire/release are lock-free even when a cached kernel executes on
   several domains at once.  Released buffers come back dirty: the
   executor zeroes exactly the pad and slack regions it relies on, which
   is what lets reuse skip the full memset a fresh allocation pays. *)
let pool_key : (int, (int * buf list) ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

(* A generous bound: one kernel draws a few dozen buffers of a single
   length; beyond the bound, releases fall to the GC. *)
let max_pooled_per_len = 128

(** Draw a buffer of exactly [len] elements from the calling domain's
    pool, allocating when the free list is empty.  The contents are
    {e unspecified} — callers must write or zero every element they later
    read. *)
let acquire len : buf =
  let pool = Domain.DLS.get pool_key in
  match Hashtbl.find_opt pool len with
  | Some ({ contents = n, b :: rest } as l) when n > 0 ->
      l := (n - 1, rest);
      Metrics.bump c_pool_hits 1;
      b
  | _ ->
      Metrics.bump c_pool_misses 1;
      A1.create Bigarray.float64 Bigarray.c_layout len

(** Return a buffer to the calling domain's pool for reuse by a later
    {!acquire} of the same length. *)
let release (b : buf) =
  let pool = Domain.DLS.get pool_key in
  let len = A1.dim b in
  match Hashtbl.find_opt pool len with
  | Some ({ contents = n, bs } as l) ->
      if n < max_pooled_per_len then l := (n + 1, b :: bs)
  | None -> Hashtbl.replace pool len (ref (1, [ b ]))

let free_list pool len =
  match Hashtbl.find_opt pool len with
  | Some l -> l
  | None ->
      let l = ref (0, []) in
      Hashtbl.replace pool len l;
      l

(** Fill [dst.(from) ..] with buffers of exactly [len] elements through a
    single free-list lookup — the per-execution bulk form of {!acquire}
    (a kernel draws all its stream and output buffers at one length). *)
let acquire_into len (dst : buf array) ~from =
  let n = Array.length dst - from in
  if n > 0 then begin
    let l = free_list (Domain.DLS.get pool_key) len in
    let hits = ref 0 in
    for i = from to Array.length dst - 1 do
      match !l with
      | k, b :: rest when k > 0 ->
          l := (k - 1, rest);
          incr hits;
          dst.(i) <- b
      | _ -> dst.(i) <- A1.create Bigarray.float64 Bigarray.c_layout len
    done;
    Metrics.bump c_pool_hits !hits;
    Metrics.bump c_pool_misses (n - !hits)
  end

(** Return [src.(from) ..] (all of length [len]) to the pool: the bulk
    form of {!release}. *)
let release_from (src : buf array) ~from len =
  if Array.length src > from then begin
    let l = free_list (Domain.DLS.get pool_key) len in
    for i = from to Array.length src - 1 do
      let k, bs = !l in
      if k < max_pooled_per_len then l := (k + 1, src.(i) :: bs)
    done
  end

(* --- opcode specialisation ----------------------------------------------- *)

(* Generate the closed loop of one unit.  The opcode dispatch happens
   here, once per unit per compile; each arm closes over the unit's slot
   numbers and offsets and contains nothing but the tight float loop.
   The unsafe accesses are justified by the buffer invariant above:
   [base + off + e] with [|off| <= pad] and [e < vlen] always lands
   inside [blen = pad + max vlen 1 + pad].

   Float-producing arms fold the trap pre-scan into the same pass:
   [v -. v] is 0.0 for every finite [v] and NaN otherwise, so a
   never-taken branch (no loop-carried dependency) flags whether the
   exact-order rescan is needed without a second pass over the output. *)
let specialise (u : kunit) : step =
  let out = u.out and ab = u.a_buf and ao = u.a_off in
  let bb = u.b_buf and bo = u.b_off in
  let i64 x = Int64.of_float x and f64 i = Int64.to_float i in
  let[@inline] get (b : buf) i = A1.unsafe_get b i in
  let[@inline] set (b : buf) i v = A1.unsafe_set b i v in
  match u.op with
  | Opcode.Pass ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) in
        let di = base and ai = base + ao in
        let ok = ref true in
        for e = e0 to e1 - 1 do
          let v = get a (ai + e) in
          set dst (di + e) v;
          if v -. v <> 0.0 then ok := false
        done;
        if !ok then 0.0 else Float.nan
  | Opcode.Fadd ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        let ok = ref true in
        for e = e0 to e1 - 1 do
          let v = get a (ai + e) +. get b (bi + e) in
          set dst (di + e) v;
          if v -. v <> 0.0 then ok := false
        done;
        if !ok then 0.0 else Float.nan
  | Opcode.Fsub ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        let ok = ref true in
        for e = e0 to e1 - 1 do
          let v = get a (ai + e) -. get b (bi + e) in
          set dst (di + e) v;
          if v -. v <> 0.0 then ok := false
        done;
        if !ok then 0.0 else Float.nan
  | Opcode.Fmul ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        let ok = ref true in
        for e = e0 to e1 - 1 do
          let v = get a (ai + e) *. get b (bi + e) in
          set dst (di + e) v;
          if v -. v <> 0.0 then ok := false
        done;
        if !ok then 0.0 else Float.nan
  | Opcode.Fdiv ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        let ok = ref true in
        for e = e0 to e1 - 1 do
          let v = get a (ai + e) /. get b (bi + e) in
          set dst (di + e) v;
          if v -. v <> 0.0 then ok := false
        done;
        if !ok then 0.0 else Float.nan
  | Opcode.Fneg ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) in
        let di = base and ai = base + ao in
        let ok = ref true in
        for e = e0 to e1 - 1 do
          let v = -.get a (ai + e) in
          set dst (di + e) v;
          if v -. v <> 0.0 then ok := false
        done;
        if !ok then 0.0 else Float.nan
  | Opcode.Fabs ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) in
        let di = base and ai = base + ao in
        let ok = ref true in
        for e = e0 to e1 - 1 do
          let v = Float.abs (get a (ai + e)) in
          set dst (di + e) v;
          if v -. v <> 0.0 then ok := false
        done;
        if !ok then 0.0 else Float.nan
  | Opcode.Max ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        let ok = ref true in
        for e = e0 to e1 - 1 do
          let v = Float.max (get a (ai + e)) (get b (bi + e)) in
          set dst (di + e) v;
          if v -. v <> 0.0 then ok := false
        done;
        if !ok then 0.0 else Float.nan
  | Opcode.Min ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        let ok = ref true in
        for e = e0 to e1 - 1 do
          let v = Float.min (get a (ai + e)) (get b (bi + e)) in
          set dst (di + e) v;
          if v -. v <> 0.0 then ok := false
        done;
        if !ok then 0.0 else Float.nan
  | Opcode.Fcmp c ->
      (* compares produce 1.0/0.0 — finite by construction, no scan *)
      let cmp =
        match c with
        | Opcode.Lt -> fun bufs base e0 e1 ->
            let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
            let di = base and ai = base + ao and bi = base + bo in
            for e = e0 to e1 - 1 do
              set dst (di + e) (if get a (ai + e) < get b (bi + e) then 1.0 else 0.0)
            done;
            0.0
        | Opcode.Le -> fun bufs base e0 e1 ->
            let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
            let di = base and ai = base + ao and bi = base + bo in
            for e = e0 to e1 - 1 do
              set dst (di + e) (if get a (ai + e) <= get b (bi + e) then 1.0 else 0.0)
            done;
            0.0
        | Opcode.Eq -> fun bufs base e0 e1 ->
            let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
            let di = base and ai = base + ao and bi = base + bo in
            for e = e0 to e1 - 1 do
              set dst (di + e) (if get a (ai + e) = get b (bi + e) then 1.0 else 0.0)
            done;
            0.0
        | Opcode.Ne -> fun bufs base e0 e1 ->
            let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
            let di = base and ai = base + ao and bi = base + bo in
            for e = e0 to e1 - 1 do
              set dst (di + e) (if get a (ai + e) <> get b (bi + e) then 1.0 else 0.0)
            done;
            0.0
        | Opcode.Ge -> fun bufs base e0 e1 ->
            let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
            let di = base and ai = base + ao and bi = base + bo in
            for e = e0 to e1 - 1 do
              set dst (di + e) (if get a (ai + e) >= get b (bi + e) then 1.0 else 0.0)
            done;
            0.0
        | Opcode.Gt -> fun bufs base e0 e1 ->
            let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
            let di = base and ai = base + ao and bi = base + bo in
            for e = e0 to e1 - 1 do
              set dst (di + e) (if get a (ai + e) > get b (bi + e) then 1.0 else 0.0)
            done;
            0.0
      in
      cmp
  | Opcode.Iadd ->
      (* integer results come through Int64.to_float — always finite *)
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        for e = e0 to e1 - 1 do
          set dst (di + e) (f64 (Int64.add (i64 (get a (ai + e))) (i64 (get b (bi + e)))))
        done;
        0.0
  | Opcode.Isub ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        for e = e0 to e1 - 1 do
          set dst (di + e) (f64 (Int64.sub (i64 (get a (ai + e))) (i64 (get b (bi + e)))))
        done;
        0.0
  | Opcode.Imul ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        for e = e0 to e1 - 1 do
          set dst (di + e) (f64 (Int64.mul (i64 (get a (ai + e))) (i64 (get b (bi + e)))))
        done;
        0.0
  | Opcode.Iand ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        for e = e0 to e1 - 1 do
          set dst (di + e)
            (f64 (Int64.logand (i64 (get a (ai + e))) (i64 (get b (bi + e)))))
        done;
        0.0
  | Opcode.Ior ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        for e = e0 to e1 - 1 do
          set dst (di + e)
            (f64 (Int64.logor (i64 (get a (ai + e))) (i64 (get b (bi + e)))))
        done;
        0.0
  | Opcode.Ixor ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        for e = e0 to e1 - 1 do
          set dst (di + e)
            (f64 (Int64.logxor (i64 (get a (ai + e))) (i64 (get b (bi + e)))))
        done;
        0.0
  | Opcode.Ishl ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        for e = e0 to e1 - 1 do
          set dst (di + e)
            (f64
               (Int64.shift_left
                  (i64 (get a (ai + e)))
                  (Int64.to_int (i64 (get b (bi + e))) land 63)))
        done;
        0.0
  | Opcode.Ishr ->
      fun bufs base e0 e1 ->
        let dst = bufs.(out) and a = bufs.(ab) and b = bufs.(bb) in
        let di = base and ai = base + ao and bi = base + bo in
        for e = e0 to e1 - 1 do
          set dst (di + e)
            (f64
               (Int64.shift_right
                  (i64 (get a (ai + e)))
                  (Int64.to_int (i64 (get b (bi + e))) land 63)))
        done;
        0.0

(* Step of an elided pass-through unit whose source is a gathered stream:
   no store — just the fused non-finite scan, so a NaN on the wire still
   triggers the exact-order rescan (which reads the source through
   [val_slot] and attributes the trap to this unit). *)
let scan_only src : step =
 fun bufs base e0 e1 ->
  let a = bufs.(src) in
  let ok = ref true in
  for e = e0 to e1 - 1 do
    let v = A1.unsafe_get a (base + e) in
    if v -. v <> 0.0 then ok := false
  done;
  if !ok then 0.0 else Float.nan

(* Step of an elided pass-through unit needing no scan either: the source
   is finite by construction (zero or constant), already scanned by its
   producer's own step (a unit output), or already scanned by an earlier
   elided pass of the same stream. *)
let noop_step : step = fun _ _ _ _ -> 0.0

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
    | Plan.Self n -> (unit_base + k, -n)
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
    full_zero =
      (* cross-unit reads are always offset 0 and self-feedback reads are
         delays (negative offsets), so only a look-ahead self-read can see
         a live element before its producer writes it *)
      Array.map
        (fun (u : kunit) ->
          (u.a_buf = u.out && u.a_off > 0) || (u.b_buf = u.out && u.b_off > 0))
        units;
    reads = f.Plan.reads;
    writes = f.Plan.writes;
    order_of_sem = f.Plan.order_of_sem;
  }

(** Lower a compiled plan to a fused kernel. *)
let compile (pl : Plan.t) : t =
  Metrics.bump c_compiles 1;
  match pl.Plan.fast with
  | None ->
      Metrics.bump c_fallbacks 1;
      { plan = pl; body = None }
  | Some f -> { plan = pl; body = Some (compile_body pl f) }

(* --- the compile cache ---------------------------------------------------- *)

(** The one compile cache: kernels (each carrying its plan) keyed by
    (instruction index, vector length) — the length component keeps
    programs of different grid sizes from colliding when a daemon shares
    one cache across jobs.  A hit is validated against the incoming
    semantics ({!Plan.compiled_from}) and [honor_timing], so the cache
    stays safe across runs that re-decode the same microcode and across
    different programs sharing one cache. *)
type cache = t Lru.t

let make_cache ?bound () : cache = Lru.create ~who:"Kernel" ?bound ()

let timed_from sem kn = kn.plan.Plan.honor_timing && Plan.compiled_from sem kn.plan
let untimed_from sem kn = (not kn.plan.Plan.honor_timing) && Plan.compiled_from sem kn.plan

let find_or_compile (cache : cache) (p : Params.t) ?(honor_timing = true) (sem : Semantic.t) :
    t =
  let key = Lru.key ~index:sem.Semantic.index ~vlen:sem.Semantic.vector_length in
  match Lru.find cache key (if honor_timing then timed_from else untimed_from) sem with
  | kn ->
      Metrics.bump c_cache_hits 1;
      kn
  | exception Not_found ->
      (* compiled outside the lock: a long lowering must not stall other
         domains' hits *)
      let kn = compile (Plan.compile p ~honor_timing sem) in
      Lru.add cache key kn;
      kn

(* --- nscbench compatibility — delete when nscbench moves to Run.t ------- *)

let cached (kc : cache) (_ : Plan.cache) p ?honor_timing sem =
  find_or_compile kc p ?honor_timing sem
