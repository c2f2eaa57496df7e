(** Fused vector kernels: one pipeline instruction lowered once.

    The paper's premise is that one pipeline diagram is one machine
    instruction replayed over long vector streams, so everything static
    about the instruction (operand bindings, switch routes, chain
    predecessors, topological order, DMA transfers, timing analysis) is
    resolved exactly once.  {!compile} does that in one pass, from a
    {!Nsc_diagram.Semantic.t} to a {!t} whose execution
    ({!Engine.run_kernel}) is a handful of native element loops:

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
    - a read stream whose window lies inside one plane page and which
      every operand reads at offset 0 is not copied at all: its slot
      points at the page ({!Nsc_arch.Memory.read_window}), as the NSC's
      DMA controllers stream a plane straight into the switch; every
      other read stream is gathered {e once per instruction} with one
      bulk {!Nsc_arch.Memory.read_strided_into} (or cache double-buffer)
      transfer, directly into the pooled buffer;
    - a delay-1 running [Max] or [Min] whose elements nothing reads but
      its own next element (the paper's convergence check, Equation 1's
      min/max feedback loop) is folded: its step stores only the carry
      at the end of each block, and the engine stores the rest
      ({!materialise}) only when the trap rescan or the trace reads it;
    - each write stream is flushed with one bulk
      {!Nsc_arch.Memory.write_strided_from} per sink;
    - stream and output buffers come as one working set per body shape
      from a domain-local pool ({!acquire_slots}/{!release_slots}), so a
      cached kernel replayed across a solve allocates nothing in its hot
      path.

    The fused body exists when the diagram is aligned and acyclic with
    DMA-fed shift/delay units (the checked, production case), and no
    operand would read a word the instruction itself wrote.  Other
    instructions compile to a kernel without a body; the engine falls
    back to the general evaluator with the kernel's cached timing
    analysis. *)

open Nsc_arch
open Nsc_diagram
open Nsc_checker

module Metrics = Nsc_metrics.Metrics
module A1 = Bigarray.Array1

(** Padded executable buffer: unboxed float64, C layout. *)
type buf = Memory.vec

(* Host-side observability: how often instructions were lowered to
   kernels, how often a cached kernel was reused, how the buffer pool
   served executions (all always-on), and how often a kernel had to
   carry the general-evaluator fallback instead of a fused body
   (gated). *)
let c_compiles =
  Metrics.always_counter ~name:"kernel.compiles" ~units:"kernels"
    ~desc:"instruction semantics lowered to kernels"

let c_cache_hits =
  Metrics.always_counter ~name:"kernel.cache_hits" ~units:"hits"
    ~desc:"dispatches that replayed their instruction's compiled kernel"

let c_fallbacks =
  Metrics.counter ~name:"kernel.fallbacks" ~units:"kernels"
    ~desc:"kernels compiled without a fused body (general-evaluator fallback)"

let c_pool_hits =
  Metrics.always_counter ~name:"kernel.pool_hits" ~units:"buffers"
    ~desc:"execution buffers from the domain's set for the body's shape"

let c_pool_misses =
  Metrics.always_counter ~name:"kernel.pool_misses" ~units:"buffers"
    ~desc:"execution buffers freshly allocated (no free set for the body's shape)"

let compile_count () = Metrics.total c_compiles
let cache_hit_count () = Metrics.total c_cache_hits
let pool_hit_count () = Metrics.total c_pool_hits
let pool_miss_count () = Metrics.total c_pool_misses

(** One lowered functional unit.  [out] is the absolute buffer slot of the
    unit's output; operands read [buffer.{base + e + off}], [base] being
    the slot's own base ({!set}), so a feedback queue is its own output
    buffer at a negative offset and a shift/delay is its stream's buffer
    at the programmed offset. *)
type kunit = {
  fu : Resource.fu_id;
  op : Opcode.t;
  out : int;
  a_buf : int;
  a_off : int;
  b_buf : int;
  b_off : int;  (** unary units point [b] at the zero buffer *)
}

(** One compile-time-specialised unit step.  [step bufs bases e0 e1]
    applies the unit over elements [e0, e1) with element 0 of slot [i] at
    index [bases.(i)] of [bufs.(i)] (the body's [pad] for an owned
    buffer, the window's offset for a page), through one native call
    ({!Nsc_arch.Native.step}).  Returns [true] when a value produced was
    not finite — the trap pre-scan fused into the compute pass.  Opcodes
    whose results are finite by construction (compares, integer ops)
    always return [false]. *)
type step = buf array -> int array -> int -> int -> bool

(** A read stream: its engine's transfer with the element count
    resolved (a descriptor count of 0 means "the vector length"). *)
type read_stream = { transfer : Dma.transfer; count : int }

(** Source feeding a write stream.  [W_unit k] drains unit [k] (in
    topological order); [W_live] re-reads a DMA stream element by element
    at write time (a direct memory-to-memory route, possibly through a
    shift/delay offset) — live, because earlier writes of the same
    instruction may alias it. *)
type write_source =
  | W_unit of int
  | W_live of { transfer : Dma.transfer; count : int; offset : int }
  | W_zero

type write_stream = { wsrc : write_source; transfer : Dma.transfer; count : int }

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
    reference evaluator's bounds-checked semantics, without a branch.  A
    stream slot may instead point at a plane page (bit [s] of [alias]):
    nothing reads it outside its [vlen] live elements, so it needs no
    padding. *)
type body = {
  vlen : int;
  pad : int;
  blen : int;  (** buffer length: [pad + max vlen 1 + pad] *)
  n_buffers : int;
  static : buf array;  (** slots [0 .. stream_base - 1], prebuilt *)
  stream_base : int;
  unit_base : int;
  units : kunit array;  (** topological order *)
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
  reads : read_stream array;   (** read through slots [stream_base + s] *)
  alias : int;
      (** bit [s] set: stream [s] may be read in place from its plane
          page — a unit-stride plane stream covering the vector, read by
          every operand at offset 0, whose window no write stream of the
          instruction overlaps.  The engine aliases it when the window
          lies inside one page and gathers it otherwise. *)
  writes : write_stream array;
  fold : int;
      (** bit [k] set: unit [k] is folded — a delay-1 running [Max] or
          [Min] that no other unit reads and no write stream drains, so
          its step stores only each block's last element, the carry
          ({!Nsc_arch.Native.fold_code}).  {!materialise} computes its
          other elements for whatever reads them. *)
  order_of_sem : int array;  (** topological position of each unit of [sem.units] *)
  fus : Resource.fu_id array;  (** the units of [sem.units], in that order *)
}

type t = {
  sem : Semantic.t;
  analysis : Timing.t;  (** computed exactly once, at compile time *)
  cycles : int;         (** {!Timing.estimated_cycles} at the vector length *)
  flops : int;
  honor_timing : bool;
  body : body option;  (** [None]: fall back to the general evaluator *)
  completed : Interrupt.event list;
      (** the events of a trap-free, fault-free dispatch: its one
          [Pipeline_complete], built once *)
}

(* --- the domain-local buffer pool --------------------------------------- *)

(** One working set: [bufs] and [bases] are what a dispatch reads (slot
    [i]'s element 0 at [bufs.(i).{bases.(i)}]); [own] holds the set's own
    buffers, which never include a plane page.  Between dispatches
    [bufs] holds the same buffers as [own] from [stream_base] on.
    [shelf] is where the set goes back to. *)
type set = { bufs : buf array; bases : int array; own : buf array; shelf : shelf }

(* One working set per body shape, one table per domain so a cached
   kernel may execute on several domains at once without a lock.  An
   instruction's configuration fixes its slot count, static prefix and
   buffer length, so a kernel replayed across a solve draws the same set
   every dispatch and a warm dispatch allocates nothing.  A set comes
   back dirty: the executor zeroes exactly the regions it relies on
   reading as 0.0 (a gathered stream's pads and slack, the leading pad
   of a unit that reads its own output), which is what lets reuse skip
   the full memset a fresh allocation pays.  [free] is [taken] while
   its set is drawn. *)
and shelf = { mutable free : set }

let rec taken = { bufs = [||]; bases = [||]; own = [||]; shelf = nowhere }
and nowhere = { free = taken }

(* The shelves of one domain, keyed by shape: an int whose three fields
   are folded together for the bucket, with no call to the generic
   hash. *)
module Shapes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k lxor (k lsr 16) lxor (k lsr 32)) land max_int
end)

let sets_key : shelf Shapes.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Shapes.create 8)

(* The shape as one int: buffer length, static-prefix length and slot
   count, 16 bits for each count ([compile_body] checks they fit).  Two
   bodies of one slot count and length still differ in which slots are
   static, so a set keyed without [stream_base] would hand one kernel's
   constant buffer to another as a stream slot. *)
let shape (b : body) = (b.blen lsl 32) lor (b.stream_base lsl 16) lor b.n_buffers

(** A body's slots for one execution: the calling domain's set for the
    body's shape with the static prefix blitted in and every base at
    [pad], or a fresh set when the shape has none free.  Books
    [n_buffers - stream_base] pool hits or misses. *)
let acquire_slots (b : body) : set =
  let n = b.n_buffers - b.stream_base in
  let fresh shelf =
    Metrics.bump c_pool_misses n;
    let own =
      Array.init b.n_buffers (fun i ->
          if i < b.stream_base then b.static.(i)
          else A1.create Bigarray.float64 Bigarray.c_layout b.blen)
    in
    { bufs = Array.copy own; bases = Array.make b.n_buffers b.pad; own; shelf }
  in
  let sets = Domain.DLS.get sets_key in
  match Shapes.find sets (shape b) with
  | { free } as shelf when free != taken ->
      shelf.free <- taken;
      Array.blit b.static 0 free.bufs 0 b.stream_base;
      Array.fill free.bases 0 b.n_buffers b.pad;
      Metrics.bump c_pool_hits n;
      free
  | shelf -> fresh shelf
  | exception Not_found ->
      let shelf = { free = taken } in
      Shapes.add sets (shape b) shelf;
      fresh shelf

(** Return a set drawn by {!acquire_slots} to its shelf as the free set
    of its shape, first pointing every stream slot a dispatch aliased
    back at the set's own buffer. *)
let release_slots (b : body) (set : set) =
  for i = b.stream_base to b.unit_base - 1 do
    let own = set.own.(i) in
    if set.bufs.(i) != own then set.bufs.(i) <- own
  done;
  set.shelf.free <- set

(* --- opcode specialisation ----------------------------------------------- *)

(* A unit whose operand [a] (or [b]) is its own output at delay 1, and
   whose other operand is not. *)
let self_is_a (u : kunit) = u.a_buf = u.out && u.a_off = -1 && u.b_buf <> u.out
let self_is_b (u : kunit) = u.b_buf = u.out && u.b_off = -1 && u.a_buf <> u.out

(* The unit's element-by-element step code: a float unit whose one
   operand is its own output at delay 1 gets the step that carries its
   running value in a register. *)
let step_code (u : kunit) =
  if self_is_a u then Native.feedback_code u.op ~self_is_a:true
  else if self_is_b u then Native.feedback_code u.op ~self_is_a:false
  else Native.op_code u.op

(* Run step [code] of unit [u] over elements [e0, e1).  The C loop checks
   no bounds: [compile_body] has checked every operand window against
   the buffer length. *)
let run_step code (u : kunit) bufs bases e0 e1 =
  let out = u.out and ab = u.a_buf and bb = u.b_buf in
  Native.step code bufs.(out) (bases.(out) + e0) bufs.(ab) (bases.(ab) + u.a_off + e0)
    bufs.(bb) (bases.(bb) + u.b_off + e0) (e1 - e0)

(* Bind one unit to a native step.  The opcode resolves to a step code
   here, once per unit per compile; the closure only fetches the unit's
   buffers and hands the element range to C, where the loop applies the
   operation and folds the non-finite trap pre-scan into the same
   pass. *)
let specialise (u : kunit) code : step = fun bufs bases e0 e1 -> run_step code u bufs bases e0 e1

(** Store every element of each folded unit ([body.fold]) over the
    whole vector: the element-by-element step its fold replaced, run
    once over [[0, vlen)]. *)
let materialise (b : body) (set : set) =
  for k = 0 to Array.length b.units - 1 do
    if (b.fold lsr k) land 1 = 1 then begin
      let u = b.units.(k) in
      ignore (run_step (step_code u) u set.bufs set.bases 0 b.vlen : bool)
    end
  done

(* Step of an elided pass-through unit whose source is a stream:
   no store — just the native non-finite scan, so a NaN on the wire still
   triggers the exact-order rescan (which reads the source through
   [val_slot] and attributes the trap to this unit). *)
let scan_only src : step =
 fun bufs bases e0 e1 ->
  let a = bufs.(src) and i = bases.(src) + e0 in
  Native.step Native.scan a i a i a i (e1 - e0)

(* Step of an elided pass-through unit needing no scan either: the source
   is finite by construction (zero or constant), already scanned by its
   producer's own step (a unit output), or already scanned by an earlier
   elided pass of the same stream. *)
let noop_step : step = fun _ _ _ _ -> false

(* --- compilation -------------------------------------------------------- *)

(* The fused body applies when all operand streams are aligned (or
   timing is not honoured), there are no combinational cycles, and every
   shift/delay unit is DMA-fed. *)
let fused_applies (analysis : Timing.t) ~honor_timing (sem : Semantic.t) =
  let aligned =
    (not honor_timing)
    || List.for_all
         (fun (ut : Timing.unit_timing) -> ut.Timing.misaligned = None)
         analysis.Timing.units
  in
  let sd_pure =
    List.for_all
      (fun (s : Semantic.sd_program) ->
        match Semantic.source_feeding sem (Resource.Snk_shift_delay s.Semantic.sd) with
        | None | Some (Resource.Src_memory _ | Resource.Src_cache _) -> true
        | Some (Resource.Src_fu _ | Resource.Src_shift_delay _) -> false)
      sem.Semantic.sds
  in
  aligned && analysis.Timing.cyclic = [] && sd_pure

(* Bit [k] of a mask over units; 0 past the width of an int. *)
let bit k = if k < Sys.int_size - 1 then 1 lsl k else 0

(* Whether operand offset [off] of unit [k], reading stream [r], reads a
   word of write stream [w] after [w] wrote it; [cone] and [earlier] as
   in [reads_own_writes]. *)
let reads_stale ~vlen ~cone ~earlier (w : write_stream) (r : read_stream) k off =
  earlier land bit k = 0
  &&
  let wt = w.transfer and rt = r.transfer in
  let n = min r.count vlen in
  let inside = cone land bit k <> 0 in
  (* in the cone, every read comes before the writes past the vector
     length *)
  let upto = if inside then min w.count vlen else w.count in
  let stale = ref false in
  for e = 0 to upto - 1 do
    let d = wt.Dma.base + (e * wt.Dma.stride) - rt.Dma.base in
    (* the last element of the read stream at that word *)
    let last =
      if rt.Dma.stride = 0 then if d = 0 then n - 1 else -1
      else if d mod rt.Dma.stride <> 0 then -1
      else
        let e' = d / rt.Dma.stride in
        if e' < n then e' else -1
    in
    if last >= 0 && ((not inside) || last - off > e) then stale := true
  done;
  !stale

(* Whether an operand would read a plane word after the instruction
   itself wrote it.  The fused body reads every stream before it writes
   anything, so it would read the old word; the reference evaluator
   drains write stream after write stream, computing each unit's element
   when a stream first needs it, and reads the new one.  A unit is first
   computed by the first write stream whose source reads it at the same
   element (its cone), at that stream's element, or after every write
   stream when none does.  A stream's element [e'] is read at element
   [e' - off] by an operand at offset [off].  So a word written at element
   [e] of stream [i] is read stale by an operand of unit [k] unless [k]
   was computed in full by an earlier stream, or [k] is in stream [i]'s
   cone and reads the word at an element up to [e].  Plain loops over
   ints: the check allocates nothing; a unit past the width of an int is
   never taken as computed, which only makes the check stricter. *)
let reads_own_writes ~vlen ~stream_base ~unit_base (units : kunit array)
    (reads : read_stream array) (writes : write_stream array) =
  let n_units = Array.length units in
  let stale = ref false and earlier = ref 0 in
  for i = 0 to Array.length writes - 1 do
    let w = writes.(i) in
    (* producers precede consumers, so one pass backwards closes the cone *)
    let cone = ref (match w.wsrc with W_unit k -> bit k | W_live _ | W_zero -> 0) in
    for j = n_units - 1 downto 0 do
      if !cone land bit j <> 0 then begin
        let u = units.(j) in
        if u.a_buf >= unit_base && u.a_buf <> u.out then cone := !cone lor bit (u.a_buf - unit_base);
        if u.b_buf >= unit_base && u.b_buf <> u.out then cone := !cone lor bit (u.b_buf - unit_base)
      end
    done;
    for s = 0 to Array.length reads - 1 do
      let r = reads.(s) and slot = stream_base + s in
      match (r.transfer.Dma.channel, w.transfer.Dma.channel) with
      | Dma.Plane rp, Dma.Plane wp when rp = wp ->
          for k = 0 to n_units - 1 do
            let u = units.(k) and cone = !cone and earlier = !earlier in
            if
              (u.a_buf = slot && reads_stale ~vlen ~cone ~earlier w r k u.a_off)
              || (u.b_buf = slot && reads_stale ~vlen ~cone ~earlier w r k u.b_off)
            then stale := true
          done
      | (Dma.Plane _ | Dma.Cache_chan _), _ -> ()
    done;
    (* a stream as long as the vector computes its cone in full *)
    if w.count >= vlen then earlier := !earlier lor !cone
  done;
  !stale

(* Lower the semantics of an instruction the fused body applies to
   straight to its body: units in topological order, every binding
   resolved to a [(buffer, offset)] slot.  [None] for an instruction
   that would read what it writes ({!reads_own_writes}). *)
let compile_body (p : Params.t) (sem : Semantic.t) : body option =
  let vlen = sem.Semantic.vector_length in
  let sem_units = Array.of_list sem.Semantic.units in
  let n_units = Array.length sem_units in
  let index_of : (Resource.fu_id, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun k (u : Semantic.unit_program) -> Hashtbl.replace index_of u.Semantic.fu k)
    sem_units;
  let route_into = Hashtbl.create 16 in
  List.iter
    (fun (r : Switch.route) -> Hashtbl.replace route_into r.Switch.snk r.Switch.src)
    sem.Semantic.routes;
  let read_list = Semantic.read_streams sem in
  let count_of (t : Dma.transfer) = if t.Dma.count = 0 then vlen else t.Dma.count in
  let reads =
    Array.of_list
      (List.map (fun (_, (t : Dma.transfer)) -> { transfer = t; count = count_of t }) read_list)
  in
  let stream_index src =
    let rec find i = function
      | [] -> None
      | (s, _) :: rest -> if Resource.equal_source s src then Some i else find (i + 1) rest
    in
    find 0 read_list
  in
  (* the offset a shift/delay unit reads its stream at *)
  let sd_offset sd =
    match
      List.find_map
        (fun (s : Semantic.sd_program) ->
          if s.Semantic.sd = sd then Some s.Semantic.mode else None)
        sem.Semantic.sds
    with
    | Some (Shift_delay.Delay d) -> -d
    | Some (Shift_delay.Shift o) -> o
    | None -> 0
  in
  let bypass_of als =
    Option.value ~default:Als.No_bypass (List.assoc_opt als sem.Semantic.bypasses)
  in
  let chain_pred (fu : Resource.fu_id) =
    let size = Resource.als_size p fu.Resource.als in
    match Als.chain_predecessor ~size (bypass_of fu.Resource.als) ~slot:fu.Resource.slot with
    | Some pred -> Some { Resource.als = fu.Resource.als; slot = pred }
    | None -> None
  in
  let binary k = Opcode.arity sem_units.(k).Semantic.op = 2 in
  (* topological order over the same-element dependencies (chain
     predecessor, switch sources that are functional units) — acyclic
     by precondition *)
  let deps k =
    let u = sem_units.(k) in
    let fu = u.Semantic.fu in
    let of_binding port = function
      | Fu_config.From_chain -> (
          match chain_pred fu with
          | Some pred -> Option.to_list (Hashtbl.find_opt index_of pred)
          | None -> [])
      | Fu_config.From_switch -> (
          match Hashtbl.find_opt route_into (Resource.Snk_fu (fu, port)) with
          | Some (Resource.Src_fu f) -> Option.to_list (Hashtbl.find_opt index_of f)
          | _ -> [])
      | Fu_config.From_constant _ | Fu_config.From_feedback _ | Fu_config.Unbound -> []
    in
    of_binding Resource.A u.Semantic.a
    @ (if binary k then of_binding Resource.B u.Semantic.b else [])
  in
  let order = Array.make n_units 0 in
  let mark = Array.make n_units false in
  let pos = ref 0 in
  let rec visit k =
    if not mark.(k) then begin
      mark.(k) <- true;
      List.iter visit (deps k);
      order.(!pos) <- k;
      incr pos
    end
  in
  for k = 0 to n_units - 1 do
    visit k
  done;
  (* topological position of each unit of [sem.units] *)
  let order_of_sem = Array.make n_units 0 in
  Array.iteri (fun i k -> order_of_sem.(k) <- i) order;
  let position_of_fu f = Option.map (fun k -> order_of_sem.(k)) (Hashtbl.find_opt index_of f) in
  (* distinct constants, deduplicated by bit pattern and interned in
     topological order, so the slot layout is fixed before any operand
     is resolved *)
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
  Array.iter
    (fun k ->
      let note = function Fu_config.From_constant c -> ignore (const_slot c) | _ -> () in
      note sem_units.(k).Semantic.a;
      if binary k then note sem_units.(k).Semantic.b)
    order;
  let stream_base = 1 + !n_consts in
  let unit_base = stream_base + Array.length reads in
  let stream_slot src off =
    match stream_index src with Some s -> (stream_base + s, off) | None -> (0, 0)
  in
  (* a shift/delay unit's DMA feed at its offset; non-DMA feeds are
     excluded by precondition *)
  let through_sd sd =
    match Hashtbl.find_opt route_into (Resource.Snk_shift_delay sd) with
    | Some ((Resource.Src_memory _ | Resource.Src_cache _) as src) -> Some (src, sd_offset sd)
    | Some _ | None -> None
  in
  let unit_slot f =
    match position_of_fu f with Some j -> (unit_base + j, 0) | None -> (0, 0)
  in
  (* [i] is the unit's topological position: a feedback delay [n >= 1]
     reads its own output buffer [n] elements back, so a unit never
     reads itself ahead of where it writes and the engine scrubs only
     the leading pad of a unit buffer that its own feedback reads *)
  let resolve i (fu : Resource.fu_id) port = function
    | Fu_config.Unbound -> (0, 0)
    | Fu_config.From_constant c -> (const_slot c, 0)
    | Fu_config.From_feedback n -> if n >= 1 then (unit_base + i, -n) else (0, 0)
    | Fu_config.From_chain -> (
        match chain_pred fu with Some pred -> unit_slot pred | None -> (0, 0))
    | Fu_config.From_switch -> (
        match Hashtbl.find_opt route_into (Resource.Snk_fu (fu, port)) with
        | Some ((Resource.Src_memory _ | Resource.Src_cache _) as src) -> stream_slot src 0
        | Some (Resource.Src_shift_delay sd) -> (
            match through_sd sd with
            | Some (src, off) -> stream_slot src off
            | None -> (0, 0))
        | Some (Resource.Src_fu f) -> unit_slot f
        | None -> (0, 0))
  in
  let units =
    Array.mapi
      (fun i k ->
        let u = sem_units.(k) in
        let fu = u.Semantic.fu in
        let a_buf, a_off = resolve i fu Resource.A u.Semantic.a in
        let b_buf, b_off = if binary k then resolve i fu Resource.B u.Semantic.b else (0, 0) in
        { fu; op = u.Semantic.op; out = unit_base + i; a_buf; a_off; b_buf; b_off })
      order
  in
  (* padding: the largest offset magnitude any operand reads at *)
  let pad =
    Array.fold_left (fun m (u : kunit) -> max m (max (abs u.a_off) (abs u.b_off))) 0 units
  in
  let blen = pad + max vlen 1 + pad in
  (* the pool packs the shape into one int ([shape]) *)
  if unit_base + n_units >= 1 lsl 16 || blen >= 1 lsl 30 then
    invalid_arg "Kernel.compile: body shape too large for the buffer pool";
  let filled v =
    let b = A1.create Bigarray.float64 Bigarray.c_layout blen in
    A1.fill b v;
    b
  in
  let static = Array.make stream_base (filled 0.0) in
  List.iter (fun (bits, slot) -> static.(slot) <- filled (Int64.float_of_bits bits)) !consts;
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
  let steps = Array.map (fun u -> specialise u (step_code u)) units in
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
  (* a write engine drains a unit's values, or re-reads a DMA stream
     live (directly or through a shift/delay offset); unrouted write
     engines transfer nothing *)
  let live src off =
    match List.assoc_opt src read_list with
    | Some rt -> W_live { transfer = rt; count = count_of rt; offset = off }
    | None -> W_zero
  in
  let writes =
    List.filter_map
      (fun (snk, (t : Dma.transfer)) ->
        Option.map
          (fun src ->
            let wsrc =
              match src with
              | Resource.Src_fu f -> (
                  match position_of_fu f with Some k -> W_unit k | None -> W_zero)
              | Resource.Src_memory _ | Resource.Src_cache _ -> live src 0
              | Resource.Src_shift_delay sd -> (
                  match through_sd sd with Some (src, off) -> live src off | None -> W_zero)
            in
            { wsrc; transfer = t; count = count_of t })
          (Hashtbl.find_opt route_into snk))
      (Semantic.write_streams sem)
  in
  let writes = Array.of_list writes in
  (* in-place reads: a stream aliases its page only if it needs no
     padding (unit stride over the whole vector, every operand at offset
     0) and keeps snapshot semantics (no write of this instruction lands
     in its window).  Plain loops over ints, so the mask costs the
     compile no allocation. *)
  let alias = ref 0 in
  for s = 0 to min (Array.length reads) (Sys.int_size - 1) - 1 do
    let r = reads.(s) in
    let t = r.transfer and slot = stream_base + s in
    match t.Dma.channel with
    | Dma.Cache_chan _ -> ()
    | Dma.Plane plane ->
        let ok = ref (vlen > 0 && t.Dma.stride = 1 && r.count >= vlen) in
        for k = 0 to n_units - 1 do
          let u = units.(k) in
          if (u.a_buf = slot && u.a_off <> 0) || (u.b_buf = slot && u.b_off <> 0) then
            ok := false
        done;
        let lo = t.Dma.base and hi = t.Dma.base + vlen in
        for j = 0 to Array.length writes - 1 do
          let w = writes.(j) in
          let wt = w.transfer in
          match wt.Dma.channel with
          | Dma.Plane p when p = plane && w.count > 0 ->
              let last = wt.Dma.base + (wt.Dma.stride * (w.count - 1)) in
              if min wt.Dma.base last < hi && lo <= max wt.Dma.base last then ok := false
          | Dma.Plane _ | Dma.Cache_chan _ -> ()
        done;
        if !ok then alias := !alias lor (1 lsl s)
  done;
  (* folded running extremes: a delay-1 Max or Min whose elements no
     other unit reads (its own feedback reads only the carry) and no write
     stream drains.  [last] reads its final element, which the fold
     stores *)
  let fold = ref 0 in
  for k = 0 to min n_units (Sys.int_size - 1) - 1 do
    let u = units.(k) in
    let code =
      if self_is_a u then Native.fold_code u.op ~self_is_a:true
      else if self_is_b u then Native.fold_code u.op ~self_is_a:false
      else None
    in
    match code with
    | None -> ()
    | Some code ->
        let read = ref false in
        for j = 0 to n_units - 1 do
          if j <> k && (units.(j).a_buf = u.out || units.(j).b_buf = u.out) then read := true
        done;
        for j = 0 to Array.length writes - 1 do
          match writes.(j).wsrc with W_unit w when w = k -> read := true | _ -> ()
        done;
        if not !read then begin
          fold := !fold lor (1 lsl k);
          steps.(k) <- specialise u code
        end
  done;
  if reads_own_writes ~vlen ~stream_base ~unit_base units reads writes then None
  else
    Some
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
        reads;
        alias = !alias;
        writes;
        fold = !fold;
        order_of_sem;
        fus = Array.map (fun (u : Semantic.unit_program) -> u.Semantic.fu) sem_units;
      }

(** Lower an instruction's semantics to a kernel, running the timing
    analysis exactly once. *)
let compile (p : Params.t) ?(honor_timing = true) (sem : Semantic.t) : t =
  Metrics.bump c_compiles 1;
  let analysis = Timing.analyse p sem in
  let vlen = sem.Semantic.vector_length in
  let body = if fused_applies analysis ~honor_timing sem then compile_body p sem else None in
  if Option.is_none body then Metrics.bump c_fallbacks 1;
  let cycles = Timing.estimated_cycles p sem analysis ~vlen in
  {
    sem;
    analysis;
    cycles;
    flops = Semantic.flops_per_element sem * vlen;
    honor_timing;
    body;
    completed = [ Interrupt.Pipeline_complete { instruction = sem.Semantic.index; cycles } ];
  }

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
      let kn = compile p i.sem in
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

let cached (_ : cache) _ p ?honor_timing sem = compile p ?honor_timing sem
