(** Execution of one pipeline instruction on a node.

    The engine combines a per-element functional dataflow evaluation (exact
    numerics, including register-file feedback queues and shift/delay
    streams) with a pipeline-accurate analytic timing model (fill to the
    critical-path depth, then one element per cycle degraded by memory-plane
    port contention — see {!Nsc_checker.Timing.estimated_cycles}).

    When [honor_timing] is set (the default), misaligned operand streams are
    paired exactly as the synchronous hardware would pair them — element
    [e] of the late stream meets element [e + skew] of the early one — so a
    diagram with a missing delay queue computes visibly wrong results, which
    is what the paper's proposed visual debugger is for.

    Two evaluators implement this: {!run_general}, the memoized reference
    that serves as the oracle, and {!run_kernel}, the fused fast path for
    aligned, acyclic pipelines, which falls back to the reference for
    everything else.  The reference computes every element in OCaml
    through {!Fu_exec.apply}; the fast path runs its element loops and
    buffer fills natively ({!Nsc_arch.Native}), one call per unit per
    block of elements, and the two agree bit for bit.  Both model an
    injected functional-unit fault the same way: the victim's output
    latch reads NaN at its write sinks, in [last_values] and in the
    trace, while consumers in the same instruction have already latched
    the clean value. *)

open Nsc_arch
open Nsc_diagram
open Nsc_checker

(** Recorded values of every engaged unit at every element, kept for the
    visual debugger's annotated diagrams. *)
type trace = {
  unit_values : (Resource.fu_id * int, float) Hashtbl.t;
  vlen : int;
}

let trace_value tr ~fu ~element = Hashtbl.find_opt tr.unit_values (fu, element)

type result = {
  cycles : int;
  flops : int;
  elements : int;
  writes : int;  (** words written to memory planes and caches *)
  events : Interrupt.event list;
  units : Resource.fu_id array;  (** the engaged units, in [sem.units] order *)
  last : float array;
      (** [last.(i)]: final output of [units.(i)] — the scalars condition
          interrupts capture *)
  trace : trace option;
}

let last_values r = List.init (Array.length r.units) (fun i -> (r.units.(i), r.last.(i)))

let max_recorded_events = 1000

(* Observability: whole-run totals and one span per executed instruction.
   All sites are gated on the trace-enabled flag; the disabled path costs
   one branch per instruction, not per element. *)
module Fault = Nsc_fault.Fault
module Metrics = Nsc_metrics.Metrics

let c_instructions =
  Metrics.counter ~name:"sim.instructions" ~units:"instructions"
    ~desc:"pipeline instructions executed by the engine"

let c_cycles =
  Metrics.counter ~name:"sim.cycles" ~units:"cycles"
    ~desc:"simulated cycles charged to pipeline execution"

let c_flops =
  Metrics.counter ~name:"sim.flops" ~units:"flops"
    ~desc:"floating-point operations performed by engaged units"

let c_elements =
  Metrics.counter ~name:"sim.elements" ~units:"elements"
    ~desc:"vector elements streamed through pipelines"

let c_traps =
  Metrics.counter ~name:"sim.traps" ~units:"events"
    ~desc:"arithmetic exceptions trapped during execution"

let h_exec_cycles =
  Metrics.histogram ~name:"hist.exec_cycles" ~units:"cycles"
    ~desc:"per-instruction pipeline execution latency"

(* Apportion the instruction's cycles across its engaged units for the
   hotspot table: FLOP units weigh in at one flop per streamed element,
   move/merge units at zero (an all-moves instruction splits evenly).
   Shares sum exactly to [r.cycles] — the remainder goes to the last
   unit — so the hotspot table partitions [sim.cycles].  Busy cycles are
   the full instruction duration per unit: in a systolic pipeline every
   engaged unit runs for the whole instruction, which is the honest
   denominator for a unit's sustained rate. *)
let note_attribution ctx (sem : Semantic.t) (r : result) =
  match sem.Semantic.units with
  | [] -> ()
  | units ->
      let vlen = sem.Semantic.vector_length in
      let weight (u : Semantic.unit_program) =
        if Opcode.is_flop u.Semantic.op then vlen else 0
      in
      let wsum = List.fold_left (fun acc u -> acc + weight u) 0 units in
      let n = List.length units in
      let instr = Printf.sprintf "i%d" sem.Semantic.index in
      let remaining = ref r.cycles in
      List.iteri
        (fun i (u : Semantic.unit_program) ->
          let share =
            if i = n - 1 then !remaining
            else if wsum = 0 then r.cycles / n
            else r.cycles * weight u / wsum
          in
          remaining := !remaining - share;
          Metrics.attribute ctx ~instr
            ~unit_label:
              (Resource.fu_to_string u.Semantic.fu ^ ":"
              ^ Opcode.mnemonic u.Semantic.op)
            ~share_cycles:share ~busy_cycles:r.cycles ~flops:(weight u))
        units

(* Record one executed instruction as a span on the node timeline (tid 0),
   fold its totals into the [sim.*] counters, observe its latency on the
   exec histogram, and attribute its cycles to the engaged units.  The
   clock advances by the instruction's cycle estimate, so consecutive
   instructions lie end-to-end in the exported trace. *)
let note_run ~kind (sem : Semantic.t) (r : result) =
  if Metrics.tracing () then begin
    let ctx = Metrics.current () in
    let traps = Interrupt.trapped_exceptions r.events in
    let ts = Metrics.now ctx in
    Metrics.advance ctx r.cycles;
    Metrics.span ctx ~cat:"engine"
      ~name:(Printf.sprintf "exec:i%d" sem.Semantic.index)
      ~ts ~dur:r.cycles
      ~args:
        [ ("kind", Metrics.Str kind);
          ("flops", Metrics.Int r.flops);
          ("elements", Metrics.Int r.elements);
          ("writes", Metrics.Int r.writes) ]
      ();
    Metrics.add ctx c_instructions 1;
    Metrics.add ctx c_cycles r.cycles;
    Metrics.add ctx c_flops r.flops;
    Metrics.add ctx c_elements r.elements;
    Metrics.add ctx c_traps traps;
    Metrics.observe ctx h_exec_cycles r.cycles;
    note_attribution ctx sem r
  end

(* Note the instruction's declared read-stream descriptors on the DMA
   counters (one transfer per stream, [count = 0] meaning the vector
   length, exactly as the hardware descriptors resolve). *)
let note_read_streams ~vlen streams =
  if Metrics.tracing () then
    List.iter
      (fun (_, (t : Dma.transfer)) ->
        Dma.note_read ~words:(Dma.effective_count t ~vector_length:vlen))
      streams

(* Fault injection, from the run's model (both helpers cost one match
   when the run is clean).  The FU draw picks a victim (unit index in
   programme order, element) whose output latch both evaluators corrupt
   to NaN after compute: the write sinks, [last_values] and the trace
   see the NaN, while consumers in the same instruction have already
   latched the clean value.  Detection is the interrupt scheme trapping
   [Invalid_operand] (the draw books it).  The stream draw adds
   recovered retry/stall cycles for the instruction's transfer
   descriptors (transient FLONET-link glitches and DMA stalls); it
   perturbs only the cycle count, never the data.  Both derive their counts from [sem] and are drawn FU first,
   streams second, so the two evaluators consume the seeded stream
   identically. *)
let fault_fu_draw (run : Run.t option) (sem : Semantic.t) =
  match run with
  | Some { Run.fault = Some f; _ } ->
      Fault.draw_fu_fault f ~vlen:sem.Semantic.vector_length
        ~units:(List.length sem.Semantic.units)
  | _ -> None

let fault_stream_cycles (run : Run.t option) (sem : Semantic.t) =
  match run with
  | Some { Run.fault = Some f; _ } ->
      let streams =
        List.length (Semantic.read_streams sem)
        + List.length (Semantic.write_streams sem)
      in
      if streams = 0 then 0 else Fault.streams_overhead f ~streams
  | _ -> 0

let budget_of (run : Run.t option) = match run with Some r -> r.Run.budget | None -> None

(* Block size of the fused element loops: big enough to amortise the
   per-unit loop-entry cost (and to run typical grid planes in a single
   block), small enough that a block of every engaged buffer stays
   cache-resident — ~20 live buffers at 8 KB each sit comfortably in L2.
   The reference evaluator polls its budget on the same element grid. *)
let kernel_block = 1024

(* The general evaluator, and the oracle: memoized recursion over (unit,
   element).  Handles arbitrary element skew (misaligned streams), guarded
   switch cycles, and shift/delay units fed by computed streams.  The
   fused kernel below covers the common case — aligned, acyclic pipelines
   — a few hundred times quicker, falls back here for everything else,
   and must agree with it wherever its body applies (property-tested,
   clean and under seeded faults). *)
let run_general (node : Node.t) ?(record_trace = false) ?(honor_timing = true)
    ?analysis ?run (sem : Semantic.t) : result =
  let p = node.Node.params in
  let budget = budget_of run in
  let vlen = sem.Semantic.vector_length in
  (* --- static tables ------------------------------------------------- *)
  let unit_of = Hashtbl.create 16 in
  List.iter
    (fun (u : Semantic.unit_program) -> Hashtbl.replace unit_of u.Semantic.fu u)
    sem.Semantic.units;
  let route_into = Hashtbl.create 16 in
  List.iter
    (fun (r : Switch.route) -> Hashtbl.replace route_into r.Switch.snk r.Switch.src)
    sem.Semantic.routes;
  (* read streams keyed by their slotted switch source *)
  let read_transfer : (Resource.source, Dma.transfer) Hashtbl.t = Hashtbl.create 8 in
  let read_streams = Semantic.read_streams sem in
  List.iter (fun (src, t) -> Hashtbl.replace read_transfer src t) read_streams;
  note_read_streams ~vlen read_streams;
  let sd_of = Hashtbl.create 4 in
  List.iter
    (fun (s : Semantic.sd_program) -> Hashtbl.replace sd_of s.Semantic.sd s.Semantic.mode)
    sem.Semantic.sds;
  let bypass_of als =
    Option.value ~default:Als.No_bypass (List.assoc_opt als sem.Semantic.bypasses)
  in
  (* --- timing skew --------------------------------------------------- *)
  let analysis =
    match analysis with Some a -> a | None -> Timing.analyse p sem
  in
  let leads = Hashtbl.create 16 in
  (* lead of each port: how many elements ahead the early stream runs *)
  if honor_timing then
    List.iter
      (fun (ut : Timing.unit_timing) ->
        match Hashtbl.find_opt unit_of ut.Timing.fu with
        | None -> ()
        | Some u -> (
            match (ut.Timing.arrival_a, ut.Timing.arrival_b) with
            | Some ta, Some tb when Opcode.arity u.Semantic.op = 2 ->
                let ea = ta + u.Semantic.delay_a and eb = tb + u.Semantic.delay_b in
                let t_fire = max ea eb in
                Hashtbl.replace leads (ut.Timing.fu, Resource.A) (t_fire - ea);
                Hashtbl.replace leads (ut.Timing.fu, Resource.B) (t_fire - eb)
            | _ -> ()))
      analysis.Timing.units;
  let lead fu port = Option.value ~default:0 (Hashtbl.find_opt leads (fu, port)) in
  (* --- events -------------------------------------------------------- *)
  let events = ref [] and n_events = ref 0 in
  let record ev =
    if !n_events < max_recorded_events then begin
      events := ev :: !events;
      incr n_events
    end
  in
  (* --- per-element evaluation ---------------------------------------- *)
  let memo : (Resource.fu_id * int, float) Hashtbl.t = Hashtbl.create 1024 in
  let in_progress : (Resource.fu_id * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let stream_read src e =
    match Hashtbl.find_opt read_transfer src with
    | None -> 0.0
    | Some t ->
        let count = if t.Dma.count = 0 then vlen else t.Dma.count in
        if e < 0 || e >= count then 0.0
        else begin
          let addr = t.Dma.base + (e * t.Dma.stride) in
          match t.Dma.channel with
          | Dma.Plane pl -> Node.read_plane node ~plane:pl ~addr
          | Dma.Cache_chan c -> Cache.read_pipeline (Node.cache node c) addr
        end
  in
  let rec source_value (src : Resource.source) e : float =
    if e < 0 || e >= vlen then 0.0
    else
      match src with
      | Resource.Src_memory _ | Resource.Src_cache _ -> stream_read src e
      | Resource.Src_shift_delay sd -> (
          let input e' =
            match Hashtbl.find_opt route_into (Resource.Snk_shift_delay sd) with
            | None -> 0.0
            | Some src' -> source_value src' e'
          in
          match Hashtbl.find_opt sd_of sd with
          | Some (Shift_delay.Delay d) -> input (e - d)
          | Some (Shift_delay.Shift o) -> input (e + o)
          | None -> input e)
      | Resource.Src_fu fu -> unit_out fu e
  and port_value (u : Semantic.unit_program) (port : Resource.port) e : float =
    let fu = u.Semantic.fu in
    let binding =
      match port with Resource.A -> u.Semantic.a | Resource.B -> u.Semantic.b
    in
    match binding with
    | Fu_config.Unbound -> 0.0
    | Fu_config.From_constant c -> c
    | Fu_config.From_feedback n -> unit_out fu (e - n)
    | Fu_config.From_chain -> (
        let size = Resource.als_size p fu.Resource.als in
        match
          Als.chain_predecessor ~size (bypass_of fu.Resource.als) ~slot:fu.Resource.slot
        with
        | None -> 0.0
        | Some pred_slot ->
            unit_out
              { Resource.als = fu.Resource.als; slot = pred_slot }
              (e + lead fu port))
    | Fu_config.From_switch -> (
        match Hashtbl.find_opt route_into (Resource.Snk_fu (fu, port)) with
        | None -> 0.0
        | Some src -> source_value src (e + lead fu port))
  and unit_out (fu : Resource.fu_id) e : float =
    if e < 0 || e >= vlen then 0.0
    else
      match Hashtbl.find_opt memo (fu, e) with
      | Some v -> v
      | None ->
          if Hashtbl.mem in_progress (fu, e) then 0.0 (* switch cycle: guarded *)
          else begin
            Hashtbl.add in_progress (fu, e) ();
            let v =
              match Hashtbl.find_opt unit_of fu with
              | None -> 0.0 (* unprogrammed unit routes zeros *)
              | Some u ->
                  let a = port_value u Resource.A e in
                  let b =
                    if Opcode.arity u.Semantic.op = 2 then port_value u Resource.B e
                    else 0.0
                  in
                  let v = Fu_exec.apply u.Semantic.op a b in
                  (match Fu_exec.trapped u.Semantic.op a b v with
                  | Some kind ->
                      record
                        (Interrupt.Exception_trapped
                           { instruction = sem.Semantic.index; unit_ = fu; kind; element = e })
                  | None -> ());
                  v
            in
            Hashtbl.remove in_progress (fu, e);
            Hashtbl.replace memo (fu, e) v;
            v
          end
  in
  (* --- fault injection: the victim latch ------------------------------ *)
  (* Drawn before anything streams; the value stays clean in the memo, so
     consumers see it unchanged, and is corrupted only where the latch
     drains: at the write sinks the victim feeds directly, and (once
     everything is evaluated) in [last_values] and the trace. *)
  let victim =
    match fault_fu_draw run sem with
    | None -> None
    | Some (k, e) ->
        Option.map
          (fun (u : Semantic.unit_program) -> (u.Semantic.fu, e))
          (List.nth_opt sem.Semantic.units k)
  in
  (* --- drive the pipeline: writes ------------------------------------ *)
  let writes = ref 0 in
  List.iter
    (fun (snk, (t : Dma.transfer)) ->
      match Hashtbl.find_opt route_into snk with
      | None -> ()
      | Some src ->
          let count = if t.Dma.count = 0 then vlen else t.Dma.count in
          Dma.note_write ~words:count;
          for e = 0 to count - 1 do
            (* an armed wall deadline or a cancellation is honoured every
               block of elements, not only between instructions *)
            if e mod kernel_block = 0 then Nsc_guard.Guard.Budget.poll_opt budget;
            (* evaluate first, so the clean run's evaluation order (which
               decides guarded switch cycles) is kept under a fault *)
            let v = source_value src e in
            let v =
              match (src, victim) with
              | Resource.Src_fu fu, Some (vfu, ve) when e = ve && fu = vfu -> Float.nan
              | _ -> v
            in
            let addr = t.Dma.base + (e * t.Dma.stride) in
            (match t.Dma.channel with
            | Dma.Plane pl -> Node.write_plane node ~plane:pl ~addr v
            | Dma.Cache_chan c -> Cache.write_pipeline (Node.cache node c) addr v);
            incr writes
          done)
    (Semantic.write_streams sem);
  (* --- force full evaluation: every engaged unit processes every
         element, exactly as the hardware's clocked pipeline does -------- *)
  List.iter
    (fun (u : Semantic.unit_program) ->
      for e = 0 to vlen - 1 do
        if e mod kernel_block = 0 then Nsc_guard.Guard.Budget.poll_opt budget;
        ignore (unit_out u.Semantic.fu e)
      done)
    sem.Semantic.units;
  (match victim with
  | None -> ()
  | Some (fu, e) ->
      Hashtbl.replace memo (fu, e) Float.nan;
      record
        (Interrupt.Exception_trapped
           {
             instruction = sem.Semantic.index;
             unit_ = fu;
             kind = Interrupt.Invalid_operand;
             element = e;
           }));
  let units =
    Array.of_list (List.map (fun (u : Semantic.unit_program) -> u.Semantic.fu) sem.Semantic.units)
  in
  let last = Array.map (fun fu -> unit_out fu (vlen - 1)) units in
  let cycles = Timing.estimated_cycles p sem analysis ~vlen + fault_stream_cycles run sem in
  record (Interrupt.Pipeline_complete { instruction = sem.Semantic.index; cycles });
  let flops = Semantic.flops_per_element sem * vlen in
  let r =
    {
      cycles;
      flops;
      elements = vlen;
      writes = !writes;
      events = List.rev !events;
      units;
      last;
      trace = (if record_trace then Some { unit_values = memo; vlen } else None);
    }
  in
  note_run ~kind:"general" sem r;
  r

(* --- the fused kernel: specialised steps over pooled Bigarray buffers --- *)

module A1 = Bigarray.Array1

(* Gather one read stream into its buffer: the live prefix
   [pad, pad + n) comes straight from memory or cache in one
   Bigarray-direct bulk transfer, the pads and the slack beyond the
   stream's count are zeroed.  Pooled buffers come back dirty, so the
   executor scrubs exactly the regions it relies on reading as 0.0; the
   unchecked native fills are safe because every buffer is [blen] long
   and [n <= vlen]. *)
let gather_stream node ~vlen ~pad ~blen (r : Kernel.read_stream) (buf : Kernel.buf) =
  let t = r.Kernel.transfer in
  let n = min r.Kernel.count vlen in
  if n > 0 then begin
    (match t.Dma.channel with
    | Dma.Plane plid ->
        Memory.read_strided_into (Node.plane node plid) ~base:t.Dma.base
          ~stride:t.Dma.stride ~count:n buf ~pos:pad
    | Dma.Cache_chan c ->
        Cache.read_pipeline_strided_into (Node.cache node c) ~base:t.Dma.base
          ~stride:t.Dma.stride ~count:n buf ~pos:pad);
    Dma.note_read ~words:n
  end;
  Native.unsafe_zero buf 0 pad;
  Native.unsafe_zero buf (pad + n) (blen - pad - n)

(* Point stream slot [slot] at the plane page holding the stream's
   window instead of gathering it, booking the same reads as the gather.
   Only for a stream the compile marked aliasable ([Kernel.body.alias]):
   a unit-stride plane stream of at least [vlen] elements that every
   operand reads at offset 0, so nothing reads the slot outside
   [bases.(slot), bases.(slot) + vlen).  Returns [false], touching
   nothing, when the window straddles a page boundary; an untouched page
   reads through the static zero buffer. *)
let alias_stream node ~vlen (r : Kernel.read_stream) (set : Kernel.set) slot =
  let t = r.Kernel.transfer in
  match t.Dma.channel with
  | Dma.Cache_chan _ -> false
  | Dma.Plane plid ->
      let st = Node.plane node plid in
      let off = t.Dma.base mod st.Memory.page_words in
      if off + vlen > st.Memory.page_words then false
      else begin
        let page = Memory.read_window st ~base:t.Dma.base ~count:vlen in
        if page == Memory.no_page then set.Kernel.bufs.(slot) <- set.Kernel.bufs.(0)
        else begin
          set.Kernel.bufs.(slot) <- page;
          set.Kernel.bases.(slot) <- off
        end;
        Dma.note_read ~words:vlen;
        true
      end

(* Flush [count] elements of a unit's output buffer, starting at [pos],
   to a write sink in one Bigarray-direct bulk transfer. *)
let write_vec node (t : Dma.transfer) (buf : Kernel.buf) ~pos ~count =
  match t.Dma.channel with
  | Dma.Plane plid ->
      Memory.write_strided_from (Node.plane node plid) ~base:t.Dma.base
        ~stride:t.Dma.stride buf ~pos ~count
  | Dma.Cache_chan c ->
      Cache.write_pipeline_strided_from (Node.cache node c) ~base:t.Dma.base
        ~stride:t.Dma.stride buf ~pos ~count

(* Flush a boxed value array to a write sink (zero fills and tails). *)
let write_bulk_arr node (t : Dma.transfer) ~from (vals : float array) =
  let base = t.Dma.base + (from * t.Dma.stride) in
  match t.Dma.channel with
  | Dma.Plane plid ->
      Memory.write_strided (Node.plane node plid) ~base ~stride:t.Dma.stride vals
  | Dma.Cache_chan c ->
      Cache.write_pipeline_strided (Node.cache node c) ~base ~stride:t.Dma.stride vals

(* Corrupt the victim latch [(k, e)] and return the value slots the
   drains read from.  Only unit [k]'s latch may change: if [k] is an
   elided pass-through, its live values move into its own buffer before
   the NaN lands there (so the NaN never reaches a stream's buffer, nor
   the plane page an aliased stream reads in place); if other elided
   pass-throughs share [k]'s buffer, each of them moves into its own
   buffer first.  The drains, [last] and the trace read only live
   elements, so those are all that move.  Runs only under a fault, so
   the clean path allocates nothing. *)
let corrupt_latch (b : Kernel.body) (set : Kernel.set) ~k ~e =
  let bufs = set.Kernel.bufs and bases = set.Kernel.bases in
  let unit_base = b.Kernel.unit_base in
  let val_slot = Array.copy b.Kernel.val_slot in
  let shared = val_slot.(k) in
  let materialise j =
    let own = unit_base + j in
    Native.unsafe_blit bufs.(shared) bases.(shared) bufs.(own) bases.(own) b.Kernel.vlen;
    val_slot.(j) <- own
  in
  if shared <> unit_base + k then materialise k
  else Array.iteri (fun j s -> if j <> k && s = shared then materialise j) b.Kernel.val_slot;
  A1.set bufs.(unit_base + k) (bases.(unit_base + k) + e) Float.nan;
  val_slot

(* Execute the fused body on [node] over the working set [set]: element
   0 of slot [i] sits at index [bases.(i)] of [bufs.(i)] — [pad] for the
   set's own buffers, the window's offset for a stream read in place. *)
let exec_body (node : Node.t) ~record_trace ~run (kn : Kernel.t)
    (b : Kernel.body) (set : Kernel.set) : result =
  let sem = kn.Kernel.sem in
  let budget = budget_of run in
  let bufs = set.Kernel.bufs and bases = set.Kernel.bases in
  let vlen = b.Kernel.vlen in
  let pad = b.Kernel.pad in
  let blen = b.Kernel.blen in
  let units = b.Kernel.units in
  let steps = b.Kernel.steps in
  let n_units = Array.length units in
  (* read streams: alias each aliasable window that lies in one page,
     gather the rest; then scrub what a unit's own feedback reads before
     its first element (the reference sees 0.0 there, so dirty pool
     bytes must not leak) *)
  for s = 0 to Array.length b.Kernel.reads - 1 do
    let r = b.Kernel.reads.(s) and slot = b.Kernel.stream_base + s in
    let aliasable = s < Sys.int_size - 1 && (b.Kernel.alias lsr s) land 1 = 1 in
    if not (aliasable && alias_stream node ~vlen r set slot)
    then gather_stream node ~vlen ~pad ~blen r bufs.(slot)
  done;
  (* every step writes its full live range in order before anything reads
     it: cross-unit operands are offset 0, and only a unit's own feedback
     reads its buffer at an offset, a delay (see [Kernel.compile_body]).
     So dirty pool bytes could leak only through the leading pad of a
     unit that reads itself; nothing reads a trailing pad *)
  if pad > 0 then
    for k = 0 to n_units - 1 do
      let u = Array.unsafe_get units k in
      let out = u.Kernel.out in
      if u.Kernel.a_buf = out || u.Kernel.b_buf = out then Native.unsafe_zero bufs.(out) 0 pad
    done;
  (* blocked, unit-major compute through the compile-time-specialised
     steps: one native call per unit per block, no opcode dispatch in
     OCaml.  Each step folds the non-finite trap pre-scan into its own
     loop and returns [true] iff a value it produced was not finite. *)
  let any_nonfinite = ref false in
  let e0 = ref 0 in
  while !e0 < vlen do
    (* kernel block boundary: a wall deadline or cancellation can cut a
       long fused body short without waiting for the whole instruction *)
    Nsc_guard.Guard.Budget.poll_opt budget;
    let e1 = min vlen (!e0 + kernel_block) in
    for k = 0 to n_units - 1 do
      if (Array.unsafe_get steps k) bufs bases !e0 e1 then any_nonfinite := true
    done;
    e0 := e1
  done;
  (* a folded unit holds only its carry: store its other elements for
     the trap rescan or the trace to read, now, before a fault's latch
     can corrupt one of its operands *)
  if b.Kernel.fold <> 0 && (!any_nonfinite || record_trace) then Kernel.materialise b set;
  (* interrupt events, newest first, capped; written out at each site
     rather than through a recording closure, so a clean dispatch
     allocates no event state *)
  let events = ref [] and n_events = ref 0 in
  (* trap events, replayed in element-major topological order *)
  if !any_nonfinite then
    for e = 0 to vlen - 1 do
      for k = 0 to n_units - 1 do
        let u = units.(k) in
        let vs = Array.unsafe_get b.Kernel.val_slot k in
        let v = A1.get bufs.(vs) (bases.(vs) + e) in
        if v -. v <> 0.0 then begin
          let ab = u.Kernel.a_buf and bb = u.Kernel.b_buf in
          let a = A1.get bufs.(ab) (bases.(ab) + u.Kernel.a_off + e) in
          let bv = A1.get bufs.(bb) (bases.(bb) + u.Kernel.b_off + e) in
          match Fu_exec.trapped u.Kernel.op a bv v with
          | Some kind when !n_events < max_recorded_events ->
              events :=
                Interrupt.Exception_trapped
                  { instruction = sem.Semantic.index; unit_ = u.Kernel.fu; kind; element = e }
                :: !events;
              incr n_events
          | Some _ | None -> ()
        end
      done
    done;
  (* fault injection: corrupt one output latch after compute, so the
     drains below see the NaN and same-instruction consumers do not *)
  let val_slot =
    match fault_fu_draw run sem with
    | None -> b.Kernel.val_slot
    | Some (i, e) ->
        let k = b.Kernel.order_of_sem.(i) in
        if !n_events < max_recorded_events then begin
          events :=
            Interrupt.Exception_trapped
              {
                instruction = sem.Semantic.index;
                unit_ = units.(k).Kernel.fu;
                kind = Interrupt.Invalid_operand;
                element = e;
              }
            :: !events;
          incr n_events
        end;
        corrupt_latch b set ~k ~e
  in
  (* writes: one bulk Bigarray-direct transfer per unit-fed sink (plus a
     zero tail when the sink outruns the vector length); direct
     memory-to-memory routes re-read live, exactly as the reference *)
  let writes = ref 0 in
  for s = 0 to Array.length b.Kernel.writes - 1 do
    let w = b.Kernel.writes.(s) in
    let t = w.Kernel.transfer in
    let count = w.Kernel.count in
    if count > 0 then begin
      Dma.note_write ~words:count;
      (match w.Kernel.wsrc with
      | Kernel.W_unit k ->
          let n = min count vlen in
          let vs = val_slot.(k) in
          if n > 0 then write_vec node t bufs.(vs) ~pos:bases.(vs) ~count:n;
          if count > n then write_bulk_arr node t ~from:n (Array.make (count - n) 0.0)
      | Kernel.W_zero -> write_bulk_arr node t ~from:0 (Array.make count 0.0)
      | Kernel.W_live { transfer = rt; count = rcount; offset } ->
          for e = 0 to count - 1 do
            let v =
              if e >= vlen then 0.0
              else
                let e' = e + offset in
                if e' < 0 || e' >= vlen || e' >= rcount then 0.0
                else begin
                  let addr = rt.Dma.base + (e' * rt.Dma.stride) in
                  match rt.Dma.channel with
                  | Dma.Plane plid -> Node.read_plane node ~plane:plid ~addr
                  | Dma.Cache_chan c -> Cache.read_pipeline (Node.cache node c) addr
                end
            in
            let addr = t.Dma.base + (e * t.Dma.stride) in
            match t.Dma.channel with
            | Dma.Plane plid -> Node.write_plane node ~plane:plid ~addr v
            | Dma.Cache_chan c -> Cache.write_pipeline (Node.cache node c) addr v
          done);
      writes := !writes + count
    end
  done;
  let order_of_sem = b.Kernel.order_of_sem in
  let last = Array.make (Array.length order_of_sem) 0.0 in
  if vlen > 0 then
    for i = 0 to Array.length order_of_sem - 1 do
      let vs = val_slot.(order_of_sem.(i)) in
      last.(i) <- A1.get bufs.(vs) (bases.(vs) + vlen - 1)
    done;
  let cycles = kn.Kernel.cycles + fault_stream_cycles run sem in
  let events =
    (* the common case, no trap and no fault, shares the kernel's list *)
    if !n_events = 0 && cycles = kn.Kernel.cycles then kn.Kernel.completed
    else if !n_events < max_recorded_events then
      List.rev (Interrupt.Pipeline_complete { instruction = sem.Semantic.index; cycles } :: !events)
    else List.rev !events
  in
  let trace =
    if record_trace then begin
      let unit_values = Hashtbl.create (max 16 (n_units * vlen)) in
      List.iteri
        (fun i (u : Semantic.unit_program) ->
          let vs = val_slot.(b.Kernel.order_of_sem.(i)) in
          for e = 0 to vlen - 1 do
            Hashtbl.replace unit_values (u.Semantic.fu, e) (A1.get bufs.(vs) (bases.(vs) + e))
          done)
        sem.Semantic.units;
      Some { unit_values; vlen }
    end
    else None
  in
  let r =
    {
      cycles;
      flops = kn.Kernel.flops;
      elements = vlen;
      writes = !writes;
      events;
      units = b.Kernel.fus;
      last;
      trace;
    }
  in
  note_run ~kind:"kernel" sem r;
  r

(** Execute a compiled {!Kernel.t}: a working set drawn from the
    domain-local {!Kernel.acquire_slots} pool (no per-run allocation
    once warm), read streams read in place from their plane pages where
    the compile allows it and the window lies in one page and gathered
    with Bigarray-direct bulk transfers otherwise, a blocked element
    loop through compile-time-specialised {!Kernel.step}s — one native
    call per unit per block, with the non-finite trap pre-scan fused
    into the compute pass — and one bulk transfer per write sink.
    Kernels without a fused body fall back to the general evaluator with
    the kernel's cached analysis.  Values, cycle estimates and interrupt events are
    bit-identical to {!run_general}. *)
let run_kernel (node : Node.t) ?(record_trace = false) ?run (kn : Kernel.t) :
    result =
  match kn.Kernel.body with
  | None ->
      run_general node ~record_trace ~honor_timing:kn.Kernel.honor_timing
        ~analysis:kn.Kernel.analysis ?run kn.Kernel.sem
  | Some b ->
      let set = Kernel.acquire_slots b in
      (* a budget poll may unwind mid-body; the working set must go
         back either way, or a deadline-killed job would leave its shape
         taken and every later run of it allocating afresh *)
      match exec_body node ~record_trace ~run kn b set with
      | r ->
          Kernel.release_slots b set;
          r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Kernel.release_slots b set;
          Printexc.raise_with_backtrace e bt

(** Execute one pipeline instruction.  Compiles a kernel (see
    {!Kernel.compile} — timing analysed exactly once) and runs it;
    callers that replay an instruction should compile once and call
    {!run_kernel} directly. *)
let run (node : Node.t) ?(record_trace = false) ?(honor_timing = true) ?run
    (sem : Semantic.t) : result =
  run_kernel node ~record_trace ?run (Kernel.compile node.Node.params ~honor_timing sem)
