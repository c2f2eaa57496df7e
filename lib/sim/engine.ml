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
    everything else.  Both model an injected functional-unit fault the
    same way: the victim's output latch reads NaN at its write sinks, in
    [last_values] and in the trace, while consumers in the same
    instruction have already latched the clean value. *)

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
  last_values : (Resource.fu_id * float) list;
      (** final output of every engaged unit — the scalars condition
          interrupts capture *)
  trace : trace option;
}

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
  let last_values =
    List.map
      (fun (u : Semantic.unit_program) -> (u.Semantic.fu, unit_out u.Semantic.fu (vlen - 1)))
      sem.Semantic.units
  in
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
      last_values;
      trace = (if record_trace then Some { unit_values = memo; vlen } else None);
    }
  in
  note_run ~kind:"general" sem r;
  r

(* --- the fused kernel: specialised steps over pooled Bigarray buffers --- *)

module A1 = Bigarray.Array1

(* Zero [len] elements of [b] from [pos] (no-op on an empty range).
   Pooled buffers come back dirty; the executor scrubs exactly the
   regions it relies on reading as 0.0.  Small ranges (the pads,
   typically 1-2 elements) are zeroed with a direct loop: [A1.sub]
   allocates a fresh bigarray handle per call, which dominates the cost
   of tiny fills. *)
let zero_range (b : Kernel.buf) pos len =
  if len > 0 then
    if len <= 32 then
      for i = pos to pos + len - 1 do
        A1.unsafe_set b i 0.0
      done
    else A1.fill (A1.sub b pos len) 0.0

(* Gather one read stream into its buffer: the live prefix
   [pad, pad + n) comes straight from memory or cache in one
   Bigarray-direct bulk transfer, the pads and the slack beyond the
   stream's count are zeroed. *)
let gather_stream node ~vlen ~pad ~blen (r : Plan.read_stream) (buf : Kernel.buf) =
  let t = r.Plan.transfer in
  let n = min r.Plan.count vlen in
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
  zero_range buf 0 pad;
  zero_range buf (pad + n) (blen - pad - n)

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
   elided pass-through, its values move into its own buffer before the
   NaN lands there; if other elided pass-throughs alias [k]'s buffer,
   each of them moves into its own buffer first.  Runs only under a
   fault, so the clean path allocates nothing. *)
let corrupt_latch (b : Kernel.body) (bufs : Kernel.buf array) ~k ~e =
  let unit_base = b.Kernel.unit_base in
  let val_slot = Array.copy b.Kernel.val_slot in
  let shared = val_slot.(k) in
  let materialise j =
    A1.blit bufs.(shared) bufs.(unit_base + j);
    val_slot.(j) <- unit_base + j
  in
  if shared <> unit_base + k then materialise k
  else Array.iteri (fun j s -> if j <> k && s = shared then materialise j) b.Kernel.val_slot;
  A1.set bufs.(unit_base + k) (b.Kernel.pad + e) Float.nan;
  val_slot

(* Execute the fused body on [node] over the slots [bufs]: element 0 of
   every buffer sits at index [pad]. *)
let exec_body (node : Node.t) ~record_trace ~run (pl : Plan.t)
    (b : Kernel.body) (bufs : Kernel.buf array) : result =
  let sem = pl.Plan.sem in
  let budget = budget_of run in
  let vlen = b.Kernel.vlen in
  let pad = b.Kernel.pad in
  let blen = b.Kernel.blen in
  let units = b.Kernel.units in
  let steps = b.Kernel.steps in
  let n_units = Array.length units in
  let unit_base = b.Kernel.unit_base in
  (* gather read streams; scrub the unit output buffers (a unit operand
     may legitimately read an element its producer has not reached yet —
     the reference sees 0.0 there, so dirty pool bytes must not leak) *)
  Array.iteri
    (fun s r -> gather_stream node ~vlen ~pad ~blen r bufs.(b.Kernel.stream_base + s))
    b.Kernel.reads;
  (* every step writes its full live range in order before anything reads
     it (cross-unit operands are offset 0, self-feedback reads are
     delays), so dirty pool bytes can only leak through the pads — except
     for a look-ahead self-read, which needs the live range zero too *)
  if pad > 0 then begin
    let tail = pad + vlen in
    for k = 0 to n_units - 1 do
      (* an elided pass-through unit's buffer is never read at all *)
      if Array.unsafe_get b.Kernel.val_slot k = unit_base + k then begin
        let b = bufs.(unit_base + k) in
        zero_range b 0 pad;
        zero_range b tail (blen - pad - vlen)
      end
    done
  end;
  Array.iteri
    (fun k full -> if full then zero_range bufs.(unit_base + k) 0 blen)
    b.Kernel.full_zero;
  (* blocked, unit-major compute through the compile-time-specialised
     step closures: no opcode dispatch anywhere in the hot path.  Each
     step folds the non-finite trap pre-scan into its own loop and
     returns 0.0 iff every value it produced was finite. *)
  let any_nonfinite = ref false in
  let e0 = ref 0 in
  while !e0 < vlen do
    (* kernel block boundary: a wall deadline or cancellation can cut a
       long fused body short without waiting for the whole instruction *)
    Nsc_guard.Guard.Budget.poll_opt budget;
    let e1 = min vlen (!e0 + kernel_block) in
    for k = 0 to n_units - 1 do
      if (Array.unsafe_get steps k) bufs pad !e0 e1 <> 0.0 then
        any_nonfinite := true
    done;
    e0 := e1
  done;
  let events = ref [] and n_events = ref 0 in
  let record ev =
    if !n_events < max_recorded_events then begin
      events := ev :: !events;
      incr n_events
    end
  in
  (* trap events, replayed in element-major topological order *)
  if !any_nonfinite then
    for e = 0 to vlen - 1 do
      for k = 0 to n_units - 1 do
        let u = units.(k) in
        let v = A1.get bufs.(Array.unsafe_get b.Kernel.val_slot k) (pad + e) in
        if v -. v <> 0.0 then begin
          let a = A1.get bufs.(u.Kernel.a_buf) (pad + u.Kernel.a_off + e) in
          let bv = A1.get bufs.(u.Kernel.b_buf) (pad + u.Kernel.b_off + e) in
          match Fu_exec.trapped u.Kernel.op a bv v with
          | Some kind ->
              record
                (Interrupt.Exception_trapped
                   {
                     instruction = sem.Semantic.index;
                     unit_ = u.Kernel.fu;
                     kind;
                     element = e;
                   })
          | None -> ()
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
        record
          (Interrupt.Exception_trapped
             {
               instruction = sem.Semantic.index;
               unit_ = units.(k).Kernel.fu;
               kind = Interrupt.Invalid_operand;
               element = e;
             });
        corrupt_latch b bufs ~k ~e
  in
  (* writes: one bulk Bigarray-direct transfer per unit-fed sink (plus a
     zero tail when the sink outruns the vector length); direct
     memory-to-memory routes re-read live, exactly as the reference *)
  let writes = ref 0 in
  Array.iter
    (fun (w : Plan.write_stream) ->
      let t = w.Plan.transfer in
      let count = w.Plan.count in
      if count > 0 then begin
        Dma.note_write ~words:count;
        (match w.Plan.wsrc with
        | Plan.W_unit k ->
            let n = min count vlen in
            if n > 0 then write_vec node t bufs.(val_slot.(k)) ~pos:pad ~count:n;
            if count > n then
              write_bulk_arr node t ~from:n (Array.make (count - n) 0.0)
        | Plan.W_zero -> write_bulk_arr node t ~from:0 (Array.make count 0.0)
        | Plan.W_live { transfer = rt; count = rcount; offset } ->
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
                    | Dma.Cache_chan c ->
                        Cache.read_pipeline (Node.cache node c) addr
                  end
              in
              let addr = t.Dma.base + (e * t.Dma.stride) in
              match t.Dma.channel with
              | Dma.Plane plid -> Node.write_plane node ~plane:plid ~addr v
              | Dma.Cache_chan c -> Cache.write_pipeline (Node.cache node c) addr v
            done);
        writes := !writes + count
      end)
    b.Kernel.writes;
  let last_values =
    List.mapi
      (fun i (u : Semantic.unit_program) ->
        let k = b.Kernel.order_of_sem.(i) in
        ( u.Semantic.fu,
          if vlen > 0 then A1.get bufs.(val_slot.(k)) (pad + vlen - 1) else 0.0 ))
      sem.Semantic.units
  in
  let cycles = pl.Plan.cycles + fault_stream_cycles run sem in
  record (Interrupt.Pipeline_complete { instruction = sem.Semantic.index; cycles });
  let trace =
    if record_trace then begin
      let unit_values = Hashtbl.create (max 16 (n_units * vlen)) in
      List.iteri
        (fun i (u : Semantic.unit_program) ->
          let k = b.Kernel.order_of_sem.(i) in
          for e = 0 to vlen - 1 do
            Hashtbl.replace unit_values (u.Semantic.fu, e)
              (A1.get bufs.(val_slot.(k)) (pad + e))
          done)
        sem.Semantic.units;
      Some { unit_values; vlen }
    end
    else None
  in
  let r =
    {
      cycles;
      flops = pl.Plan.flops;
      elements = vlen;
      writes = !writes;
      events = List.rev !events;
      last_values;
      trace;
    }
  in
  note_run ~kind:"kernel" sem r;
  r

(** Execute a compiled {!Kernel.t}: buffers drawn from the domain-local
    {!Kernel.acquire} pool (no per-run allocation once warm), read
    streams gathered with Bigarray-direct bulk transfers, a blocked
    element loop through compile-time-specialised {!Kernel.step}
    closures with the non-finite trap pre-scan fused into the compute
    pass, and one bulk transfer per write sink.  Kernels without a fused
    body fall back to the general evaluator with the plan's cached
    analysis.  Values, cycle estimates and interrupt events are
    bit-identical to {!run_general}. *)
let run_kernel (node : Node.t) ?(record_trace = false) ?run (kn : Kernel.t) :
    result =
  let pl = kn.Kernel.plan in
  match kn.Kernel.body with
  | None ->
      run_general node ~record_trace ~honor_timing:pl.Plan.honor_timing
        ~analysis:pl.Plan.analysis ?run pl.Plan.sem
  | Some b ->
      let bufs = Array.make b.Kernel.n_buffers b.Kernel.static.(0) in
      Array.blit b.Kernel.static 0 bufs 0 (Array.length b.Kernel.static);
      Kernel.acquire_into b.Kernel.blen bufs ~from:b.Kernel.stream_base;
      (* a budget poll may unwind mid-body; the pooled buffers must go
         back either way or a deadline-killed job would leak the pool *)
      Fun.protect
        ~finally:(fun () ->
          Kernel.release_from bufs ~from:b.Kernel.stream_base b.Kernel.blen)
        (fun () -> exec_body node ~record_trace ~run pl b bufs)

(** Execute one pipeline instruction.  Compiles an execution plan (see
    {!Plan.compile} — timing analysed exactly once), lowers it to a fused
    kernel and runs it; callers that replay an instruction should compile
    once, or use a {!Kernel.cache}, and call {!run_kernel} directly. *)
let run (node : Node.t) ?(record_trace = false) ?(honor_timing = true) ?run
    (sem : Semantic.t) : result =
  run_kernel node ~record_trace ?run
    (Kernel.compile (Plan.compile node.Node.params ~honor_timing sem))
