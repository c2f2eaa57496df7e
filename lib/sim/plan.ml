(** Compiled execution plans: one pipeline diagram lowered once.

    The paper's premise is that one pipeline diagram is one machine
    instruction replayed over long vector streams — so everything static
    about the instruction (operand bindings, switch routes, chain
    predecessors, topological order, DMA transfers, timing analysis) can be
    resolved exactly once and reused across thousands of sweeps.  This
    module performs that lowering: a {!Nsc_diagram.Semantic.t} becomes an
    immutable, int-indexed plan — no per-element hashtable lookups, no
    per-dispatch re-analysis — which {!Kernel} lowers to fused loops.

    The dense [fast] body exists when the diagram is aligned and acyclic
    with DMA-fed shift/delay units (the checked, production case); plans
    for other diagrams still carry the cached timing analysis and fall back
    to the general memoized evaluator in {!Engine}. *)

open Nsc_arch
open Nsc_diagram
open Nsc_checker

(** Where a functional-unit operand comes from, resolved to plan indices.
    [Unit k] is the same-element output of plan unit [k] (chain or switch
    route); [Self n] is the unit's own output [n] elements back (a
    register-file feedback queue); [Stream s] is element [e] of prefetched
    read stream [s]; [Stream_at (s, off)] the same stream at [e + off]
    (a shift/delay unit in the path). *)
type operand =
  | Zero
  | Const of float
  | Unit of int
  | Self of int
  | Stream of int
  | Stream_at of int * int

type unit_plan = {
  fu : Resource.fu_id;
  op : Opcode.t;
  binary : bool;
  a : operand;
  b : operand;
}

(** A read stream with its engine's transfer and the element count
    resolved (a descriptor count of 0 means "the vector length"). *)
type read_stream = { src : Resource.source; transfer : Dma.transfer; count : int }

(** Source feeding a write stream.  [W_unit k] drains plan unit [k];
    [W_live] re-reads a DMA stream element by element at write time (a
    direct memory-to-memory route, possibly through a shift/delay offset) —
    live, because earlier writes of the same instruction may alias it. *)
type write_source =
  | W_unit of int
  | W_live of { transfer : Dma.transfer; count : int; offset : int }
  | W_zero

type write_stream = { wsrc : write_source; transfer : Dma.transfer; count : int }

(** The dense executable body: units in topological order, prefetchable
    read streams, resolved write streams, and the map from the semantic
    unit list to plan order (for reporting captured scalars). *)
type fast = {
  units : unit_plan array;
  reads : read_stream array;
  writes : write_stream array;
  order_of_sem : int array;
}

type t = {
  sem : Semantic.t;
  vlen : int;
  analysis : Timing.t;  (** computed exactly once, at compile time *)
  cycles : int;         (** {!Timing.estimated_cycles} at [vlen], cached *)
  flops : int;
  honor_timing : bool;
  fast : fast option;
}

(* --- host counters (always-on: see docs/OBSERVABILITY.md) -------------- *)

module Metrics = Nsc_metrics.Metrics

let c_compiles =
  Metrics.always_counter ~name:"plan.compiles" ~units:"plans"
    ~desc:"instruction semantics lowered to execution plans"

let compile_count () = Metrics.total c_compiles

(* --- applicability of the dense body ------------------------------------ *)

(* The dense body applies when all operand streams are aligned (or
   timing is not honoured), there are no combinational cycles, and every
   shift/delay unit is DMA-fed. *)
let fast_applies (analysis : Timing.t) ~honor_timing (sem : Semantic.t) =
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

(* --- compilation -------------------------------------------------------- *)

let compile_fast (p : Params.t) (sem : Semantic.t) : fast =
  let vlen = sem.Semantic.vector_length in
  let units = Array.of_list sem.Semantic.units in
  let n_units = Array.length units in
  let index_of : (Resource.fu_id, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun k (u : Semantic.unit_program) -> Hashtbl.replace index_of u.Semantic.fu k)
    units;
  let route_into = Hashtbl.create 16 in
  List.iter
    (fun (r : Switch.route) -> Hashtbl.replace route_into r.Switch.snk r.Switch.src)
    sem.Semantic.routes;
  let read_list = Semantic.read_streams sem in
  let reads =
    Array.of_list
      (List.map
         (fun (src, (t : Dma.transfer)) ->
           { src; transfer = t; count = (if t.Dma.count = 0 then vlen else t.Dma.count) })
         read_list)
  in
  let stream_index src =
    let rec find i = function
      | [] -> None
      | (s, _) :: rest -> if Resource.equal_source s src then Some i else find (i + 1) rest
    in
    find 0 read_list
  in
  let sd_mode sd =
    List.find_map
      (fun (s : Semantic.sd_program) ->
        if s.Semantic.sd = sd then Some s.Semantic.mode else None)
      sem.Semantic.sds
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
  (* same-element dependencies (chain predecessor, switch sources that are
     functional units) — acyclic by precondition *)
  let deps k =
    let u = units.(k) in
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
    @ (if Opcode.arity u.Semantic.op = 2 then of_binding Resource.B u.Semantic.b else [])
  in
  let order = Array.make n_units 0 in
  let mark = Array.make n_units 0 in
  let pos = ref 0 in
  let rec visit k =
    if mark.(k) = 0 then begin
      mark.(k) <- 1;
      List.iter visit (deps k);
      order.(!pos) <- k;
      incr pos
    end
  in
  for k = 0 to n_units - 1 do
    visit k
  done;
  (* plan position of each original unit index *)
  let topo_pos = Array.make n_units 0 in
  Array.iteri (fun i k -> topo_pos.(k) <- i) order;
  let plan_index_of_fu f =
    Option.map (fun k -> topo_pos.(k)) (Hashtbl.find_opt index_of f)
  in
  let operand_of_source (src : Resource.source) : operand =
    match src with
    | Resource.Src_memory _ | Resource.Src_cache _ -> (
        match stream_index src with Some s -> Stream s | None -> Zero)
    | Resource.Src_shift_delay sd -> (
        let off =
          match sd_mode sd with
          | Some (Shift_delay.Delay d) -> -d
          | Some (Shift_delay.Shift o) -> o
          | None -> 0
        in
        match Hashtbl.find_opt route_into (Resource.Snk_shift_delay sd) with
        | Some ((Resource.Src_memory _ | Resource.Src_cache _) as src') -> (
            match stream_index src' with
            | Some s -> if off = 0 then Stream s else Stream_at (s, off)
            | None -> Zero)
        | Some _ | None -> Zero (* non-DMA feeds excluded by precondition *))
    | Resource.Src_fu f -> (
        match plan_index_of_fu f with Some k -> Unit k | None -> Zero)
  in
  let operand_of_binding (fu : Resource.fu_id) (port : Resource.port) binding : operand =
    match binding with
    | Fu_config.Unbound -> Zero
    | Fu_config.From_constant c -> Const c
    | Fu_config.From_feedback n -> if n >= 1 then Self n else Zero
    | Fu_config.From_chain -> (
        match chain_pred fu with
        | Some pred -> (
            match plan_index_of_fu pred with Some k -> Unit k | None -> Zero)
        | None -> Zero)
    | Fu_config.From_switch -> (
        match Hashtbl.find_opt route_into (Resource.Snk_fu (fu, port)) with
        | Some src -> operand_of_source src
        | None -> Zero)
  in
  let plan_units =
    Array.map
      (fun k ->
        let u = units.(k) in
        let fu = u.Semantic.fu in
        let binary = Opcode.arity u.Semantic.op = 2 in
        {
          fu;
          op = u.Semantic.op;
          binary;
          a = operand_of_binding fu Resource.A u.Semantic.a;
          b = (if binary then operand_of_binding fu Resource.B u.Semantic.b else Zero);
        })
      order
  in
  let read_transfer src = List.assoc_opt src read_list in
  let writes =
    List.filter_map
      (fun (snk, (t : Dma.transfer)) ->
        match Hashtbl.find_opt route_into snk with
        | None -> None (* unrouted write engines transfer nothing *)
        | Some src ->
            let count = if t.Dma.count = 0 then vlen else t.Dma.count in
            let live src' off =
              match read_transfer src' with
              | Some (rt : Dma.transfer) ->
                  W_live
                    {
                      transfer = rt;
                      count = (if rt.Dma.count = 0 then vlen else rt.Dma.count);
                      offset = off;
                    }
              | None -> W_zero
            in
            let wsrc =
              match src with
              | Resource.Src_fu f -> (
                  match plan_index_of_fu f with Some k -> W_unit k | None -> W_zero)
              | Resource.Src_memory _ | Resource.Src_cache _ -> live src 0
              | Resource.Src_shift_delay sd -> (
                  let off =
                    match sd_mode sd with
                    | Some (Shift_delay.Delay d) -> -d
                    | Some (Shift_delay.Shift o) -> o
                    | None -> 0
                  in
                  match Hashtbl.find_opt route_into (Resource.Snk_shift_delay sd) with
                  | Some ((Resource.Src_memory _ | Resource.Src_cache _) as src') ->
                      live src' off
                  | Some _ | None -> W_zero)
            in
            Some { wsrc; transfer = t; count })
      (Semantic.write_streams sem)
  in
  { units = plan_units; reads; writes = Array.of_list writes; order_of_sem = topo_pos }

(** Lower a semantic pipeline to an execution plan, running the timing
    analysis exactly once. *)
let compile (p : Params.t) ?(honor_timing = true) (sem : Semantic.t) : t =
  Metrics.bump c_compiles 1;
  let analysis = Timing.analyse p sem in
  let vlen = sem.Semantic.vector_length in
  let fast =
    if fast_applies analysis ~honor_timing sem then Some (compile_fast p sem) else None
  in
  {
    sem;
    vlen;
    analysis;
    cycles = Timing.estimated_cycles p sem analysis ~vlen;
    flops = Semantic.flops_per_element sem * vlen;
    honor_timing;
    fast;
  }

(* --- nscbench compatibility — delete when nscbench moves to Run.t ------- *)

(* A stand-in for the stand-alone plan cache nscbench's per-layer spans
   pass around: it holds nothing, and [cached] compiles afresh.  Every
   kernel the library runs is held by its prepared instruction. *)
type cache = unit

let make_cache ?bound:_ () : cache = ()

let cached (() : cache) (p : Params.t) ?honor_timing (sem : Semantic.t) : t =
  compile p ?honor_timing sem

(* kernel replays, counted by [Kernel.of_instr] *)
let cache_hit_count () =
  match Metrics.find_counter "kernel.cache_hits" with Some c -> Metrics.total c | None -> 0
