(** Pipeline timing analysis.

    Vector operands must arrive at a functional unit in step; the NSC aligns
    them by routing the early stream "into a circular queue in a register
    file".  This module computes, for a semantic pipeline, when each
    operand arrives at each engaged unit, which binary units see misaligned
    operands (and by how much), the fill depth of the whole pipeline, and
    the delay corrections that would balance it — used both to report
    {!Diagnostic.Timing} errors and by the compiler to auto-balance
    generated diagrams. *)

open Nsc_arch
open Nsc_diagram

(** Operand arrival time in cycles after stream start; [None] when the
    operand is a constant or a feedback value, which is always available and
    never constrains alignment. *)
type arrival = int option

type unit_timing = {
  fu : Resource.fu_id;
  arrival_a : arrival;  (** raw arrival at port A, before the alignment delay *)
  arrival_b : arrival;
  ready : int;          (** cycle at which the unit's first result emerges *)
  misaligned : int option;
      (** [Some d] when the effective A and B arrivals differ by [d]
          (positive: A arrives later) *)
}

type t = {
  units : unit_timing list;
  depth : int;  (** pipeline fill: the latest [ready] over all units *)
  cyclic : Resource.fu_id list;
      (** units on a combinational cycle through switch or chain routing —
          illegal; feedback must use the register file *)
}

(* Analyses performed (always-on).  The plan compiler promises to
   analyse each instruction exactly once per compiled plan; tests observe
   this counter to hold it to that. *)
let c_analyses =
  Nsc_metrics.Metrics.always_counter ~name:"timing.analyses" ~units:"analyses"
    ~desc:"pipeline timing analyses performed"

let find_unit (sem : Semantic.t) fu = Semantic.unit_for sem fu

let sd_mode (sem : Semantic.t) sd =
  List.find_map
    (fun (s : Semantic.sd_program) -> if s.Semantic.sd = sd then Some s.Semantic.mode else None)
    sem.Semantic.sds

(** Analyse a semantic pipeline under parameters [p]. *)
let analyse (p : Params.t) (sem : Semantic.t) : t =
  Nsc_metrics.Metrics.bump c_analyses 1;
  let lat = p.latencies in
  let memo : (Resource.fu_id, int) Hashtbl.t = Hashtbl.create 16 in
  let visiting : (Resource.fu_id, unit) Hashtbl.t = Hashtbl.create 16 in
  let cyclic = ref [] in
  (* ready time of a switch source *)
  let rec source_time (src : Resource.source) : int =
    match src with
    | Resource.Src_memory _ | Resource.Src_cache _ -> 0
    | Resource.Src_shift_delay sd -> (
        match sd_mode sem sd with
        | Some (Shift_delay.Delay d) -> d
        | Some (Shift_delay.Shift _) | None -> 0)
    | Resource.Src_fu fu -> ready fu
  (* raw arrival at one port of [fu] *)
  and port_arrival (u : Semantic.unit_program) (port : Resource.port) : arrival =
    let binding =
      match port with Resource.A -> u.Semantic.a | Resource.B -> u.Semantic.b
    in
    match binding with
    | Fu_config.From_constant _ | Fu_config.From_feedback _ -> None
    | Fu_config.Unbound -> Some 0
    | Fu_config.From_chain -> (
        let size = Resource.als_size p u.Semantic.fu.Resource.als in
        let bypass =
          match List.assoc_opt u.Semantic.fu.Resource.als sem.Semantic.bypasses with
          | Some b -> b
          | None -> Als.No_bypass
        in
        match Als.chain_predecessor ~size bypass ~slot:u.Semantic.fu.Resource.slot with
        | None -> Some 0
        | Some pred_slot ->
            Some (ready { Resource.als = u.Semantic.fu.Resource.als; slot = pred_slot }))
    | Fu_config.From_switch -> (
        match
          Semantic.source_feeding sem (Resource.Snk_fu (u.Semantic.fu, port))
        with
        | None -> Some 0
        | Some src -> Some (source_time src))
  (* first-result time of unit [fu] *)
  and ready (fu : Resource.fu_id) : int =
    match Hashtbl.find_opt memo fu with
    | Some t -> t
    | None ->
        if Hashtbl.mem visiting fu then begin
          if not (List.exists (Resource.equal_fu_id fu) !cyclic) then
            cyclic := fu :: !cyclic;
          0
        end
        else begin
          Hashtbl.add visiting fu ();
          let t =
            match find_unit sem fu with
            | None -> 0 (* unengaged unit routed as a source: treated as time 0 *)
            | Some u ->
                let eff port delay =
                  match port_arrival u port with
                  | None -> 0
                  | Some t -> t + delay
                in
                let inputs =
                  match Opcode.arity u.Semantic.op with
                  | 1 -> [ eff Resource.A u.Semantic.delay_a ]
                  | _ ->
                      [ eff Resource.A u.Semantic.delay_a;
                        eff Resource.B u.Semantic.delay_b ]
                in
                List.fold_left max 0 inputs + Opcode.latency lat u.Semantic.op
          in
          Hashtbl.remove visiting fu;
          Hashtbl.replace memo fu t;
          t
        end
  in
  let units =
    List.map
      (fun (u : Semantic.unit_program) ->
        let fu = u.Semantic.fu in
        let r = ready fu in
        let arrival_a = port_arrival u Resource.A in
        let arrival_b = port_arrival u Resource.B in
        let misaligned =
          if Opcode.arity u.Semantic.op < 2 then None
          else
            match (arrival_a, arrival_b) with
            | Some ta, Some tb ->
                let ea = ta + u.Semantic.delay_a and eb = tb + u.Semantic.delay_b in
                if ea = eb then None else Some (ea - eb)
            | _ -> None
        in
        { fu; arrival_a; arrival_b; ready = r; misaligned })
      sem.Semantic.units
  in
  let depth = List.fold_left (fun acc u -> max acc u.ready) 0 units in
  { units; depth; cyclic = List.rev !cyclic }

(** Delay corrections that would balance every misaligned unit: for each,
    the port whose operand arrives early and the extra queue depth needed.
    The compiler applies these; the editor offers them as suggestions. *)
let balancing_corrections (t : t) : (Resource.fu_id * Resource.port * int) list =
  List.filter_map
    (fun u ->
      match u.misaligned with
      | None -> None
      | Some d when d > 0 -> Some (u.fu, Resource.B, d) (* A late: delay B more *)
      | Some d -> Some (u.fu, Resource.A, -d))
    t.units

(** Estimated execution cycles of the pipeline on a vector of [vlen]
    elements: fill to depth, then one element per cycle scaled by the worst
    memory-plane port contention (an initiation interval above 1 when a
    plane serves more reader streams than it has ports). *)
let estimated_cycles (p : Params.t) (sem : Semantic.t) (t : t) ~vlen =
  let readers_per_plane = Hashtbl.create 8 in
  List.iter
    (fun ((src : Resource.source), _) ->
      match src with
      | Resource.Src_memory (plane, _) ->
          let n = Option.value ~default:0 (Hashtbl.find_opt readers_per_plane plane) in
          Hashtbl.replace readers_per_plane plane (n + 1)
      | Resource.Src_fu _ | Resource.Src_cache _ | Resource.Src_shift_delay _ -> ())
    (Semantic.read_streams sem);
  let ii =
    Hashtbl.fold
      (fun _ readers acc ->
        let stall = (readers + p.plane_read_ports - 1) / p.plane_read_ports in
        max acc stall)
      readers_per_plane 1
  in
  t.depth + (max 0 (vlen - 1) * ii)
