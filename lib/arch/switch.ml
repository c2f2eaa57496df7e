(** The programmable switch network (the diagrams' "FLONET").

    The switch routes data among ALSs, memory planes, caches and shift/delay
    units.  A pipeline configuration is a set of (source, sink) routes; the
    hardware constrains each sink to a single source, bounds the fanout of
    any source, and bounds the total number of simultaneous routes.

    The table built here is consulted by the checker during editing and
    interrogated by the microcode generator to derive switch settings (the
    paper: "the microcode generator would later derive switch settings by
    interrogating the connection tables built by the graphical editor"). *)

type route = { src : Resource.source; snk : Resource.sink }
[@@deriving show { with_path = false }, eq]

module Metrics = Nsc_metrics.Metrics

(* Observability: how often the network is reprogrammed at run time.  The
   table in this module is built at edit time; the sequencer notes each
   between-instruction reconfiguration here as it dispatches. *)
let c_reconfigs =
  Metrics.counter ~name:"switch.reconfigurations" ~units:"events"
    ~desc:"switch reprogrammings charged between dispatched instructions"

let c_routes =
  Metrics.counter ~name:"switch.routes_programmed" ~units:"routes"
    ~desc:"(source, sink) routes loaded across all reconfigurations"

(** Note one run-time reconfiguration installing [routes] routes
    (tracing only; called by the sequencer per dispatched instruction). *)
let note_reconfig ~routes =
  if Metrics.tracing () then begin
    Metrics.bump c_reconfigs 1;
    Metrics.bump c_routes routes
  end

type error =
  | Sink_already_driven of Resource.sink * Resource.source
      (** the sink is already fed, and by which source *)
  | Fanout_exceeded of Resource.source * int  (** source at its fanout limit *)
  | Capacity_exceeded of int                  (** network already holds n routes *)
  | Self_loop of Resource.fu_id
      (** direct output-to-own-input route; feedback must go through a
          register file, not the switch *)
[@@deriving show { with_path = false }, eq]

let error_to_string = function
  | Sink_already_driven (snk, src) ->
      Printf.sprintf "sink %s is already driven by %s"
        (Resource.sink_to_string snk)
        (Resource.source_to_string src)
  | Fanout_exceeded (src, n) ->
      Printf.sprintf "source %s already feeds %d sinks (fanout limit)"
        (Resource.source_to_string src)
        n
  | Capacity_exceeded n -> Printf.sprintf "switch capacity exhausted at %d routes" n
  | Self_loop fu ->
      Printf.sprintf
        "unit %s cannot feed its own input through the switch; use a register-file \
         feedback loop"
        (Resource.fu_to_string fu)

(** An immutable routing table. *)
type t = { params : Params.t; routes : route list }

let empty params = { params; routes = [] }
let routes t = List.rev t.routes
let route_count t = List.length t.routes

let source_of_sink t snk =
  let rec find = function
    | [] -> None
    | r :: rest -> if Resource.equal_sink r.snk snk then Some r.src else find rest
  in
  find t.routes

let sinks_of_source t src =
  List.filter_map
    (fun r -> if Resource.equal_source r.src src then Some r.snk else None)
    t.routes

let fanout t src = List.length (sinks_of_source t src)

(** [check t route] reports why adding [route] would be illegal, if it would. *)
let check t { src; snk } : error option =
  match source_of_sink t snk with
  | Some existing -> Some (Sink_already_driven (snk, existing))
  | None ->
      if route_count t >= t.params.switch_capacity then
        Some (Capacity_exceeded (route_count t))
      else if fanout t src >= t.params.switch_fanout then
        Some (Fanout_exceeded (src, fanout t src))
      else begin
        match (src, snk) with
        | Resource.Src_fu fu, Resource.Snk_fu (fu', _) when Resource.equal_fu_id fu fu' ->
            Some (Self_loop fu)
        | _ -> None
      end

let add t route : (t, error) result =
  match check t route with
  | Some e -> Error e
  | None -> Ok { t with routes = route :: t.routes }

let remove t route =
  { t with routes = List.filter (fun r -> not (equal_route r route)) t.routes }

(** Memory-plane writers in the table (at most one is legal per plane; the
    checker turns a second into an error the editor surfaces immediately). *)
let plane_writers t plane =
  List.filter_map
    (fun r ->
      match r.snk with
      | Resource.Snk_memory (pl, _) when pl = plane -> Some r.src
      | _ -> None)
    t.routes

(** Memory-plane readers: routes whose source streams from [plane]. *)
let plane_readers t plane =
  List.filter_map
    (fun r ->
      match r.src with
      | Resource.Src_memory (pl, _) when pl = plane -> Some r.snk
      | _ -> None)
    t.routes
