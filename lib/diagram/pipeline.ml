(** A pipeline diagram: one instruction of the visual program.

    "Each pipeline corresponds to a single instruction, or one line of code,
    in a more conventional language."  A diagram holds placed icons, the
    wiring connections between their pads, and the per-unit configurations;
    the vector length is the number of elements every stream of the
    instruction carries (scalars are vectors of length one). *)

open Nsc_arch

type t = {
  index : int;  (** instruction number within the program (1-based) *)
  label : string;
  vector_length : int;
  icons : Icon.t list;  (** in placement order *)
  connections : Connection.t list;
  next_icon_id : int;
  next_conn_id : int;
}
[@@deriving show { with_path = false }, eq]

let empty ?(label = "") index =
  {
    index;
    label;
    vector_length = 1;
    icons = [];
    connections = [];
    next_icon_id = 0;
    next_conn_id = 0;
  }

let with_vector_length t vlen =
  if vlen < 1 then invalid_arg "Pipeline.with_vector_length: length must be >= 1";
  { t with vector_length = vlen }

let find_icon t id = List.find_opt (fun (i : Icon.t) -> i.Icon.id = id) t.icons
let icon_kind t id = Option.map (fun (i : Icon.t) -> i.Icon.kind) (find_icon t id)

(** ALS ids already bound to icons of this diagram. *)
let used_als t =
  List.filter_map (fun (i : Icon.t) -> Icon.als_of_kind i.Icon.kind) t.icons

(** Shift/delay units already bound to icons of this diagram. *)
let used_shift_delay t =
  List.filter_map
    (fun (i : Icon.t) ->
      match i.Icon.kind with
      | Icon.Shift_delay_icon { sd; _ } -> Some sd
      | Icon.Als_icon _ | Icon.Memory_icon _ | Icon.Cache_icon _ -> None)
    t.icons

(** Lowest-numbered free ALS of kind [k], if the machine still has one. *)
let free_als (p : Params.t) t (k : Als.kind) =
  let used = used_als t in
  List.find_opt (fun a -> not (List.mem a used)) (Als.ids_of_kind p k)

(** Lowest-numbered free shift/delay unit. *)
let free_shift_delay (p : Params.t) t =
  let used = used_shift_delay t in
  List.find_opt (fun s -> not (List.mem s used))
    (List.init p.n_shift_delay (fun s -> s))

(** Place an icon of the given kind at [pos].  ALS icons must already carry
    a concrete ALS id (use {!place_als} for automatic assignment). *)
let add_icon (p : Params.t) t ~kind ~pos =
  let icon = Icon.make p ~id:t.next_icon_id ~kind ~pos in
  (icon.Icon.id, { t with icons = t.icons @ [ icon ]; next_icon_id = t.next_icon_id + 1 })

(** Place an ALS icon of kind [k], automatically binding the lowest free ALS
    of that kind — what happens when the user drags an ALS icon out of the
    control panel.  [Error] when the machine's supply of that kind is
    exhausted. *)
let place_als (p : Params.t) t ~(kind : Als.kind) ?(bypass = Als.No_bypass) ~pos () =
  match free_als p t kind with
  | None ->
      Error
        (Printf.sprintf "all %s ALSs of the machine are already in use"
           (Als.kind_to_string kind))
  | Some als ->
      if not (List.mem bypass (Als.legal_bypasses ~size:(Resource.als_size p als))) then
        Error "bypass configuration is only available on doublets"
      else Ok (add_icon p t ~kind:(Icon.Als_icon { als; bypass }) ~pos)

(** Place a shift/delay icon, automatically binding a free unit. *)
let place_shift_delay (p : Params.t) t ~mode ~pos =
  match free_shift_delay p t with
  | None -> Error "both shift/delay units are already in use"
  | Some sd ->
      (match Shift_delay.validate p mode with
      | [] -> Ok (add_icon p t ~kind:(Icon.Shift_delay_icon { sd; mode }) ~pos)
      | e :: _ -> Error e)

(** Delete an icon and every connection touching it. *)
let remove_icon t id =
  {
    t with
    icons = List.filter (fun (i : Icon.t) -> i.Icon.id <> id) t.icons;
    connections =
      List.filter (fun c -> not (Connection.touches_icon c id)) t.connections;
  }

let move_icon t id pos =
  {
    t with
    icons =
      List.map
        (fun (i : Icon.t) -> if i.Icon.id = id then { i with Icon.pos } else i)
        t.icons;
  }

(** Update the configuration of slot [slot] of icon [id]. *)
let set_config t ~id ~slot (cfg : Fu_config.t) =
  let update (i : Icon.t) =
    if i.Icon.id <> id then i
    else begin
      if slot < 0 || slot >= Array.length i.Icon.configs then
        invalid_arg "Pipeline.set_config: slot out of range";
      let configs = Array.copy i.Icon.configs in
      configs.(slot) <- cfg;
      { i with Icon.configs }
    end
  in
  { t with icons = List.map update t.icons }

let config_of t ~id ~slot =
  match find_icon t id with
  | Some i when slot >= 0 && slot < Array.length i.Icon.configs ->
      Some i.Icon.configs.(slot)
  | Some _ | None -> None

(** Add a connection; ids are assigned by the diagram. *)
let add_connection t ~src ~dst ?spec () =
  let c = { Connection.id = t.next_conn_id; src; dst; spec } in
  (c.Connection.id,
   { t with connections = t.connections @ [ c ]; next_conn_id = t.next_conn_id + 1 })

let remove_connection t id =
  {
    t with
    connections = List.filter (fun c -> c.Connection.id <> id) t.connections;
  }

(** Connections whose consuming end is [e]. *)
let connections_into t e =
  List.filter (fun c -> Connection.equal_endpoint c.Connection.dst e) t.connections

(** All pads of all icons with absolute positions — the hit-testing universe
    for the editor's mouse clicks. *)
let all_pads (p : Params.t) t =
  List.concat_map
    (fun (i : Icon.t) ->
      List.map
        (fun (pad, rel) -> (i.Icon.id, pad, Geometry.add i.Icon.pos rel))
        (Icon.pads p i))
    t.icons

(** Resolve a drawing-surface point to the nearest pad within [within]
    cells. *)
let pad_at (p : Params.t) t ~within pos =
  Geometry.nearest ~within pos
    (List.map (fun (id, pad, at) -> (at, (id, pad))) (all_pads p t))

(** Topmost icon whose bounding box contains [pos]. *)
let icon_at (p : Params.t) t pos =
  List.fold_left
    (fun acc (i : Icon.t) ->
      if Geometry.contains (Icon.bounding_box p i) pos then Some i else acc)
    None t.icons

(** Number of programmed (non-idle) functional units in the diagram. *)
let programmed_units t =
  List.fold_left
    (fun acc (i : Icon.t) ->
      acc + Array.fold_left (fun n c -> if Fu_config.is_programmed c then n + 1 else n) 0 i.Icon.configs)
    0 t.icons
