(** Icons: the visual objects representing architectural components.

    "Visual objects, or icons, are used to represent architectural
    components of the NSC at a suitable level of abstraction ...  Subimages
    within each icon are also meaningful."  The prototype implements ALS
    icons (Figure 4, including the bypassed-doublet representation); the
    paper lists memory planes and shift/delay units as useful additions —
    we implement those too, plus caches.

    All coordinates are in character cells of the drawing surface, with the
    ALS chain flowing top to bottom; positions are display data only. *)

open Nsc_arch

type id = int [@@deriving show, eq, ord]

type kind =
  | Als_icon of { als : Resource.als_id; bypass : Als.bypass }
  | Memory_icon of Resource.plane_id
  | Cache_icon of Resource.cache_id
  | Shift_delay_icon of { sd : Resource.sd_id; mode : Shift_delay.mode }
[@@deriving show { with_path = false }, eq]

(** Connection points drawn as "short wires terminated by small black
    circles" on an icon. *)
type pad =
  | In_pad of int * Resource.port  (** operand port of an ALS slot *)
  | Out_pad of int                 (** output tap of an ALS slot *)
  | Flow_in                        (** write side of memory/cache/shift-delay *)
  | Flow_out                       (** read side of memory/cache/shift-delay *)
[@@deriving show { with_path = false }, eq, ord]

type t = {
  id : id;
  kind : kind;
  pos : Geometry.point;          (** top-left corner on the drawing surface *)
  configs : Fu_config.t array;   (** one per ALS slot; empty otherwise *)
}
[@@deriving show { with_path = false }, eq]

(* Drawing metrics, in character cells. *)
let fu_box_w = 9
let fu_box_h = 3
let fu_gap = 1

let als_of_kind = function Als_icon { als; _ } -> Some als | Memory_icon _ | Cache_icon _ | Shift_delay_icon _ -> None

let make (p : Params.t) ~id ~kind ~pos =
  let n =
    match kind with
    | Als_icon { als; _ } -> Resource.als_size p als
    | Memory_icon _ | Cache_icon _ | Shift_delay_icon _ -> 0
  in
  { id; kind; pos; configs = Array.make n Fu_config.idle }

(** Active slots of the icon under its bypass configuration. *)
let active_slots (p : Params.t) icon =
  match icon.kind with
  | Als_icon { als; bypass } ->
      Als.active_slots ~size:(Resource.als_size p als) bypass
  | Memory_icon _ | Cache_icon _ | Shift_delay_icon _ -> []

(** Size of the icon's bounding box in character cells. *)
let size (p : Params.t) icon =
  match icon.kind with
  | Als_icon { als; _ } ->
      let n = Resource.als_size p als in
      (fu_box_w, (n * fu_box_h) + ((n - 1) * fu_gap) + 2)
  | Memory_icon _ -> (13, 3)
  | Cache_icon _ -> (13, 3)
  | Shift_delay_icon _ -> (11, 3)

let bounding_box p icon =
  let w, h = size p icon in
  Geometry.rect icon.pos.Geometry.x icon.pos.Geometry.y w h

(** Vertical character row of slot [slot]'s box top, relative to the icon. *)
let slot_row slot = 1 + (slot * (fu_box_h + fu_gap))

(** Pads exposed by the icon, with positions relative to [icon.pos].
    For an ALS: the first active slot exposes A (top-left) and B (top-right)
    pads; each later active slot exposes a B pad on its right edge (its A
    operand arrives over the internal chain); every active slot exposes an
    output tap, drawn bottom-centre for the final slot and bottom-left
    otherwise. *)
let pads (p : Params.t) icon : (pad * Geometry.point) list =
  match icon.kind with
  | Als_icon { als; bypass } -> (
      let size_ = Resource.als_size p als in
      let actives = Als.active_slots ~size:size_ bypass in
      let out_slot = Als.output_slot ~size:size_ bypass in
      match actives with
      | [] -> []
      | first :: rest ->
          let top = slot_row first - 1 in
          let head_pads =
            [
              (In_pad (first, Resource.A), Geometry.point 2 top);
              (In_pad (first, Resource.B), Geometry.point (fu_box_w - 3) top);
            ]
          in
          let chain_pads =
            List.map
              (fun slot ->
                (In_pad (slot, Resource.B),
                 Geometry.point (fu_box_w - 1) (slot_row slot + 1)))
              rest
          in
          let out_pads =
            List.map
              (fun slot ->
                let row = slot_row slot + fu_box_h in
                if slot = out_slot then
                  (Out_pad slot, Geometry.point (fu_box_w / 2) row)
                else (Out_pad slot, Geometry.point 0 (row - 1)))
              actives
          in
          head_pads @ chain_pads @ out_pads)
  | Memory_icon _ | Cache_icon _ ->
      [ (Flow_in, Geometry.point 3 0); (Flow_out, Geometry.point 9 2) ]
  | Shift_delay_icon _ ->
      [ (Flow_in, Geometry.point 2 0); (Flow_out, Geometry.point 8 2) ]

(** Absolute position of [pad] on the drawing surface. *)
let pad_position p icon pad =
  List.assoc_opt pad (pads p icon)
  |> Option.map (fun rel -> Geometry.add icon.pos rel)

type pad_direction = Consumes | Produces

(** Does the pad consume or produce data? *)
let pad_direction = function
  | In_pad _ | Flow_in -> Consumes
  | Out_pad _ | Flow_out -> Produces

let pad_to_string = function
  | In_pad (slot, port) -> Printf.sprintf "in%d%s" slot (Resource.port_to_string port)
  | Out_pad slot -> Printf.sprintf "out%d" slot
  | Flow_in -> "flowin"
  | Flow_out -> "flowout"

let pad_of_string s =
  match s with
  | "flowin" -> Some Flow_in
  | "flowout" -> Some Flow_out
  | _ ->
      let parse prefix mk =
        let pl = String.length prefix in
        if String.length s > pl && String.sub s 0 pl = prefix then
          mk (String.sub s pl (String.length s - pl))
        else None
      in
      let in_pad rest =
        let n = String.length rest in
        if n >= 2 then
          let port =
            match rest.[n - 1] with
            | 'a' -> Some Resource.A
            | 'b' -> Some Resource.B
            | _ -> None
          in
          match (port, int_of_string_opt (String.sub rest 0 (n - 1))) with
          | Some port, Some slot -> Some (In_pad (slot, port))
          | _ -> None
        else None
      in
      let out_pad rest =
        Option.map (fun slot -> Out_pad slot) (int_of_string_opt rest)
      in
      (match parse "in" in_pad with Some p -> Some p | None -> parse "out" out_pad)

(** Title drawn in the icon header. *)
let title icon =
  match icon.kind with
  | Als_icon { als; bypass } ->
      let base = Printf.sprintf "ALS%d" als in
      (match bypass with
      | Als.No_bypass -> base
      | Als.Keep_head -> base ^ "(h)"
      | Als.Keep_tail -> base ^ "(t)")
  | Memory_icon pl -> Printf.sprintf "MEM %d" pl
  | Cache_icon c -> Printf.sprintf "CACHE %d" c
  | Shift_delay_icon { sd; mode } ->
      Printf.sprintf "SD%d %s" sd (Shift_delay.mode_to_string mode)
