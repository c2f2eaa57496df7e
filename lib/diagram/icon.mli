(** Icons: the visual objects representing architectural components.

    "Visual objects, or icons, are used to represent architectural
    components of the NSC at a suitable level of abstraction ...  Subimages
    within each icon are also meaningful."  The prototype implements ALS
    icons (Figure 4, including the bypassed-doublet representation); the
    paper lists memory planes and shift/delay units as useful additions —
    we implement those too, plus caches.

    All coordinates are in character cells of the drawing surface, with the
    ALS chain flowing top to bottom; positions are display data only. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type id = int
val pp_id :
  Format.formatter -> id -> unit
val show_id : id -> string
val equal_id : id -> id -> bool
val compare_id : id -> id -> int
type kind =
    Als_icon of { als : Nsc_arch.Resource.als_id;
      bypass : Nsc_arch.Als.bypass;
    }
  | Memory_icon of Nsc_arch.Resource.plane_id
  | Cache_icon of Nsc_arch.Resource.cache_id
  | Shift_delay_icon of { sd : Nsc_arch.Resource.sd_id;
      mode : Nsc_arch.Shift_delay.mode;
    }
val pp_kind :
  Format.formatter -> kind -> unit
val show_kind : kind -> string
val equal_kind : kind -> kind -> bool
type pad =
    In_pad of int * Nsc_arch.Resource.port
  | Out_pad of int
  | Flow_in
  | Flow_out
val pp_pad :
  Format.formatter -> pad -> unit
val show_pad : pad -> string
val equal_pad : pad -> pad -> bool
val compare_pad : pad -> pad -> int
type t = {
  id : id;
  kind : kind;
  pos : Geometry.point;
  configs : Fu_config.t array;
}
val pp :
  Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val fu_box_w : int
val fu_box_h : int
val fu_gap : int
val als_of_kind : kind -> Nsc_arch.Resource.als_id option
val make :
  Nsc_arch.Params.t ->
  id:id -> kind:kind -> pos:Geometry.point -> t
val active_slots : Nsc_arch.Params.t -> t -> int list
val size : Nsc_arch.Params.t -> t -> int * int
val bounding_box : Nsc_arch.Params.t -> t -> Geometry.rect
val slot_row : int -> int
val pads : Nsc_arch.Params.t -> t -> (pad * Geometry.point) list
val pad_position :
  Nsc_arch.Params.t -> t -> pad -> Geometry.point option
type pad_direction = Consumes | Produces
val pad_direction : pad -> pad_direction
val pad_to_string : pad -> string
val pad_of_string : string -> pad option
val title : t -> string
