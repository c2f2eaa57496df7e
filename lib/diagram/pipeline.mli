(** A pipeline diagram: one instruction of the visual program.

    "Each pipeline corresponds to a single instruction, or one line of code,
    in a more conventional language."  A diagram holds placed icons, the
    wiring connections between their pads, and the per-unit configurations;
    the vector length is the number of elements every stream of the
    instruction carries (scalars are vectors of length one). *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type t = {
  index : int;
  label : string;
  vector_length : int;
  icons : Icon.t list;
  connections : Connection.t list;
  next_icon_id : int;
  next_conn_id : int;
}
val pp :
  Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
(** A fresh, empty diagram for instruction [index]. *)
val empty : ?label:string -> int -> t
(** Set the instruction's vector length (scalars are vectors of length
    one); raises below 1. *)
val with_vector_length : t -> int -> t
val find_icon : t -> Icon.id -> Icon.t option
val icon_kind : t -> Icon.id -> Icon.kind option
(** ALS ids already bound to icons of this diagram. *)
val used_als : t -> Nsc_arch.Resource.als_id list
val used_shift_delay : t -> Nsc_arch.Resource.sd_id list
(** Lowest-numbered free ALS of a kind, if the machine still has one. *)
val free_als :
  Nsc_arch.Params.t ->
  t -> Nsc_arch.Als.kind -> Nsc_arch.Resource.als_id option
val free_shift_delay :
  Nsc_arch.Params.t -> t -> Nsc_arch.Resource.sd_id option
val add_icon :
  Nsc_arch.Params.t ->
  t ->
  kind:Icon.kind ->
  pos:Geometry.point -> Icon.id * t
(** Place an ALS icon, automatically binding the lowest free ALS of the
    requested kind — what happens when the user drags an icon out of the
    control panel.  [Error] when the supply is exhausted. *)
val place_als :
  Nsc_arch.Params.t ->
  t ->
  kind:Nsc_arch.Als.kind ->
  ?bypass:Nsc_arch.Als.bypass ->
  pos:Geometry.point ->
  unit -> (Icon.id * t, string) result
(** Place a shift/delay icon, automatically binding a free unit. *)
val place_shift_delay :
  Nsc_arch.Params.t ->
  t ->
  mode:Nsc_arch.Shift_delay.mode ->
  pos:Geometry.point -> (Icon.id * t, string) result
(** Delete an icon and every wire touching it. *)
val remove_icon : t -> Icon.id -> t
val move_icon : t -> Icon.id -> Geometry.point -> t
(** Update the configuration of one functional-unit slot. *)
val set_config :
  t -> id:Icon.id -> slot:int -> Fu_config.t -> t
val config_of :
  t -> id:Icon.id -> slot:int -> Fu_config.t option
(** Add a wire; ids are assigned by the diagram. *)
val add_connection :
  t ->
  src:Connection.endpoint ->
  dst:Connection.endpoint ->
  ?spec:Dma_spec.t -> unit -> Connection.id * t
val remove_connection : t -> Connection.id -> t
val connections_into :
  t -> Connection.endpoint -> Connection.t list
(** All pads with absolute positions — the editor's hit-testing
    universe. *)
val all_pads :
  Nsc_arch.Params.t ->
  t ->
  (Icon.id * Icon.pad * Geometry.point)
  list
(** Resolve a drawing-surface point to the nearest pad within a radius. *)
val pad_at :
  Nsc_arch.Params.t ->
  t ->
  within:int ->
  Geometry.point ->
  (Icon.id * Icon.pad) option
(** Topmost icon whose bounding box contains the point. *)
val icon_at :
  Nsc_arch.Params.t ->
  t -> Geometry.point -> Icon.t option
(** Number of configured (non-idle) functional units in the diagram. *)
val programmed_units : t -> int
