(** Shared wiring helpers for the application program builders: the same
    few editing gestures — wire a memory stream to a pad, wire a pad to a
    memory stream, wire two pads — that every diagram in this library is
    drawn with. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

val fail_on_error : ('a, string) result -> 'a
val mem_to_pad :
  Pipeline.t ->
  plane:Nsc_arch.Resource.plane_id ->
  var:string ->
  offset:int ->
  ?stride:int ->
  icon:Icon.id ->
  pad:Icon.pad -> unit -> Pipeline.t
val pad_to_mem :
  Pipeline.t ->
  icon:Icon.id ->
  pad:Icon.pad ->
  plane:Nsc_arch.Resource.plane_id ->
  var:string -> offset:int -> ?stride:int -> unit -> Pipeline.t
val pad_to_pad :
  Pipeline.t ->
  from_icon:Icon.id ->
  from_pad:Icon.pad ->
  to_icon:Icon.id ->
  to_pad:Icon.pad -> Pipeline.t
val als_of_icon :
  Pipeline.t -> Icon.id -> Nsc_arch.Resource.als_id
val declare_all :
  Program.t ->
  (string * Nsc_arch.Resource.plane_id) list ->
  length:int -> Program.t
val place :
  ?bypass:Nsc_arch.Als.bypass ->
  Pipeline.t ->
  params:Nsc_arch.Params.t ->
  kind:Nsc_arch.Als.kind ->
  x:int -> y:int -> Icon.id * Pipeline.t
val config :
  Pipeline.t ->
  icon:Icon.id ->
  slot:int ->
  ?a:Fu_config.input_binding ->
  ?b:Fu_config.input_binding ->
  Nsc_arch.Opcode.t -> Pipeline.t
