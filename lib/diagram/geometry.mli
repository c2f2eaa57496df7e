(** Plane geometry for the drawing surface.

    The prototype draws on a high-resolution bit-mapped display; we keep the
    same model with integer coordinates.  Geometry is pure display data: the
    semantic projection of a diagram discards it entirely. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type point = { x : int; y : int; }
val pp_point :
  Format.formatter -> point -> unit
val show_point : point -> string
val equal_point : point -> point -> bool
val compare_point : point -> point -> int
val point : int -> int -> point
val add : point -> point -> point
val sub : point -> point -> point
type rect = { ox : int; oy : int; w : int; h : int; }
val pp_rect :
  Format.formatter -> rect -> unit
val show_rect : rect -> string
val equal_rect : rect -> rect -> bool
val compare_rect : rect -> rect -> int
val rect : int -> int -> int -> int -> rect
val origin : rect -> point
val contains : rect -> point -> bool
val translate : rect -> point -> rect
val center : rect -> point
val dist2 : point -> point -> int
val nearest : within:int -> point -> (point * 'a) list -> 'a option
