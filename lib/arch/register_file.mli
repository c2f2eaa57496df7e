(** Per-unit register files.

    Each functional unit owns a register file used for two purposes the
    paper calls out: holding constants or intermediate values, and buffering
    a stream through a circular queue so that vector operands arrive at a
    unit in step ("to adjust for pipeline timing delays").

    This module provides the static descriptors (validated against the
    machine parameters) and the dynamic circular-queue state the simulator
    steps. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type usage = {
  constants : (int * float) list;
  delay_a : int;
  delay_b : int;
}
val pp_usage :
  Format.formatter -> usage -> unit
val show_usage : usage -> string
val equal_usage : usage -> usage -> bool
val registers_used : usage -> int
val validate : Params.t -> usage -> string list
type queue = { depth : int; buf : float array; mutable head : int; }
val make_queue : ?fill:float -> int -> queue
val push : queue -> float -> float
val reset : ?fill:float -> queue -> unit
