(** Per-functional-unit programming: the third editing step of Section 5.

    A configuration records the operation assigned through the popup menu of
    Figure 10, where each operand comes from, and the register-file delay
    queues used to align vector streams (operands routed "into a circular
    queue in a register file" and retrieved "a number of clock cycles
    later"). *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type input_binding =
    From_switch
  | From_chain
  | From_constant of float
  | From_feedback of int
  | Unbound
val pp_input_binding :
  Format.formatter ->
  input_binding -> unit
val show_input_binding : input_binding -> string
val equal_input_binding :
  input_binding -> input_binding -> bool
val compare_input_binding :
  input_binding -> input_binding -> int
val binding_to_string : input_binding -> string
type t = {
  op : Nsc_arch.Opcode.t option;
  a : input_binding;
  b : input_binding;
  delay_a : int;
  delay_b : int;
}
val pp :
  Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val idle : t
val make :
  ?a:input_binding ->
  ?b:input_binding -> ?delay_a:int -> ?delay_b:int -> Nsc_arch.Opcode.t -> t
val is_programmed : t -> bool
val consumed_bindings : t -> (Nsc_arch.Resource.port * input_binding) list
val binding_of_port : t -> Nsc_arch.Resource.port -> input_binding
val register_file_usage : t -> Nsc_arch.Register_file.usage
val to_string : t -> string
