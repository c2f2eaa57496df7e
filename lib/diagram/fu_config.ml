(** Per-functional-unit programming: the third editing step of Section 5.

    A configuration records the operation assigned through the popup menu of
    Figure 10, where each operand comes from, and the register-file delay
    queues used to align vector streams (operands routed "into a circular
    queue in a register file" and retrieved "a number of clock cycles
    later"). *)

open Nsc_arch

(** Where an operand port takes its data. *)
type input_binding =
  | From_switch           (** wired externally through a diagram connection *)
  | From_chain            (** hardwired output of the previous unit in the ALS *)
  | From_constant of float (** constant held in the unit's register file *)
  | From_feedback of int  (** the unit's own output, [n >= 1] elements back,
                              through a register-file circular queue *)
  | Unbound               (** not yet specified *)
[@@deriving show { with_path = false }, eq, ord]

let binding_to_string = function
  | From_switch -> "switch"
  | From_chain -> "chain"
  | From_constant c -> Printf.sprintf "const %g" c
  | From_feedback n -> Printf.sprintf "feedback %d" n
  | Unbound -> "unbound"

type t = {
  op : Opcode.t option;  (** [None] until the user programs the unit *)
  a : input_binding;
  b : input_binding;
  delay_a : int;  (** extra alignment delay on the A operand, in elements *)
  delay_b : int;  (** extra alignment delay on the B operand, in elements *)
}
[@@deriving show { with_path = false }, eq, ord]

let idle = { op = None; a = Unbound; b = Unbound; delay_a = 0; delay_b = 0 }

let make ?(a = Unbound) ?(b = Unbound) ?(delay_a = 0) ?(delay_b = 0) op =
  { op = Some op; a; b; delay_a; delay_b }

let is_programmed t = Option.is_some t.op

(** Bindings actually consumed by the configured operation: unary opcodes
    use only the A port. *)
let consumed_bindings t =
  match t.op with
  | None -> []
  | Some op -> (
      match Opcode.arity op with
      | 1 -> [ (Resource.A, t.a) ]
      | _ -> [ (Resource.A, t.a); (Resource.B, t.b) ])

let binding_of_port t = function Resource.A -> t.a | Resource.B -> t.b

(** Register-file usage implied by a configuration (constants occupy one
    register each; delay and feedback queues occupy their depth). *)
let register_file_usage t : Register_file.usage =
  let const_regs =
    List.filter_map
      (function From_constant c -> Some c | From_switch | From_chain | From_feedback _ | Unbound -> None)
      [ t.a; t.b ]
    |> List.mapi (fun i c -> (i, c))
  in
  let feedback_depth b = match b with From_feedback n -> n | _ -> 0 in
  {
    Register_file.constants = const_regs;
    delay_a = t.delay_a + feedback_depth t.a;
    delay_b = t.delay_b + feedback_depth t.b;
  }

(** One-line rendering for listings and the ASCII editor view. *)
let to_string t =
  match t.op with
  | None -> "idle"
  | Some op ->
      let operand port b d =
        let base = binding_to_string b in
        let base = if d > 0 then Printf.sprintf "%s+z%d" base d else base in
        Printf.sprintf "%s=%s" port base
      in
      let parts =
        match Opcode.arity op with
        | 1 -> [ operand "a" t.a t.delay_a ]
        | _ -> [ operand "a" t.a t.delay_a; operand "b" t.b t.delay_b ]
      in
      Printf.sprintf "%s(%s)" (Opcode.mnemonic op) (String.concat ", " parts)
