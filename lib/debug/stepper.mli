(** The visual debugger sketched in Section 6 of the paper.

    "During execution, each new instruction would display the corresponding
    pipeline diagram, annotated to show data values flowing through the
    pipeline.  This could help to pinpoint timing errors, as well as other
    bugs in the program."

    The stepper executes a compiled program instruction by instruction,
    recording the full per-element trace of every engaged unit; frames can
    then be rendered as annotated diagrams at any vector element, and
    trapped exceptions and condition evaluations are attached to the frame
    that raised them. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type frame = {
  ordinal : int;
  instruction : int;
  label : string;
  semantic : Nsc_diagram.Semantic.t;
  result : Nsc_sim.Engine.result;
}
type run = {
  frames : frame list;
  outcome : Nsc_sim.Sequencer.outcome;
  program : Nsc_diagram.Program.t;
}

(** Execute with full tracing; [limit] caps recorded frames and [engine]
    selects the simulator path (the two are bit-identical). *)
val run :
  Nsc_sim.Node.t ->
  ?limit:int ->
  ?engine:[ `Kernel | `Reference ] ->
  Nsc_microcode.Codegen.compiled ->
  Nsc_diagram.Program.t -> (run, string) result
val frame : run -> ordinal:int -> frame option

(** Values of every engaged unit at one vector element of a frame. *)
val values_at :
  frame -> element:int -> (Nsc_arch.Resource.fu_id * float) list

(** The annotated diagram display the paper proposes: the frame's
    pipeline drawn with the values flowing through each unit. *)
val render_frame : Nsc_arch.Params.t -> run -> frame -> element:int -> string

(** Elements at which any unit produced a non-finite value. *)
val anomalies : frame -> (Nsc_arch.Resource.fu_id * int * float) list
