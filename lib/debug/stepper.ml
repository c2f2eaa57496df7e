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

open Nsc_arch
open Nsc_diagram
open Nsc_sim

(** One executed instruction. *)
type frame = {
  ordinal : int;           (** execution order, from 0 *)
  instruction : int;       (** pipeline number *)
  label : string;
  semantic : Semantic.t;
  result : Engine.result;  (** includes the trace *)
}

type run = {
  frames : frame list;  (** in execution order *)
  outcome : Sequencer.outcome;
  program : Program.t;
}

(** Execute [compiled] with full tracing.  [limit] caps the recorded frames
    (long convergence loops would otherwise hold thousands of traces);
    [engine] selects the simulator path — the fused kernel or the
    reference evaluator, which are bit-identical, so the annotated frames
    can confirm it on any suspect instruction. *)
let run (node : Node.t) ?(limit = 256) ?(engine = `Kernel)
    (compiled : Nsc_microcode.Codegen.compiled) (program : Program.t) :
    (run, string) result =
  let frames = ref [] in
  let count = ref 0 in
  let on_instruction (sem : Semantic.t) (r : Engine.result) =
    if !count < limit then begin
      (* microcode carries no labels; recover the diagram's label *)
      let label =
        match Program.find_pipeline program sem.Semantic.index with
        | Some pl when sem.Semantic.label = "" -> pl.Pipeline.label
        | _ -> sem.Semantic.label
      in
      frames :=
        {
          ordinal = !count;
          instruction = sem.Semantic.index;
          label;
          semantic = sem;
          result = r;
        }
        :: !frames;
      incr count
    end
  in
  match Sequencer.run node ~record_trace:true ~engine ~on_instruction compiled with
  | Error e -> Error e
  | Ok outcome -> Ok { frames = List.rev !frames; outcome; program }

let frame run ~ordinal = List.find_opt (fun f -> f.ordinal = ordinal) run.frames

(** Values of every engaged unit at vector element [element] of a frame. *)
let values_at (f : frame) ~element : (Resource.fu_id * float) list =
  match f.result.Engine.trace with
  | None -> []
  | Some tr ->
      List.filter_map
        (fun (u : Semantic.unit_program) ->
          Option.map
            (fun v -> (u.Semantic.fu, v))
            (Engine.trace_value tr ~fu:u.Semantic.fu ~element))
        f.semantic.Semantic.units

(** Render the annotated diagram of a frame at one vector element — the
    debugger display the paper proposes.  The diagram is looked up in the
    source program so display geometry is preserved. *)
let render_frame (p : Params.t) (run : run) (f : frame) ~element : string =
  let header =
    Printf.sprintf
      "frame %d: instruction %d%s | element %d of %d | %d cycles | %d flops\n" f.ordinal
      f.instruction
      (if f.label = "" then "" else " (" ^ f.label ^ ")")
      element f.result.Engine.elements f.result.Engine.cycles f.result.Engine.flops
  in
  let body =
    match Program.find_pipeline run.program f.instruction with
    | Some pl ->
        Nsc_editor.Render_ascii.render_pipeline ~values:(values_at f ~element) p pl
    | None -> "(diagram not available)\n"
  in
  let events =
    match f.result.Engine.events with
    | [] -> ""
    | evs ->
        "events:\n"
        ^ String.concat ""
            (List.map (fun e -> "  " ^ Interrupt.event_to_string e ^ "\n") evs)
  in
  header ^ body ^ events

(** Elements at which a unit's value changes sign or becomes non-finite —
    quick anomaly scan used by the exception-hunting workflow. *)
let anomalies (f : frame) : (Resource.fu_id * int * float) list =
  match f.result.Engine.trace with
  | None -> []
  | Some tr ->
      List.concat_map
        (fun (u : Semantic.unit_program) ->
          let rec scan e acc =
            if e >= f.result.Engine.elements then List.rev acc
            else
              match Engine.trace_value tr ~fu:u.Semantic.fu ~element:e with
              | Some v when Float.is_nan v || Float.abs v = Float.infinity ->
                  scan (e + 1) ((u.Semantic.fu, e, v) :: acc)
              | _ -> scan (e + 1) acc
          in
          scan 0 [])
        f.semantic.Semantic.units
