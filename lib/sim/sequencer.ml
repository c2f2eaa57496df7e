(** The central sequencer: high-level control flow over the pipelines.

    "A central sequencer provides high-level control flow ... An elaborate
    interrupt scheme is used to signal pipeline completions, evaluate
    conditional expressions, and trap exceptions."  The sequencer executes
    the compiled control programme, dispatching one microinstruction per
    [Exec], charging a reconfiguration cost between instructions, and
    branching on condition interrupts computed from captured unit scalars. *)

open Nsc_arch
open Nsc_diagram
open Nsc_microcode

type stats = {
  instructions_executed : int;
  total_cycles : int;
  total_flops : int;
  total_writes : int;
  events : Interrupt.event list;  (** capped; earliest first *)
}

type outcome = {
  stats : stats;
  halted : bool;  (** an explicit [Halt] was reached *)
  last_values : (Resource.fu_id * float) list;
      (** captured scalars at the end of the run *)
}

exception Halted

let max_recorded_events = 2000

(* Observability: the sequencer owns the between-instruction
   reconfiguration charge, so it notes those cycles (and the switch
   reprogramming) on the trace; the engine notes execution itself. *)
module Metrics = Nsc_metrics.Metrics
module Budget = Nsc_guard.Guard.Budget

let c_reconfig_cycles =
  Metrics.counter ~name:"sim.reconfig_cycles" ~units:"cycles"
    ~desc:"cycles charged to switch reconfiguration between instructions"

let h_reconfig_cycles =
  Metrics.histogram ~name:"hist.reconfig_cycles" ~units:"cycles"
    ~desc:"per-instruction switch reconfiguration latency"

module Table = Map.Make (Int)

(* A program made ready to run: its instructions by number, decoded once
   from the machine words or taken from the retained semantics, beside
   the control programme.  Immutable, so one value serves every node and
   every run; the decoded semantics are then physically shared, and the
   compile cache validates its hits on [==]. *)
type prepared = {
  table : Semantic.t Table.t;
  control : Program.control list;
}

(** Decode the program's instructions once (or take the retained
    semantics with [~from_microcode:false]); the first word that fails to
    decode is reported as [instruction N: ...]. *)
let prepare ?(from_microcode = true) (c : Codegen.compiled) : (prepared, string) result =
  let rec load table = function
    | [] -> Ok { table; control = c.Codegen.control }
    | (i : Encode.instruction) :: rest -> (
        match Decode.decode c.Codegen.layout i.Encode.word with
        | Ok sem -> load (Table.add i.Encode.index sem table) rest
        | Error e -> Error (Printf.sprintf "instruction %d: %s" i.Encode.index e))
  in
  if from_microcode then load Table.empty c.Codegen.instructions
  else
    Ok
      {
        table =
          List.fold_left
            (fun table (sem : Semantic.t) -> Table.add sem.Semantic.index sem table)
            Table.empty c.Codegen.semantics;
        control = c.Codegen.control;
      }

(** Run a prepared program on [node].  [on_instruction] is invoked after
    each pipeline completes — the hook the visual debugger attaches to.

    Each [Exec] runs through a compiled execution plan lowered to a fused
    vector kernel; repeated [Exec]s of the same instruction (loop bodies)
    reuse the kernel from the run's compile cache rather than
    recompiling.  Pass a run over a persistent cache to reuse the
    compiled forms across runs of the same program.  [~engine:`Reference]
    runs every instruction on the general memoized evaluator instead —
    the oracle the kernel path is checked against, and bit-identical to
    it. *)
let exec (node : Node.t) ?(record_trace = false) ?(engine = `Kernel) ?run
    ?(on_instruction = fun (_ : Semantic.t) (_ : Engine.result) -> ())
    (prog : prepared) : (outcome, string) result =
  let p = node.Node.params in
  let run = match run with Some r -> r | None -> Run.make () in
  let budget = run.Run.budget in
  (* shared by every dispatch, so passing it on allocates nothing *)
  let in_run = Some run in
  let cycles = ref 0 and flops = ref 0 and writes = ref 0 in
  let executed = ref 0 in
  let events = ref [] and n_events = ref 0 in
  let record ev =
    if !n_events < max_recorded_events then begin
      events := ev :: !events;
      incr n_events
    end
  in
  let captured : (Resource.fu_id, float) Hashtbl.t = Hashtbl.create 16 in
  let exec_error = ref None in
  let dispatch n =
    match Table.find_opt n prog.table with
    | None ->
        if !exec_error = None then
          exec_error := Some (Printf.sprintf "control references missing pipeline %d" n);
        raise Halted
    | Some sem ->
        (* instruction boundary: the budget check that makes every
           deadline fire deterministically between dispatches (a
           sweep boundary is an instruction boundary) *)
        Budget.check_opt budget;
        if Metrics.tracing () then begin
          let m = Metrics.current () in
          let ts = Metrics.now m in
          Metrics.advance m p.reconfig_cycles;
          Metrics.span m ~cat:"sequencer" ~name:"reconfig" ~ts
            ~dur:p.reconfig_cycles
            ~args:[ ("instruction", Metrics.Int n) ]
            ();
          Metrics.add m c_reconfig_cycles p.reconfig_cycles;
          Metrics.observe m h_reconfig_cycles p.reconfig_cycles;
          Switch.note_reconfig ~routes:(List.length sem.Semantic.routes)
        end;
        let r =
          match engine with
          | `Kernel ->
              Engine.run_kernel node ~record_trace ?run:in_run
                (Kernel.find_or_compile run.Run.cache p sem)
          | `Reference -> Engine.run_general node ~record_trace ?run:in_run sem
        in
        incr executed;
        cycles := !cycles + r.Engine.cycles + p.reconfig_cycles;
        Budget.charge_opt budget (r.Engine.cycles + p.reconfig_cycles);
        flops := !flops + r.Engine.flops;
        writes := !writes + r.Engine.writes;
        List.iter record r.Engine.events;
        List.iter (fun (fu, v) -> Hashtbl.replace captured fu v) r.Engine.last_values;
        on_instruction sem r
  in
  let eval_condition instruction (cond : Interrupt.condition) =
    let value =
      Option.value ~default:Float.nan
        (Hashtbl.find_opt captured cond.Interrupt.unit_watched)
    in
    let holds =
      (not (Float.is_nan value))
      && Interrupt.relation_holds cond.Interrupt.relation value
           cond.Interrupt.threshold
    in
    record
      (Interrupt.Condition_evaluated { instruction; condition = cond; value; holds });
    if Metrics.tracing () then begin
      let m = Metrics.current () in
      Metrics.instant m ~cat:"sequencer" ~name:"condition" ~ts:(Metrics.now m)
        ~args:
          [ ("instruction", Metrics.Int instruction);
            ("value", Metrics.Float value);
            ("holds", Metrics.Str (string_of_bool holds)) ]
        ()
    end;
    holds
  in
  let halted = ref false in
  let rec interp (cs : Program.control list) =
    match cs with
    | [] -> ()
    | Program.Exec n :: rest ->
        dispatch n;
        interp rest
    | Program.Halt :: _ ->
        halted := true;
        raise Halted
    | Program.Repeat { count; body } :: rest ->
        for _ = 1 to count do
          interp body
        done;
        interp rest
    | Program.While { condition; max_iterations; body } :: rest ->
        let rec loop i =
          if max_iterations > 0 && i >= max_iterations then ()
          else begin
            interp body;
            if eval_condition (-1) condition then loop (i + 1)
          end
        in
        (* run the body once, then continue while the condition holds *)
        loop 0;
        interp rest
  in
  let ts_program = if Metrics.tracing () then Metrics.now (Metrics.current ()) else 0 in
  (try interp prog.control with Halted -> ());
  if Metrics.tracing () then begin
    let m = Metrics.current () in
    Metrics.span m ~cat:"sequencer" ~name:"program" ~ts:ts_program
      ~dur:(Metrics.now m - ts_program)
      ~args:
        [ ("instructions", Metrics.Int !executed);
          ("halted", Metrics.Str (string_of_bool !halted)) ]
      ()
  end;
  (match !exec_error with
  | Some e -> Error e
  | None ->
      Ok
        {
          stats =
            {
              instructions_executed = !executed;
              total_cycles = !cycles;
              total_flops = !flops;
              total_writes = !writes;
              events = List.rev !events;
            };
          halted = !halted;
          last_values =
            Hashtbl.fold (fun fu v acc -> (fu, v) :: acc) captured []
            |> List.sort compare;
        })

(** Execute a compiled program: {!prepare} it, then {!exec} it. *)
let run node ?from_microcode ?record_trace ?engine ?run ?plan_cache:_ ?kernel_cache
    ?on_instruction c =
  (* nscbench compatibility — delete when nscbench moves to Run.t: the
     only reader of the fault model's compat slot *)
  let run =
    match (run, kernel_cache) with
    | None, Some _ ->
        Some (Run.make ?cache:kernel_cache ?fault:(Nsc_fault.Fault.compat_model ()) ())
    | _ -> run
  in
  Result.bind (prepare ?from_microcode c) (fun prog ->
      exec node ?record_trace ?engine ?run ?on_instruction prog)
