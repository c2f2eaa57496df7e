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
module Trace = Nsc_trace.Trace
module Metrics = Nsc_metrics.Metrics
module Budget = Nsc_guard.Guard.Budget

let c_reconfig_cycles =
  Trace.counter ~name:"sim.reconfig_cycles" ~units:"cycles"
    ~desc:"cycles charged to switch reconfiguration between instructions"

let h_reconfig_cycles =
  Metrics.histogram ~name:"hist.reconfig_cycles" ~units:"cycles"
    ~desc:"per-instruction switch reconfiguration latency"

(* The program's instructions by number, decoded once per run from the
   machine words or taken from the retained semantics; the first word
   that fails to decode is reported. *)
let instruction_table ~from_microcode (c : Codegen.compiled) :
    ((int, Semantic.t) Hashtbl.t, string) result =
  let table = Hashtbl.create 16 in
  let rec load = function
    | [] -> Ok table
    | (i : Encode.instruction) :: rest -> (
        match Decode.decode c.Codegen.layout i.Encode.word with
        | Ok sem ->
            Hashtbl.replace table i.Encode.index sem;
            load rest
        | Error e -> Error (Printf.sprintf "instruction %d: %s" i.Encode.index e))
  in
  if from_microcode then load c.Codegen.instructions
  else begin
    List.iter
      (fun (sem : Semantic.t) -> Hashtbl.replace table sem.Semantic.index sem)
      c.Codegen.semantics;
    Ok table
  end

(** Execute a compiled program on [node].

    By default the machine words themselves are decoded and executed
    ([from_microcode]); passing [~from_microcode:false] runs the retained
    semantic structures directly (useful to isolate decoder faults).
    [on_instruction] is invoked after each pipeline completes — the hook the
    visual debugger attaches to.

    Each [Exec] runs through a compiled execution plan lowered to a fused
    vector kernel; repeated [Exec]s of the same instruction (loop bodies)
    reuse the plan from [plan_cache] and the kernel from [kernel_cache]
    rather than recompiling.  Pass persistent caches to reuse the
    compiled forms across runs of the same program; [~engine:`Plan] stops
    at the plan interpreter, [~engine:`Legacy] restores the seed
    per-dispatch path and [~engine:`Kernel_v2] the float-array kernel
    backend (benchmark baselines — all four engines are bit-identical
    wherever the fused body applies). *)
let run (node : Node.t) ?(from_microcode = true) ?(record_trace = false)
    ?(engine = `Kernel) ?(plan_cache = Plan.make_cache ())
    ?(kernel_cache = Kernel.make_cache ()) ?budget
    ?(on_instruction = fun (_ : Semantic.t) (_ : Engine.result) -> ())
    (c : Codegen.compiled) : (outcome, string) result =
  let p = node.Node.params in
  match instruction_table ~from_microcode c with
  | Error e -> Error e
  | Ok table ->
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
      let exec n =
        match Hashtbl.find_opt table n with
        | None ->
            if !exec_error = None then
              exec_error := Some (Printf.sprintf "control references missing pipeline %d" n);
            raise Halted
        | Some sem ->
            (* instruction boundary: the budget check that makes every
               deadline fire deterministically between dispatches (a
               sweep boundary is an instruction boundary) *)
            Budget.check_opt budget;
            if Trace.enabled () then begin
              let ts = Trace.now () in
              Trace.advance p.reconfig_cycles;
              Trace.span ~cat:"sequencer" ~name:"reconfig" ~ts
                ~dur:p.reconfig_cycles
                ~args:[ ("instruction", Trace.Int n) ]
                ();
              Trace.add c_reconfig_cycles p.reconfig_cycles;
              Metrics.observe (Metrics.current ()) h_reconfig_cycles
                p.reconfig_cycles;
              Switch.note_reconfig ~routes:(List.length sem.Semantic.routes)
            end;
            let r =
              match engine with
              | `Kernel ->
                  Engine.run_kernel node ~record_trace ?budget
                    (Kernel.cached kernel_cache plan_cache p sem)
              | `Kernel_v2 ->
                  Engine.run_kernel_v2 node ~record_trace
                    (Kernel.cached kernel_cache plan_cache p sem)
              | `Plan ->
                  Engine.run_plan node ~record_trace (Plan.cached plan_cache p sem)
              | `Legacy -> Engine.run_legacy node ~record_trace sem
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
        if Trace.enabled () then
          Trace.instant ~cat:"sequencer" ~name:"condition" ~ts:(Trace.now ())
            ~args:
              [ ("instruction", Trace.Int instruction);
                ("value", Trace.Float value);
                ("holds", Trace.Str (string_of_bool holds)) ]
            ();
        holds
      in
      let halted = ref false in
      let rec interp (cs : Program.control list) =
        match cs with
        | [] -> ()
        | Program.Exec n :: rest ->
            exec n;
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
      let ts_program = if Trace.enabled () then Trace.now () else 0 in
      (try interp c.Codegen.control with Halted -> ());
      if Trace.enabled () then
        Trace.span ~cat:"sequencer" ~name:"program" ~ts:ts_program
          ~dur:(Trace.now () - ts_program)
          ~args:
            [ ("instructions", Trace.Int !executed);
              ("halted", Trace.Str (string_of_bool !halted)) ]
          ();
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

(** Execute one compiled program on K replica nodes in lock-step, each
    [Exec] dispatched as one {!Engine.run_batched} call over the replicas
    still active at that control point.  Control flow is tracked with an
    active-replica set: a [While] keeps a replica iterating while {e its
    own} captured condition scalar holds (replicas leave the loop
    independently and rejoin at the join point), and [Halt] retires every
    replica that reaches it — so [outcomes.(r)] is bit-identical to
    [run nodes.(r)] of the same program, including per-replica iteration
    counts, event streams and captured scalars (property-tested).  All
    replicas share one decode pass and one plan/kernel cache; nodes must
    share the parameters of [nodes.(0)].  [domains] fans clean replicas
    across the persistent domain pool. *)
let run_batch (nodes : Node.t array) ?(from_microcode = true)
    ?(record_trace = false) ?(domains = 1) ?(plan_cache = Plan.make_cache ())
    ?(kernel_cache = Kernel.make_cache ()) ?budget (c : Codegen.compiled) :
    (outcome array, string) result =
  let krep = Array.length nodes in
  if krep = 0 then Ok [||]
  else begin
    let p = nodes.(0).Node.params in
    match instruction_table ~from_microcode c with
    | Error e -> Error e
    | Ok table ->
        let cycles = Array.make krep 0
        and flops = Array.make krep 0
        and writes = Array.make krep 0
        and executed = Array.make krep 0
        and n_events = Array.make krep 0
        and halted = Array.make krep false in
        let events = Array.init krep (fun _ -> ref []) in
        let captured =
          Array.init krep (fun _ : (Resource.fu_id, float) Hashtbl.t ->
              Hashtbl.create 16)
        in
        let record rep ev =
          if n_events.(rep) < max_recorded_events then begin
            events.(rep) := ev :: !(events.(rep));
            n_events.(rep) <- n_events.(rep) + 1
          end
        in
        let exec_error = ref None in
        let exec active n =
          match Hashtbl.find_opt table n with
          | None ->
              if !exec_error = None then
                exec_error :=
                  Some (Printf.sprintf "control references missing pipeline %d" n);
              raise Halted
          | Some sem ->
              (* lock-step boundary: a deadline never interrupts an
                 in-flight batched dispatch, so when it fires every
                 replica has completed the same instruction prefix *)
              Budget.check_opt budget;
              if Trace.enabled () then begin
                let ts = Trace.now () in
                Trace.advance p.reconfig_cycles;
                Trace.span ~cat:"sequencer" ~name:"reconfig" ~ts
                  ~dur:p.reconfig_cycles
                  ~args:
                    [ ("instruction", Trace.Int n);
                      ("replicas", Trace.Int (List.length active)) ]
                  ();
                Trace.add c_reconfig_cycles p.reconfig_cycles;
                Metrics.observe (Metrics.current ()) h_reconfig_cycles
                  p.reconfig_cycles;
                Switch.note_reconfig ~routes:(List.length sem.Semantic.routes)
              end;
              let kn = Kernel.cached kernel_cache plan_cache p sem in
              let sel = Array.of_list active in
              let results =
                Engine.run_batched
                  (Array.map (fun r -> nodes.(r)) sel)
                  ~record_trace ~domains kn
              in
              Array.iteri
                (fun i (r : Engine.result) ->
                  let rep = sel.(i) in
                  executed.(rep) <- executed.(rep) + 1;
                  cycles.(rep) <- cycles.(rep) + r.Engine.cycles + p.reconfig_cycles;
                  flops.(rep) <- flops.(rep) + r.Engine.flops;
                  writes.(rep) <- writes.(rep) + r.Engine.writes;
                  List.iter (record rep) r.Engine.events;
                  List.iter
                    (fun (fu, v) -> Hashtbl.replace captured.(rep) fu v)
                    r.Engine.last_values)
                results;
              (* charge the machine wall of the lock-step dispatch: the
                 slowest replica's execution plus the reconfiguration *)
              Budget.charge_opt budget
                (Array.fold_left
                   (fun m (r : Engine.result) -> max m r.Engine.cycles)
                   0 results
                + p.reconfig_cycles)
        in
        let eval_condition rep instruction (cond : Interrupt.condition) =
          let value =
            Option.value ~default:Float.nan
              (Hashtbl.find_opt captured.(rep) cond.Interrupt.unit_watched)
          in
          let holds =
            (not (Float.is_nan value))
            && Interrupt.relation_holds cond.Interrupt.relation value
                 cond.Interrupt.threshold
          in
          record rep
            (Interrupt.Condition_evaluated
               { instruction; condition = cond; value; holds });
          if Trace.enabled () then
            Trace.instant ~cat:"sequencer" ~name:"condition" ~ts:(Trace.now ())
              ~args:
                [ ("instruction", Trace.Int instruction);
                  ("replica", Trace.Int rep);
                  ("value", Trace.Float value);
                  ("holds", Trace.Str (string_of_bool holds)) ]
              ();
          holds
        in
        let live = List.filter (fun r -> not halted.(r)) in
        let rec interp active (cs : Program.control list) =
          if active <> [] then
            match cs with
            | [] -> ()
            | Program.Exec n :: rest ->
                exec active n;
                interp (live active) rest
            | Program.Halt :: _ -> List.iter (fun r -> halted.(r) <- true) active
            | Program.Repeat { count; body } :: rest ->
                let act = ref active in
                for _ = 1 to count do
                  act := live !act;
                  if !act <> [] then interp !act body
                done;
                interp (live active) rest
            | Program.While { condition; max_iterations; body } :: rest ->
                (* lock-step While: the body runs on every replica still
                   iterating; each replica then consults its own captured
                   scalar and leaves the loop independently *)
                let rec loop i act =
                  if act <> [] && not (max_iterations > 0 && i >= max_iterations)
                  then begin
                    interp act body;
                    let act' =
                      List.filter
                        (fun r -> (not halted.(r)) && eval_condition r (-1) condition)
                        act
                    in
                    loop (i + 1) act'
                  end
                in
                loop 0 (live active);
                interp (live active) rest
        in
        let ts_program = if Trace.enabled () then Trace.now () else 0 in
        (try interp (List.init krep Fun.id) c.Codegen.control with Halted -> ());
        if Trace.enabled () then
          Trace.span ~cat:"sequencer" ~name:"program" ~ts:ts_program
            ~dur:(Trace.now () - ts_program)
            ~args:
              [ ("replicas", Trace.Int krep);
                ("instructions", Trace.Int (Array.fold_left ( + ) 0 executed)) ]
            ();
        (match !exec_error with
        | Some e -> Error e
        | None ->
            Ok
              (Array.init krep (fun rep ->
                   {
                     stats =
                       {
                         instructions_executed = executed.(rep);
                         total_cycles = cycles.(rep);
                         total_flops = flops.(rep);
                         total_writes = writes.(rep);
                         events = List.rev !(events.(rep));
                       };
                     halted = halted.(rep);
                     last_values =
                       Hashtbl.fold
                         (fun fu v acc -> (fu, v) :: acc)
                         captured.(rep) []
                       |> List.sort compare;
                   })))
  end

(* --- explicit metric contexts ------------------------------------------- *)

let in_ctx metrics f =
  match metrics with None -> f () | Some m -> Metrics.with_ctx m f

let run node ?from_microcode ?record_trace ?engine ?plan_cache ?kernel_cache
    ?budget ?on_instruction ?metrics c =
  in_ctx metrics (fun () ->
      run node ?from_microcode ?record_trace ?engine ?plan_cache ?kernel_cache
        ?budget ?on_instruction c)

let run_batch nodes ?from_microcode ?record_trace ?domains ?plan_cache
    ?kernel_cache ?budget ?metrics c =
  in_ctx metrics (fun () ->
      run_batch nodes ?from_microcode ?record_trace ?domains ?plan_cache
        ?kernel_cache ?budget c)
