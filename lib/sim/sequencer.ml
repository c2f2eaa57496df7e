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

module Table = Kernel.Table

(* One instruction made ready to run, and a program made ready to run:
   defined beside the compile cache, which keeps prepared programs in its
   program table. *)
type instr = Kernel.instr = {
  sem : Semantic.t;
  capture_at : int array;
  kernel : Kernel.t option Atomic.t;
}

type prepared = Kernel.prepared = {
  table : instr Table.t;
  control : Program.control list;
  params : Params.t;
}

(* Each unit's dense global index into [at], in [sem.units] order: filled
   in place, with no intermediate list. *)
let rec fill_capture p at i = function
  | [] -> at
  | (u : Semantic.unit_program) :: rest ->
      at.(i) <- Resource.fu_global_index p u.Semantic.fu;
      fill_capture p at (i + 1) rest

(** Decode the program's instructions once (or take the retained
    semantics with [~from_microcode:false]); the first word that fails to
    decode is reported as [instruction N: ...]. *)
let prepare ?(from_microcode = true) (c : Codegen.compiled) : (prepared, string) result =
  let p = c.Codegen.layout.Fields.params in
  let instr (sem : Semantic.t) =
    let units = sem.Semantic.units in
    {
      sem;
      capture_at = fill_capture p (Array.make (List.length units) 0) 0 units;
      kernel = Atomic.make None;
    }
  in
  let rec load table = function
    | [] -> Ok { table; control = c.Codegen.control; params = p }
    | (i : Encode.instruction) :: rest -> (
        match Decode.decode c.Codegen.layout i.Encode.word with
        | Ok sem -> load (Table.add i.Encode.index (instr sem) table) rest
        | Error e -> Error (Printf.sprintf "instruction %d: %s" i.Encode.index e))
  in
  if from_microcode then load Table.empty c.Codegen.instructions
  else
    Ok
      {
        table =
          List.fold_left
            (fun table (sem : Semantic.t) -> Table.add sem.Semantic.index (instr sem) table)
            Table.empty c.Codegen.semantics;
        control = c.Codegen.control;
        params = p;
      }

(** Check, encode and decode a visual program: the one road from a
    builder's program to a prepared one.  A program the checker rejects
    is [Error] with its error summary. *)
let of_program kb program =
  match Codegen.compile kb program with
  | Error ds -> Error (Nsc_checker.Diagnostic.error_summary ds)
  | Ok compiled -> prepare compiled

(* Caller-owned run state: the dense capture arrays and the counters one
   execution accumulates, reset at its start.  See sequencer.mli. *)
type scratch = {
  captured : float array;
  seen : Bytes.t;
  mutable executed : int;
  mutable cycles : int;
  mutable flops : int;
  mutable writes : int;
  mutable events : Interrupt.event list;  (** newest first *)
  mutable n_events : int;
  mutable halted : bool;
  mutable error : string option;
}

let scratch (prog : prepared) =
  let n_fus = Params.n_functional_units prog.params in
  {
    captured = Array.make n_fus Float.nan;
    seen = Bytes.make n_fus '\000';
    executed = 0;
    cycles = 0;
    flops = 0;
    writes = 0;
    events = [];
    n_events = 0;
    halted = false;
    error = None;
  }

let captured s g ~default = if Bytes.get s.seen g <> '\000' then s.captured.(g) else default

let record s ev =
  if s.n_events < max_recorded_events then begin
    s.events <- ev :: s.events;
    s.n_events <- s.n_events + 1
  end

let rec record_all s = function
  | [] -> ()
  | ev :: rest ->
      record s ev;
      record_all s rest

(* The interpreter is a set of top-level functions over explicit
   arguments rather than closures over the run, so a warm [exec_into]
   allocates only what its dispatches do. *)

let dispatch node ~record_trace ~engine ~run ~on_instruction (prog : prepared) s n =
  match Table.find n prog.table with
  | exception Not_found ->
      if Option.is_none s.error then
        s.error <- Some (Printf.sprintf "control references missing pipeline %d" n);
      raise Halted
  | { sem; capture_at; _ } as instr ->
      let p = node.Node.params in
      (* instruction boundary: the budget check that makes every
         deadline fire deterministically between dispatches (a
         sweep boundary is an instruction boundary) *)
      let budget = match run with Some r -> r.Run.budget | None -> None in
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
        | `Kernel -> Engine.run_kernel node ~record_trace ?run (Kernel.of_instr p instr)
        | `Reference -> Engine.run_general node ~record_trace ?run sem
      in
      s.executed <- s.executed + 1;
      s.cycles <- s.cycles + r.Engine.cycles + p.reconfig_cycles;
      Budget.charge_opt budget (r.Engine.cycles + p.reconfig_cycles);
      s.flops <- s.flops + r.Engine.flops;
      s.writes <- s.writes + r.Engine.writes;
      record_all s r.Engine.events;
      let last = r.Engine.last in
      for i = 0 to Array.length capture_at - 1 do
        let g = capture_at.(i) in
        s.captured.(g) <- last.(i);
        Bytes.set s.seen g '\001'
      done;
      on_instruction sem r

let eval_condition (prog : prepared) s instruction (cond : Interrupt.condition) =
  let value =
    match Resource.fu_global_index prog.params cond.Interrupt.unit_watched with
    | g when Bytes.get s.seen g <> '\000' -> s.captured.(g)
    | _ | (exception Invalid_argument _) -> Float.nan
  in
  let holds =
    (not (Float.is_nan value))
    && Interrupt.relation_holds cond.Interrupt.relation value cond.Interrupt.threshold
  in
  record s (Interrupt.Condition_evaluated { instruction; condition = cond; value; holds });
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

let rec interp node ~record_trace ~engine ~run ~on_instruction prog s
    (cs : Program.control list) =
  match cs with
  | [] -> ()
  | Program.Exec n :: rest ->
      dispatch node ~record_trace ~engine ~run ~on_instruction prog s n;
      interp node ~record_trace ~engine ~run ~on_instruction prog s rest
  | Program.Halt :: _ ->
      s.halted <- true;
      raise Halted
  | Program.Repeat { count; body } :: rest ->
      for _ = 1 to count do
        interp node ~record_trace ~engine ~run ~on_instruction prog s body
      done;
      interp node ~record_trace ~engine ~run ~on_instruction prog s rest
  | Program.While { condition; max_iterations; body } :: rest ->
      (* run the body once, then continue while the condition holds *)
      loop node ~record_trace ~engine ~run ~on_instruction prog s condition
        max_iterations body 0;
      interp node ~record_trace ~engine ~run ~on_instruction prog s rest

and loop node ~record_trace ~engine ~run ~on_instruction prog s condition max_iterations
    body i =
  if max_iterations > 0 && i >= max_iterations then ()
  else begin
    interp node ~record_trace ~engine ~run ~on_instruction prog s body;
    if eval_condition prog s (-1) condition then
      loop node ~record_trace ~engine ~run ~on_instruction prog s condition max_iterations
        body (i + 1)
  end

(** Run a prepared program on [node] into [s].  [on_instruction] is
    invoked after each pipeline completes — the hook the visual debugger
    attaches to.

    Each [Exec] runs through the instruction's fused vector kernel, held
    by the instruction itself: compiled on its first
    dispatch, replayed by every later one — on this node, on other nodes
    and in later runs of the same prepared program.  [~engine:`Reference]
    runs every instruction on the general memoized evaluator instead —
    the oracle the kernel path is checked against, and bit-identical to
    it. *)
let exec_into (node : Node.t) ?(record_trace = false) ?(engine = `Kernel) ?run
    ?(on_instruction = fun (_ : Semantic.t) (_ : Engine.result) -> ())
    (prog : prepared) (s : scratch) : (unit, string) result =
  if Bytes.length s.seen <> Params.n_functional_units prog.params then
    invalid_arg "Sequencer.exec_into: a scratch sized for another machine";
  Bytes.fill s.seen 0 (Bytes.length s.seen) '\000';
  s.executed <- 0;
  s.cycles <- 0;
  s.flops <- 0;
  s.writes <- 0;
  s.events <- [];
  s.n_events <- 0;
  s.halted <- false;
  s.error <- None;
  let ts_program = if Metrics.tracing () then Metrics.now (Metrics.current ()) else 0 in
  (try interp node ~record_trace ~engine ~run ~on_instruction prog s prog.control
   with Halted -> ());
  if Metrics.tracing () then begin
    let m = Metrics.current () in
    Metrics.span m ~cat:"sequencer" ~name:"program" ~ts:ts_program
      ~dur:(Metrics.now m - ts_program)
      ~args:
        [ ("instructions", Metrics.Int s.executed);
          ("halted", Metrics.Str (string_of_bool s.halted)) ]
      ()
  end;
  match s.error with Some e -> Error e | None -> Ok ()

(** Run a prepared program on [node]: {!exec_into} a fresh scratch, read
    back as an outcome. *)
let exec (node : Node.t) ?record_trace ?engine ?run ?on_instruction (prog : prepared) :
    (outcome, string) result =
  let s = scratch prog in
  match exec_into node ?record_trace ?engine ?run ?on_instruction prog s with
  | Error e -> Error e
  | Ok () ->
      Ok
        {
          stats =
            {
              instructions_executed = s.executed;
              total_cycles = s.cycles;
              total_flops = s.flops;
              total_writes = s.writes;
              events = List.rev s.events;
            };
          halted = s.halted;
          last_values =
            (* global-index order is [compare] order on units *)
            (let acc = ref [] in
             for g = Bytes.length s.seen - 1 downto 0 do
               if Bytes.get s.seen g <> '\000' then
                 acc := (Resource.fu_of_global_index prog.params g, s.captured.(g)) :: !acc
             done;
             !acc);
        }

(* nscbench compatibility — delete when nscbench moves to Run.t: the
   only reader of the fault model's compat slot *)
let compat_run ?run ?kernel_cache () =
  match (run, kernel_cache) with
  | None, Some _ ->
      Some (Run.make ?cache:kernel_cache ?fault:(Nsc_fault.Fault.compat_model ()) ())
  | _ -> run

(** Execute a compiled program: {!prepare} it, then {!exec} it. *)
let run node ?from_microcode ?record_trace ?engine ?run ?plan_cache:_ ?kernel_cache
    ?on_instruction c =
  let run = compat_run ?run ?kernel_cache () in
  Result.bind (prepare ?from_microcode c) (fun prog ->
      exec node ?record_trace ?engine ?run ?on_instruction prog)
