(** The checker: knowledge-base-driven validation of visual programs.

    "The graphical editor calls on the checker at appropriate points during
    interaction with the user to validate the information being input ...
    The checker is invoked again at [code-generation time] to perform a
    thorough check of global constraints."

    Two levels are therefore provided: [`Interactive] accepts incomplete
    diagrams (unwired pads are advisory) and is cheap enough to run on every
    editing action; [`Complete] additionally requires every consumed operand
    to be bound, runs the timing analysis, and enforces global rules.  The
    checker also powers the editor's menus, enumerating only the legal
    choices for any pad (see {!legal_sources}). *)

open Nsc_arch
open Nsc_diagram

type level = [ `Interactive | `Complete ]

let loc ?pipeline ?icon ?connection ?unit_ () =
  { Diagnostic.pipeline; icon; connection; unit_ }

(* Icon carrying a given ALS in the diagram, for error locations. *)
let icon_of_als (pl : Pipeline.t) als =
  List.find_opt
    (fun (i : Icon.t) ->
      match i.Icon.kind with
      | Icon.Als_icon { als = a; _ } -> a = als
      | Icon.Memory_icon _ | Icon.Cache_icon _ | Icon.Shift_delay_icon _ -> false)
    pl.Pipeline.icons
  |> Option.map (fun (i : Icon.t) -> i.Icon.id)

let unit_loc pl ?connection (fu : Resource.fu_id) =
  loc ~pipeline:pl.Pipeline.index ?icon:(icon_of_als pl fu.Resource.als) ?connection
    ~unit_:fu ()

(* Build the switch routing table from semantic routes, collecting
   conflicts. *)
let build_switch_table (kb : Knowledge.t) (pl : Pipeline.t) (sem : Semantic.t) :
    Switch.t * Diagnostic.t list =
  List.fold_left
    (fun (table, ds) (r : Switch.route) ->
      match Switch.add table r with
      | Ok table -> (table, ds)
      | Error e ->
          ( table,
            Diagnostic.error
              ~location:(loc ~pipeline:pl.Pipeline.index ())
              Diagnostic.Switch_conflict "%s" (Switch.error_to_string e)
            :: ds ))
    (Switch.empty (Knowledge.params kb), [])
    sem.Semantic.routes

(* Memory-plane and cache stream pressure: a second plane writer is refused
   outright (the paper's worked example of error prevention); exhausting a
   channel's DMA engines is unprogrammable; more concurrent read streams
   than the plane's port bandwidth is legal but stalls every element.  The
   channel is named only in a finding, so a clean channel formats nothing. *)
let check_plane_pressure (kb : Knowledge.t) (pl : Pipeline.t) (sem : Semantic.t) :
    Diagnostic.t list =
  let p = Knowledge.params kb in
  let location = loc ~pipeline:pl.Pipeline.index () in
  let channel_checks channel ~slots ~read_ports ~write_ports =
    let streams = Semantic.streams_on sem channel in
    let reads, writes =
      List.partition
        (fun (s : Semantic.stream) ->
          Dma.equal_direction s.Semantic.transfer.Dma.direction Dma.Read)
        streams
    in
    let ds = [] in
    let ds =
      if List.length writes > write_ports then
        Diagnostic.error ~location Diagnostic.Plane_write_exclusive
          "%s is written by %d streams but sustains %d write stream%s; route the \
           second result elsewhere"
          (Dma.channel_to_string channel) (List.length writes) write_ports
          (if write_ports = 1 then "" else "s")
        :: ds
      else ds
    in
    let ds =
      if List.length streams > slots then
        Diagnostic.error ~location Diagnostic.Dma_range
          "%s carries %d streams but has only %d DMA engines"
          (Dma.channel_to_string channel) (List.length streams) slots
        :: ds
      else ds
    in
    if List.length reads > read_ports then
      Diagnostic.warning ~location Diagnostic.Plane_read_contention
        "%s feeds %d streams through %d read port%s; the pipeline will stall on every \
         element"
        (Dma.channel_to_string channel) (List.length reads) read_ports
        (if read_ports = 1 then "" else "s")
      :: ds
    else ds
  in
  List.concat_map
    (fun plane ->
      channel_checks (Dma.Plane plane) ~slots:p.plane_dma_slots
        ~read_ports:p.plane_read_ports ~write_ports:p.plane_write_ports)
    (List.init p.n_memory_planes (fun i -> i))
  @ List.concat_map
      (fun cache ->
        channel_checks (Dma.Cache_chan cache) ~slots:p.cache_dma_slots ~read_ports:1
          ~write_ports:1)
      (List.init p.n_caches (fun i -> i))

(* A channel both read and written within one instruction is pumped by its
   DMA engine in both directions concurrently: overlapping regions race
   (the reason a Jacobi sweep writes its update to a second plane), and
   even disjoint regions deserve a note. *)
let check_plane_hazard (pl : Pipeline.t) (sem : Semantic.t) : Diagnostic.t list =
  let vlen = sem.Semantic.vector_length in
  let extent (t : Dma.transfer) =
    let count = if t.Dma.count = 0 then vlen else t.Dma.count in
    let plane = match t.Dma.channel with Dma.Plane p -> p | Dma.Cache_chan c -> c in
    Memory.strided_extent ~plane ~base:t.Dma.base ~stride:t.Dma.stride ~count
  in
  let reads, writes =
    List.partition
      (fun (s : Semantic.stream) ->
        Dma.equal_direction s.Semantic.transfer.Dma.direction Dma.Read)
      sem.Semantic.streams
  in
  List.concat_map
    (fun (w : Semantic.stream) ->
      List.filter_map
        (fun (r : Semantic.stream) ->
          let wt = w.Semantic.transfer and rt = r.Semantic.transfer in
          if not (Dma.equal_channel wt.Dma.channel rt.Dma.channel) then None
          else begin
            let name = Dma.channel_to_string wt.Dma.channel in
            let location = loc ~pipeline:pl.Pipeline.index () in
            if Memory.extents_overlap (extent wt) (extent rt) then
              Some
                (Diagnostic.error ~location Diagnostic.Plane_hazard
                   "%s is read and written over overlapping regions in one instruction; \
                    the concurrent DMA streams race — write the result to a different \
                    region or plane"
                   name)
            else
              Some
                (Diagnostic.warning ~location Diagnostic.Plane_hazard
                   "%s is both read and written in one instruction (disjoint regions); \
                    its DMA engine serves two streams"
                   name)
          end)
        reads)
    writes

(* Capability asymmetries: integer ops only on double-box units, min/max
   only on units with that circuitry. *)
let check_capabilities (kb : Knowledge.t) (pl : Pipeline.t) (sem : Semantic.t) :
    Diagnostic.t list =
  let p = Knowledge.params kb in
  List.filter_map
    (fun (u : Semantic.unit_program) ->
      let cap = Opcode.required_capability u.Semantic.op in
      if Resource.fu_has_capability p u.Semantic.fu cap then None
      else
        Some
          (Diagnostic.error
             ~location:(unit_loc pl u.Semantic.fu)
             Diagnostic.Capability "unit %s lacks the %s circuitry required by '%s'"
             (Resource.fu_to_string u.Semantic.fu)
             (Capability.to_string cap)
             (Opcode.mnemonic u.Semantic.op)))
    sem.Semantic.units

(* Operand-binding consistency per engaged unit. *)
let check_bindings (kb : Knowledge.t) (level : level) (pl : Pipeline.t)
    (sem : Semantic.t) : Diagnostic.t list =
  let p = Knowledge.params kb in
  let ds = ref [] in
  let push d = ds := d :: !ds in
  let routes_into fu port =
    List.filter
      (fun (r : Switch.route) ->
        Resource.equal_sink r.Switch.snk (Resource.Snk_fu (fu, port)))
      sem.Semantic.routes
  in
  List.iter
    (fun (u : Semantic.unit_program) ->
      let fu = u.Semantic.fu in
      let size = Resource.als_size p fu.Resource.als in
      let bypass =
        Option.value ~default:Als.No_bypass
          (List.assoc_opt fu.Resource.als sem.Semantic.bypasses)
      in
      let consumed =
        match Opcode.arity u.Semantic.op with
        | 1 -> [ (Resource.A, u.Semantic.a) ]
        | _ -> [ (Resource.A, u.Semantic.a); (Resource.B, u.Semantic.b) ]
      in
      List.iter
        (fun ((port : Resource.port), binding) ->
          let wires = routes_into fu port in
          let portname = Resource.port_to_string port in
          (match binding with
          | Fu_config.From_switch ->
              if not (Als.port_is_external ~size bypass ~slot:fu.Resource.slot ~port)
              then
                push
                  (Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Binding
                     "port %s of %s is fed by the internal chain and cannot take switch \
                      data"
                     portname (Resource.fu_to_string fu))
              else if wires = [] then
                (match level with
                | `Complete ->
                    push
                      (Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Binding
                         "port %s of %s expects switch data but no wire reaches it"
                         portname (Resource.fu_to_string fu))
                | `Interactive ->
                    push
                      (Diagnostic.info ~location:(unit_loc pl fu) Diagnostic.Binding
                         "port %s of %s is not yet wired" portname
                         (Resource.fu_to_string fu)))
          | Fu_config.From_chain -> (
              match Als.chain_predecessor ~size bypass ~slot:fu.Resource.slot with
              | None ->
                  push
                    (Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Binding
                       "port %s of %s is bound to the chain but the unit has no \
                        predecessor in its ALS"
                       portname (Resource.fu_to_string fu))
              | Some pred_slot ->
                  let pred = { Resource.als = fu.Resource.als; slot = pred_slot } in
                  if Semantic.unit_for sem pred = None && level = `Complete then
                    push
                      (Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Binding
                         "port %s of %s chains from %s, which is not programmed"
                         portname (Resource.fu_to_string fu) (Resource.fu_to_string pred)))
          | Fu_config.From_feedback n ->
              if n < 1 then
                push
                  (Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Binding
                     "feedback depth on port %s of %s must be at least 1" portname
                     (Resource.fu_to_string fu))
              else if n > p.rf_max_delay then
                push
                  (Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Register_file
                     "feedback depth %d on %s exceeds the register file's maximum queue \
                      of %d"
                     n (Resource.fu_to_string fu) p.rf_max_delay)
          | Fu_config.From_constant _ -> ()
          | Fu_config.Unbound -> (
              match level with
              | `Complete ->
                  push
                    (Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Binding
                       "operand %s of %s ('%s') is unbound" portname
                       (Resource.fu_to_string fu)
                       (Opcode.mnemonic u.Semantic.op))
              | `Interactive ->
                  push
                    (Diagnostic.info ~location:(unit_loc pl fu) Diagnostic.Binding
                       "operand %s of %s is not yet specified" portname
                       (Resource.fu_to_string fu))));
          (* a wire into a port that is not switch-bound contradicts the
             configuration *)
          match binding with
          | Fu_config.From_switch -> ()
          | _ when wires <> [] ->
              push
                (Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Binding
                   "a wire drives port %s of %s, but the port is bound to '%s'" portname
                   (Resource.fu_to_string fu)
                   (Fu_config.binding_to_string binding))
          | _ -> ())
        consumed;
      (* register-file capacity *)
      let usage =
        Fu_config.register_file_usage
          {
            Fu_config.op = Some u.Semantic.op;
            a = u.Semantic.a;
            b = u.Semantic.b;
            delay_a = u.Semantic.delay_a;
            delay_b = u.Semantic.delay_b;
          }
      in
      List.iter
        (fun m ->
          push
            (Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Register_file "%s: %s"
               (Resource.fu_to_string fu) m))
        (Register_file.validate p usage))
    sem.Semantic.units;
  (* wires into ports of unengaged units *)
  List.iter
    (fun (r : Switch.route) ->
      match r.Switch.snk with
      | Resource.Snk_fu (fu, port) when Semantic.unit_for sem fu = None ->
          push
            (Diagnostic.warning ~location:(unit_loc pl fu) Diagnostic.Unused
               "a wire drives port %s of %s, but the unit is not programmed"
               (Resource.port_to_string port)
               (Resource.fu_to_string fu))
      | _ -> ())
    sem.Semantic.routes;
  (* wires out of unengaged units *)
  if level = `Complete then
    List.iter
      (fun (r : Switch.route) ->
        match r.Switch.src with
        | Resource.Src_fu fu when Semantic.unit_for sem fu = None ->
            push
              (Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Binding
                 "a wire taps the output of %s, but the unit is not programmed"
                 (Resource.fu_to_string fu))
        | _ -> ())
      sem.Semantic.routes;
  List.rev !ds

(* Shift/delay legality: a unit with a forward shift reads ahead in its
   input stream, which only a DMA stream (a pure function of the element
   index) can supply — a functional unit's future output does not exist
   yet.  An engaged unit with no input is also flagged. *)
let check_shift_delay (pl : Pipeline.t) (sem : Semantic.t) : Diagnostic.t list =
  List.concat_map
    (fun (s : Semantic.sd_program) ->
      let sd = s.Semantic.sd in
      let input = Semantic.source_feeding sem (Resource.Snk_shift_delay sd) in
      let location = loc ~pipeline:pl.Pipeline.index () in
      let no_input =
        match input with
        | None ->
            [
              Diagnostic.warning ~location Diagnostic.Unused
                "shift/delay unit %d is engaged but nothing feeds it" sd;
            ]
        | Some _ -> []
      in
      let forward =
        match (s.Semantic.mode, input) with
        | Shift_delay.Shift o, Some (Resource.Src_fu fu) when o > 0 ->
            [
              Diagnostic.error ~location Diagnostic.Binding
                "shift/delay unit %d shifts forward by %d but is fed by unit %s; a \
                 forward shift needs a memory or cache stream (the future of a \
                 computed stream does not exist)"
                sd o (Resource.fu_to_string fu);
            ]
        | _ -> []
      in
      no_input @ forward)
    sem.Semantic.sds

(* DMA stream validation: ranges and stream-length agreement. *)
let check_streams (kb : Knowledge.t) (pl : Pipeline.t) (sem : Semantic.t) :
    Diagnostic.t list =
  let p = Knowledge.params kb in
  let vlen = sem.Semantic.vector_length in
  List.concat_map
    (fun (s : Semantic.stream) ->
      let t = s.Semantic.transfer in
      let range_problems =
        List.map
          (fun m ->
            Diagnostic.error
              ~location:(loc ~pipeline:pl.Pipeline.index ())
              Diagnostic.Dma_range "%s" m)
          (Dma.validate p t ~vector_length:vlen)
      in
      let length_problems =
        if t.Dma.count <> 0 && t.Dma.count <> vlen then
          [
            Diagnostic.error
              ~location:(loc ~pipeline:pl.Pipeline.index ())
              Diagnostic.Stream_length
              "transfer on %s carries %d elements but the instruction's vector length \
               is %d"
              (Dma.channel_to_string t.Dma.channel)
              t.Dma.count vlen;
          ]
        else []
      in
      range_problems @ length_problems)
    sem.Semantic.streams

(* Units whose results go nowhere. *)
let check_unused (kb : Knowledge.t) (pl : Pipeline.t) (sem : Semantic.t) :
    Diagnostic.t list =
  let p = Knowledge.params kb in
  let consumed_somewhere (fu : Resource.fu_id) =
    (* routed through the switch? *)
    List.exists
      (fun (r : Switch.route) ->
        match r.Switch.src with
        | Resource.Src_fu f -> Resource.equal_fu_id f fu
        | _ -> false)
      sem.Semantic.routes
    (* consumed over the chain by the next engaged unit? *)
    || List.exists
         (fun (u : Semantic.unit_program) ->
           let g = u.Semantic.fu in
           g.Resource.als = fu.Resource.als
           &&
           let size = Resource.als_size p g.Resource.als in
           let bypass =
             Option.value ~default:Als.No_bypass
               (List.assoc_opt g.Resource.als sem.Semantic.bypasses)
           in
           (match Als.chain_predecessor ~size bypass ~slot:g.Resource.slot with
           | Some pred -> pred = fu.Resource.slot
           | None -> false)
           && Fu_config.equal_input_binding u.Semantic.a Fu_config.From_chain)
         sem.Semantic.units
  in
  let feeds_itself (u : Semantic.unit_program) =
    match (u.Semantic.a, u.Semantic.b) with
    | Fu_config.From_feedback _, _ | _, Fu_config.From_feedback _ -> true
    | _ -> false
  in
  List.filter_map
    (fun (u : Semantic.unit_program) ->
      if consumed_somewhere u.Semantic.fu || feeds_itself u then None
      else
        Some
          (Diagnostic.warning
             ~location:(unit_loc pl u.Semantic.fu)
             Diagnostic.Unused "the result of %s ('%s') is never consumed"
             (Resource.fu_to_string u.Semantic.fu)
             (Opcode.mnemonic u.Semantic.op)))
    sem.Semantic.units

(* Timing: combinational cycles and stream misalignment. *)
let check_timing (kb : Knowledge.t) (pl : Pipeline.t) (sem : Semantic.t) :
    Diagnostic.t list =
  let p = Knowledge.params kb in
  let analysis = Timing.analyse p sem in
  let cycle_ds =
    List.map
      (fun fu ->
        Diagnostic.error ~location:(unit_loc pl fu) Diagnostic.Switch_cycle
          "unit %s lies on a combinational loop through the switch; feedback must pass \
           through a register-file queue"
          (Resource.fu_to_string fu))
      analysis.Timing.cyclic
  in
  let misalign_ds =
    List.filter_map
      (fun (u : Timing.unit_timing) ->
        match u.Timing.misaligned with
        | None -> None
        | Some d ->
            let early_port, depth =
              if d > 0 then (Resource.B, d) else (Resource.A, -d)
            in
            Some
              (Diagnostic.error ~location:(unit_loc pl u.Timing.fu) Diagnostic.Timing
                 "operands of %s arrive %d cycle%s apart; route the %s operand through \
                  a register-file queue of depth %d"
                 (Resource.fu_to_string u.Timing.fu)
                 (abs d)
                 (if abs d = 1 then "" else "s")
                 (Resource.port_to_string early_port)
                 depth))
      analysis.Timing.units
  in
  cycle_ds @ misalign_ds

(** Check one pipeline diagram.  [lookup] resolves declared variable names
    (pass {!Nsc_diagram.Program.variable_base} of the enclosing program). *)
let check_pipeline (kb : Knowledge.t) ?(lookup = fun _ -> None) ~(level : level)
    (pl : Pipeline.t) : Diagnostic.t list =
  let p = Knowledge.params kb in
  let structural =
    List.map
      (fun (pr : Validate.problem) ->
        Diagnostic.error
          ~location:(loc ~pipeline:pl.Pipeline.index ())
          Diagnostic.Structural "%s: %s" pr.Validate.where pr.Validate.message)
      (Validate.pipeline p pl)
  in
  if structural <> [] then structural
  else begin
    let sem, issues = Semantic.of_pipeline p ~lookup pl in
    let unresolved =
      List.map
        (fun (i : Semantic.issue) ->
          Diagnostic.error
            ~location:
              (loc ~pipeline:pl.Pipeline.index ?connection:i.Semantic.connection ())
            Diagnostic.Unresolved "%s" i.Semantic.message)
        issues
    in
    let _table, conflicts = build_switch_table kb pl sem in
    let ds =
      unresolved @ conflicts
      @ check_plane_pressure kb pl sem
      @ check_plane_hazard pl sem
      @ check_capabilities kb pl sem
      @ check_bindings kb level pl sem
      @ check_shift_delay pl sem
      @ check_streams kb pl sem
      @ check_unused kb pl sem
    in
    let ds = if level = `Complete then ds @ check_timing kb pl sem else ds in
    Diagnostic.sort ds
  end

(* Control-flow checks that need the whole program. *)
let check_control (kb : Knowledge.t) (prog : Program.t) : Diagnostic.t list =
  let p = Knowledge.params kb in
  let engaged_in_pipeline n fu =
    match Program.find_pipeline prog n with
    | None -> false
    | Some pl ->
        let sem, _ = Semantic.of_pipeline p pl in
        Semantic.unit_for sem fu <> None
  in
  let rec body_pipelines acc = function
    | [] -> acc
    | Program.Exec n :: rest -> body_pipelines (n :: acc) rest
    | Program.Repeat { body; _ } :: rest | Program.While { body; _ } :: rest ->
        body_pipelines (body_pipelines acc body) rest
    | Program.Halt :: rest -> body_pipelines acc rest
  in
  let rec walk = function
    | [] -> []
    | Program.While { condition; body; max_iterations } :: rest ->
        let fu = condition.Interrupt.unit_watched in
        let ns = body_pipelines [] body in
        let here =
          if not (List.exists (fun n -> engaged_in_pipeline n fu) ns) then
            [
              Diagnostic.error Diagnostic.Control
                "while-condition watches %s, but no pipeline in the loop body programs \
                 that unit, so the captured scalar would never change"
                (Resource.fu_to_string fu);
            ]
          else []
        in
        let bound =
          if max_iterations = 0 then
            [
              Diagnostic.warning Diagnostic.Control
                "while-loop on %s has no iteration bound; a non-converging computation \
                 would never halt"
                (Resource.fu_to_string fu);
            ]
          else []
        in
        here @ bound @ walk body @ walk rest
    | Program.Repeat { body; _ } :: rest -> walk body @ walk rest
    | (Program.Exec _ | Program.Halt) :: rest -> walk rest
  in
  walk (Program.effective_control prog)

(* Transfers anchored to a declared variable must stay inside it. *)
let check_variable_bounds (kb : Knowledge.t) (prog : Program.t) : Diagnostic.t list =
  ignore kb;
  List.concat_map
    (fun (pl : Pipeline.t) ->
      List.concat_map
        (fun (c : Connection.t) ->
          match c.Connection.spec with
          | Some ({ Dma_spec.variable = Some name; _ } as spec) -> (
              match Program.lookup_variable prog name with
              | None -> [] (* already an Unresolved error from projection *)
              | Some d ->
                  let count =
                    if spec.Dma_spec.count = 0 then pl.Pipeline.vector_length
                    else spec.Dma_spec.count
                  in
                  let first = spec.Dma_spec.offset in
                  let last = first + (spec.Dma_spec.stride * (count - 1)) in
                  if count > 0 && (min first last < 0 || max first last >= d.Program.length)
                  then
                    [
                      Diagnostic.error
                        ~location:
                          (loc ~pipeline:pl.Pipeline.index
                             ~connection:c.Connection.id ())
                        Diagnostic.Dma_range
                        "transfer touches elements %d..%d of variable '%s', which holds \
                         %d elements"
                        (min first last) (max first last) name d.Program.length;
                    ]
                  else [])
          | Some _ | None -> [])
        pl.Pipeline.connections)
    prog.Program.pipelines

(** Check a whole program: the "thorough check of global constraints"
    performed before microcode generation. *)
let check_program (kb : Knowledge.t) (prog : Program.t) : Diagnostic.t list =
  let p = Knowledge.params kb in
  let structural =
    List.map
      (fun (pr : Validate.problem) ->
        Diagnostic.error Diagnostic.Structural "%s: %s" pr.Validate.where
          pr.Validate.message)
      (Validate.program p prog)
  in
  let lookup = Program.variable_base prog in
  let per_pipeline =
    List.concat_map
      (fun pl -> check_pipeline kb ~lookup ~level:`Complete pl)
      prog.Program.pipelines
  in
  Diagnostic.sort
    (structural @ per_pipeline @ check_control kb prog
    @ check_variable_bounds kb prog)

(** Sources the editor may legally offer for a consuming pad of [pl] —
    the contents of the popup menu of Figure 8.  Everything already ruled
    out by the routing table built so far is filtered away. *)
let legal_sources (kb : Knowledge.t) ?(lookup = fun _ -> None) (pl : Pipeline.t)
    (snk : Resource.sink) : Resource.source list =
  let p = Knowledge.params kb in
  let sem, _ = Semantic.of_pipeline p ~lookup pl in
  let table, _ = build_switch_table kb pl sem in
  Knowledge.legal_sources_for kb table snk

(** Memory planes the editor may offer as a destination: planes without a
    writer (the paper's example of error prevention). *)
let writable_planes (kb : Knowledge.t) ?(lookup = fun _ -> None) (pl : Pipeline.t) :
    Resource.plane_id list =
  let p = Knowledge.params kb in
  let sem, _ = Semantic.of_pipeline p ~lookup pl in
  let table, _ = build_switch_table kb pl sem in
  Knowledge.writable_planes kb table

(** Opcodes the popup menu of Figure 10 offers for a unit. *)
let legal_opcodes (kb : Knowledge.t) (fu : Resource.fu_id) : Opcode.t list =
  Knowledge.legal_opcodes kb fu
