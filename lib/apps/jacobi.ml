(** The paper's programming example as an NSC visual program: the point
    Jacobi update for the 3-D Poisson equation with a residual convergence
    check (Equation 1, Figures 2 and 11).

    The program has three instructions:

    + {b setup} — g = h²·f, run once;
    + {b sweep} — unew = mask · (Σ neighbours − g)/6 over the whole grid,
      with the running maximum of |unew − u| accumulated through a
      register-file feedback loop on a min/max unit (the residual check);
    + {b refresh} — copy unew back over the planes holding u.

    Copies of u are spread over several memory planes so each plane serves
    at most two stencil streams — the paper's "maintain multiple copies of
    arrays" answer to the planar memory organisation; the refresh
    instruction is its "relocate them between phases".  A [`Packed] layout
    places more streams per plane to expose the contention cost, and a
    [`Ping_pong] strategy trades the refresh instruction for a second,
    mirrored sweep. *)

open Nsc_arch
open Nsc_diagram
open Nsc_checker

(** Where the fields live.  [u_planes] maps each stencil-stream group to
    the plane (and variable) serving it. *)
type layout = {
  sx : int;      (** plane serving the u[i±1] streams *)
  sy : int;      (** plane serving the u[j±1] streams *)
  sz : int;      (** plane serving the u[k±1] streams *)
  center : int;  (** plane serving the centred u stream (residual) *)
  g : int;       (** h²·f *)
  mask : int;
  unew : int;
  f : int;
}

let distributed = { sx = 0; sy = 1; sz = 2; center = 6; g = 3; mask = 5; unew = 4; f = 7 }

(** Two planes hold u: exposes read-port contention (4 and 3 streams on a
    dual-ported plane). *)
let packed = { sx = 0; sy = 0; sz = 1; center = 1; g = 3; mask = 5; unew = 4; f = 7 }

(** Planes holding copies of u under a layout, without duplicates. *)
let u_planes l = List.sort_uniq compare [ l.sx; l.sy; l.sz; l.center ]

let u_var plane = Printf.sprintf "u%d" plane

type build = {
  program : Program.t;
  residual_unit : Resource.fu_id;  (** the max unit the while-loop watches *)
  layout : layout;
}

let fail_on_error = Builder.fail_on_error
let mem_to_pad = Builder.mem_to_pad
let pad_to_mem = Builder.pad_to_mem
let als_of_icon = Builder.als_of_icon

(* The sweep pipeline shared by both strategies: reads u copies from
   [src_l] planes, writes the update to [dst] (var [dst_var], one or more
   planes), accumulates the max change.  Returns the residual unit. *)
let build_sweep (p : Params.t) (grid : Grid.t) (l : layout) ~index ~label
    ~(dsts : (int * string) list) : Pipeline.t * Resource.fu_id =
  let off1, offy, offz = Grid.offsets grid in
  let pad = Grid.pad grid in
  let pl = Pipeline.empty ~label index in
  let pl = Pipeline.with_vector_length pl (Grid.points grid) in
  let t0, pl = fail_on_error (Pipeline.place_als p pl ~kind:Als.Triplet ~pos:(Geometry.point 16 2) ()) in
  let t1, pl = fail_on_error (Pipeline.place_als p pl ~kind:Als.Triplet ~pos:(Geometry.point 34 2) ()) in
  let d0, pl = fail_on_error (Pipeline.place_als p pl ~kind:Als.Doublet ~pos:(Geometry.point 52 2) ()) in
  let t2, pl = fail_on_error (Pipeline.place_als p pl ~kind:Als.Triplet ~pos:(Geometry.point 52 14) ()) in
  (* neighbour sums: t0 then t1 chain *)
  let pl = mem_to_pad pl ~plane:l.sx ~var:(u_var l.sx) ~offset:(pad - off1) ~icon:t0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let pl = mem_to_pad pl ~plane:l.sx ~var:(u_var l.sx) ~offset:(pad + off1) ~icon:t0 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = mem_to_pad pl ~plane:l.sy ~var:(u_var l.sy) ~offset:(pad - offy) ~icon:t0 ~pad:(Icon.In_pad (1, Resource.B)) () in
  let pl = mem_to_pad pl ~plane:l.sy ~var:(u_var l.sy) ~offset:(pad + offy) ~icon:t0 ~pad:(Icon.In_pad (2, Resource.B)) () in
  let pl = Pipeline.set_config pl ~id:t0 ~slot:0 (Fu_config.make ~a:Fu_config.From_switch ~b:Fu_config.From_switch Opcode.Fadd) in
  let pl = Pipeline.set_config pl ~id:t0 ~slot:1 (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fadd) in
  let pl = Pipeline.set_config pl ~id:t0 ~slot:2 (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fadd) in
  let pl =
    let _, pl =
      Pipeline.add_connection pl
        ~src:(Connection.Pad { icon = t0; pad = Icon.Out_pad 2 })
        ~dst:(Connection.Pad { icon = t1; pad = Icon.In_pad (0, Resource.A) })
        ()
    in
    pl
  in
  let pl = mem_to_pad pl ~plane:l.sz ~var:(u_var l.sz) ~offset:(pad - offz) ~icon:t1 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = mem_to_pad pl ~plane:l.sz ~var:(u_var l.sz) ~offset:(pad + offz) ~icon:t1 ~pad:(Icon.In_pad (1, Resource.B)) () in
  let pl = mem_to_pad pl ~plane:l.g ~var:"g" ~offset:pad ~icon:t1 ~pad:(Icon.In_pad (2, Resource.B)) () in
  let pl = Pipeline.set_config pl ~id:t1 ~slot:0 (Fu_config.make ~a:Fu_config.From_switch ~b:Fu_config.From_switch Opcode.Fadd) in
  let pl = Pipeline.set_config pl ~id:t1 ~slot:1 (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fadd) in
  let pl = Pipeline.set_config pl ~id:t1 ~slot:2 (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fsub) in
  (* scale by 1/6 and mask *)
  let pl =
    let _, pl =
      Pipeline.add_connection pl
        ~src:(Connection.Pad { icon = t1; pad = Icon.Out_pad 2 })
        ~dst:(Connection.Pad { icon = d0; pad = Icon.In_pad (0, Resource.A) })
        ()
    in
    pl
  in
  let pl = mem_to_pad pl ~plane:l.mask ~var:"mask" ~offset:pad ~icon:d0 ~pad:(Icon.In_pad (1, Resource.B)) () in
  let pl = Pipeline.set_config pl ~id:d0 ~slot:0 (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant (1.0 /. 6.0)) Opcode.Fmul) in
  let pl = Pipeline.set_config pl ~id:d0 ~slot:1 (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fmul) in
  (* write the update; a pass singlet extends the fanout when the update
     must reach several destination planes *)
  let pl =
    match dsts with
    | [ (plane, var) ] -> pad_to_mem pl ~icon:d0 ~pad:(Icon.Out_pad 1) ~plane ~var ~offset:pad ()
    | dsts ->
        let s0, pl =
          fail_on_error
            (Pipeline.place_als p pl ~kind:Als.Singlet ~pos:(Geometry.point 70 2) ())
        in
        let pl =
          let _, pl =
            Pipeline.add_connection pl
              ~src:(Connection.Pad { icon = d0; pad = Icon.Out_pad 1 })
              ~dst:(Connection.Pad { icon = s0; pad = Icon.In_pad (0, Resource.A) })
              ()
          in
          pl
        in
        let pl = Pipeline.set_config pl ~id:s0 ~slot:0 (Fu_config.make ~a:Fu_config.From_switch Opcode.Pass) in
        List.fold_left
          (fun pl (plane, var) ->
            pad_to_mem pl ~icon:s0 ~pad:(Icon.Out_pad 0) ~plane ~var ~offset:pad ())
          pl dsts
  in
  (* residual: max of mask·|unew − u| through a feedback loop.  Masking
     keeps frozen points (boundaries, and halo layers in a multi-node
     slab) out of the convergence measure. *)
  let pl =
    let _, pl =
      Pipeline.add_connection pl
        ~src:(Connection.Pad { icon = d0; pad = Icon.Out_pad 1 })
        ~dst:(Connection.Pad { icon = t2; pad = Icon.In_pad (0, Resource.A) })
        ()
    in
    pl
  in
  let pl = mem_to_pad pl ~plane:l.center ~var:(u_var l.center) ~offset:pad ~icon:t2 ~pad:(Icon.In_pad (0, Resource.B)) () in
  let pl = mem_to_pad pl ~plane:l.mask ~var:"mask" ~offset:pad ~icon:t2 ~pad:(Icon.In_pad (2, Resource.B)) () in
  let pl = Pipeline.set_config pl ~id:t2 ~slot:0 (Fu_config.make ~a:Fu_config.From_switch ~b:Fu_config.From_switch Opcode.Fsub) in
  let pl = Pipeline.set_config pl ~id:t2 ~slot:1 (Fu_config.make ~a:Fu_config.From_chain Opcode.Fabs) in
  let pl = Pipeline.set_config pl ~id:t2 ~slot:2 (Fu_config.make ~a:Fu_config.From_chain ~b:Fu_config.From_switch Opcode.Fmul) in
  let d1, pl =
    fail_on_error (Pipeline.place_als p pl ~kind:Als.Doublet ~bypass:Als.Keep_tail ~pos:(Geometry.point 70 14) ())
  in
  let pl =
    let _, pl =
      Pipeline.add_connection pl
        ~src:(Connection.Pad { icon = t2; pad = Icon.Out_pad 2 })
        ~dst:(Connection.Pad { icon = d1; pad = Icon.In_pad (1, Resource.A) })
        ()
    in
    pl
  in
  let pl = Pipeline.set_config pl ~id:d1 ~slot:1 (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_feedback 1) Opcode.Max) in
  (pl, { Resource.als = als_of_icon pl d1; slot = 1 })

(* The one-shot setup instruction: g = h² · f over the padded field. *)
let build_setup (p : Params.t) (grid : Grid.t) (l : layout) ~index : Pipeline.t =
  let pl = Pipeline.empty ~label:"setup: g = h^2 * f" index in
  let pl = Pipeline.with_vector_length pl (Grid.padded_words grid) in
  let s0, pl =
    fail_on_error (Pipeline.place_als p pl ~kind:Als.Singlet ~pos:(Geometry.point 30 6) ())
  in
  let pl = mem_to_pad pl ~plane:l.f ~var:"f" ~offset:0 ~icon:s0 ~pad:(Icon.In_pad (0, Resource.A)) () in
  let h2 = grid.Grid.h *. grid.Grid.h in
  let pl =
    Pipeline.set_config pl ~id:s0 ~slot:0
      (Fu_config.make ~a:Fu_config.From_switch ~b:(Fu_config.From_constant h2) Opcode.Fmul)
  in
  pad_to_mem pl ~icon:s0 ~pad:(Icon.Out_pad 0) ~plane:l.g ~var:"g" ~offset:0 ()

(* The refresh instruction: copy unew over every plane holding u. *)
let build_refresh (p : Params.t) (grid : Grid.t) (l : layout) ~index : Pipeline.t =
  let pad = Grid.pad grid in
  let pl = Pipeline.empty ~label:"refresh u copies" index in
  let pl = Pipeline.with_vector_length pl (Grid.points grid) in
  List.fold_left
    (fun pl plane ->
      let s, pl =
        fail_on_error
          (Pipeline.place_als p pl ~kind:Als.Singlet
             ~pos:(Geometry.point (12 + (18 * (plane mod 4))) 6)
             ())
      in
      let pl = mem_to_pad pl ~plane:l.unew ~var:"unew" ~offset:pad ~icon:s ~pad:(Icon.In_pad (0, Resource.A)) () in
      let pl = Pipeline.set_config pl ~id:s ~slot:0 (Fu_config.make ~a:Fu_config.From_switch Opcode.Pass) in
      pad_to_mem pl ~icon:s ~pad:(Icon.Out_pad 0) ~plane ~var:(u_var plane) ~offset:pad ())
    pl (u_planes l)

(** Build the complete visual program.

    [`Refresh] (the default) is the three-instruction broadcast form;
    [`Ping_pong] mirrors the sweep between two sets of u copies (planes
    8-11 hold the mirror) and needs no refresh, at the cost of doubling the
    memory footprint and checking convergence every second sweep. *)
let build (kb : Knowledge.t) ?(layout = distributed) ?(strategy = `Refresh)
    (grid : Grid.t) ~tol ~max_iters : build =
  let p = Knowledge.params kb in
  let words = Grid.padded_words grid in
  let prog = Program.empty "jacobi3d" in
  let declare prog (name, plane) =
    match Program.declare prog { Program.name; plane; base = 0; length = words } with
    | Ok prog -> prog
    | Error e -> failwith e
  in
  let base_vars =
    List.map (fun plane -> (u_var plane, plane)) (u_planes layout)
    @ [ ("g", layout.g); ("mask", layout.mask); ("unew", layout.unew); ("f", layout.f) ]
  in
  match strategy with
  | `Refresh ->
      let prog = List.fold_left declare prog base_vars in
      let setup = build_setup p grid layout ~index:1 in
      let sweep, residual_unit =
        build_sweep p grid layout ~index:2 ~label:"jacobi sweep (eq. 1)"
          ~dsts:[ (layout.unew, "unew") ]
      in
      let refresh = build_refresh p grid layout ~index:3 in
      let prog = { prog with Program.pipelines = [ setup; sweep; refresh ] } in
      let prog =
        Program.set_control prog
          [
            Program.Exec 1;
            Program.While
              {
                condition =
                  { Interrupt.unit_watched = residual_unit; relation = Interrupt.Rgt; threshold = tol };
                max_iterations = max_iters;
                body = [ Program.Exec 2; Program.Exec 3 ];
              };
            Program.Halt;
          ]
      in
      let prog = Balance.balance_program kb prog in
      { program = prog; residual_unit; layout }
  | `Ping_pong ->
      (* mirror copies on planes 8..: same geometry as the primary set *)
      let mirror_of =
        let next = ref 8 in
        let tbl = Hashtbl.create 4 in
        List.iter
          (fun plane ->
            Hashtbl.replace tbl plane !next;
            incr next)
          (u_planes layout);
        fun plane -> Hashtbl.find tbl plane
      in
      let mirror =
        {
          layout with
          sx = mirror_of layout.sx;
          sy = mirror_of layout.sy;
          sz = mirror_of layout.sz;
          center = mirror_of layout.center;
        }
      in
      let mirror_vars = List.map (fun plane -> (u_var plane, plane)) (u_planes mirror) in
      let prog = List.fold_left declare prog (base_vars @ mirror_vars) in
      let setup = build_setup p grid layout ~index:1 in
      let dsts_b = List.map (fun plane -> (plane, u_var plane)) (u_planes mirror) in
      let dsts_a = List.map (fun plane -> (plane, u_var plane)) (u_planes layout) in
      let sweep_ab, _ =
        build_sweep p grid layout ~index:2 ~label:"jacobi sweep A->B" ~dsts:dsts_b
      in
      let sweep_ba, residual_unit =
        build_sweep p grid mirror ~index:3 ~label:"jacobi sweep B->A" ~dsts:dsts_a
      in
      let prog = { prog with Program.pipelines = [ setup; sweep_ab; sweep_ba ] } in
      let prog =
        Program.set_control prog
          [
            Program.Exec 1;
            Program.While
              {
                condition =
                  { Interrupt.unit_watched = residual_unit; relation = Interrupt.Rgt; threshold = tol };
                max_iterations = max_iters;
                body = [ Program.Exec 2; Program.Exec 3 ];
              };
            Program.Halt;
          ]
      in
      let prog = Balance.balance_program kb prog in
      { program = prog; residual_unit; layout }

(** Load a problem's fields into a node per the build's layout (u starts at
    zero everywhere, which the padded fields already are). *)
let load (node : Nsc_sim.Node.t) (b : build) (prob : Poisson.problem) =
  Nsc_sim.Node.load_array node ~plane:b.layout.f ~base:0 prob.Poisson.f;
  Nsc_sim.Node.load_array node ~plane:b.layout.mask ~base:0 prob.Poisson.mask

(** Read the computed solution back out of the node. *)
let solution (node : Nsc_sim.Node.t) (b : build) (grid : Grid.t) =
  Nsc_sim.Node.dump_array node ~plane:b.layout.unew ~base:0 ~len:(Grid.padded_words grid)

type outcome = {
  u : float array;             (** padded solution field *)
  sweeps : int;                (** Jacobi sweeps executed *)
  final_change : float;        (** last max |unew - u| captured *)
  stats : Nsc_sim.Sequencer.stats;
}

(** Compile and execute the Jacobi program for [prob] on a fresh node.
    [engine] selects the simulator path: the fused kernel by default, or
    [`Reference] for the general memoized evaluator (the oracle, a few
    hundred times slower; the two are bit-identical).  [run] carries the
    compile cache, fault model and budget (default: a fresh cache, clean,
    unsupervised).  [plan_cache] and [kernel_cache] are nscbench
    compatibility, passed on to {!Nsc_sim.Sequencer.run} — delete when
    nscbench moves to [Run.t]. *)
let solve (kb : Knowledge.t) ?layout ?strategy ?(engine = `Kernel) ?run ?plan_cache
    ?kernel_cache (prob : Poisson.problem) ~tol ~max_iters : (outcome, string) result =
  let b = build kb ?layout ?strategy prob.Poisson.grid ~tol ~max_iters in
  match Nsc_microcode.Codegen.compile kb b.program with
  | Error ds ->
      Error
        (String.concat "; " (List.map Diagnostic.to_string (Diagnostic.errors ds)))
  | Ok compiled -> (
      let node = Nsc_sim.Node.create (Knowledge.params kb) in
      load node b prob;
      match
        Nsc_sim.Sequencer.run node ~engine ?run ?plan_cache ?kernel_cache compiled
      with
      | Error e -> Error e
      | Ok outcome ->
          let stats = outcome.Nsc_sim.Sequencer.stats in
          let sweeps =
            (* instructions 2 and 3 alternate inside the loop after setup *)
            match Option.value ~default:`Refresh strategy with
            | `Refresh -> (stats.Nsc_sim.Sequencer.instructions_executed - 1) / 2
            | `Ping_pong -> stats.Nsc_sim.Sequencer.instructions_executed - 1
          in
          let final_change =
            List.assoc_opt b.residual_unit outcome.Nsc_sim.Sequencer.last_values
            |> Option.value ~default:Float.nan
          in
          (* the latest field: the refresh strategy leaves it in unew; the
             ping-pong strategy's final B->A sweep leaves it in the primary
             u copies *)
          let result_plane =
            match Option.value ~default:`Refresh strategy with
            | `Refresh -> b.layout.unew
            | `Ping_pong -> b.layout.center
          in
          Ok
            {
              u =
                Nsc_sim.Node.dump_array node ~plane:result_plane ~base:0
                  ~len:(Grid.padded_words prob.Poisson.grid);
              sweeps;
              final_change;
              stats;
            })

(* --- the fault-tolerant solver ------------------------------------------ *)

module Fault = Nsc_fault.Fault

type ft_outcome = {
  outcome : outcome;
  rollbacks : int;        (** checkpoint restores performed *)
  faults_detected : int;  (** parity errors and trapped exceptions seen *)
}

(** Checkpointed Jacobi solve (the [`Refresh] strategy): each sweep runs
    against a checkpoint of the node taken at the last good state, and a
    sweep whose scrub finds bad parity — or whose interrupt stream trapped
    an exception while the run carries a fault model — is rolled back and
    redone, up to [max_attempts] times, instead of iterating on poisoned
    data.  [run] carries the compile cache, the fault model and the
    budget (default: a fresh cache, clean, unsupervised).  With no faults
    firing this executes the exact instruction sequence of {!solve} (same
    plans, same residual series, same result); the checkpoint copies are
    host-side bookkeeping and cost no simulated cycles.

    Under the run's fault model the per-sweep memory-corruption draw
    fires here (the victim word lands in one of the sweep's input or
    output planes), and detections, rollbacks and recoveries are booked
    on that model's own ledger via {!Fault.outstanding} — so solves with
    their own models may run on several domains at once.  Corruption
    that a sweep overwrites with fresh data before the scrub is booked as
    recovered by the rewrite — a parity model detects on access, not on
    the flip itself. *)
let solve_ft (kb : Knowledge.t) ?layout ?(max_attempts = 8) ?run
    (prob : Poisson.problem) ~tol ~max_iters : (ft_outcome, string) result =
  let b = build kb ?layout ~strategy:`Refresh prob.Poisson.grid ~tol ~max_iters in
  match Nsc_microcode.Codegen.compile kb b.program with
  | Error ds ->
      Error
        (String.concat "; " (List.map Diagnostic.to_string (Diagnostic.errors ds)))
  | Ok compiled -> (
      let node = Nsc_sim.Node.create (Knowledge.params kb) in
      load node b prob;
      let run = match run with Some r -> r | None -> Nsc_sim.Run.make () in
      let fault = run.Nsc_sim.Run.fault in
      (* each phase is decoded once for the whole solve *)
      let prepare control =
        Nsc_sim.Sequencer.prepare { compiled with Nsc_microcode.Codegen.control }
      in
      let ( let* ) = Result.bind in
      let* c_setup = prepare [ Program.Exec 1; Program.Halt ] in
      let* c_sweep = prepare [ Program.Exec 2; Program.Exec 3; Program.Halt ] in
      (* accumulated run accounting across setup and every sweep attempt
         (redone sweeps included: the machine did that work) *)
      let instructions = ref 0 and cycles = ref 0 and flops = ref 0 in
      let writes = ref 0 and all_events = ref [] in
      let rollbacks = ref 0 and faults_detected = ref 0 in
      let sweeps = ref 0 in
      let accumulate (s : Nsc_sim.Sequencer.stats) =
        instructions := !instructions + s.Nsc_sim.Sequencer.instructions_executed;
        cycles := !cycles + s.Nsc_sim.Sequencer.total_cycles;
        flops := !flops + s.Nsc_sim.Sequencer.total_flops;
        writes := !writes + s.Nsc_sim.Sequencer.total_writes;
        all_events := List.rev_append s.Nsc_sim.Sequencer.events !all_events
      in
      (* one run, and so one budget token, across setup and every sweep:
         the budget accumulates charged cycles itself, so a cycle ceiling
         spans the whole solve *)
      let run_step c =
        match Nsc_sim.Sequencer.exec node ~engine:`Kernel ~run c with
        | Error e -> Error e
        | Ok o ->
            accumulate o.Nsc_sim.Sequencer.stats;
            Ok o
      in
      let inject_corruption () =
        match fault with
        | Some f when Fault.draw_mem_corrupt f ->
            let victims =
              List.sort_uniq compare (b.layout.g :: b.layout.unew :: u_planes b.layout)
            in
            let plane = List.nth victims (Fault.rand f (List.length victims)) in
            let addr = Fault.rand f (Grid.padded_words prob.Poisson.grid) in
            ignore (Memory.corrupt (Nsc_sim.Node.plane node plane) addr);
            Fault.note_mem_corrupt f 1
        | _ -> ()
      in
      (* one sweep, redone from the checkpoint until it runs clean *)
      let protected_sweep () =
        let ckpt = Nsc_sim.Checkpoint.capture node in
        let rec attempt a =
          inject_corruption ();
          match run_step c_sweep with
          | Error e -> Error e
          | Ok o ->
              let parity = List.length (Nsc_sim.Checkpoint.scrub node) in
              let traps =
                if fault <> None then
                  Interrupt.trapped_exceptions o.Nsc_sim.Sequencer.stats.Nsc_sim.Sequencer.events
                else 0
              in
              (* book this attempt's outstanding faults on the run's ledger *)
              let book note = Option.iter (fun f -> note f (Fault.outstanding f)) fault in
              if parity + traps = 0 then begin
                (* anything injected this attempt was overwritten with
                   fresh data before the scrub: recovered by the rewrite *)
                book Fault.note_recovered;
                Ok o
              end
              else begin
                Option.iter (fun f -> Fault.note_mem_detected f parity) fault;
                faults_detected := !faults_detected + parity + traps;
                if a < max_attempts then begin
                  Nsc_sim.Checkpoint.restore node ckpt;
                  Option.iter Fault.note_rollback fault;
                  incr rollbacks;
                  book Fault.note_recovered;
                  attempt (a + 1)
                end
                else begin
                  book Fault.note_unrecovered;
                  Error
                    (Printf.sprintf
                       "sweep still corrupt after %d attempts (%d faults detected)"
                       max_attempts !faults_detected)
                end
              end
        in
        attempt 1
      in
      let residual_of (o : Nsc_sim.Sequencer.outcome) =
        Option.value ~default:Float.nan
          (List.assoc_opt b.residual_unit o.Nsc_sim.Sequencer.last_values)
      in
      (* the sequencer's while-loop semantics, with a checkpoint per body:
         run the body, then continue while the residual exceeds [tol] *)
      let rec sweep_loop i last =
        if max_iters > 0 && i >= max_iters then Ok last
        else
          match protected_sweep () with
          | Error e -> Error e
          | Ok o ->
              incr sweeps;
              let r = residual_of o in
              if (not (Float.is_nan r)) && r > tol then sweep_loop (i + 1) (Some o)
              else Ok (Some o)
      in
      match run_step c_setup with
      | Error e -> Error e
      | Ok _ -> (
          match sweep_loop 0 None with
          | Error e -> Error e
          | Ok last ->
              let final_change =
                match last with Some o -> residual_of o | None -> Float.nan
              in
              Ok
                {
                  outcome =
                    {
                      u =
                        Nsc_sim.Node.dump_array node ~plane:b.layout.unew ~base:0
                          ~len:(Grid.padded_words prob.Poisson.grid);
                      sweeps = !sweeps;
                      final_change;
                      stats =
                        {
                          Nsc_sim.Sequencer.instructions_executed = !instructions;
                          total_cycles = !cycles;
                          total_flops = !flops;
                          total_writes = !writes;
                          events = List.rev !all_events;
                        };
                    };
                  rollbacks = !rollbacks;
                  faults_detected = !faults_detected;
                }))
