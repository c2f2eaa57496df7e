(* The ops the benchmark times.  Each calls the public functions of
   lib/lang, lib/microcode, lib/apps and lib/sim and returns a thunk
   that checks the answer, so checking stays outside the timed interval.

   The untraced ops call the entry points a user calls ([Jacobi.solve],
   [Multigrid.solve], [Parallel.solve]).  The traced ops make the same
   calls those entry points make, one layer at a time, with a span
   around each (see [sequencer] for how a run is split). *)

open Nsc_arch
open Nsc_apps
module Sim = Nsc_sim
module Codegen = Nsc_microcode.Codegen

let kb = Knowledge.default
let params = Knowledge.params kb

type outcome = {
  ok : (unit, string) result;
  cycles : int;  (* simulated machine cycles *)
  flops : int;
  node_mflops : float option;  (* per-node rate, for a multi-node op *)
  comm_cycles : int;  (* machine cycles spent communicating *)
}

let failed e = { ok = Error e; cycles = 0; flops = 0; node_mflops = None; comm_cycles = 0 }

let of_stats ok (st : Sim.Sequencer.stats) =
  {
    ok;
    cycles = st.Sim.Sequencer.total_cycles;
    flops = st.Sim.Sequencer.total_flops;
    node_mflops = None;
    comm_cycles = 0;
  }

(* --- answers ------------------------------------------------------------- *)

(* Pinned results, compared bit for bit (%.17e prints every bit). *)
let n9_sweeps = 144
let n9_residual = "9.33435346794908583e-07"
let hypercube_iterations = 216
let hypercube_residual = "9.81777504405201284e-07"

let bits r = Printf.sprintf "%.17e" r

let check_pinned what ~count ~residual ~want_count ~want_residual =
  if count = want_count && bits residual = want_residual then Ok ()
  else
    Error
      (Printf.sprintf "%s: %d iterations, residual %s (pinned: %d, %s)" what count
         (bits residual) want_count want_residual)

let mg_cycles = 1
let mg_nu1 = 2
let mg_nu2 = 2
let mg_nu_coarse = 40

(* The inputs a set-up generates: problems and host references. *)
type inputs = {
  n9 : Poisson.problem;
  mg : (int * (Multigrid.host_problem * float array)) list;
}

let make_inputs workload =
  {
    n9 = Poisson.manufactured 9;
    mg =
      (if workload <> "compile-cold" then []
       else
         List.map
           (fun n ->
             let p = Multigrid.manufactured n in
             ( n,
               ( p,
                 Multigrid.host_solve p ~cycles:mg_cycles ~nu1:mg_nu1 ~nu2:mg_nu2
                   ~nu_coarse:mg_nu_coarse ) ))
           (List.sort_uniq compare Gen.multigrid_sizes));
  }

(* The tolerance the repository's own multigrid test holds the simulator
   to against the host two-grid scheme. *)
let check_multigrid ~host u =
  let d = ref 0.0 in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. host.(i)))) u;
  if !d <= 1e-12 then Ok () else Error (Printf.sprintf "multigrid: max |nsc - host| = %g" !d)

(* Element 0 of every array sits one pad (the largest shift, 1) past the
   start of its plane. *)
let check_lang (s : Gen.source) node =
  let u = Sim.Node.dump_array node ~plane:0 ~base:1 ~len:s.Gen.len in
  let want = Gen.source_reference s in
  if Array.for_all2 Float.equal u want then Ok ()
  else Error ("lang: result differs from host evaluation: " ^ Gen.to_string (Gen.Lang s))

(* --- caches and spans ---------------------------------------------------- *)

type caches = { plan : Sim.Plan.cache; kernel : Sim.Kernel.cache }

let fresh_caches () = { plan = Sim.Plan.make_cache (); kernel = Sim.Kernel.make_cache () }

let span sp name f = match sp with None -> f () | Some t -> Spans.span t name f

let diagnostics ds =
  String.concat "; "
    (List.map Nsc_checker.Diagnostic.to_string (Nsc_checker.Diagnostic.errors ds))

let codegen sp program =
  match span sp "codegen.compile" (fun () -> Codegen.compile kb program) with
  | Ok c -> Ok c
  | Error ds -> Error (diagnostics ds)

(* [Sequencer.run] split into its layers.  The run's own work — decoding
   the microcode, compiling each instruction's plan and kernel on first
   dispatch, dispatching — is done in that order: the decode and the
   compiles are hoisted ahead of the first dispatch (the run then finds
   them cached), and each dispatch is booked as an engine interval from
   the return of one [on_instruction] hook to the next, so an interval
   also holds the sequencer's per-dispatch bookkeeping. *)
let sequencer sp caches node (c : Codegen.compiled) =
  let run ?on_instruction ?(from_microcode = true) c =
    Sim.Sequencer.run node ~from_microcode ~plan_cache:caches.plan ~kernel_cache:caches.kernel
      ?on_instruction c
  in
  match sp with
  | None -> run c
  | Some t ->
      Spans.span t "sequencer.run" (fun () ->
          let decoded =
            List.filter_map
              (fun (i : Nsc_microcode.Encode.instruction) ->
                Result.to_option
                  (Nsc_microcode.Decode.decode c.Codegen.layout i.Nsc_microcode.Encode.word))
              c.Codegen.instructions
          in
          (* a word that does not decode: let the run report it *)
          if List.length decoded <> List.length c.Codegen.instructions then run c
          else begin
            List.iter
              (fun sem ->
                ignore (Spans.span t "plan.compile" (fun () -> Sim.Plan.cached caches.plan params sem));
                ignore
                  (Spans.span t "kernel.compile" (fun () ->
                       Sim.Kernel.cached caches.kernel caches.plan params sem)))
              decoded;
            let last = ref (Spans.now ()) in
            run ~from_microcode:false
              ~on_instruction:(fun _ _ ->
                Spans.interval t "engine.exec" ~t0:!last ~t1:(Spans.now ());
                last := Spans.now ())
              { c with Codegen.semantics = decoded }
          end)

(* --- in-process ops ------------------------------------------------------ *)

let lang sp caches (s : Gen.source) =
  match span sp "lang.compile" (fun () -> Nsc_lang.Compile.compile kb (Gen.source_text s)) with
  | Error e -> fun () -> failed ("lang: " ^ e.Nsc_lang.Compile.message)
  | Ok lc -> (
      match codegen sp lc.Nsc_lang.Compile.program with
      | Error e -> fun () -> failed e
      | Ok c -> (
          let node = span sp "apps.load" (fun () -> Sim.Node.create params) in
          match sequencer sp caches node c with
          | Error e -> fun () -> failed e
          | Ok o -> fun () -> of_stats (check_lang s node) o.Sim.Sequencer.stats))

let hypercube () =
  match Parallel.solve params ~n:9 ~tol:1e-6 ~max_iters:1000 ~dim:3 with
  | Error e -> fun () -> failed e
  | Ok o ->
      fun () ->
        let pt = o.Parallel.point in
        let cycles =
          int_of_float
            (Float.round (pt.Parallel.cycles_per_iter *. float_of_int o.Parallel.iterations))
        in
        {
          ok =
            check_pinned "hypercube n=9" ~count:o.Parallel.iterations
              ~residual:o.Parallel.final_residual ~want_count:hypercube_iterations
              ~want_residual:hypercube_residual;
          cycles;
          flops = 0;
          node_mflops = Some (pt.Parallel.gflops *. 1000.0 /. float_of_int pt.Parallel.nodes);
          comm_cycles = int_of_float (Float.round (pt.Parallel.comm_fraction *. float_of_int cycles));
        }

let check_n9 sweeps residual =
  check_pinned "n=9 solve" ~count:sweeps ~residual ~want_count:n9_sweeps ~want_residual:n9_residual

(* One untraced op. *)
let exec inputs caches (job : Gen.job) : unit -> outcome =
  match job with
  | Gen.Solve_n9 -> (
      match
        Jacobi.solve kb ~plan_cache:caches.plan ~kernel_cache:caches.kernel inputs.n9 ~tol:1e-6
          ~max_iters:1000
      with
      | Error e -> fun () -> failed e
      | Ok o -> fun () -> of_stats (check_n9 o.Jacobi.sweeps o.Jacobi.final_change) o.Jacobi.stats)
  | Gen.Multigrid n -> (
      let prob, host = List.assoc n inputs.mg in
      match
        Multigrid.solve kb prob ~cycles:mg_cycles ~nu1:mg_nu1 ~nu2:mg_nu2 ~nu_coarse:mg_nu_coarse
      with
      | Error e -> fun () -> failed e
      | Ok o -> fun () -> of_stats (check_multigrid ~host o.Multigrid.u) o.Multigrid.stats)
  | Gen.Lang s -> lang None caches s
  | Gen.Hypercube_n9 -> hypercube ()
  | Gen.Jacobi _ | Gen.Source _ | Gen.Faulted _ -> invalid_arg "Work.exec: a served job"

(* One traced op: the calls [exec]'s entry points make, layer by layer. *)
let exec_traced t inputs caches (job : Gen.job) : unit -> outcome =
  let sp = Some t in
  match job with
  | Gen.Solve_n9 -> (
      let prob = inputs.n9 in
      let b =
        Spans.span t "apps.build" (fun () ->
            Jacobi.build kb prob.Poisson.grid ~tol:1e-6 ~max_iters:1000)
      in
      match codegen sp b.Jacobi.program with
      | Error e -> fun () -> failed e
      | Ok c -> (
          let node =
            Spans.span t "apps.load" (fun () ->
                let node = Sim.Node.create params in
                Jacobi.load node b prob;
                node)
          in
          match sequencer sp caches node c with
          | Error e -> fun () -> failed e
          | Ok o ->
              fun () ->
                let st = o.Sim.Sequencer.stats in
                let sweeps = (st.Sim.Sequencer.instructions_executed - 1) / 2 in
                let residual =
                  Option.value ~default:Float.nan
                    (List.assoc_opt b.Jacobi.residual_unit o.Sim.Sequencer.last_values)
                in
                of_stats (check_n9 sweeps residual) st))
  | Gen.Multigrid n -> (
      let prob, host = List.assoc n inputs.mg in
      let b =
        Spans.span t "apps.build" (fun () ->
            Multigrid.build kb prob.Multigrid.grid ~cycles:mg_cycles ~nu1:mg_nu1 ~nu2:mg_nu2
              ~nu_coarse:mg_nu_coarse)
      in
      match codegen sp b.Multigrid.program with
      | Error e -> fun () -> failed e
      | Ok c -> (
          let l = b.Multigrid.layout in
          let node =
            Spans.span t "apps.load" (fun () ->
                let node = Sim.Node.create params in
                Sim.Node.load_array node ~plane:l.Multigrid.f ~base:0 prob.Multigrid.f;
                Sim.Node.load_array node ~plane:l.Multigrid.mask_f ~base:0
                  (Multigrid.mask1 b.Multigrid.fine);
                Sim.Node.load_array node ~plane:l.Multigrid.mask_c ~base:0
                  (Multigrid.mask1 b.Multigrid.coarse);
                node)
          in
          match sequencer sp caches node c with
          | Error e -> fun () -> failed e
          | Ok o ->
              fun () ->
                let u =
                  Sim.Node.dump_array node ~plane:l.Multigrid.u_c ~base:0
                    ~len:(Multigrid.words1 b.Multigrid.fine)
                in
                of_stats (check_multigrid ~host u) o.Sim.Sequencer.stats))
  | Gen.Lang s -> lang sp caches s
  | Gen.Hypercube_n9 -> Spans.span t "multinode.solve" hypercube
  | Gen.Jacobi _ | Gen.Source _ | Gen.Faulted _ -> invalid_arg "Work.exec_traced: a served job"

(* --- served jobs, run solo ----------------------------------------------- *)

(* Run a served job the way the daemon does — the same public calls on
   fresh caches — and return the response fields it must produce.  Used
   to check every response, and in the traced run to time each job's
   service alone. *)
let solo (job : Gen.job) : ((string * float) list, string) result =
  let jacobi n tol =
    let prob = Poisson.manufactured n in
    let c = fresh_caches () in
    match Jacobi.solve kb ~plan_cache:c.plan ~kernel_cache:c.kernel prob ~tol ~max_iters:1000 with
    | Error e -> Error e
    | Ok o ->
        let st = o.Jacobi.stats in
        Ok
          [ ("sweeps", float_of_int o.Jacobi.sweeps);
            ("residual", o.Jacobi.final_change);
            ("instructions", float_of_int st.Sim.Sequencer.instructions_executed);
            ("cycles", float_of_int st.Sim.Sequencer.total_cycles);
            ("flops", float_of_int st.Sim.Sequencer.total_flops) ]
  in
  match job with
  | Gen.Jacobi { n; tol } -> jacobi n tol
  | Gen.Faulted { fault_seed } ->
      let spec = Result.get_ok (Nsc_fault.Fault.parse Gen.fault_spec) in
      Nsc_fault.Fault.install (Nsc_fault.Fault.make ~seed:fault_seed spec);
      let r = jacobi Gen.faulted_n Gen.faulted_tol in
      let unrecovered = Nsc_fault.Fault.reconcile () in
      Nsc_fault.Fault.clear ();
      if unrecovered > 0 then Error (Printf.sprintf "%d unrecovered faults" unrecovered) else r
  | Gen.Source s -> (
      match Nsc_lang.Compile.compile kb (Gen.source_text s) with
      | Error e -> Error e.Nsc_lang.Compile.message
      | Ok lc -> (
          match codegen None lc.Nsc_lang.Compile.program with
          | Error e -> Error e
          | Ok c -> (
              let node = Sim.Node.create params in
              match sequencer None (fresh_caches ()) node c with
              | Error e -> Error e
              | Ok o ->
                  let st = o.Sim.Sequencer.stats in
                  Ok
                    [ ("halted", if o.Sim.Sequencer.halted then 1.0 else 0.0);
                      ("instructions", float_of_int st.Sim.Sequencer.instructions_executed);
                      ("cycles", float_of_int st.Sim.Sequencer.total_cycles);
                      ("flops", float_of_int st.Sim.Sequencer.total_flops) ])))
  | Gen.Solve_n9 | Gen.Hypercube_n9 | Gen.Lang _ | Gen.Multigrid _ ->
      invalid_arg "Work.solo: not a served job"
