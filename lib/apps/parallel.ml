(** Multi-node Jacobi: slab decomposition over the hypercube.

    The paper quotes the machine-level figures — 64 nodes, 40 GFLOPS — and
    leaves multi-node programming to "techniques similar to those used in
    Poker".  This module supplies the experiment: the global cube is cut
    into z-slabs, one per node, embedded on the hypercube with a Gray code
    so slab neighbours are single-hop neighbours; each iteration every node
    runs its local sweep and refresh, then exchanges one face (n² words)
    with each neighbour through the hyperspace router. *)

open Nsc_arch
open Nsc_sim

type point = {
  nodes : int;
  gflops : float;
  efficiency : float;   (** sustained fraction of linear scaling from 1 node *)
  comm_fraction : float;(** share of machine cycles spent in exchanges *)
  overlap_ratio : float;(** share of exchange cycles hidden behind compute *)
  contention_per_iter : float;
      (** aggregate queueing surplus per iteration, summed over all source
          nodes: it never enters machine time and can exceed
          [cycles_per_iter] *)
  cycles_per_iter : float;
}

(* Local slab: n x n x (nz_local + 2 halo layers). *)
let local_grid ~n ~nz_local = Grid.slab ~of_:(Grid.cube n) ~nz:(nz_local + 2)

(* Mask for a slab: physical boundaries in x/y always; the k faces only at
   the machine's ends — interior k faces are halos, frozen locally and
   refreshed by exchange. *)
let slab_mask grid ~first ~last =
  Grid.field_of grid (fun ~i ~j ~k ->
      let phys_x = i = 0 || i = grid.Grid.nx - 1 in
      let phys_y = j = 0 || j = grid.Grid.ny - 1 in
      let halo = k = 0 || k = grid.Grid.nz - 1 in
      (* the machine's physical z walls live on the first and last slabs *)
      let phys_z = (first && k = 1) || (last && k = grid.Grid.nz - 2) in
      if phys_x || phys_y || halo || phys_z then 0.0 else 1.0)

(* Base address of layer k within the padded field. *)
let layer_base grid ~k = Grid.index grid ~i:0 ~j:0 ~k

(* Layers [k, k + layers) of the slab (all i, j), read from a u plane:
   consecutive words in the padded layout, one face at index nx·j + i. *)
let read_layers node ~plane ~grid ~k ~layers =
  Node.dump_array node ~plane ~base:(layer_base grid ~k)
    ~len:(grid.Grid.nx * grid.Grid.ny * layers)

(* One face of the slab (all i, j at layer k). *)
let read_face node ~plane ~grid ~k = read_layers node ~plane ~grid ~k ~layers:1

(* The halo messages of one iteration: every rank sends its outermost
   interior layers to the chain neighbours' halo layers (n² words each
   way), Gray-embedded so each transfer is a single hop. *)
let halo_messages machine b grid ~dim ~nodes =
  let face_words = grid.Grid.nx * grid.Grid.ny in
  let plane = b.Jacobi.layout.Jacobi.center in
  List.concat_map
    (fun rank ->
      let node_id = Router.chain_to_node ~dim rank in
      let node = Multinode.node machine node_id in
      let up =
        if rank + 1 < nodes then begin
          let dst = Router.chain_to_node ~dim (rank + 1) in
          (* my last interior layer becomes their k=0 halo *)
          let payload = read_face node ~plane ~grid ~k:(grid.Grid.nz - 2) in
          [ ({ Multinode.src = node_id; dst; words = face_words },
             (payload, plane, layer_base grid ~k:0)) ]
        end
        else []
      in
      let down =
        if rank > 0 then begin
          let dst = Router.chain_to_node ~dim (rank - 1) in
          let payload = read_face node ~plane ~grid ~k:1 in
          [ ({ Multinode.src = node_id; dst; words = face_words },
             (payload, plane, layer_base grid ~k:(grid.Grid.nz - 1))) ]
        end
        else []
      in
      up @ down)
    (List.init nodes (fun r -> r))

(* Replicate the refreshed halo layers into the other u copies locally
   (an on-node plane-to-plane copy, charged as one face write). *)
let replicate_halo machine b grid u_planes =
  Array.iter
    (fun node ->
      List.iter
        (fun k ->
          let face = read_face node ~plane:b.Jacobi.layout.Jacobi.center ~grid ~k in
          List.iter
            (fun plane ->
              if plane <> b.Jacobi.layout.Jacobi.center then
                Node.load_array node ~plane ~base:(layer_base grid ~k) face)
            u_planes)
        [ 0; grid.Grid.nz - 1 ])
    machine.Multinode.nodes

(* Interior share of a sweep's cycles: the slab's nz_local layers all
   sweep, but only the two outermost read a halo layer, so (nz - 2) / nz
   of the sweep can legally overlap an in-flight exchange.  The overlap
   credit only reshapes the cycle accounting — payloads are delivered at
   post time, before any layer reads them, so the numerics are identical
   to the synchronous schedule either way. *)
let interior_credit ~nz_local sweep_cycles =
  if nz_local <= 2 then 0 else sweep_cycles * (nz_local - 2) / nz_local

let ( let* ) = Result.bind

(** One machine step of a prepared program: every node executes it
    (fanned across [domains], bit-identical to the sequential run) and the
    machine advances by the slowest node.  Every node executes under
    [run].  Returns the per-node outcomes in node order, or the error of
    the first node, in node order, whose run failed. *)
let exec_step ?(domains = 1) ~run (machine : Multinode.t) (prog : Sequencer.prepared) :
    (Sequencer.outcome array, string) result =
  let results = Array.make (Multinode.n_nodes machine) (Error "not run") in
  Multinode.compute_step ~domains machine (fun id node ->
      let r = Sequencer.exec node ~run prog in
      results.(id) <- r;
      match r with
      | Ok o ->
          (o.Sequencer.stats.Sequencer.total_cycles, o.Sequencer.stats.Sequencer.total_flops)
      | Error _ -> (0, 0));
  let rec first_error id =
    if id = Array.length results then Ok (Array.map Result.get_ok results)
    else
      match results.(id) with
      | Error e -> Error (Printf.sprintf "node %d: %s" id e)
      | Ok _ -> first_error (id + 1)
  in
  first_error 0

(* The slab-decomposed Jacobi machine past its set-up step: every node
   holds its forcing and mask and has run instruction 1; the iteration
   body (instructions 2 and 3) is decoded once, and one run — one
   compile cache, one fault model — serves every node: kernels do not
   depend on the node, the cache is safe to share across domains, and
   the machine costs its messages under the same model. *)
type rig = {
  machine : Multinode.t;
  b : Jacobi.build;
  grid : Grid.t;
  iter : Sequencer.prepared;
  run : Run.t;
}

let set_up ~domains ?run (p : Params.t) ~n ~dim : (rig, string) result =
  let run = match run with Some r -> r | None -> Run.make () in
  let machine = Multinode.create ~dim ?fault:run.Run.fault p in
  let nodes = Multinode.n_nodes machine in
  let kb = Knowledge.make_exn p in
  let grid = local_grid ~n ~nz_local:n in
  let b = Jacobi.build kb grid ~tol:0.0 ~max_iters:1 in
  let* compiled =
    Result.map_error
      (fun ds ->
        String.concat "; "
          (List.map Nsc_checker.Diagnostic.to_string (Nsc_checker.Diagnostic.errors ds)))
      (Nsc_microcode.Codegen.compile kb b.Jacobi.program)
  in
  let prepare control = Sequencer.prepare { compiled with Nsc_microcode.Codegen.control } in
  let open Nsc_diagram in
  let* setup = prepare [ Program.Exec 1; Program.Halt ] in
  let* iter = prepare [ Program.Exec 2; Program.Exec 3; Program.Halt ] in
  (* per-node problem data: a smooth forcing that spans slabs *)
  let pi = 4.0 *. atan 1.0 in
  let global_nz = n * nodes in
  let hz rank k = float_of_int ((rank * n) + k) /. float_of_int (global_nz - 1) in
  Array.iteri
    (fun node_id node ->
      let rank = Router.node_to_chain ~dim node_id in
      let f =
        Grid.field_of grid (fun ~i ~j ~k ->
            let x = float_of_int i *. grid.Grid.h
            and y = float_of_int j *. grid.Grid.h
            and z = hz rank (k - 1) in
            -3.0 *. pi *. pi *. sin (pi *. x) *. sin (pi *. y) *. sin (pi *. z))
      in
      Node.load_array node ~plane:b.Jacobi.layout.Jacobi.f ~base:0 f;
      Node.load_array node ~plane:b.Jacobi.layout.Jacobi.mask ~base:0
        (slab_mask grid ~first:(rank = 0) ~last:(rank = nodes - 1)))
    machine.Multinode.nodes;
  let* _ = exec_step ~domains ~run machine setup in
  Multinode.reset_counters machine;
  Ok { machine; b; grid; iter; run }

(* One iteration's local sweep and refresh on every node. *)
let sweep ~domains r = exec_step ~domains ~run:r.run r.machine r.iter

(* One iteration's halo exchange and the on-node replication of the
   refreshed layers; with [overlap] the exchange is posted in flight and
   its handle returned, to be completed behind the next sweep. *)
let exchange_halos ~overlap r =
  let machine = r.machine in
  let nodes = Multinode.n_nodes machine in
  if nodes <= 1 then None
  else begin
    let messages = halo_messages machine r.b r.grid ~dim:machine.Multinode.dim ~nodes in
    let pending =
      if overlap then Some (Multinode.exchange_start machine messages)
      else begin
        Multinode.exchange machine messages;
        None
      end
    in
    replicate_halo machine r.b r.grid (Jacobi.u_planes r.b.Jacobi.layout);
    pending
  end

(* The machine's scaling figures after [iters] iterations. *)
let point_of (machine : Multinode.t) ~iters =
  let cycles = machine.Multinode.cycles in
  let per_iter x = if iters = 0 then 0.0 else float_of_int x /. float_of_int iters in
  {
    nodes = Multinode.n_nodes machine;
    gflops = Multinode.gflops machine;
    efficiency = 0.0 (* filled in by [scaling] relative to 1 node *);
    comm_fraction =
      (if cycles = 0 then 0.0
       else float_of_int machine.Multinode.comm_cycles /. float_of_int cycles);
    overlap_ratio = Multinode.overlap_ratio machine;
    contention_per_iter = per_iter machine.Multinode.contention_cycles;
    cycles_per_iter = per_iter cycles;
  }

(** Run [iters] Jacobi iterations of an n x n x (n·P) problem on a
    [dim]-dimensional hypercube (P = 2^dim nodes), returning the scaling
    measurements.  The per-node slab thickness is [n], so this is weak
    scaling: the global problem grows with the machine.  [domains] fans
    the per-node simulation across OCaml domains (results are
    bit-identical to the sequential run).  [overlap] posts each
    iteration's halo exchange asynchronously and completes it only after
    the next sweep, crediting the sweep's interior-layer cycles as
    overlapped compute — machine time per step becomes
    [max (compute, comm)] instead of [compute + comm], with residuals
    and delivered payloads bit-identical to the synchronous schedule.
    [run] carries the compile cache every node shares and the fault
    model the nodes and the machine's messages inject from (default: a
    fresh cache, clean). *)
let run_machine ?(domains = 1) ?(overlap = false) ?run (p : Params.t) ~n ~iters ~dim :
    (point * Multinode.t * Jacobi.build * Grid.t, string) result =
  let* r = set_up ~domains ?run p ~n ~dim in
  let machine = r.machine in
  (* iterate: sweep + refresh, then halo exchange — posted in flight
     and completed behind the next sweep when [overlap] is on *)
  let rec iterate i pending =
    if i = iters then Ok pending
    else begin
      let before = machine.Multinode.cycles in
      let* _ = sweep ~domains r in
      Option.iter
        (Multinode.exchange_finish
           ~overlapped_cycles:
             (interior_credit ~nz_local:n (machine.Multinode.cycles - before))
           machine)
        pending;
      iterate (i + 1) (exchange_halos ~overlap r)
    end
  in
  let* pending = iterate 0 None in
  (* the final exchange has no following sweep to hide behind *)
  Option.iter (Multinode.exchange_finish machine) pending;
  Ok (point_of machine ~iters, machine, r.b, r.grid)

(** Run and return just the scaling point. *)
let run ?domains ?overlap ?run (p : Params.t) ~n ~iters ~dim : (point, string) result =
  Result.map (fun (pt, _, _, _) -> pt) (run_machine ?domains ?overlap ?run p ~n ~iters ~dim)

(** Run and assemble the global field (interior z-layers of every node's
    centred u copy, in rank order) — used to verify that the decomposed
    iteration equals the single-machine iteration, and that the
    overlapped schedule is bit-identical to the synchronous one. *)
let run_field ?domains ?overlap ?run (p : Params.t) ~n ~iters ~dim :
    (float array, string) result =
  match run_machine ?domains ?overlap ?run p ~n ~iters ~dim with
  | Error e -> Error e
  | Ok (_, machine, b, grid) ->
      let nodes = Multinode.n_nodes machine in
      (* each rank's n interior layers, in rank order *)
      Ok
        (Array.concat
           (List.init nodes (fun rank ->
                let node = Multinode.node machine (Router.chain_to_node ~dim rank) in
                read_layers node ~plane:b.Jacobi.layout.Jacobi.center ~grid ~k:1 ~layers:n)))

(** Weak-scaling sweep over hypercube dimensions, with efficiency relative
    to the single-node machine.  [overlap] runs every point with the
    asynchronous interleaved exchange. *)
let scaling ?domains ?overlap ?run:r (p : Params.t) ~n ~iters ~dims :
    (point list, string) result =
  let rec go acc base = function
    | [] -> Ok (List.rev acc)
    | dim :: rest -> (
        match run ?domains ?overlap ?run:r p ~n ~iters ~dim with
        | Error e -> Error e
        | Ok pt ->
            let base = match base with None -> Some pt.gflops | s -> s in
            let eff =
              match base with
              | Some g1 when g1 > 0.0 ->
                  pt.gflops /. (g1 *. float_of_int pt.nodes)
              | _ -> 0.0
            in
            go ({ pt with efficiency = eff } :: acc) base rest)
  in
  go [] None dims

(* ------------------------------------------------------------------ *)
(* global convergence: hypercube all-reduce + iterate-to-tolerance     *)
(* ------------------------------------------------------------------ *)

(** Tree all-reduce of one scalar per node (maximum), in [dim] stages of
    single-word nearest-neighbour exchanges — the standard hypercube
    recursive doubling.  Returns the global maximum and charges the
    machine the router time of the longest stage chain. *)
let allreduce_max (machine : Multinode.t) (values : float array) : float =
  let dim = machine.Multinode.dim in
  let v = Array.copy values in
  let total_cycles = ref 0 in
  for bit = 0 to dim - 1 do
    (* every node exchanges one word with its partner across [bit]; the
       stage costs one single-word transfer (all pairs in parallel) *)
    let next = Array.copy v in
    for id = 0 to Array.length v - 1 do
      let partner = id lxor (1 lsl bit) in
      next.(id) <- Float.max v.(id) v.(partner)
    done;
    Array.blit next 0 v 0 (Array.length v);
    if dim > 0 then
      total_cycles :=
        !total_cycles
        + Router.transfer_cycles machine.Multinode.params ~src:0 ~dst:(1 lsl bit)
            ~words:1
  done;
  machine.Multinode.cycles <- machine.Multinode.cycles + !total_cycles;
  machine.Multinode.comm_cycles <- machine.Multinode.comm_cycles + !total_cycles;
  if Array.length v = 0 then 0.0 else v.(0)

type solve_outcome = {
  iterations : int;
  final_residual : float;
  point : point;
}

(** Iterate the slab-decomposed Jacobi to global convergence: every
    iteration runs the local sweep and refresh on each node, exchanges
    halos, all-reduces the per-node residual maxima over the hypercube,
    and stops when the global maximum change falls to [tol].  A node
    whose run fails fails the solve with that node's error.  [run] as
    for {!run_machine}. *)
let solve ?(domains = 1) ?run (p : Params.t) ~n ~tol ~max_iters ~dim :
    (solve_outcome, string) result =
  let* r = set_up ~domains ?run p ~n ~dim in
  let machine = r.machine in
  let residual (o : Sequencer.outcome) =
    Option.value ~default:Float.infinity
      (List.assoc_opt r.b.Jacobi.residual_unit o.Sequencer.last_values)
  in
  (* one machine step per iteration: [exec_step] accumulates the counters
     in node order after the fan-in, so a domain-parallel run is
     bit-identical to a sequential one *)
  let rec iterate iterations global =
    if not (iterations < max_iters && global > tol) then Ok (iterations, global)
    else begin
      let* outcomes = sweep ~domains r in
      ignore (exchange_halos ~overlap:false r);
      iterate (iterations + 1) (allreduce_max machine (Array.map residual outcomes))
    end
  in
  let* iterations, final_residual = iterate 0 Float.infinity in
  Ok { iterations; final_residual; point = point_of machine ~iters:iterations }
