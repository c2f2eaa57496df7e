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

(* The halo messages of every iteration: every rank sends its outermost
   interior layers to the chain neighbours' halo layers (n² words each
   way), Gray-embedded so each transfer is a single hop.  Sources are
   interior layers and destinations halo layers, so no delivery
   overwrites a face a later message sends. *)
let halo_routes b grid ~dim ~nodes : Multinode.route list =
  let face_words = grid.Grid.nx * grid.Grid.ny in
  let plane = b.Jacobi.layout.Jacobi.center in
  let route ~rank ~to_rank ~k ~halo_k =
    {
      Multinode.msg =
        {
          Multinode.src = Router.chain_to_node ~dim rank;
          dst = Router.chain_to_node ~dim to_rank;
          words = face_words;
        };
      src_plane = plane;
      src_base = layer_base grid ~k;
      dst_plane = plane;
      dst_base = layer_base grid ~k:halo_k;
    }
  in
  List.concat_map
    (fun rank ->
      (* my last interior layer becomes the upper neighbour's k=0
         halo, my first its lower neighbour's top halo *)
      (if rank + 1 < nodes then
         [ route ~rank ~to_rank:(rank + 1) ~k:(grid.Grid.nz - 2) ~halo_k:0 ]
       else [])
      @
      if rank > 0 then [ route ~rank ~to_rank:(rank - 1) ~k:1 ~halo_k:(grid.Grid.nz - 1) ]
      else [])
    (List.init nodes (fun r -> r))

(* The copies that replicate the refreshed halo layers into the other u
   copies on every node (an on-node plane-to-plane copy, charged as one
   face write). *)
let halo_replicas (machine : Multinode.t) b grid : Multinode.copy array =
  let center = b.Jacobi.layout.Jacobi.center in
  let count = grid.Grid.nx * grid.Grid.ny in
  Array.of_list
    (List.concat_map
       (fun node ->
         List.concat_map
           (fun k ->
             let base = layer_base grid ~k in
             List.filter_map
               (fun plane ->
                 if plane = center then None
                 else
                   Some
                     {
                       Multinode.from_store = Node.plane node center;
                       from_base = base;
                       to_store = Node.plane node plane;
                       to_base = base;
                       count;
                     })
               (Jacobi.u_planes b.Jacobi.layout))
           [ 0; grid.Grid.nz - 1 ])
       (Array.to_list machine.Multinode.nodes))

(* Interior share of a sweep's cycles: the slab's nz_local layers all
   sweep, but only the two outermost read a halo layer, so (nz - 2) / nz
   of the sweep can legally overlap an in-flight exchange.  The overlap
   credit only reshapes the cycle accounting — payloads are delivered at
   post time, before any layer reads them, so the numerics are identical
   to the synchronous schedule either way. *)
let interior_credit ~nz_local sweep_cycles =
  if nz_local <= 2 then 0 else sweep_cycles * (nz_local - 2) / nz_local

let ( let* ) = Result.bind

(* The first node, in node order, whose last run failed. *)
let rec first_error (scratches : Sequencer.scratch array) id =
  if id = Array.length scratches then Ok ()
  else
    match scratches.(id).Sequencer.error with
    | Some e -> Error (Printf.sprintf "node %d: %s" id e)
    | None -> first_error scratches (id + 1)

(** One machine step of a prepared program: every node, in node order,
    executes it into its own scratch, [scratches.(id)] for node [id], and
    the machine advances by the slowest node.  Every node executes under
    [run].  Returns the error of the first node, in node order, whose run
    failed. *)
let exec_step ~run (machine : Multinode.t) (prog : Sequencer.prepared)
    (scratches : Sequencer.scratch array) : (unit, string) result =
  if Array.length scratches <> Multinode.n_nodes machine then
    invalid_arg "Parallel.exec_step: one scratch per node";
  let run = Some run in
  Multinode.compute_step machine (fun id node ->
      let s = scratches.(id) in
      match Sequencer.exec_into node ?run prog s with
      | Ok () -> (s.Sequencer.cycles, s.Sequencer.flops)
      | Error _ -> (0, 0));
  first_error scratches 0

(* The slab-decomposed Jacobi machine past its set-up step: every node
   holds its forcing and mask and has run instruction 1; the iteration
   body (instructions 2 and 3) shares the set-up's one decoded program,
   whose kernels, compiled on the first node, serve every node (they do
   not depend on the node); one run — one fault model — serves every
   node, and the machine costs its messages under the same model.
   Everything an iteration writes is owned here, so a warm iteration
   allocates next to nothing. *)
type rig = {
  machine : Multinode.t;
  b : Jacobi.build;
  grid : Grid.t;
  iter : Sequencer.prepared;
  run : Run.t;
  scratches : Sequencer.scratch array;  (** one per node, every step *)
  residual_at : int;  (** the residual unit's dense global index *)
  residuals : float array;  (** per node, all-reduced in place *)
  halo : Multinode.plan;  (** the exchange, compiled once *)
  replicas : Multinode.copy array;  (** the on-node halo replication *)
}

let set_up ~run (machine : Multinode.t) (p : Params.t) ~n ~dim : (rig, string) result =
  let nodes = Multinode.n_nodes machine in
  let kb = Knowledge.make_exn p in
  let grid = local_grid ~n ~nz_local:n in
  let b = Jacobi.build kb grid ~tol:0.0 ~max_iters:1 in
  (* decoded once; the two phases share its instructions and kernels *)
  let* prog = Sequencer.of_program kb b.Jacobi.program in
  let setup = Jacobi.setup_phase prog and iter = Jacobi.sweep_phase prog in
  (* per-node problem data: a smooth forcing that spans slabs,
     -3 pi^2 sin(pi x) sin(pi y) sin(pi z), from one sine table per axis
     and the same left-to-right product as a pointwise evaluation *)
  let pi = 4.0 *. atan 1.0 in
  let c = -3.0 *. pi *. pi in
  let global_nz = n * nodes in
  let hz rank k = float_of_int ((rank * n) + k) /. float_of_int (global_nz - 1) in
  let sines len coord = Array.init len (fun i -> sin (pi *. coord i)) in
  let sx = sines grid.Grid.nx (fun i -> float_of_int i *. grid.Grid.h)
  and sy = sines grid.Grid.ny (fun j -> float_of_int j *. grid.Grid.h) in
  Array.iteri
    (fun node_id node ->
      let rank = Router.node_to_chain ~dim node_id in
      let sz = sines grid.Grid.nz (fun k -> hz rank (k - 1)) in
      let f = Grid.field_of grid (fun ~i ~j ~k -> c *. sx.(i) *. sy.(j) *. sz.(k)) in
      Node.load_array node ~plane:b.Jacobi.layout.Jacobi.f ~base:0 f;
      Node.load_array node ~plane:b.Jacobi.layout.Jacobi.mask ~base:0
        (slab_mask grid ~first:(rank = 0) ~last:(rank = nodes - 1)))
    machine.Multinode.nodes;
  let scratches = Array.init nodes (fun _ -> Sequencer.scratch prog) in
  let* () = exec_step ~run machine setup scratches in
  Multinode.reset_counters machine;
  Ok
    {
      machine;
      b;
      grid;
      iter;
      run;
      scratches;
      residual_at = Resource.fu_global_index prog.Kernel.params b.Jacobi.residual_unit;
      residuals = Array.make nodes 0.0;
      halo = Multinode.plan machine (halo_routes b grid ~dim ~nodes);
      replicas = halo_replicas machine b grid;
    }

(* Set up the machine under [run] (default: clean) and hand the rig to [f].
   A model that would corrupt memory is refused
   ({!Nsc_fault.Fault.refuse_mem_corrupt}): no node sweep draws it, so the
   run would book nothing and look clean. *)
let with_rig ?run (p : Params.t) ~n ~dim f =
  let run = match run with Some r -> r | None -> Run.make () in
  let module Fault = Nsc_fault.Fault in
  match Option.map (fun m -> Fault.refuse_mem_corrupt (Fault.spec m)) run.Run.fault with
  | Some (Error e) -> Error e
  | None | Some (Ok _) ->
      let machine = Multinode.create ~dim ?fault:run.Run.fault p in
      Result.bind (set_up ~run machine p ~n ~dim) f

(* One iteration's local sweep and refresh on every node. *)
let sweep r = exec_step ~run:r.run r.machine r.iter r.scratches

(* One iteration's halo exchange and the on-node replication of the
   refreshed layers; with [overlap] the exchange is posted in flight and
   its handle returned, to be completed behind the next sweep. *)
let exchange_halos ~overlap r =
  let machine = r.machine in
  if Multinode.n_nodes machine <= 1 then None
  else begin
    let pending =
      if overlap then Some (Multinode.exchange_start machine r.halo)
      else begin
        Multinode.exchange machine r.halo;
        None
      end
    in
    Array.iter Multinode.copy r.replicas;
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
    scaling: the global problem grows with the machine.  [overlap] posts
    each iteration's halo exchange asynchronously and completes it only
    after the next sweep, crediting the sweep's interior-layer cycles as
    overlapped compute — machine time per step becomes
    [max (compute, comm)] instead of [compute + comm], with residuals
    and delivered payloads bit-identical to the synchronous schedule.
    [run] carries the fault model the nodes and the machine's messages
    inject from (default: clean). *)
let run_machine ?(overlap = false) ?run (p : Params.t) ~n ~iters ~dim :
    (point * Multinode.t * Jacobi.build * Grid.t, string) result =
  with_rig ?run p ~n ~dim @@ fun r ->
  let machine = r.machine in
  (* iterate: sweep + refresh, then halo exchange — posted in flight
     and completed behind the next sweep when [overlap] is on *)
  let rec iterate i pending =
    if i = iters then Ok pending
    else begin
      let before = machine.Multinode.cycles in
      let* _ = sweep r in
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
let run ?overlap ?run (p : Params.t) ~n ~iters ~dim : (point, string) result =
  Result.map (fun (pt, _, _, _) -> pt) (run_machine ?overlap ?run p ~n ~iters ~dim)

(** Run and assemble the global field (interior z-layers of every node's
    centred u copy, in rank order) — used to verify that the decomposed
    iteration equals the single-machine iteration, and that the
    overlapped schedule is bit-identical to the synchronous one. *)
let run_field ?overlap ?run (p : Params.t) ~n ~iters ~dim :
    (float array, string) result =
  match run_machine ?overlap ?run p ~n ~iters ~dim with
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
let scaling ?overlap ?run:r (p : Params.t) ~n ~iters ~dims :
    (point list, string) result =
  let rec go acc base = function
    | [] -> Ok (List.rev acc)
    | dim :: rest -> (
        match run ?overlap ?run:r p ~n ~iters ~dim with
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
    recursive doubling — reduced in place: on return every slot of
    [values] holds the global maximum, which is returned.  Charges the
    machine the router time of the longest stage chain. *)
let allreduce_max (machine : Multinode.t) (values : float array) : float =
  let total_cycles = ref 0 in
  for bit = 0 to machine.Multinode.dim - 1 do
    (* every node exchanges one word with its partner across [bit]; the
       stage costs one single-word transfer (all pairs in parallel) *)
    let stride = 1 lsl bit in
    for id = 0 to Array.length values - 1 do
      let partner = id lxor stride in
      if partner > id then begin
        let m = Float.max values.(id) values.(partner) in
        values.(id) <- m;
        values.(partner) <- m
      end
    done;
    total_cycles :=
      !total_cycles + Router.transfer_cycles machine.Multinode.params ~src:0 ~dst:stride ~words:1
  done;
  machine.Multinode.cycles <- machine.Multinode.cycles + !total_cycles;
  machine.Multinode.comm_cycles <- machine.Multinode.comm_cycles + !total_cycles;
  if Array.length values = 0 then 0.0 else values.(0)

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
let solve ?run (p : Params.t) ~n ~tol ~max_iters ~dim :
    (solve_outcome, string) result =
  with_rig ?run p ~n ~dim @@ fun r ->
  let machine = r.machine in
  let rec iterate iterations global =
    if not (iterations < max_iters && global > tol) then Ok (iterations, global)
    else
      match sweep r with
      | Error e -> Error e
      | Ok () ->
          ignore (exchange_halos ~overlap:false r);
          for id = 0 to Array.length r.residuals - 1 do
            r.residuals.(id) <-
              Sequencer.captured r.scratches.(id) r.residual_at ~default:Float.infinity
          done;
          iterate (iterations + 1) (allreduce_max machine r.residuals)
  in
  let* iterations, final_residual = iterate 0 Float.infinity in
  Ok { iterations; final_residual; point = point_of machine ~iters:iterations }
