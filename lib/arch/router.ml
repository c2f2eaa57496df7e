(** The hyperspace router and hypercube topology.

    Communication between nodes is handled by a hyperspace router; nodes are
    arranged in a hypercube.  This module provides the topology algebra —
    neighbours, dimension-ordered routes, Gray-code embeddings of process
    grids — used by the multi-node simulator. *)

type node_id = int [@@deriving show, eq, ord]

(** Number of nodes in a hypercube of dimension [d]. *)
let nodes_of_dim d =
  if d < 0 then invalid_arg "Router.nodes_of_dim";
  1 lsl d

(** Smallest dimension whose hypercube holds at least [n] nodes. *)
let dim_for_nodes n =
  if n <= 0 then invalid_arg "Router.dim_for_nodes";
  let rec go d = if 1 lsl d >= n then d else go (d + 1) in
  go 0

let valid_node ~dim id = id >= 0 && id < nodes_of_dim dim

(** Hypercube neighbours of [id] (one per dimension). *)
let neighbours ~dim id =
  if not (valid_node ~dim id) then invalid_arg "Router.neighbours";
  List.init dim (fun bit -> id lxor (1 lsl bit))

(** Hamming distance = hop count between two nodes. *)
let distance a b =
  let rec popcount x acc = if x = 0 then acc else popcount (x lsr 1) (acc + (x land 1)) in
  popcount (a lxor b) 0

(** Dimension-ordered (e-cube) route from [src] to [dst]: the sequence of
    intermediate nodes visited, excluding [src], including [dst]. *)
let route ~dim ~src ~dst =
  if not (valid_node ~dim src && valid_node ~dim dst) then invalid_arg "Router.route";
  let rec go cur bit acc =
    if bit >= dim then List.rev acc
    else
      let want = dst land (1 lsl bit) in
      let have = cur land (1 lsl bit) in
      if want = have then go cur (bit + 1) acc
      else
        let nxt = cur lxor (1 lsl bit) in
        go nxt (bit + 1) (nxt :: acc)
  in
  go src 0 []

(** Shortest route from [src] to [dst] using only links [link_ok] accepts,
    or [None] if the healthy sub-cube disconnects the pair.  Breadth-first
    over the hypercube, so the result is minimal in hops over the surviving
    links; like {!route}, the path excludes [src] and includes [dst]. *)
let route_avoiding ~dim ~src ~dst ~link_ok =
  if not (valid_node ~dim src && valid_node ~dim dst) then
    invalid_arg "Router.route_avoiding";
  if src = dst then Some []
  else begin
    let n = nodes_of_dim dim in
    let prev = Array.make n (-1) in
    let seen = Array.make n false in
    seen.(src) <- true;
    let q = Queue.create () in
    Queue.add src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let cur = Queue.pop q in
      List.iter
        (fun nxt ->
          if (not seen.(nxt)) && link_ok cur nxt then begin
            seen.(nxt) <- true;
            prev.(nxt) <- cur;
            if nxt = dst then found := true else Queue.add nxt q
          end)
        (neighbours ~dim cur)
    done;
    if not !found then None
    else begin
      let rec walk node acc =
        if node = src then acc else walk prev.(node) (node :: acc)
      in
      Some (walk dst [])
    end
  end

(** Whether a route (as returned by {!route}: excluding [src]) uses only
    links [link_ok] accepts. *)
let path_ok ~link_ok ~src path =
  let rec go cur = function
    | [] -> true
    | nxt :: rest -> link_ok cur nxt && go nxt rest
  in
  go src path

(** Fault-aware routing: the dimension-ordered route when it is healthy,
    otherwise the shortest adaptive detour over surviving links.  Returns
    [Some (path, detoured)] — [detoured] marks the adaptive fallback — or
    [None] when the healthy sub-cube disconnects [src] from [dst]. *)
let route_fault_aware ~dim ~src ~dst ~link_ok =
  let ecube = route ~dim ~src ~dst in
  if path_ok ~link_ok ~src ecube then Some (ecube, false)
  else
    match route_avoiding ~dim ~src ~dst ~link_ok with
    | Some path -> Some (path, true)
    | None -> None

(** Standard binary-reflected Gray code and its inverse, used to embed rings
    and grids so that grid neighbours are hypercube neighbours. *)
let gray i = i lxor (i lsr 1)

let gray_inverse g =
  let rec go acc g = if g = 0 then acc else go (acc lxor g) (g lsr 1) in
  go 0 g

(** Embed a 1-D chain of [n] ranks into a hypercube: rank [r] lives on node
    [gray r].  Adjacent ranks are then exactly one hop apart. *)
let chain_to_node ~dim rank =
  if rank < 0 || rank >= nodes_of_dim dim then invalid_arg "Router.chain_to_node";
  gray rank

let node_to_chain ~dim node =
  if not (valid_node ~dim node) then invalid_arg "Router.node_to_chain";
  gray_inverse node

module Metrics = Nsc_metrics.Metrics

(* Observability: inter-node traffic.  [router.contention_cycles] is
   incremented by the multi-node machine when messages leaving one source
   serialise on its links; the per-transfer counters accumulate here. *)
let c_transfers =
  Metrics.counter ~name:"router.transfers" ~units:"messages"
    ~desc:"inter-node messages costed by the hyperspace router"

let c_hops =
  Metrics.counter ~name:"router.hops" ~units:"hops"
    ~desc:"hypercube hops traversed, summed over messages"

let c_words =
  Metrics.counter ~name:"router.words" ~units:"words"
    ~desc:"payload words carried between nodes"

let c_contention =
  Metrics.counter ~name:"router.contention_cycles" ~units:"cycles"
    ~desc:"aggregate queueing surplus summed over source nodes (not machine time)"

(** Cycles to move [words] 64-bit words along a route of [hops] hops:
    per-hop latency plus bandwidth-limited transmission (cut-through — the
    payload streams behind the header, so distance adds latency only).
    Pure: books nothing. *)
let transfer_cost (p : Params.t) ~hops ~words =
  if hops = 0 then 0
  else (hops * p.hop_latency) + int_of_float (ceil (float_of_int words /. p.link_words_per_cycle))

(** Book one transfer of [words] words over [hops] hops on the router's
    counters (a no-op for a zero-hop transfer or when tracing is off). *)
let note_transfer ~hops ~words =
  if hops <> 0 && Metrics.tracing () then begin
    Metrics.bump c_transfers 1;
    Metrics.bump c_hops hops;
    Metrics.bump c_words words
  end

(** {!transfer_cost}, booked by {!note_transfer}.  Used directly by the
    fault-aware exchange, whose detours can be longer than the Hamming
    distance. *)
let transfer_cycles_hops (p : Params.t) ~hops ~words =
  note_transfer ~hops ~words;
  transfer_cost p ~hops ~words

(** Cycles to move [words] 64-bit words between [src] and [dst] along the
    minimal (dimension-ordered) route. *)
let transfer_cycles (p : Params.t) ~src ~dst ~words =
  transfer_cycles_hops p ~hops:(distance src dst) ~words
