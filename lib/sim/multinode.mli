(** The multi-node machine: a hypercube of nodes joined by the hyperspace
    router.

    The paper scopes its environment to single-node internals and quotes the
    machine-level figures (64 nodes, 128 Gbytes, 40 GFLOPS); this module
    provides the machine so those figures can be exercised: per-node
    simulation plus dimension-ordered message transfers whose cycle cost
    follows {!Nsc_arch.Router.transfer_cycles}.  Compute across nodes is
    synchronous-parallel: a step's cycle cost is the maximum over nodes. *)

(** The machine: per-node state plus whole-machine accounting. *)
type t = {
  params : Nsc_arch.Params.t;
  dim : int;  (** hypercube dimension; the machine has [2^dim] nodes *)
  nodes : Node.t array;
  mutable cycles : int;         (** machine time elapsed, in cycles *)
  mutable flops : int;          (** total useful flops across nodes *)
  mutable comm_cycles : int;    (** portion of [cycles] spent communicating *)
  mutable overlap_cycles : int; (** exchange cycles hidden behind compute *)
  mutable contention_cycles : int;  (** serialisation surplus on shared sources *)
  mutable words_moved : int;    (** payload words exchanged between nodes *)
  fault : Nsc_fault.Fault.t option;
      (** the run's fault model: every message runs the recovery ladder
          against it and books its ledger ([None]: a clean machine) *)
}

(** A hypercube of fresh nodes (default dimension from the parameters),
    costing its messages under [fault] when given.  Raises
    [Invalid_argument] on a dimension outside 0..10 (1..1024 nodes). *)
val create : ?dim:int -> ?fault:Nsc_fault.Fault.t -> Nsc_arch.Params.t -> t

(** Number of nodes in the machine ([2^dim]). *)
val n_nodes : t -> int

(** The node with identifier [i]; raises on an out-of-range id. *)
val node : t -> int -> Node.t

(** One synchronous compute step: [f] yields per-node (cycles, flops)
    and the machine advances by the slowest node.  Nodes run in node
    order on the calling domain, so a fault model the nodes' runs share
    is drawn in node order and a seeded schedule repeats exactly. *)
val compute_step : t -> (int -> Node.t -> int * int) -> unit

(** One message of a communication phase. *)
type message = {
  src : Nsc_arch.Router.node_id;
  dst : Nsc_arch.Router.node_id;
  words : int;  (** payload size in 64-bit words *)
}

(** Cycle cost of one message and whether it is delivered.  Clean machine:
    the dimension-ordered transfer cost, delivered.  Under the machine's
    {!Nsc_fault.Fault} model the message runs the recovery ladder (detour
    around dead links, retry transient glitches with backoff, escalate
    retry exhaustion to a dead link plus detour); undelivered only when
    the surviving links disconnect the pair, booked as unrecovered. *)
val message_cost : t -> message -> int * bool

(** One message with its addresses: [msg.words] words from plane
    [src_plane] at [src_base] on node [msg.src] to plane [dst_plane] at
    [dst_base] on node [msg.dst]. *)
type route = {
  msg : message;
  src_plane : int;
  src_base : int;
  dst_plane : int;
  dst_base : int;
}

(** A store-to-store copy of [count] consecutive words. *)
type copy = {
  from_store : Nsc_arch.Memory.store;
  from_base : int;
  to_store : Nsc_arch.Memory.store;
  to_base : int;
  count : int;
}

(** Perform a copy ({!Nsc_arch.Memory.copy_words}). *)
val copy : copy -> unit

(** A communication phase compiled for one machine by {!plan}, to be
    exchanged any number of times. *)
type plan

(** Compile a communication phase once.  Messages are coalesced per
    (src, dst) pair, in first-appearance order, into single routed
    transfers of the pair's summed words (amortising the per-message hop
    latency); each message becomes a store-to-store {!copy} between the
    two nodes' planes.  On a clean machine the phase cost and its
    contention are computed here, once.  Raises [Invalid_argument] on a
    node or plane outside the machine (address ranges are checked by each
    copy). *)
val plan : t -> route list -> plan

(** An exchange posted by {!exchange_start} and awaiting
    {!exchange_finish}: its plan, which has at most one exchange in
    flight. *)
type in_flight

(** Post a compiled communication phase asynchronously.  Clean machine:
    the phase costs what {!plan} computed (and, when tracing, books the
    same [router.*] counters as costing each transfer would).  Under the
    machine's {!Nsc_fault.Fault} model every transfer runs the recovery
    ladder, in plan order, on every exchange — the seeded fault draws,
    and any retry-exhaustion link kill, are consumed here.  Delivered
    messages are copied into the destination planes immediately, in plan
    order (the simulator moves data eagerly so an overlapped compute
    step can run; only the machine-time charge and the recovery-ledger
    notes wait for {!exchange_finish}); undeliverable ones never land.
    A copy reads its source when it runs, so a plan whose destinations
    overlap a later message's source delivers the new words.  Allocates
    nothing on a clean machine.  Raises [Invalid_argument] on a plan of
    another machine or one already in flight. *)
val exchange_start : t -> plan -> in_flight

(** Complete a posted exchange: resolve the deferred recovery-ledger
    bookkeeping (retries, detours, unrecovered messages) and advance
    machine time by the phase cost minus [overlapped_cycles] of compute
    the caller ran while the messages were in flight — a step costs
    [max (compute, comm)], never [compute + comm].  The hidden portion
    accumulates on [overlap_cycles] (and the [comm.overlap_cycles]
    counter); the serialisation surplus on [contention_cycles] and the
    [router.contention_cycles] counter.  Raises [Invalid_argument] if
    the handle was already completed. *)
val exchange_finish : ?overlapped_cycles:int -> t -> in_flight -> unit

(** Execute a communication phase synchronously — exactly
    {!exchange_start} followed by an immediate {!exchange_finish} with no
    overlap credit, so the synchronous and asynchronous paths cost, draw
    and deliver identically.  Messages whose recovery ladder fails are
    not delivered (booked as unrecovered on the fault ledger). *)
val exchange : t -> plan -> unit

(** Aggregate sustained GFLOPS of the machine so far (0.0 at zero
    cycles — never a division by zero). *)
val gflops : t -> float

(** Fraction of total exchange cycles hidden behind overlapped compute:
    [overlap_cycles / (comm_cycles + overlap_cycles)], 0.0 when nothing
    has been exchanged. *)
val overlap_ratio : t -> float

(** Zero the machine-level accumulators (cycles, flops, communication,
    overlap and contention cycles, words moved); node storage is
    untouched. *)
val reset_counters : t -> unit
