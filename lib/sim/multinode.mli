(** The multi-node machine: a hypercube of nodes joined by the hyperspace
    router.

    The paper scopes its environment to single-node internals and quotes the
    machine-level figures (64 nodes, 128 Gbytes, 40 GFLOPS); this module
    provides the machine so those figures can be exercised: per-node
    simulation plus dimension-ordered message transfers whose cycle cost
    follows {!Nsc_arch.Router.transfer_cycles}.  Compute across nodes is
    synchronous-parallel: a step's cycle cost is the maximum over nodes. *)

(** A machine-lifetime pool of worker domains: created on the first
    parallel step, parked on a condition variable between steps, grown
    on demand, and joined by {!shutdown} (or automatically at program
    exit) — so a solve running hundreds of compute steps pays domain
    spawn/join once, not per step. *)
type pool

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
  mutable pool : pool option;   (** persistent worker domains, on demand *)
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

(** Apply [f] to every node, collecting results in node order;
    [domains > 1] fans the calls across the machine's persistent domain
    pool.

    Determinism: nodes are disjoint state (each has its own planes and
    caches), so [f i] reads and writes only node [i]; every result slot
    is written exactly once, by the unique stripe owning index [i]; and
    the caller reads the results only after the pool's fan-in barrier,
    whose mutex hand-off orders all worker writes before the read.
    Scheduling can therefore change the order in which nodes compute,
    but never any node's inputs or outputs — the returned array is
    bit-identical to a sequential run.  The one shared mutable input is
    a fault model the nodes' runs share, whose seeded draw stream is
    consumed in scheduling order: keep [domains = 1] when a reproducible
    fault schedule matters. *)
val parallel_iter : ?domains:int -> t -> (int -> Node.t -> 'a) -> 'a array

(** Apply [f] to every index in [0, n), fanned across a process-wide
    persistent domain pool that is created on first use, reused by later
    calls, and drained at program exit (the machine-independent sibling
    of {!parallel_iter}).  [f i] must touch only state owned by index
    [i]; one caller at a time — nested or concurrent calls must keep
    [domains = 1] (the sequential default). *)
val parallel_for : ?domains:int -> n:int -> (int -> unit) -> unit

(** Join and release the machine's pooled worker domains (no-op if no
    parallel step ran).  Safe to call repeatedly; a later parallel step
    transparently recreates the pool.  Pools still live at program exit
    are shut down automatically. *)
val shutdown : t -> unit

(** One synchronous compute step: [f] yields per-node (cycles, flops);
    the machine advances by the slowest node.  [domains] fans per-node
    work across OCaml domains with bit-identical results. *)
val compute_step :
  ?domains:int -> t -> (int -> Node.t -> int * int) -> unit

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

(** An exchange posted by {!exchange_start} and awaiting
    {!exchange_finish}. *)
type in_flight

(** Post a communication phase asynchronously: messages (each carrying
    [(payload, dst_plane, dst_base)]) are coalesced per (src, dst) pair
    into single routed transfers, costed through the recovery ladder —
    the seeded fault draws, and any retry-exhaustion link kill, are
    consumed here in deterministic message order — and delivered
    payloads land in the destination planes immediately (the simulator
    moves data eagerly so an overlapped compute step can run; only the
    machine-time charge and the recovery-ledger notes wait for
    {!exchange_finish}).  Undeliverable payloads never land. *)
val exchange_start : t -> (message * (float array * int * int)) list -> in_flight

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
    overlap credit, so the synchronous and asynchronous paths coalesce,
    cost, draw and deliver identically.  Messages whose recovery ladder
    fails are not delivered (booked as unrecovered on the fault
    ledger). *)
val exchange : t -> (message * (float array * int * int)) list -> unit

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
