(** Fused vector kernels: the second compilation stage.

    A {!Plan.t} resolves everything static about an instruction but still
    interprets operands per element.  Lowering the plan once more yields a
    kernel: operands pre-resolved to [(buffer, offset)] pairs into a
    uniform pool of padded {!buf} vectors (unboxed [Bigarray.Array1]
    float64, drawn from a domain-local free-list pool), every opcode
    specialised {e at compile time} into a closed loop closure ({!step})
    so the hot path contains no dispatch at all, read streams gathered
    once per instruction with bulk Bigarray-direct strided transfers and
    write streams flushed with one bulk transfer per sink.
    {!Engine.run_kernel} executes kernels block-wise.  Results are
    bit-identical to the reference evaluator {!Engine.run_general}
    (property-tested). *)

(** Padded executable buffer: unboxed float64, C layout (see
    {!Nsc_arch.Memory.vec}). *)
type buf = Nsc_arch.Memory.vec

(** One lowered functional unit: opcode plus [(buffer, offset)] operand
    references.  Operands read [buffer.{base + e + off}]; [out] is the
    absolute slot of the unit's output buffer. *)
type kunit = {
  fu : Nsc_arch.Resource.fu_id;
  op : Nsc_arch.Opcode.t;
  out : int;
  a_buf : int;
  a_off : int;
  b_buf : int;
  b_off : int;  (** unary units point [b] at the zero buffer *)
}

(** One compile-time-specialised unit loop: [step bufs base e0 e1] applies
    the unit over elements [e0, e1) with element 0 of every buffer at
    index [base].  Returns 0.0 when every produced value was finite and
    NaN otherwise (the trap pre-scan, fused into the compute pass). *)
type step = buf array -> int -> int -> int -> float

(** The fused executable body.  Buffer slots are laid out
    [zero :: constants @ streams @ unit outputs]; [static] holds the
    read-only prefix (zeros and constant fills) shared by all executions.
    Every buffer carries [pad] zero elements either side of the [vlen]
    live ones, [pad] bounding every operand offset — out-of-range reads
    land in the padding and stream 0.0, as on the wire. *)
type body = {
  vlen : int;
  pad : int;
  blen : int;  (** buffer length: [pad + max vlen 1 + pad] *)
  n_buffers : int;
  static : buf array;  (** slots [0 .. stream_base - 1], prebuilt *)
  stream_base : int;  (** read stream [s] gathers into slot [stream_base + s] *)
  unit_base : int;    (** plan unit [k] writes slot [unit_base + k] *)
  units : kunit array;  (** topological order, as in the plan *)
  steps : step array;   (** specialised loop of [units.(k)] *)
  val_slot : int array;
      (** slot holding unit [k]'s values: [units.(k).out], except for an
          elided pass-through unit (a [Pass] at offset 0 whose output no
          unit reads) where it is the source slot itself — the copy loop
          is dropped and sinks, [last_values] and the trap rescan read
          the source directly *)
  full_zero : bool array;
      (** [full_zero.(k)]: unit [k] reads its own output at a positive
          (look-ahead) offset, so its whole buffer — not just the pads —
          is scrubbed before the compute pass *)
  reads : Plan.read_stream array;
  writes : Plan.write_stream array;
  order_of_sem : int array;
      (** plan position of each unit of [sem.units], in original order *)
}

type t = {
  plan : Plan.t;  (** carries the semantics, timing analysis and cycle cost *)
  body : body option;  (** [None]: fall back to the general evaluator *)
}

(** Lower a compiled plan to a fused kernel. *)
val compile : Plan.t -> t

(** {2 The buffer pool}

    Domain-local free lists keyed by buffer length: a cached kernel
    replayed across a solve allocates nothing in its hot path.  Buffers
    come back {e dirty} — callers must write or zero every element they
    later read (the executor zeroes exactly the pad and slack regions). *)

(** Draw a buffer of [len] elements from the calling domain's pool,
    allocating only when the free list for that length is empty. *)
val acquire : int -> buf

(** Return a buffer for reuse by a later {!acquire} of the same length. *)
val release : buf -> unit

(** Fill [dst.(from) ..] with buffers of exactly [len] elements through a
    single free-list lookup — the bulk form of {!acquire} the executor
    uses, since a kernel draws all its working buffers at one length. *)
val acquire_into : int -> buf array -> from:int -> unit

(** Return [src.(from) ..] (all of length [len]) to the pool: the bulk
    form of {!release}. *)
val release_from : buf array -> from:int -> int -> unit

(** {2 Counters}

    [kernel.compiles], [kernel.cache_hits], [kernel.pool_hits] and
    [kernel.pool_misses] are always-on: process-wide totals that count
    whether or not a metric context is enabled.  Pool accounting: an
    acquire served from a free list is a hit, a fresh allocation a miss. *)

val compile_count : unit -> int
val cache_hit_count : unit -> int
val pool_hit_count : unit -> int
val pool_miss_count : unit -> int

(** {2 The compile cache}

    The one cache of compiled instructions: kernels, each carrying its
    plan, keyed by (instruction index, vector length).  A hit is
    validated against the incoming semantics (physical equality, then
    structural) and [honor_timing], so the cache is safe across runs that
    re-decode the same microcode and across different programs sharing
    it, as the serve daemon does.  One {!Lru} cache: mutex-guarded, so it
    may serve several worker domains at once, and a hit allocates
    nothing. *)

type cache = t Lru.t

val make_cache : ?bound:int -> unit -> cache
(** [bound] caps resident entries with least-recently-used eviction
    (counted by {!Lru.evictions} and the [cache.evictions] counter).
    Default: unbounded.  Raises [Invalid_argument] when [bound < 1]. *)

val find_or_compile :
  cache -> Nsc_arch.Params.t -> ?honor_timing:bool -> Nsc_diagram.Semantic.t -> t
(** The cached kernel for these semantics, or a fresh {!Plan.compile}
    lowered by {!compile} and admitted to the cache. *)

(** {2 nscbench compatibility — delete when nscbench moves to [Run.t]} *)

val cached :
  cache ->
  Plan.cache ->
  Nsc_arch.Params.t -> ?honor_timing:bool -> Nsc_diagram.Semantic.t -> t
(** {!find_or_compile}; the plan cache is ignored. *)
