(** Fused vector kernels: one pipeline instruction lowered once.

    {!compile} turns an instruction's semantics into a kernel in one
    pass: it runs the timing analysis, decides whether the fused body
    applies, orders the units topologically and resolves every operand
    binding to a [(buffer, offset)] pair into a uniform pool of padded
    {!buf} vectors (unboxed [Bigarray.Array1] float64, drawn as one
    working set per body shape from a domain-local pool).  Every opcode
    is resolved {e at compile time} to a native step ({!step}) whose
    element loop runs in C, so the hot path contains no dispatch.  A read
    stream the compile marks aliasable ([body.alias]) is read in place
    from its plane page when its window lies in one page; every other
    read stream is gathered once per instruction with a bulk
    Bigarray-direct strided transfer.  A running [Max] or [Min] that
    nothing else reads is folded to its carry ([body.fold]).  Write
    streams are flushed with one bulk transfer per sink.
    {!Engine.run_kernel} executes kernels block-wise.  Results are
    bit-identical to the reference evaluator {!Engine.run_general}
    (property-tested). *)

(** Padded executable buffer: unboxed float64, C layout (see
    {!Nsc_arch.Memory.vec}). *)
type buf = Nsc_arch.Memory.vec

(** One lowered functional unit: opcode plus [(buffer, offset)] operand
    references.  Operands read [buffer.{base + e + off}], [base] being the
    slot's base in the working set ({!set}); [out] is the absolute slot
    of the unit's output buffer. *)
type kunit = {
  fu : Nsc_arch.Resource.fu_id;
  op : Nsc_arch.Opcode.t;
  out : int;
  a_buf : int;
  a_off : int;
  b_buf : int;
  b_off : int;  (** unary units point [b] at the zero buffer *)
}

(** One compile-time-specialised unit step: [step bufs bases e0 e1]
    applies the unit over elements [e0, e1) with element 0 of slot [i] at
    index [bases.(i)] of [bufs.(i)], in one native call
    ({!Nsc_arch.Native.step}).  Returns [true] when a produced value was
    not finite (the trap pre-scan, fused into the compute pass). *)
type step = buf array -> int array -> int -> int -> bool

(** A read stream: its engine's transfer with the element count
    resolved (a descriptor count of 0 means "the vector length"). *)
type read_stream = { transfer : Nsc_arch.Dma.transfer; count : int }

(** Source feeding a write stream: unit [k]'s values (in topological
    order), a live element-by-element re-read of a DMA stream at write
    time (a direct memory-to-memory route, possibly through a shift/delay
    offset), or zeros. *)
type write_source =
  | W_unit of int
  | W_live of { transfer : Nsc_arch.Dma.transfer; count : int; offset : int }
  | W_zero

type write_stream = { wsrc : write_source; transfer : Nsc_arch.Dma.transfer; count : int }

(** The fused executable body.  Buffer slots are laid out
    [zero :: constants @ streams @ unit outputs]; [static] holds the
    read-only prefix (zeros and constant fills) shared by all executions.
    Every buffer carries [pad] zero elements either side of the [vlen]
    live ones, [pad] bounding every operand offset — out-of-range reads
    land in the padding and stream 0.0, as on the wire.  A stream read in
    place from its plane page has no padding, and needs none: every
    operand reads it at offset 0. *)
type body = {
  vlen : int;
  pad : int;
  blen : int;  (** buffer length: [pad + max vlen 1 + pad] *)
  n_buffers : int;
  static : buf array;  (** slots [0 .. stream_base - 1], prebuilt *)
  stream_base : int;  (** read stream [s] gathers into slot [stream_base + s] *)
  unit_base : int;    (** unit [k] writes slot [unit_base + k] *)
  units : kunit array;  (** topological order *)
  steps : step array;   (** specialised loop of [units.(k)] *)
  val_slot : int array;
      (** slot holding unit [k]'s values: [units.(k).out], except for an
          elided pass-through unit (a [Pass] at offset 0 whose output no
          unit reads) where it is the source slot itself — the copy loop
          is dropped and sinks, [last_values] and the trap rescan read
          the source directly *)
  reads : read_stream array;
  alias : int;
      (** bit [s] set: read stream [s] may be read in place from its
          plane page.  Set at compile time for a plane stream of stride 1
          and [count >= vlen > 0] that every operand reads at offset 0
          and whose window (the [vlen] words from its base) no write
          stream of the instruction overlaps (in-place instructions keep
          snapshot semantics).  At dispatch the stream aliases only when
          that window lies inside one page, and is gathered otherwise. *)
  writes : write_stream array;
  fold : int;
      (** bit [k] set: unit [k] is a folded running extreme — a delay-1
          [Max] or [Min] ({!Nsc_arch.Native.feedback_code}'s case) that no
          other unit reads and no write stream drains.  Its step stores
          only the last element of each block, the carry the next block
          reads ({!Nsc_arch.Native.fold_code}); [last] reads nothing
          else.  The engine runs {!materialise} before the trap rescan
          or the trace reads its other elements, and before a fault's
          latch can corrupt one of its operands. *)
  order_of_sem : int array;
      (** topological position of each unit of [sem.units], in original
          order *)
  fus : Nsc_arch.Resource.fu_id array;
      (** the units of [sem.units], in that order: the units of
          {!Engine.result}'s [last] *)
}

type t = {
  sem : Nsc_diagram.Semantic.t;
  analysis : Nsc_checker.Timing.t;  (** computed exactly once, at compile time *)
  cycles : int;  (** {!Nsc_checker.Timing.estimated_cycles} at the vector length *)
  flops : int;
  honor_timing : bool;
  body : body option;  (** [None]: fall back to the general evaluator *)
  completed : Nsc_arch.Interrupt.event list;
      (** the events of a trap-free, fault-free dispatch: its one
          [Pipeline_complete], built once *)
}

(** Lower an instruction's semantics to a kernel, running
    {!Nsc_checker.Timing.analyse} exactly once.  The fused body applies
    when the operand streams are aligned (or [honor_timing], on by
    default, is off), the diagram has no combinational cycle and
    every shift/delay unit is fed by DMA; other instructions get a kernel
    without a body, which the engine runs on the general evaluator with
    the cached analysis; so does an instruction one of whose operands
    would read a plane word the instruction itself wrote first (the
    general evaluator reads the new value, a fused body the old one; the
    checker rejects such a diagram as a [plane-hazard]).  Raises
    [Invalid_argument] if an operand window
    [[pad + off, pad + off + vlen)] falls outside the buffer length: the
    native steps check no bounds, so this is checked once per compile
    instead.  Also raises it for a body of [2^16] slots or a buffer of
    [2^30] elements, beyond what the pool's shape key packs. *)
val compile :
  Nsc_arch.Params.t -> ?honor_timing:bool -> Nsc_diagram.Semantic.t -> t

(** {2 The buffer pool}

    One working set per body shape (slot count, static-prefix length
    and buffer length) in a domain-local table: an instruction's
    configuration fixes its shape, so a cached kernel replayed across a
    solve draws the same set each dispatch and a warm dispatch allocates
    nothing.  Sets come back {e dirty} — callers must write or zero every
    element they later read (the executor zeroes exactly the regions it
    reads as 0.0: a gathered stream's pads and slack, and the leading
    pad of a unit that reads its own output). *)

(** One working set of [n_buffers] slots.  A dispatch reads slot [i]'s
    element 0 at [bufs.(i).{bases.(i)}]; the executor may point a stream
    slot of [bufs] at a plane page (base: the window's offset) for the
    length of a dispatch.  [own] holds the set's own buffers, and never a
    page; from [stream_base] on, [bufs] holds the same buffers as [own]
    whenever the set is not drawn. *)
type set = { bufs : buf array; bases : int array; own : buf array; shelf : shelf }

(** Where a set goes back to: the free set of its shape in the domain
    that drew it. *)
and shelf

(** A body's set for one execution: the calling domain's set for the
    body's shape with the static prefix blitted in and every base at
    [pad], or a freshly allocated set when that shape has none free. *)
val acquire_slots : body -> set

(** Return a set drawn by {!acquire_slots} to its shelf as the free set
    of the body's shape, pointing each stream slot a dispatch aliased
    back at the set's own buffer.  No lookup: the set knows its shelf. *)
val release_slots : body -> set -> unit

(** Store every element of each folded unit of the body ([fold]) into
    the drawn set, running the element-by-element step its fold replaced
    over the whole vector.  Bit-identical to a dispatch that never
    folded, provided the unit's operands still hold what the dispatch
    computed. *)
val materialise : body -> set -> unit

(** {2 Counters}

    [kernel.compiles], [kernel.cache_hits], [kernel.pool_hits] and
    [kernel.pool_misses] are always-on: process-wide totals that count
    whether or not a metric context is enabled.  Pool accounting: each
    {!acquire_slots} books its [n_buffers - stream_base] buffers as hits
    when the shape's set was free and as misses when it allocated. *)

val compile_count : unit -> int
val cache_hit_count : unit -> int
val pool_hit_count : unit -> int
val pool_miss_count : unit -> int

(** {2 Prepared programs}

    The form {!Sequencer.prepare} makes a program ready to run in, kept
    here so the compile cache can hold it. *)

module Table : Map.S with type key = int

(** One instruction made ready to run: its semantics; for each unit of
    [sem.units] in order, the unit's dense global index — where the
    sequencer captures the unit's last value; and its kernel cell, empty
    until the instruction's first dispatch fills it ({!of_instr}). *)
type instr = {
  sem : Nsc_diagram.Semantic.t;
  capture_at : int array;
  kernel : t option Atomic.t;
}

(** The instruction's kernel: on its first call, compiled by {!compile}
    and stored in the cell; on every later call the stored kernel,
    counted as a [kernel.cache_hits] and allocating nothing.
    Domains racing on an empty cell each compile, and all of them get
    the kernel that filled it first. *)
val of_instr : Nsc_arch.Params.t -> instr -> t

(** A program made ready to run: its instructions by number, decoded
    once, beside the control programme and the machine they were laid
    out for.  One value serves every node and every run, from several
    domains at once; its semantics are physically shared across those
    runs, and so are its kernels, each compiled once per prepared
    program.  Phases of one program ([{ prog with control }]) share
    both. *)
type prepared = {
  table : instr Table.t;
  control : Nsc_diagram.Program.control list;
  params : Nsc_arch.Params.t;
}

(** {2 The compile cache}

    The program table: {!Lru} entries of prepared programs, keyed by
    every input of the builder that made them ({!program_key}).  A
    builder inserts a program only once it has passed the checker, so a
    hit skips building, checking, encoding and decoding, and hands the
    sequencer a program whose kernels its earlier runs compiled: a hit
    dispatches with no compile and no lookup.  Kernels are not cached
    apart from their programs; a program run outside the table (a fresh
    {!Sequencer.run}) compiles each of its instructions once per run.

    Mutex-guarded, so one cache may serve several worker domains at
    once. *)

type cache

val make_cache : ?bound:int -> unit -> cache
(** [bound] caps the resident programs with least-recently-used
    eviction (counted by {!evictions} and the [cache.evictions]
    counter); an evicted program's kernels go with it.  Default:
    unbounded.  Raises [Invalid_argument] when [bound < 1]. *)

val evictions : cache -> int
(** Programs this cache has evicted. *)

(** What a prepared program was built from: the machine it was laid out
    for, and every other input of its builder flattened to ints in an
    order the builder fixes (a float by its bits, a variant by a tag).
    Two keys are equal when their machines and their inputs are. *)
type program_key = { machine : Nsc_arch.Params.t; inputs : int array }

val find_program : cache -> program_key -> prepared option
(** The program resident under this key, refreshing its recency.  The
    table's traffic is not counted: a counter bump here would be one
    more gated site on every solve. *)

val add_program : cache -> program_key -> prepared -> unit
(** Admit a program under its key, evicting the least recently used
    program first when the table is full.  Callers admit only programs
    that passed the checker. *)

(** {2 nscbench compatibility — delete when nscbench moves to [Run.t]} *)

val cached :
  cache -> 'a -> Nsc_arch.Params.t -> ?honor_timing:bool -> Nsc_diagram.Semantic.t -> t
(** A fresh {!compile}; the cache is neither consulted nor filled, and
    the second argument (nscbench's plan cache) is ignored. *)
