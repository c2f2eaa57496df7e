(** Native element loops and contiguous transfers over {!Memory.vec}
    buffers.

    The fused kernel's unit steps and the plane transfers run here, in C.
    Every entry point is a [[@@noalloc]] external with untagged integer
    arguments, and none checks a bound: each caller establishes its ranges
    first.  A [step] of 256 elements or more runs loops built once per
    target (AVX2 and the baseline), of which the loader picks one for the
    CPU when the program starts; a shorter one runs the baseline loops on
    every CPU. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** The step code of an opcode, resolved once per kernel compile. *)
val op_code : Opcode.t -> int

(** The step code of a store-free non-finite scan of operand [a]: the step
    of an elided pass-through unit whose source is a gathered stream.
    [dst] and [b] are ignored. *)
val scan : int

(** The step code of a unit running float opcode [op] whose operand [a]
    ([self_is_a]) or [b] is its own output one element back, and whose
    other operand is not its own output.  The step carries the running
    value in a register instead of reloading the element it just stored;
    a running [Max] ([Min]) stores it unchanged over any block of 8
    elements whose other operand is strictly below (above) it.  Results
    are bit-identical to [op_code op]'s.  For the other opcodes, and for
    a unary one with self as [b] (which it ignores), this is
    [op_code op]. *)
val feedback_code : Opcode.t -> self_is_a:bool -> int

(** The step code of a running [Max] or [Min] ([feedback_code]'s case)
    whose elements nothing reads but its own next element: over a range
    whose carried value and other operand are all finite it stores only
    the range's last element, the running extreme, which is bit-identical
    to [feedback_code]'s; otherwise it runs [feedback_code]'s step over
    the range, which stores every element.  Either way it returns what
    that step returns.  [None] for every other opcode. *)
val fold_code : Opcode.t -> self_is_a:bool -> int option

(** [step op dst di a ai b bi n] sets [dst.{di + i}] to [op a.{ai + i}
    b.{bi + i}] for [i] in [0, n), in increasing [i], exactly as
    [Fu_exec.apply] computes each element ([b] is ignored by unary
    opcodes).  [dst] may be [a] or [b] itself, read a few elements back
    (a self-feedback unit).  Returns [true] when a produced value is not
    finite; compares and integer opcodes produce finite values only and
    always return [false].  Every range must lie inside its buffer. *)
external step :
  (int[@untagged]) ->
  vec ->
  (int[@untagged]) ->
  vec ->
  (int[@untagged]) ->
  vec ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  bool = "nsc_native_step_byte" "nsc_native_step"
[@@noalloc]

(** [step] through the baseline loops at every length: what every CPU
    runs below 256 elements, and a CPU without AVX2 at any length.  For
    tests only, so that one host checks both variants; the library never
    calls it. *)
external baseline_step :
  (int[@untagged]) ->
  vec ->
  (int[@untagged]) ->
  vec ->
  (int[@untagged]) ->
  vec ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  bool = "nsc_native_step_baseline_byte" "nsc_native_step_baseline"
[@@noalloc]

(** [unsafe_blit src spos dst dpos n] copies [src.{spos .. spos + n - 1}]
    into [dst] from [dpos] ([memmove]: the ranges may overlap).  No bounds
    check. *)
external unsafe_blit :
  vec -> (int[@untagged]) -> vec -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nsc_native_blit_byte" "nsc_native_blit"
[@@noalloc]

(** [unsafe_zero dst pos n] stores [+0.0] into [dst.{pos .. pos + n - 1}].
    No bounds check. *)
external unsafe_zero : vec -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nsc_native_zero_byte" "nsc_native_zero"
[@@noalloc]
