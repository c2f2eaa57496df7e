(** Native element loops and contiguous transfers over {!Memory.vec}
    buffers.

    The fused kernel's unit steps and the plane transfers run here, in C.
    Every entry point is a [[@@noalloc]] external with untagged integer
    arguments, and none checks a bound: each caller establishes its ranges
    first. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** The step code of an opcode, resolved once per kernel compile. *)
val op_code : Opcode.t -> int

(** The step code of a store-free non-finite scan of operand [a]: the step
    of an elided pass-through unit whose source is a gathered stream.
    [dst] and [b] are ignored. *)
val scan : int

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
