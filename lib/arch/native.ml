(** Native element loops and contiguous transfers over {!Memory.vec}
    buffers, implemented in [native_stubs.c].

    Every external here is [[@@noalloc]] with untagged integer arguments:
    a call costs a C function call and nothing more, plus one call through
    the loader's ifunc for a [step] of 256 elements or more.  None of them
    checks a bound, so every caller establishes its ranges first. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The step codes of native_stubs.c, in the order of its enum. *)
let op_code : Opcode.t -> int = function
  | Opcode.Pass -> 0
  | Opcode.Fadd -> 1
  | Opcode.Fsub -> 2
  | Opcode.Fmul -> 3
  | Opcode.Fdiv -> 4
  | Opcode.Fneg -> 5
  | Opcode.Fabs -> 6
  | Opcode.Fcmp Opcode.Lt -> 7
  | Opcode.Fcmp Opcode.Le -> 8
  | Opcode.Fcmp Opcode.Eq -> 9
  | Opcode.Fcmp Opcode.Ne -> 10
  | Opcode.Fcmp Opcode.Ge -> 11
  | Opcode.Fcmp Opcode.Gt -> 12
  | Opcode.Iadd -> 13
  | Opcode.Isub -> 14
  | Opcode.Imul -> 15
  | Opcode.Iand -> 16
  | Opcode.Ior -> 17
  | Opcode.Ixor -> 18
  | Opcode.Ishl -> 19
  | Opcode.Ishr -> 20
  | Opcode.Max -> 21
  | Opcode.Min -> 22

let scan = 23

(* The delay-1 feedback steps: codes 24-32 carry self as [a] (the float
   opcodes in op_code's order), 33-38 self as [b] (the binary ones).  A
   unary opcode ignores [b], so self as [b] is its plain step. *)
let feedback_code (op : Opcode.t) ~self_is_a =
  match (op, self_is_a) with
  | Opcode.Pass, true -> 24
  | Opcode.Fadd, true -> 25
  | Opcode.Fsub, true -> 26
  | Opcode.Fmul, true -> 27
  | Opcode.Fdiv, true -> 28
  | Opcode.Fneg, true -> 29
  | Opcode.Fabs, true -> 30
  | Opcode.Max, true -> 31
  | Opcode.Min, true -> 32
  | Opcode.Fadd, false -> 33
  | Opcode.Fsub, false -> 34
  | Opcode.Fmul, false -> 35
  | Opcode.Fdiv, false -> 36
  | Opcode.Max, false -> 37
  | Opcode.Min, false -> 38
  | _ -> op_code op

(* The folded running Max and Min: codes 39-42, self as [a] then as [b]. *)
let fold_code (op : Opcode.t) ~self_is_a =
  match (op, self_is_a) with
  | Opcode.Max, true -> Some 39
  | Opcode.Min, true -> Some 40
  | Opcode.Max, false -> Some 41
  | Opcode.Min, false -> Some 42
  | _ -> None

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

external unsafe_blit :
  vec -> (int[@untagged]) -> vec -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nsc_native_blit_byte" "nsc_native_blit"
[@@noalloc]

external unsafe_zero : vec -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "nsc_native_zero_byte" "nsc_native_zero"
[@@noalloc]
