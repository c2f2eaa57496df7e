(* The native steps of the fused kernel, element by element, against the
   reference evaluator's own per-element semantics ([Fu_exec.apply] and
   [Fu_exec.trapped]).  Values are compared by bit pattern, NaN payloads
   included: both sides run the same IEEE operations.  The edge values
   cover signed zeros, infinities, NaNs of both signs, subnormals, the
   integer view's range ends (+-2^63 and beyond, NaN) and shift counts of
   64 and more.  Every check runs through each variant of the loops the
   host can execute: [Native.step] (the AVX2 loops from 256 elements on a
   CPU with AVX2) and [Native.baseline_step] (the baseline loops at every
   length). *)

open Nsc_arch
open Util

module A1 = Bigarray.Array1
module Fu_exec = Nsc_sim.Fu_exec

let two63 = Float.ldexp 1.0 63

let edge_values =
  [ 0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
    Float.min_float; -.Float.min_float; 4.9e-324; -4.9e-324;
    Float.pred Float.min_float; Float.max_float; -.Float.max_float;
    1.0; -1.5; 0.5; 3.0; two63; -.two63; Float.pred two63; Float.ldexp 1.0 62;
    1e19; -1e19; 64.0; 65.0; 127.0; -1.0 ]

let vec_of (xs : float array) =
  let v = A1.create Bigarray.float64 Bigarray.c_layout (Array.length xs) in
  Array.iteri (fun i x -> A1.set v i x) xs;
  v

let fill n x = vec_of (Array.make n x)

(* every ordered pair of edge values: 27 x 27 = 729 elements, the n=9
   grid's vector length *)
let pairs_a, pairs_b =
  let ev = Array.of_list edge_values in
  let n = Array.length ev in
  (Array.init (n * n) (fun i -> ev.(i / n)), Array.init (n * n) (fun i -> ev.(i mod n)))

let bits = Int64.bits_of_float

let same_bits msg expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: expected %h (%Lx), got %h (%Lx)" msg expected (bits expected)
      actual (bits actual)

let traps op a b v = Fu_exec.trapped op a b v <> None
let canary = 42.0

let variants = [ ("dispatched", Native.step); ("baseline", Native.baseline_step) ]

let each_variant check = List.iter (fun (name, step) -> check name step) variants

(* Run [op] over [n] elements of the pair vectors starting at element
   [from], into a destination at offset [at] prefilled with a canary, and
   check every stored element, the untouched margins and the returned
   flag against the reference. *)
let check_range (variant, step) op ~from ~at n =
  let name = variant ^ " " ^ Opcode.mnemonic op in
  let a = vec_of pairs_a and b = vec_of pairs_b in
  let dst = fill (at + n + 3) canary in
  let flag = step (Native.op_code op) dst at a from b from n in
  let trapped = ref false in
  for i = 0 to n - 1 do
    let x = pairs_a.(from + i) and y = pairs_b.(from + i) in
    let expected = Fu_exec.apply op x y in
    same_bits (Printf.sprintf "%s %h %h" name x y) expected (A1.get dst (at + i));
    if traps op x y expected then trapped := true
  done;
  for i = 0 to at - 1 do
    same_bits (name ^ " leading margin") canary (A1.get dst i)
  done;
  for i = at + n to A1.dim dst - 1 do
    same_bits (name ^ " trailing margin") canary (A1.get dst i)
  done;
  check_bool (Printf.sprintf "%s flag over %d elements" name n) !trapped flag

let every_opcode_every_length () =
  each_variant @@ fun variant step ->
  List.iter
    (fun op ->
      List.iter
        (fun (from, at, n) -> check_range (variant, step) op ~from ~at n)
        [ (0, 0, 0); (100, 2, 0); (4, 0, 1); (28, 1, 2); (57, 3, 3); (0, 0, 729);
          (0, 1, 729); (300, 2, 429) ])
    Opcode.all

let flag_matches_nonfinite () =
  (* the flag is exactly "some stored value is not finite" for the float
     opcodes, and never raised by compares or integer opcodes *)
  each_variant @@ fun variant step ->
  List.iter
    (fun op ->
      let a = vec_of pairs_a and b = vec_of pairs_b in
      let n = Array.length pairs_a in
      let dst = fill n 0.0 in
      let flag = step (Native.op_code op) dst 0 a 0 b 0 n in
      let nonfinite = ref false in
      for i = 0 to n - 1 do
        if not (Float.is_finite (A1.get dst i)) then nonfinite := true
      done;
      check_bool (variant ^ " " ^ Opcode.mnemonic op ^ " flag") !nonfinite flag)
    Opcode.all

(* Self-feedback: the destination is also an operand, read [k] elements
   back, so each element depends on one the same call stored.  The
   reference walks the elements in order. *)
let self_feedback () =
  each_variant @@ fun variant step ->
  let n = 729 in
  (* distinct finite history, and one NaN late in the other operand *)
  let seed = Array.init (n + 3) (fun i -> (0.75 *. float_of_int i) -. 3.0) in
  let other =
    Array.init n (fun i -> if i = 600 then Float.nan else (0.25 *. float_of_int (i mod 7)) -. 0.5)
  in
  List.iter
    (fun op ->
      List.iter
        (fun k ->
          List.iter
            (fun self_is_a ->
              let pad = 3 in
              let d = vec_of seed and b = vec_of other in
              let flag =
                if self_is_a then step (Native.op_code op) d pad d (pad - k) b 0 n
                else step (Native.op_code op) d pad b 0 d (pad - k) n
              in
              let r = Array.copy seed and trapped = ref false in
              for i = 0 to n - 1 do
                let s = r.(pad + i - k) and o = other.(i) in
                let x, y = if self_is_a then (s, o) else (o, s) in
                r.(pad + i) <- Fu_exec.apply op x y;
                if traps op x y r.(pad + i) then trapped := true
              done;
              let what =
                Printf.sprintf "%s %s, self on %s at -%d" variant (Opcode.mnemonic op)
                  (if self_is_a then "a" else "b") k
              in
              Array.iteri (fun i v -> same_bits (Printf.sprintf "%s [%d]" what i) v (A1.get d i)) r;
              check_bool (what ^ " flag") !trapped flag)
            [ true; false ])
        [ 1; 2; 3 ])
    Opcode.all

let scan_reads_only () =
  each_variant @@ fun variant step ->
  List.iter
    (fun (from, n) ->
      let a = vec_of pairs_a in
      let flag = step Native.scan a from a from a from n in
      let nonfinite = ref false in
      for i = from to from + n - 1 do
        if not (Float.is_finite pairs_a.(i)) then nonfinite := true
      done;
      check_bool (Printf.sprintf "%s scan of %d from %d" variant n from) !nonfinite flag;
      Array.iteri (fun i x -> same_bits "scan stores nothing" x (A1.get a i)) pairs_a)
    [ (0, 0); (0, 1); (0, 2); (0, 3); (0, 729); (27 * 7, 27); (27 * 2, 27) ]

(* The delay-1 feedback steps ([Native.feedback_code]), which carry the
   unit's running value in a register.  The self operand is the
   destination one element back; the other operand is its own buffer.
   NaNs with distinct payloads of both signs, one of them signaling, make
   a step that returns the wrong NaN operand, or quiets one it should
   not, fail the bit compare. *)
let float_opcodes =
  Opcode.[ Pass; Fadd; Fsub; Fmul; Fdiv; Fneg; Fabs; Max; Min ]

let nan_pos = Int64.float_of_bits 0x7FF8_0000_0000_0BADL
let nan_neg = Int64.float_of_bits 0xFFF8_0000_0000_0F00L
let nan_signaling = Int64.float_of_bits 0x7FF0_0000_0000_0ACEL

let carried_starts =
  [ 0.0; -0.0; 1.0; -1.5; Float.infinity; Float.neg_infinity; nan_pos; nan_neg; nan_signaling ]

(* Other-operand sequences of length [n]: the edge values in a stride
   that mixes them; a running extreme held over long runs strictly below
   (or above) it, broken by ties, signed zeros, infinities and payload
   NaNs; and the same with a new extreme every 9 elements. *)
let other_inputs n =
  let ev = Array.of_list (edge_values @ [ nan_pos; nan_neg; nan_signaling ]) in
  let m = Array.length ev in
  let mixed = Array.init n (fun i -> ev.((i * 7) mod m)) in
  let held i =
    match i mod 97 with
    | 13 -> 2.0 (* a tie with the held extreme *)
    | 29 -> 0.0
    | 30 -> -0.0
    | 41 -> Float.infinity
    | 55 -> Float.neg_infinity
    | 70 -> nan_pos
    | 83 -> nan_neg
    | 90 -> nan_signaling
    | k ->
        if i < 40 then -2.0 +. (0.01 *. float_of_int k)
        else -.(0.5 +. (0.25 *. float_of_int (k mod 5)))
  in
  let held_max = Array.init n (fun i -> if i = 0 then 2.0 else held i) in
  let held_min = Array.map (fun x -> if x <> x then x else -.x) held_max in
  let rising =
    Array.init n (fun i ->
        if i mod 9 = 4 then float_of_int i
        else if i mod 9 = 7 then float_of_int (i - 3)
        else -.float_of_int i)
  in
  (* from a -0.0 start, a running Max first meets +0.0 in the second
     block of 8, where only the order of the signed zeros moves it *)
  let zeros =
    Array.init n (fun i ->
        if i mod 11 = 10 then 0.0 else if i mod 3 = 0 then -0.0 else -.float_of_int (1 + (i mod 4)))
  in
  [ ("mixed", mixed); ("held max", held_max); ("held min", held_min); ("rising", rising);
    ("signed zeros below", zeros); ("signed zeros above", Array.map Float.neg zeros) ]

let check_carried (variant, step) op ~self_is_a ~start ~input:(what, other) =
  let n = Array.length other in
  let pad = 2 in
  let code = Native.feedback_code op ~self_is_a in
  let d = fill (pad + n + 3) canary in
  A1.set d (pad - 1) start;
  let o = vec_of other in
  let flag =
    if self_is_a then step code d pad d (pad - 1) o 0 n else step code d pad o 0 d (pad - 1) n
  in
  let r = Array.make (pad + n + 3) canary and trapped = ref false in
  r.(pad - 1) <- start;
  for i = 0 to n - 1 do
    let s = r.(pad + i - 1) and y = other.(i) in
    let x, y = if self_is_a then (s, y) else (y, s) in
    r.(pad + i) <- Fu_exec.apply op x y;
    if traps op x y r.(pad + i) then trapped := true
  done;
  let name =
    Printf.sprintf "%s %s, self on %s from %h, %s, %d elements" variant (Opcode.mnemonic op)
      (if self_is_a then "a" else "b") start what n
  in
  Array.iteri (fun i v -> same_bits (Printf.sprintf "%s [%d]" name i) v (A1.get d i)) r;
  check_bool (name ^ " flag") !trapped flag

let delay1_feedback () =
  List.iter
    (fun op ->
      check_bool (Opcode.mnemonic op ^ " has a carried step with self on a") true
        (Native.feedback_code op ~self_is_a:true <> Native.op_code op);
      check_bool (Opcode.mnemonic op ^ " has a carried step with self on b") (Opcode.arity op = 2)
        (Native.feedback_code op ~self_is_a:false <> Native.op_code op))
    float_opcodes;
  List.iter
    (fun op ->
      check_int (Opcode.mnemonic op ^ " keeps its plain step") (Native.op_code op)
        (Native.feedback_code op ~self_is_a:true))
    (List.filter (fun op -> not (List.mem op float_opcodes)) Opcode.all);
  each_variant @@ fun variant step ->
  List.iter
    (fun n ->
      List.iter
        (fun input ->
          List.iter
            (fun op ->
              List.iter
                (fun self_is_a ->
                  List.iter
                    (fun start -> check_carried (variant, step) op ~self_is_a ~start ~input)
                    carried_starts)
                [ true; false ])
            float_opcodes)
        (other_inputs n))
    [ 0; 1; 2; 3; 7; 8; 9; 16; 17; 256; 258; 259; 263; 729 ]

(* Max and Min decide by masks on the bit patterns, so the baseline
   loops vectorize too: every ordered pair of signed zeros, infinities,
   subnormals and NaNs with distinct payloads of both signs (one
   signaling) against Stdlib's [Float.max] and [Float.min] themselves,
   starting at every offset up to 3 so each pair lands in the vector
   body, its epilogue and the scalar remainder. *)
let max_min_special_cases () =
  let sv =
    [| 0.0; -0.0; 1.0; -1.0; Float.infinity; Float.neg_infinity; nan_pos; nan_neg;
       nan_signaling; 4.9e-324; -4.9e-324 |]
  in
  let m = Array.length sv in
  let xs = Array.init (m * m) (fun i -> sv.(i / m))
  and ys = Array.init (m * m) (fun i -> sv.(i mod m)) in
  each_variant @@ fun variant step ->
  List.iter
    (fun (op, f) ->
      for from = 0 to 3 do
        let n = (m * m) - from in
        let dst = fill n canary in
        ignore (step (Native.op_code op) dst 0 (vec_of xs) from (vec_of ys) from n);
        for i = 0 to n - 1 do
          let x = xs.(from + i) and y = ys.(from + i) in
          same_bits
            (Printf.sprintf "%s %s %h %h from %d" variant (Opcode.mnemonic op) x y from)
            (f x y) (A1.get dst i)
        done
      done)
    [ (Opcode.Max, Float.max); (Opcode.Min, Float.min) ]

(* From 256 elements up, [Native.step] runs the AVX2 loops on a CPU that
   has AVX2: every tail they can leave after 32-byte vectors (16-byte
   epilogue, scalar remainder) at every source and destination
   alignment. *)
let wide_tails () =
  each_variant @@ fun variant step ->
  List.iter
    (fun op ->
      List.iter
        (fun (from, at, n) -> check_range (variant, step) op ~from ~at n)
        [ (0, 0, 256); (1, 0, 257); (2, 1, 258); (3, 2, 259); (5, 3, 262); (7, 1, 263) ])
    Opcode.all

let transfers () =
  let src = vec_of (Array.init 16 float_of_int) in
  Native.unsafe_blit src 2 src 5 6;
  Array.iteri
    (fun i x -> same_bits (Printf.sprintf "overlapping blit [%d]" i) x (A1.get src i))
    [| 0.; 1.; 2.; 3.; 4.; 2.; 3.; 4.; 5.; 6.; 7.; 11.; 12.; 13.; 14.; 15. |];
  let z = fill 8 (-0.0) in
  Native.unsafe_zero z 2 4;
  Native.unsafe_zero z 0 0;
  Array.iteri
    (fun i x -> same_bits (Printf.sprintf "zero [%d]" i) x (A1.get z i))
    [| -0.; -0.; 0.; 0.; 0.; 0.; -0.; -0. |]

let suite =
  [
    ( "native:steps",
      [
        case "every opcode matches Fu_exec on edge values at lengths 0-3 and 729"
          every_opcode_every_length;
        case "the step flag is exactly a non-finite result" flag_matches_nonfinite;
        case "self-feedback at offsets -1 to -3 matches the in-order reference"
          self_feedback;
        case "the scan step flags non-finite sources and stores nothing" scan_reads_only;
        case "blit moves overlapping ranges and zero stores +0.0" transfers;
        case
          "delay-1 feedback steps match the in-order reference bit for bit, self on a and on b"
          delay1_feedback;
        case "every opcode matches Fu_exec at lengths 256-263, where the wide loops run"
          wide_tails;
        case "Max and Min match Float.max and Float.min on signed zeros and payload NaNs"
          max_min_special_cases;
      ] );
  ]
