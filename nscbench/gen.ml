(* Seeded workload generators.

   A workload is an endless stream of passes.  Every pass holds a fixed
   multiset of job shapes — so the mix proportions hold exactly at every
   pass boundary — in a seeded order, with seeded constants where a job
   has any.  The machine cost of a job (simulated cycles, flops, host
   allocation) depends only on its shape, never on the constants, so the
   totals over one pass are the same for every seed while the job
   sequence itself changes with the seed. *)

type source = { len : int; reps : int; c1 : string; c2 : string }

type job =
  | Solve_n9
  | Hypercube_n9
  | Lang of source  (* pipeline-language program, compiled cold *)
  | Multigrid of int  (* two-grid solve on an n-point line, compiled cold *)
  | Jacobi of { n : int; tol : float }  (* served *)
  | Source of source  (* served *)
  | Faulted of { fault_seed : int }  (* served n=5 jacobi under faults *)

let workloads = [ "solve-n9"; "compile-cold"; "serve-mix"; "hypercube-n9" ]

let fault_spec = "transient-link:p=0.05"
let faulted_n = 5
let faulted_tol = 1e-4

let to_string = function
  | Solve_n9 -> "solve n=9 tol=1e-6"
  | Hypercube_n9 -> "hypercube n=9 dim=3 tol=1e-6"
  | Lang s -> Printf.sprintf "lang len=%d reps=%d c1=%s c2=%s" s.len s.reps s.c1 s.c2
  | Multigrid n -> Printf.sprintf "multigrid n=%d" n
  | Jacobi { n; tol } -> Printf.sprintf "jacobi n=%d tol=%g" n tol
  | Source s -> Printf.sprintf "source len=%d reps=%d c1=%s c2=%s" s.len s.reps s.c1 s.c2
  | Faulted { fault_seed } -> Printf.sprintf "faulted n=5 tol=1e-4 fault_seed=%d" fault_seed

(* The job's class: what the mix proportions are stated over. *)
let kind = function
  | Solve_n9 -> "solve-n9"
  | Hypercube_n9 -> "hypercube-n9"
  | Lang _ -> "lang"
  | Multigrid _ -> "multigrid"
  | Jacobi { n; _ } -> Printf.sprintf "jacobi-n%d" n
  | Source _ -> "source"
  | Faulted _ -> "faulted"

(* A 1-D three-point relaxation repeated [reps] times over two arrays. *)
let source_text s =
  String.concat "\n"
    [ Printf.sprintf "array u[%d] plane 0" s.len;
      Printf.sprintf "array v[%d] plane 1" s.len;
      Printf.sprintf "repeat %d {" s.reps;
      Printf.sprintf "v = (u[-1] + u[+1]) * %s + %s" s.c1 s.c2;
      "u = v + 0.0";
      "}";
      "" ]

(* Host evaluation of [source_text]: u after the loop, starting from the
   zeroed memory of a fresh node (reads beyond either end see zeros). *)
let source_reference s =
  let c1 = float_of_string s.c1 and c2 = float_of_string s.c2 in
  let u = Array.make s.len 0.0 in
  for _ = 1 to s.reps do
    let at i = if i < 0 || i >= s.len then 0.0 else u.(i) in
    let v = Array.init s.len (fun i -> ((at (i - 1) +. at (i + 1)) *. c1) +. c2) in
    Array.iteri (fun i x -> u.(i) <- x +. 0.0) v
  done;
  u

(* Eight characters whatever the draw, so parsing costs the same. *)
let constant rng = Printf.sprintf "%.6f" (0.1 +. Random.State.float rng 0.35)

let source rng (len, reps) = { len; reps; c1 = constant rng; c2 = constant rng }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Two thirds multigrid: a pipeline-language op takes about a quarter of
   a multigrid op, so with an even split the median would fall in the
   gap between the two and swing with every wobble of either. *)
let lang_shapes = [ (16, 2); (32, 4); (48, 3); (64, 4) ]
let multigrid_sizes = [ 17; 17; 17; 33; 33; 33; 65; 65 ]
let served_shapes = [ (16, 2); (24, 3); (32, 4); (40, 2); (48, 3); (56, 4); (64, 2); (72, 3) ]

let rep k x = List.init k (fun _ -> x)

(* Jobs per batch a serve-mix client sends before it drains. *)
let serve_batch = 16

(* Pass [index] of [workload]. *)
let pass workload rng ~index =
  match workload with
  | "solve-n9" -> [| Solve_n9 |]
  | "hypercube-n9" -> [| Hypercube_n9 |]
  | "compile-cold" ->
      shuffle rng
        (Array.of_list
           (List.map (fun sh -> Lang (source rng sh)) lang_shapes
           @ List.map (fun n -> Multigrid n) multigrid_sizes))
  | "serve-mix" ->
      (* 50% n=5, 20% n=7, 10% n=9, 10% source, 10% faulted n=5, dealt
         round-robin into the pass's five batches, so every pass is made of
         the same five batch compositions whatever the seed (the slowest
         batches set op_p99_ms); the batches, and the jobs within each, are
         then shuffled *)
      let jobs =
        Array.of_list
          (rep 40 (Jacobi { n = 5; tol = 1e-4 })
          @ rep 16 (Jacobi { n = 7; tol = 1e-4 })
          @ rep 8 (Jacobi { n = 9; tol = 1e-6 })
          @ List.map (fun sh -> Source (source rng sh)) served_shapes
          @ rep 8 (Faulted { fault_seed = 0 }))
      in
      let nb = Array.length jobs / serve_batch in
      let batches = Array.init nb (fun b -> shuffle rng (Array.init serve_batch (fun i -> jobs.((i * nb) + b)))) in
      let a = Array.concat (Array.to_list (shuffle rng batches)) in
      (* fault seeds in order of appearance, fresh in every pass *)
      let k = ref 0 in
      Array.map
        (function
          | Faulted _ ->
              incr k;
              Faulted { fault_seed = (index * 8) + !k }
          | j -> j)
        a
  | w -> invalid_arg ("unknown workload " ^ w)

type stream = {
  workload : string;
  rng : Random.State.t;
  mutable index : int;
  mutable buf : job array;
  mutable pos : int;
}

let stream workload ~seed =
  { workload; rng = Random.State.make [| seed; Hashtbl.hash workload |]; index = 0; buf = [||]; pos = 0 }

let peek s =
  if s.pos >= Array.length s.buf then begin
    s.buf <- pass s.workload s.rng ~index:s.index;
    s.index <- s.index + 1;
    s.pos <- 0
  end;
  s.buf.(s.pos)

let next s =
  let j = peek s in
  s.pos <- s.pos + 1;
  j

(* The job a set-up answers: the same for every seed, so set-up time does
   not depend on which kind of job a seed draws first. *)
let first_job workload = peek (stream workload ~seed:0)

let pass_len workload = Array.length (pass workload (Random.State.make [| 0 |]) ~index:0)
