(** The 3-D Poisson model problem of the paper's example: ∇²u = f on the
    unit cube with homogeneous Dirichlet boundaries.

    A manufactured solution u*(x,y,z) = sin(πx) sin(πy) sin(πz) gives
    f = -3π² u*, so simulated solves can be validated against a known
    answer as well as against the host reference implementation. *)

type problem = {
  grid : Grid.t;
  f : float array;      (** right-hand side, padded layout *)
  mask : float array;   (** interior mask *)
  exact : float array option;  (** manufactured solution when known *)
}

let pi = 4.0 *. atan 1.0

(** The manufactured-solution problem on an [n]-point cube. *)
let manufactured n =
  let grid = Grid.cube n in
  let exact =
    Grid.field_of grid (fun ~i ~j ~k ->
        let x, y, z = Grid.coords grid ~i ~j ~k in
        sin (pi *. x) *. sin (pi *. y) *. sin (pi *. z))
  in
  let f =
    Grid.field_of grid (fun ~i ~j ~k ->
        let x, y, z = Grid.coords grid ~i ~j ~k in
        -3.0 *. pi *. pi *. sin (pi *. x) *. sin (pi *. y) *. sin (pi *. z))
  in
  { grid; f; mask = Grid.interior_mask grid; exact = Some exact }

(** One host (reference) Jacobi sweep per Equation 1 of the paper:
    unew = (u[i±1] + u[j±1] + u[k±1] - h² f) / 6, interior only.
    Returns the maximum pointwise change — the residual convergence check. *)
let host_sweep (p : problem) ~(u : float array) ~(unew : float array) =
  let g = p.grid in
  let s1, sy, sz = Grid.offsets g in
  let h2 = g.Grid.h *. g.Grid.h in
  let change = ref 0.0 in
  Grid.iter g (fun ~i ~j ~k ->
      let idx = Grid.index g ~i ~j ~k in
      if Grid.is_boundary g ~i ~j ~k then unew.(idx) <- u.(idx)
      else begin
        let v =
          (u.(idx - s1) +. u.(idx + s1) +. u.(idx - sy) +. u.(idx + sy)
          +. u.(idx - sz) +. u.(idx + sz) -. (h2 *. p.f.(idx)))
          /. 6.0
        in
        let d = Float.abs (v -. u.(idx)) in
        if d > !change then change := d;
        unew.(idx) <- v
      end);
  !change

(** Host Jacobi iteration with the residual convergence check: iterate
    until the max change falls to [tol] or [max_iters] sweeps have run.
    Returns the solution, iteration count, and per-sweep change history. *)
let host_solve (p : problem) ~tol ~max_iters =
  let u = ref (Grid.field p.grid) and unew = ref (Grid.field p.grid) in
  let history = ref [] in
  let iters = ref 0 in
  (try
     for _ = 1 to max_iters do
       let change = host_sweep p ~u:!u ~unew:!unew in
       history := change :: !history;
       incr iters;
       let tmp = !u in
       u := !unew;
       unew := tmp;
       if change <= tol then raise Exit
     done
   with Exit -> ());
  (!u, !iters, List.rev !history)

(** Max-norm error against the manufactured solution, when available. *)
let error_vs_exact (p : problem) u =
  Option.map (fun exact -> Grid.max_diff p.grid u exact) p.exact

(** Max-norm of the discrete residual f - ∇²u over interior points. *)
let residual_norm (p : problem) u =
  let g = p.grid in
  let s1, sy, sz = Grid.offsets g in
  let h2 = g.Grid.h *. g.Grid.h in
  let m = ref 0.0 in
  Grid.iter g (fun ~i ~j ~k ->
      if not (Grid.is_boundary g ~i ~j ~k) then begin
        let idx = Grid.index g ~i ~j ~k in
        let lap =
          (u.(idx - s1) +. u.(idx + s1) +. u.(idx - sy) +. u.(idx + sy)
          +. u.(idx - sz) +. u.(idx + sz) -. (6.0 *. u.(idx)))
          /. h2
        in
        let r = Float.abs (p.f.(idx) -. lap) in
        if r > !m then m := r
      end);
  !m
