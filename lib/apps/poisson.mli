(** The 3-D Poisson model problem of the paper's example: ∇²u = f on the
    unit cube with homogeneous Dirichlet boundaries.

    A manufactured solution u*(x,y,z) = sin(πx) sin(πy) sin(πz) gives
    f = -3π² u*, so simulated solves can be validated against a known
    answer as well as against the host reference implementation. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type problem = {
  grid : Grid.t;
  f : float array;
  mask : float array;
  exact : float array option;
}
val pi : float
(** The manufactured-solution problem: u* = sin πx · sin πy · sin πz,
    f = −3π²u*, so solves can be validated against a known answer. *)
val manufactured : int -> problem
(** One reference Jacobi sweep per the paper's Equation 1; returns the
    max pointwise change (the residual convergence check). *)
val host_sweep : problem -> u:float array -> unew:float array -> float
(** Reference Jacobi iteration to tolerance; returns solution, sweep
    count, and the per-sweep change history. *)
val host_solve :
  problem -> tol:float -> max_iters:int -> float array * int * float list
val error_vs_exact : problem -> float array -> float option
(** Max-norm of the discrete residual f − ∇²u over interior points. *)
val residual_norm : problem -> float array -> float
