(** Red-black Gauss-Seidel / SOR for the 3-D Poisson problem.

    A second CFD workload exercising a different diagram shape: each half
    sweep updates only one colour of the checkerboard, blending through a
    colour mask — unew = u + ω · mask_colour · (jacobi(u) − u) — so the
    machine's lack of scatter writes never bites.  ω = 1 is classic
    Gauss-Seidel (half the sweeps Jacobi needs); ω > 1 is successive
    over-relaxation, which the benches show converging in a fraction of
    the sweeps again.  The relaxation factor is one register-file constant
    in the diagram. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type layout = {
  sx : int;
  sy : int;
  sz : int;
  center : int;
  g : int;
  mask_red : int;
  mask_black : int;
  unew : int;
  f : int;
}
val default_layout : layout
val colour_mask : ?omega:float -> Grid.t -> red:bool -> float array
type build = {
  program : Nsc_diagram.Program.t;
  residual_unit : Nsc_arch.Resource.fu_id;
  layout : layout;
}
val build :
  Nsc_arch.Knowledge.t ->
  ?layout:layout -> Grid.t -> tol:float -> max_iters:int -> build
val host_iteration :
  ?omega:float -> Poisson.problem -> u:float array -> float
val host_solve :
  ?omega:float ->
  Poisson.problem ->
  tol:float -> max_iters:int -> float array * int * float
val load :
  ?omega:float -> Nsc_sim.Node.t -> build -> Poisson.problem -> unit
type outcome = {
  u : float array;
  iterations : int;
  final_change : float;
  stats : Nsc_sim.Sequencer.stats;
}
val solve :
  Nsc_arch.Knowledge.t ->
  ?layout:layout ->
  ?omega:float ->
  ?run:Nsc_sim.Run.t ->
  Poisson.problem ->
  tol:float -> max_iters:int -> (outcome, string) result
