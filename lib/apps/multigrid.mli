(** Multigrid on the NSC (paper reference [6]: Nosenchuck, Krist, Zang,
    "On Multigrid Methods for the Navier-Stokes Computer").

    A two-grid correction scheme for the 1-D Poisson problem u'' = f with
    homogeneous Dirichlet boundaries: pre-smooth with weighted Jacobi,
    restrict the residual by full weighting, smooth the coarse error
    equation, prolong the correction linearly, correct, post-smooth.  The
    scheme is laid out as a {e twelve-instruction} visual program — the
    richest demonstration in this library of the NSC's phase-to-phase
    pipeline reconfiguration.

    The model problem is 1-D rather than the reference's 3-D because the
    simulated DMA engines, like the real ones, generate single-stride
    address streams: 1-D coarsening is a stride-2 stream, while 3-D
    coarsening would need triple-nested strides the hardware does not
    have.  Every phase of the algorithm is exercised identically. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

val omega : float
type grid1 = { n : int; h : float; }
val pad1 : int
val grid1 : int -> grid1
val coarse_of : grid1 -> grid1
val words1 : grid1 -> int
type layout = {
  u_a : int;
  u_c : int;
  unew : int;
  g_f : int;
  mask_f : int;
  r : int;
  rc : int;
  e_a : int;
  e_c : int;
  enew : int;
  g_c : int;
  mask_c : int;
  cf : int;
  f : int;
}
val default_layout : layout
type build = {
  program : Nsc_diagram.Program.t;
  layout : layout;
  fine : grid1;
  coarse : grid1;
}
(** The twelve-instruction two-grid program: setup, smoothing, residual,
    full-weighting restriction, coarse setup/zero/smooth, linear
    prolongation (even and odd points), correction — each phase a fresh
    pipeline configuration. *)
val build :
  Nsc_arch.Knowledge.t ->
  ?layout:layout ->
  grid1 -> cycles:int -> nu1:int -> nu2:int -> nu_coarse:int -> build
type host_problem = {
  grid : grid1;
  f : float array;
  exact : float array option;
}
val pi : float
val manufactured : int -> host_problem
val mask1 : grid1 -> float array
val host_smooth :
  grid1 -> u:float array -> gh2:float array -> mask:float array -> unit
val host_residual :
  grid1 -> u:float array -> f:float array -> mask:float array -> float array
(** The identical two-grid scheme on the host, for exact comparison. *)
val host_solve :
  host_problem ->
  cycles:int -> nu1:int -> nu2:int -> nu_coarse:int -> float array
val host_residual_norm : host_problem -> float array -> float
type outcome = { u : float array; stats : Nsc_sim.Sequencer.stats; }
(** Compile and run the NSC program on a fresh node, under [run] (see
    {!Nsc_sim.Sequencer.run}). *)
val solve :
  Nsc_arch.Knowledge.t ->
  ?run:Nsc_sim.Run.t ->
  host_problem ->
  cycles:int ->
  nu1:int -> nu2:int -> nu_coarse:int -> (outcome, string) result
