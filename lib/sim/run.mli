(** Run state, passed as a value.

    Everything one run of the simulator needs beside the node and the
    program: the compile cache whose program table a builder keeps its
    checked, prepared programs in ({!Kernel.find_program}; a program's
    kernels live in the program itself), the fault model it injects from
    (or none), and the supervision budget it charges and polls (or
    none).  Nothing here is installed globally, so runs on
    several domains at once — each with its own fault model and budget,
    sharing one cache — proceed independently.  Metric instrumentation is
    scoped separately, with {!Nsc_metrics.Metrics.with_ctx}. *)

type t = {
  cache : Kernel.cache;  (** safe to share across runs and domains *)
  fault : Nsc_fault.Fault.t option;  (** [None]: a clean run *)
  budget : Nsc_guard.Guard.Budget.t option;  (** [None]: unsupervised *)
}

(** A run over [cache] (default: a fresh unbounded one), clean and
    unsupervised unless [fault]/[budget] are given. *)
val make :
  ?cache:Kernel.cache ->
  ?fault:Nsc_fault.Fault.t ->
  ?budget:Nsc_guard.Guard.Budget.t ->
  unit -> t
