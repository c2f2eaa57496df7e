(** Run state, passed as a value: the compile cache, the fault model and
    the supervision budget of one run.  See run.mli. *)

type t = {
  cache : Kernel.cache;
  fault : Nsc_fault.Fault.t option;
  budget : Nsc_guard.Guard.Budget.t option;
}

let make ?cache ?fault ?budget () =
  let cache = match cache with Some c -> c | None -> Kernel.make_cache () in
  { cache; fault; budget }
