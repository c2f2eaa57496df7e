(** Checkpoint/restore of a node's persistent state.

    The only state that survives between instructions is storage (planes
    and caches — see {!Node}), so a checkpoint is exactly a deep copy of
    both.  Iterative solvers capture one at each converged sweep and roll
    back to it when the parity scrub or the interrupt stream reports
    corruption, instead of iterating on poisoned data. *)

open Nsc_arch
module Metrics = Nsc_metrics.Metrics

type t = {
  planes : Memory.snapshot array;
  caches : Cache.snapshot array;
}

(* An instant on the node timeline of the ambient context. *)
let note name =
  if Metrics.tracing () then begin
    let m = Metrics.current () in
    Metrics.instant m ~cat:"fault" ~name ~ts:(Metrics.now m) ()
  end

(** Deep-copy the node's planes and caches. *)
let capture (node : Node.t) =
  note "checkpoint.capture";
  {
    planes = Array.map Memory.snapshot node.Node.planes;
    caches = Array.map Cache.snapshot node.Node.caches;
  }

(** Restore a checkpoint into [node] (the caller books the rollback on
    its run's fault ledger).  Rejects a checkpoint of a differently-shaped
    node. *)
let restore (node : Node.t) t =
  if
    Array.length t.planes <> Array.length node.Node.planes
    || Array.length t.caches <> Array.length node.Node.caches
  then invalid_arg "Checkpoint.restore: checkpoint shape does not match node";
  Array.iteri (fun i s -> Memory.restore node.Node.planes.(i) s) t.planes;
  Array.iteri (fun i s -> Cache.restore node.Node.caches.(i) s) t.caches;
  note "checkpoint.restore"

(** Scrub the node's parity state: every (plane, address) whose parity is
    currently bad.  Empty on a healthy node. *)
let scrub (node : Node.t) =
  let bad = ref [] in
  Array.iteri
    (fun p st ->
      List.iter (fun addr -> bad := (p, addr) :: !bad) (Memory.parity_errors st))
    node.Node.planes;
  List.rev !bad
