(** Per-unit register files.

    Each functional unit owns a register file used for two purposes the
    paper calls out: holding constants or intermediate values, and buffering
    a stream through a circular queue so that vector operands arrive at a
    unit in step ("to adjust for pipeline timing delays").

    This module provides the static descriptors (validated against the
    machine parameters) and the dynamic circular-queue state the simulator
    steps. *)

(** How a register file participates in one pipeline instruction. *)
type usage = {
  constants : (int * float) list;
      (** register index [->] constant value preloaded before the run *)
  delay_a : int;  (** circular-queue depth applied to the unit's A operand *)
  delay_b : int;  (** circular-queue depth applied to the unit's B operand *)
}
[@@deriving show { with_path = false }, eq]

(** Registers consumed by a usage: one per constant plus the two queues. *)
let registers_used u = List.length u.constants + u.delay_a + u.delay_b

(** Validate a usage against machine parameters; returns problems found.
    A message is formatted only when its check fails. *)
let validate (p : Params.t) (u : usage) =
  let problems = ref [] in
  let fail msg = problems := msg :: !problems in
  if u.delay_a < 0 || u.delay_b < 0 then fail "delay-queue depths must be non-negative";
  if u.delay_a > p.rf_max_delay then
    fail (Printf.sprintf "A-operand delay %d exceeds maximum %d" u.delay_a p.rf_max_delay);
  if u.delay_b > p.rf_max_delay then
    fail (Printf.sprintf "B-operand delay %d exceeds maximum %d" u.delay_b p.rf_max_delay);
  List.iter
    (fun (idx, _) ->
      if idx < 0 || idx >= p.rf_registers then
        fail
          (Printf.sprintf "constant register %d outside file of %d registers" idx
             p.rf_registers))
    u.constants;
  let indices = List.map fst u.constants in
  if List.length indices <> List.length (List.sort_uniq compare indices) then
    fail "constant registers must be distinct";
  if registers_used u > p.rf_registers then
    fail
      (Printf.sprintf "usage requires %d registers but the file holds %d"
         (registers_used u) p.rf_registers);
  List.rev !problems

(** Dynamic circular delay queue.  A queue of depth [d] returns, for each
    pushed element, the element pushed [d] steps earlier ([fill] until then —
    streams are zero-primed, matching the simulator's vector semantics). *)
type queue = { depth : int; buf : float array; mutable head : int }

let make_queue ?(fill = 0.0) depth =
  if depth < 0 then invalid_arg "Register_file.make_queue";
  { depth; buf = Array.make (max depth 1) fill; head = 0 }

(** Push [x]; return the value delayed by the queue's depth.  Depth 0 is the
    identity. *)
let push q x =
  if q.depth = 0 then x
  else begin
    let out = q.buf.(q.head) in
    q.buf.(q.head) <- x;
    q.head <- (q.head + 1) mod q.depth;
    out
  end

let reset ?(fill = 0.0) q =
  Array.fill q.buf 0 (Array.length q.buf) fill;
  q.head <- 0
