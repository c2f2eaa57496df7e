(* Host wall-clock spans for the traced run, kept in memory and written
   out once as a Chrome trace-event file.

   Spans nest: [span] times a call as a child of the innermost open span,
   [interval] books a child whose start and end the caller measured
   itself (engine intervals between sequencer hooks, the synthesised
   serve split).  A span's self time is its duration minus the time its
   children cover; self times are accumulated per span name, so the self
   times of all names add up exactly to the root spans' durations.  Every
   span carries the id of the op it belongs to. *)

type frame = { fname : string; t0 : float; mutable child : float }

type event = { ename : string; op : int; s0 : float; s1 : float }

type t = {
  mutable stack : frame list;
  self : (string, float ref) Hashtbl.t;  (* seconds of self time *)
  total : (string, float ref) Hashtbl.t;  (* seconds, children included *)
  mutable events : event list;  (* newest first *)
  mutable n_events : int;
  mutable dropped : int;
  mutable op : int;
}

(* Spans kept for the trace file; later ones are only counted. *)
let cap = 60_000

let create () =
  {
    stack = [];
    self = Hashtbl.create 32;
    total = Hashtbl.create 32;
    events = [];
    n_events = 0;
    dropped = 0;
    op = 0;
  }

let now = Unix.gettimeofday

let bump tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add tbl name (ref v)

let record t name ~t0 ~t1 =
  if t.n_events < cap then begin
    t.events <- { ename = name; op = t.op; s0 = t0; s1 = t1 } :: t.events;
    t.n_events <- t.n_events + 1
  end
  else t.dropped <- t.dropped + 1

let enter_at t name t0 = t.stack <- { fname = name; t0; child = 0.0 } :: t.stack

(* Close the innermost span at [t1]: book its self time and charge its
   duration to the parent's children. *)
let leave_at t t1 =
  match t.stack with
  | fr :: rest ->
      t.stack <- rest;
      let d = t1 -. fr.t0 in
      bump t.self fr.fname (d -. fr.child);
      bump t.total fr.fname d;
      (match rest with parent :: _ -> parent.child <- parent.child +. d | [] -> ());
      record t fr.fname ~t0:fr.t0 ~t1
  | [] -> invalid_arg "Spans.leave_at: no open span"

let span t name f =
  enter_at t name (now ());
  match f () with
  | v ->
      leave_at t (now ());
      v
  | exception e ->
      leave_at t (now ());
      raise e

let interval t name ~t0 ~t1 =
  enter_at t name t0;
  leave_at t t1

(* Start a new op: spans recorded until the next call share its id. *)
let next_op t = t.op <- t.op + 1

let get tbl name = match Hashtbl.find_opt tbl name with Some r -> !r | None -> 0.0

(* Seconds of self time booked under [name]. *)
let self_s t name = get t.self name

(* Seconds of time booked under [name], children included. *)
let total_s t name = get t.total name

(* The recorded spans as a Chrome trace-event document (microseconds
   from the first span), loadable in Perfetto or chrome://tracing. *)
let write_chrome t ~path ~label =
  let oc = open_out path in
  let events = List.rev t.events in
  let base = List.fold_left (fun m e -> Float.min m e.s0) Float.infinity events in
  Printf.fprintf oc
    "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"%s\",\"dropped_spans\":%d},\"traceEvents\":[\n"
    label t.dropped;
  List.iteri
    (fun i e ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d}}"
        e.ename ((e.s0 -. base) *. 1e6) ((e.s1 -. e.s0) *. 1e6) e.op)
    events;
  output_string oc "\n]}\n";
  close_out oc
