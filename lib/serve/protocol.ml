(* Wire protocol of the serve daemon: strict parsing of NDJSON request
   lines into validated jobs, and the error/rejection response builders.
   Schema and error-code catalogue: docs/SERVICE.md. *)

module Json = Nsc_metrics.Json
module Fault = Nsc_fault.Fault

type engine = [ `Kernel | `Reference ]

let engine_of_string = function
  | "kernel" -> Some `Kernel
  | "reference" -> Some `Reference
  | _ -> None

let engine_to_string = function `Kernel -> "kernel" | `Reference -> "reference"

type workload =
  | Jacobi of { n : int; tol : float; max_iters : int }
  | Source of { text : string }

type priority = High | Normal | Low

let priority_of_string = function
  | "high" -> Some High
  | "normal" -> Some Normal
  | "low" -> Some Low
  | _ -> None

let priority_to_string = function
  | High -> "high"
  | Normal -> "normal"
  | Low -> "low"

type job = {
  id : string;
  workload : workload;
  engine : engine option;
  faults : string option;
  fault_seed : int;
  deadline_ms : float option;
  deadline_cycles : int option;
  priority : priority;
}

type request = Submit of job | Drain | Ping | Shutdown
type reject = { rid : string option; code : string; detail : string }

(* Admission-time bounds: a multi-tenant daemon must refuse a job that
   would monopolise memory or run forever, before it is queued. *)
let max_id_len = 128
let max_source_len = 65536
let min_jacobi_n = 3
let max_jacobi_n = 17
let max_max_iters = 100_000

exception Bad of reject

let bad ?rid code detail = raise (Bad { rid; code; detail })

let str_field ?rid obj name =
  match Json.member name obj with
  | Some v -> (
      match Json.to_str v with
      | Some s -> Some s
      | None -> bad ?rid "bad-request" (Printf.sprintf "%S must be a string" name))
  | None -> None

let num_field ?rid obj name =
  match Json.member name obj with
  | Some v -> (
      match Json.to_num v with
      | Some x -> Some x
      | None -> bad ?rid "bad-request" (Printf.sprintf "%S must be a number" name))
  | None -> None

(* [int_of_float] is unspecified outside [min_int, max_int] (on x86-64 a
   huge value reads as 0), so the range is checked first: [-2^62, 2^62)
   is exactly the set of floats that convert *)
let int_field ?rid obj name =
  match num_field ?rid obj name with
  | None -> None
  | Some x when Float.is_integer x && x >= -0x1p62 && x < 0x1p62 -> Some (int_of_float x)
  | Some _ -> bad ?rid "bad-request" (Printf.sprintf "%S must be an integer in range" name)

let parse_workload ~rid obj =
  match Json.member "workload" obj with
  | None -> bad ~rid "bad-request" "submit needs a \"workload\" object"
  | Some w -> (
      match str_field ~rid w "kind" with
      | None -> bad ~rid "bad-request" "workload needs a \"kind\""
      | Some "jacobi" ->
          let n =
            match int_field ~rid w "n" with
            | Some n -> n
            | None -> bad ~rid "bad-request" "jacobi workload needs \"n\""
          in
          if n < min_jacobi_n || n > max_jacobi_n then
            bad ~rid "bad-request"
              (Printf.sprintf "jacobi n must be in %d..%d" min_jacobi_n max_jacobi_n);
          let tol = Option.value ~default:1e-6 (num_field ~rid w "tol") in
          if not (tol > 0.0) then bad ~rid "bad-request" "tol must be > 0";
          let max_iters = Option.value ~default:1000 (int_field ~rid w "max_iters") in
          if max_iters < 1 || max_iters > max_max_iters then
            bad ~rid "bad-request"
              (Printf.sprintf "max_iters must be in 1..%d" max_max_iters);
          Jacobi { n; tol; max_iters }
      | Some "source" -> (
          match str_field ~rid w "text" with
          | Some text when String.length text > 0 ->
              if String.length text > max_source_len then
                bad ~rid "bad-request"
                  (Printf.sprintf "source text exceeds %d bytes" max_source_len);
              Source { text }
          | _ -> bad ~rid "bad-request" "source workload needs non-empty \"text\"")
      | Some k -> bad ~rid "bad-request" (Printf.sprintf "unknown workload kind %S" k))

let parse_submit obj =
  let rid =
    match str_field obj "id" with
    | Some id when String.length id > 0 && String.length id <= max_id_len -> id
    | Some _ ->
        bad "bad-request" (Printf.sprintf "\"id\" must be 1..%d chars" max_id_len)
    | None -> bad "bad-request" "submit needs a client-supplied \"id\""
  in
  let workload = parse_workload ~rid obj in
  let engine =
    match str_field ~rid obj "engine" with
    | None -> None
    | Some s -> (
        match engine_of_string s with
        | Some e -> Some e
        | None -> bad ~rid "bad-request" (Printf.sprintf "unknown engine %S" s))
  in
  let faults =
    match str_field ~rid obj "faults" with
    | None -> None
    | Some spec -> (
        (* validate the spec at admission, not at dispatch *)
        match Result.bind (Fault.parse spec) Fault.refuse_mem_corrupt with
        | Ok _ -> Some spec
        | Error e -> bad ~rid "bad-request" ("bad faults spec: " ^ e))
  in
  let fault_seed = Option.value ~default:1 (int_field ~rid obj "fault_seed") in
  let deadline_ms =
    match num_field ~rid obj "deadline_ms" with
    | Some ms when not (ms > 0.0) ->
        bad ~rid "bad-request" "deadline_ms must be > 0"
    | d -> d
  in
  let deadline_cycles =
    (* 0 is admitted: a zero-cycle budget fires before the first
       instruction, which the deadline edge-case tests rely on *)
    match int_field ~rid obj "deadline_cycles" with
    | Some c when c < 0 -> bad ~rid "bad-request" "deadline_cycles must be >= 0"
    | d -> d
  in
  let priority =
    match str_field ~rid obj "priority" with
    | None -> Normal
    | Some s -> (
        match priority_of_string s with
        | Some p -> p
        | None ->
            bad ~rid "bad-request"
              (Printf.sprintf "priority must be high|normal|low, not %S" s))
  in
  Submit
    {
      id = rid;
      workload;
      engine;
      faults;
      fault_seed;
      deadline_ms;
      deadline_cycles;
      priority;
    }

let parse_request line =
  try
    match Json.parse line with
    | Error e -> Error { rid = None; code = "bad-json"; detail = e }
    | Ok (Json.Obj _ as obj) -> (
        match str_field obj "op" with
        | Some "submit" -> Ok (parse_submit obj)
        | Some "drain" -> Ok Drain
        | Some "ping" -> Ok Ping
        | Some "shutdown" -> Ok Shutdown
        | Some op -> bad ?rid:(str_field obj "id") "bad-request"
                       (Printf.sprintf "unknown op %S" op)
        | None -> bad ?rid:(str_field obj "id") "bad-request"
                    "request needs an \"op\" field")
    | Ok _ -> Error { rid = None; code = "bad-request"; detail = "request must be a JSON object" }
  with Bad r -> Error r

(* --- response builders -------------------------------------------------- *)

let error_response (r : reject) =
  let id = match r.rid with Some id -> [ ("id", Json.Str id) ] | None -> [] in
  Json.to_string
    (Json.Obj
       (id
       @ [ ("status", Json.Str "error");
           ("code", Json.Str r.code);
           ("detail", Json.Str r.detail);
         ]))

let rejected_response ~id ~queued =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Str id);
         ("status", Json.Str "rejected");
         ("code", Json.Str "queue-full");
         ("queued", Json.Num (float_of_int queued));
       ])

let shed_response ~id ~queued =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Str id);
         ("status", Json.Str "rejected");
         ("code", Json.Str "shed");
         ("queued", Json.Num (float_of_int queued));
       ])

let pong_response ~queued =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "pong"); ("queued", Json.Num (float_of_int queued)) ])
