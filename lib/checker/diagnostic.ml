(** Diagnostics produced by the checker.

    "Any errors are flagged as soon as they are detected" — every diagnostic
    carries enough location information (pipeline, icon, connection, unit)
    for the editor to highlight the offending object and display the message
    in the window's information strip. *)

open Nsc_arch

type severity =
  | Error    (** violates a hardware rule; microcode cannot be generated *)
  | Warning  (** legal but suspicious (e.g. read-port contention stalls) *)
  | Info     (** advisory, e.g. suggested delay-queue depths *)
[@@deriving show { with_path = false }, eq]

(* Hand-written: ppx_deriving.ord mis-resolves the [Error] constructor
   against Stdlib's [Error of 'a]. *)
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let compare_severity a b = compare (severity_rank a) (severity_rank b)

(** What the diagnostic is anchored to. *)
type location = {
  pipeline : int option;               (** pipeline (instruction) number *)
  icon : Nsc_diagram.Icon.id option;
  connection : Nsc_diagram.Connection.id option;
  unit_ : Resource.fu_id option;
}
[@@deriving show { with_path = false }, eq]

let nowhere = { pipeline = None; icon = None; connection = None; unit_ = None }

(** Stable rule identifiers, used by tests and for documentation. *)
type rule =
  | Structural            (** malformed diagram data *)
  | Unresolved            (** endpoint/spec could not be resolved *)
  | Switch_conflict       (** sink driven twice, fanout, capacity, self-loop *)
  | Plane_write_exclusive (** second writer routed to one memory plane *)
  | Plane_read_contention (** more readers than a plane has ports *)
  | Plane_hazard          (** a plane both read and written in one
                              instruction; an error when the regions overlap
                              (the DMA engines pump both streams
                              concurrently, so in-place updates are racy) *)
  | Capability            (** op not supported by the unit's circuitry *)
  | Binding               (** operand sources inconsistent or missing *)
  | Register_file         (** register-file capacity / queue depth *)
  | Dma_range             (** transfer outside plane/cache or variable bounds *)
  | Stream_length         (** transfer count disagrees with vector length *)
  | Timing                (** vector streams arrive misaligned at a unit *)
  | Switch_cycle          (** combinational loop through the switch *)
  | Control               (** control-flow specification problems *)
  | Unused                (** engaged hardware with no effect *)
[@@deriving show { with_path = false }, eq, ord]

let rule_name = function
  | Structural -> "structural"
  | Unresolved -> "unresolved"
  | Switch_conflict -> "switch-conflict"
  | Plane_write_exclusive -> "plane-write-exclusive"
  | Plane_read_contention -> "plane-read-contention"
  | Plane_hazard -> "plane-hazard"
  | Capability -> "capability"
  | Binding -> "binding"
  | Register_file -> "register-file"
  | Dma_range -> "dma-range"
  | Stream_length -> "stream-length"
  | Timing -> "timing"
  | Switch_cycle -> "switch-cycle"
  | Control -> "control"
  | Unused -> "unused"

type t = {
  severity : severity;
  rule : rule;
  location : location;
  message : string;
}
[@@deriving show { with_path = false }, eq]

let make ?(location = nowhere) severity rule fmt =
  Printf.ksprintf (fun message -> { severity; rule; location; message }) fmt

let error ?location rule fmt = make ?location Error rule fmt
let warning ?location rule fmt = make ?location Warning rule fmt
let info ?location rule fmt = make ?location Info rule fmt

let is_error d = equal_severity d.severity Error

(** Human-readable one-liner, as shown in the editor's message strip. *)
let to_string d =
  let sev =
    match d.severity with Error -> "error" | Warning -> "warning" | Info -> "info"
  in
  let where =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "pipeline %d") d.location.pipeline;
        Option.map (Printf.sprintf "icon %d") d.location.icon;
        Option.map (Printf.sprintf "wire %d") d.location.connection;
        Option.map
          (fun fu -> Printf.sprintf "unit %s" (Resource.fu_to_string fu))
          d.location.unit_;
      ]
  in
  let where = match where with [] -> "" | ws -> " [" ^ String.concat ", " ws ^ "]" in
  Printf.sprintf "%s(%s)%s: %s" sev (rule_name d.rule) where d.message

let pp ppf d = Fmt.string ppf (to_string d)

(** Sort errors first, then warnings, then infos, each in stable order. *)
let sort ds =
  List.stable_sort (fun a b -> compare_severity a.severity b.severity) ds

let errors ds = List.filter is_error ds
let has_errors ds = List.exists is_error ds

(** The errors' one-liners in order, joined by ["; "]: the message of a
    build the checker refused. *)
let error_summary ds = String.concat "; " (List.map to_string (errors ds))
