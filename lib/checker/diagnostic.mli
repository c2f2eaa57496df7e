(** Diagnostics produced by the checker.

    "Any errors are flagged as soon as they are detected" — every diagnostic
    carries enough location information (pipeline, icon, connection, unit)
    for the editor to highlight the offending object and display the message
    in the window's information strip. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

type severity = Error | Warning | Info
val pp_severity :
  Format.formatter ->
  severity -> unit
val show_severity : severity -> string
val equal_severity : severity -> severity -> bool
val severity_rank : severity -> int
val compare_severity : severity -> severity -> int
type location = {
  pipeline : int option;
  icon : Nsc_diagram.Icon.id option;
  connection : Nsc_diagram.Connection.id option;
  unit_ : Nsc_arch.Resource.fu_id option;
}
val pp_location :
  Format.formatter ->
  location -> unit
val show_location : location -> string
val equal_location : location -> location -> bool
val nowhere : location
type rule =
    Structural
  | Unresolved
  | Switch_conflict
  | Plane_write_exclusive
  | Plane_read_contention
  | Plane_hazard
  | Capability
  | Binding
  | Register_file
  | Dma_range
  | Stream_length
  | Timing
  | Switch_cycle
  | Control
  | Unused
val pp_rule :
  Format.formatter -> rule -> unit
val show_rule : rule -> string
val equal_rule : rule -> rule -> bool
val compare_rule : rule -> rule -> int
(** Stable kebab-case rule identifier, for tests and documentation. *)
val rule_name : rule -> string
type t = {
  severity : severity;
  rule : rule;
  location : location;
  message : string;
}
val show : t -> string
val equal : t -> t -> bool
val make :
  ?location:location ->
  severity -> rule -> ('a, unit, string, t) format4 -> 'a
(** Construct an error-severity diagnostic (printf-style message). *)
val error : ?location:location -> rule -> ('a, unit, string, t) format4 -> 'a
(** Construct a warning. *)
val warning :
  ?location:location -> rule -> ('a, unit, string, t) format4 -> 'a
val info : ?location:location -> rule -> ('a, unit, string, t) format4 -> 'a
val is_error : t -> bool
(** Human-readable one-liner, as shown in the editor's message strip. *)
val to_string : t -> string
val pp : Format.formatter -> t -> unit
(** Errors first, then warnings, then infos, stable within severity. *)
val sort : t list -> t list
val errors : t list -> t list
(** Does any error-severity finding block code generation? *)
val has_errors : t list -> bool
(** The errors' {!to_string} one-liners in order, joined by ["; "]: the
    message of a build the checker refused. *)
val error_summary : t list -> string
