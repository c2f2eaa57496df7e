(** Geometry of the display window (the paper's Figure 5).

    The window is a character-cell surface: an information/error strip
    across the top; a region on the left reserved for control-flow
    specifications and variable declarations; the large central drawing
    space for pipeline diagrams; and a control-panel column on the right
    holding the ALS icons and the editor operations. *)

(* Interface generated from the implementation; detailed
   documentation lives on the items in the .ml file. *)

val window_w : int
val window_h : int
val message_strip : Nsc_diagram.Geometry.rect
val left_region : Nsc_diagram.Geometry.rect
val drawing_area : Nsc_diagram.Geometry.rect
val control_panel : Nsc_diagram.Geometry.rect
type button =
    B_singlet
  | B_doublet
  | B_doublet_bypass
  | B_triplet
  | B_memory
  | B_cache
  | B_shift_delay
  | B_insert
  | B_delete
  | B_copy
  | B_renumber
  | B_next
  | B_prev
  | B_goto
  | B_vlen
  | B_check
  | B_balance
  | B_save
  | B_load
val pp_button :
  Format.formatter ->
  button -> unit
val show_button : button -> string
val equal_button : button -> button -> bool
val buttons : (button * string) list
val button_h : int
val button_rect : button -> Nsc_diagram.Geometry.rect
val button_at : Nsc_diagram.Geometry.point -> button option
val to_drawing : Nsc_diagram.Geometry.point -> Nsc_diagram.Geometry.point
val of_drawing : Nsc_diagram.Geometry.point -> Nsc_diagram.Geometry.point
val in_drawing : Nsc_diagram.Geometry.point -> bool
