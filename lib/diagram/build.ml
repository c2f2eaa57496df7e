(** Shared wiring helpers for the application program builders: the same
    few editing gestures — wire a memory stream to a pad, wire a pad to a
    memory stream, wire two pads — that every diagram in this library is
    drawn with. *)

let fail_on_error = function Ok v -> v | Error e -> failwith e

(** Wire a memory-plane read stream into an icon pad, with its DMA spec. *)
let mem_to_pad pl ~plane ~var ~offset ?(stride = 1) ~icon ~pad () =
  let _, pl =
    Pipeline.add_connection pl
      ~src:(Connection.Direct_memory plane)
      ~dst:(Connection.Pad { icon; pad })
      ~spec:(Dma_spec.make ~variable:var ~offset ~stride (Dma_spec.To_plane plane))
      ()
  in
  pl

(** Wire an icon pad to a memory-plane write stream. *)
let pad_to_mem pl ~icon ~pad ~plane ~var ~offset ?(stride = 1) () =
  let _, pl =
    Pipeline.add_connection pl
      ~src:(Connection.Pad { icon; pad })
      ~dst:(Connection.Direct_memory plane)
      ~spec:(Dma_spec.make ~variable:var ~offset ~stride (Dma_spec.To_plane plane))
      ()
  in
  pl

(** Wire one icon pad to another (the plain rubber-band connection). *)
let pad_to_pad pl ~from_icon ~from_pad ~to_icon ~to_pad =
  let _, pl =
    Pipeline.add_connection pl
      ~src:(Connection.Pad { icon = from_icon; pad = from_pad })
      ~dst:(Connection.Pad { icon = to_icon; pad = to_pad })
      ()
  in
  pl

(** The ALS bound to an icon. *)
let als_of_icon pl icon =
  match Pipeline.icon_kind pl icon with
  | Some (Icon.Als_icon { als; _ }) -> als
  | _ -> invalid_arg "Build.als_of_icon: not an ALS icon"

(** Declare a list of (name, plane) variables, all of [length] words. *)
let declare_all prog vars ~length =
  List.fold_left
    (fun prog (name, plane) ->
      match Program.declare prog { Program.name; plane; base = 0; length } with
      | Ok prog -> prog
      | Error e -> failwith e)
    prog vars

(** Place an ALS icon of a kind (with a doublet's [bypass], default
    none), failing loudly when the machine is out of that kind. *)
let place ?bypass pl ~params ~kind ~x ~y =
  fail_on_error (Pipeline.place_als params pl ~kind ?bypass ~pos:(Geometry.point x y) ())

(** Pick a unit's opcode and operand sources.  The bindings are passed on
    as given, so a caller's static [Some] is never rebuilt. *)
let config pl ~icon ~slot ?a ?b op =
  Pipeline.set_config pl ~id:icon ~slot (Fu_config.make ?a ?b op)
