(* Shared helpers for the test suites. *)

open Nsc_arch
open Nsc_diagram

let kb = Knowledge.default
let params = Knowledge.params kb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float msg a b = Alcotest.(check (float 1e-9)) msg a b

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen prop)

(* A minimal valid one-instruction program: z = x + y on a singlet. *)
let vecadd_program ?(n = 16) () =
  let prog = Program.empty "vecadd" in
  let prog =
    List.fold_left
      (fun prog (name, plane) ->
        match Program.declare prog { Program.name; plane; base = 0; length = n } with
        | Ok p -> p
        | Error e -> failwith e)
      prog
      [ ("x", 0); ("y", 1); ("z", 2) ]
  in
  let prog, _ = Program.append_pipeline ~label:"z = x + y" prog in
  let pl = Option.get (Program.find_pipeline prog 1) in
  let pl = Pipeline.with_vector_length pl n in
  let icon, pl =
    Build.fail_on_error
      (Pipeline.place_als params pl ~kind:Als.Singlet ~pos:(Geometry.point 30 8) ())
  in
  let pl =
    Build.mem_to_pad pl ~plane:0 ~var:"x" ~offset:0 ~icon
      ~pad:(Icon.In_pad (0, Resource.A)) ()
  in
  let pl =
    Build.mem_to_pad pl ~plane:1 ~var:"y" ~offset:0 ~icon
      ~pad:(Icon.In_pad (0, Resource.B)) ()
  in
  let pl = Build.pad_to_mem pl ~icon ~pad:(Icon.Out_pad 0) ~plane:2 ~var:"z" ~offset:0 () in
  let pl =
    Pipeline.set_config pl ~id:icon ~slot:0
      (Fu_config.make ~a:Fu_config.From_switch ~b:Fu_config.From_switch Opcode.Fadd)
  in
  (Program.update_pipeline prog pl, icon)

let semantic_of_program prog index =
  let pl = Option.get (Program.find_pipeline prog index) in
  Semantic.of_pipeline params ~lookup:(Program.variable_base prog) pl

(* Fresh pipeline with one placed ALS of the given kind. *)
let pipeline_with kind =
  let pl = Pipeline.empty 1 in
  let icon, pl =
    Build.fail_on_error (Pipeline.place_als params pl ~kind ~pos:(Geometry.point 20 4) ())
  in
  (pl, icon)

(* A compiled exchange delivering each [(msg, (payload, plane, base))]:
   every payload is first written to its source node, at its own
   address in a staging region of the same plane (the plane's upper
   half), and routed from there to [base]. *)
let staged_plan m msgs =
  let module M = Nsc_sim.Multinode in
  let next = ref (params.Params.memory_plane_words / 2) in
  M.plan m
    (List.map
       (fun ((msg : M.message), (payload, plane, base)) ->
         let at = !next in
         next := at + Array.length payload;
         Nsc_sim.Node.load_array (M.node m msg.M.src) ~plane ~base:at payload;
         { M.msg; src_plane = plane; src_base = at; dst_plane = plane; dst_base = base })
       msgs)
