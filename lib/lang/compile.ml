(** The compile driver: source text to a checked visual program.

    Arrays are laid out plane by plane in declaration order, each padded by
    the program's largest shift so stencil streams never leave their
    variable; statements lower one-by-one to pipeline diagrams; [repeat]
    and [while] become sequencer control; every generated diagram is
    auto-balanced and the whole program is put through the checker. *)

open Nsc_arch
open Nsc_diagram
open Nsc_checker

type compiled = {
  program : Program.t;
  captures : (string * Resource.fu_id) list;
      (** scalar name -> unit whose last value realises it *)
  units_per_pipeline : (int * int) list;  (** pipeline index -> units engaged *)
  diagnostics : Diagnostic.t list;
}

type error = { message : string; at_statement : int option }

let err ?at_statement fmt =
  Printf.ksprintf (fun message -> Error { message; at_statement }) fmt

(* Array layout: bases assigned per plane in declaration order. *)
let layout_arrays (p : Params.t) (prog : Ast.program) ~pad :
    ((string * Lower.array_info) list, error) result =
  let next_base = Hashtbl.create 8 in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Ast.Scalar _ :: rest -> go acc rest
    | Ast.Array { name; length; plane } :: rest ->
        if plane < 0 || plane >= p.n_memory_planes then
          err "array '%s' names plane %d; the machine has planes 0..%d" name plane
            (p.n_memory_planes - 1)
        else if length <= 0 then err "array '%s' must have positive length" name
        else if List.mem_assoc name acc then err "array '%s' declared twice" name
        else begin
          let base = Option.value ~default:0 (Hashtbl.find_opt next_base plane) in
          let padded = length + (2 * pad) in
          if base + padded > p.memory_plane_words then
            err "plane %d overflows at array '%s'" plane name
          else begin
            Hashtbl.replace next_base plane (base + padded);
            go ((name, { Lower.plane; length; pad }) :: acc) rest
          end
        end
  in
  (* bases are implicit in declaration order; recover them for Program
     declarations below by replaying the same accumulation *)
  go [] prog.Ast.decls

let scalar_names (prog : Ast.program) =
  List.filter_map
    (function Ast.Scalar s -> Some s | Ast.Array _ -> None)
    prog.Ast.decls

(* Arrays referenced by an expression. *)
let rec refs_of = function
  | Ast.Const _ -> []
  | Ast.Ref { name; _ } -> [ name ]
  | Ast.Unop (_, e) | Ast.Maxreduce e -> refs_of e
  | Ast.Binop (_, e1, e2) -> refs_of e1 @ refs_of e2

(** Compile source text against knowledge base [kb]. *)
let compile (kb : Knowledge.t) ?(name = "compiled") (src : string) :
    (compiled, error) result =
  match Parser.parse src with
  | Error m -> Error { message = m; at_statement = None }
  | Ok ast -> (
      let p = Knowledge.params kb in
      let pad = Ast.max_shift ast in
      match layout_arrays p ast ~pad with
      | Error e -> Error e
      | Ok arrays -> (
          let env = { Lower.params = p; arrays } in
          let scalars = scalar_names ast in
          (* declare program variables with concrete bases *)
          let prog = Program.empty name in
          let next_base = Hashtbl.create 8 in
          let prog =
            List.fold_left
              (fun prog (nm, (info : Lower.array_info)) ->
                let base = Option.value ~default:0 (Hashtbl.find_opt next_base info.Lower.plane) in
                let padded = info.Lower.length + (2 * info.Lower.pad) in
                Hashtbl.replace next_base info.Lower.plane (base + padded);
                match
                  Program.declare prog
                    { Program.name = nm; plane = info.Lower.plane; base; length = padded }
                with
                | Ok prog -> prog
                | Error e -> failwith e)
              prog arrays
          in
          (* walk statements: produce pipelines + control *)
          let pipelines = ref [] in
          let captures : (string, Resource.fu_id) Hashtbl.t = Hashtbl.create 4 in
          let units = ref [] in
          let next_index = ref 0 in
          let error = ref None in
          let stmt_no = ref 0 in
          let rec walk_stmts stmts : Program.control list =
            List.concat_map
              (fun stmt ->
                if !error <> None then []
                else begin
                  incr stmt_no;
                  match stmt with
                  | Ast.Assign { target; expr } -> (
                      match Lower.array_info env target with
                      | None ->
                          if !error = None then error :=
                            Some
                              { message = Printf.sprintf "undeclared array '%s'" target;
                                at_statement = Some !stmt_no };
                          []
                      | Some info ->
                          if List.mem target (refs_of expr) then begin
                            error :=
                              Some
                                {
                                  message =
                                    Printf.sprintf
                                      "'%s' is both read and written in one statement; \
                                       the concurrent DMA streams would race — write \
                                       to a second array and copy back"
                                      target;
                                  at_statement = Some !stmt_no;
                                };
                            []
                          end
                          else begin
                            (* all referenced arrays must match the target length *)
                            let bad =
                              List.find_opt
                                (fun r ->
                                  match Lower.array_info env r with
                                  | Some i -> i.Lower.length <> info.Lower.length
                                  | None -> false)
                                (refs_of expr)
                            in
                            match bad with
                            | Some r ->
                                error :=
                                  Some
                                    {
                                      message =
                                        Printf.sprintf
                                          "array '%s' has a different length from \
                                           target '%s'; streams of one instruction \
                                           share a vector length"
                                          r target;
                                      at_statement = Some !stmt_no;
                                    };
                                []
                            | None -> (
                                incr next_index;
                                let index = !next_index in
                                match
                                  Lower.lower_expr env ~index
                                    ~label:(Printf.sprintf "%s = ..." target)
                                    ~vlen:info.Lower.length
                                    ~write_to:(Some (target, info)) expr
                                with
                                | Error m ->
                                    if !error = None then error := Some { message = m; at_statement = Some !stmt_no };
                                    []
                                | Ok low ->
                                    pipelines := low.Lower.pipeline :: !pipelines;
                                    units := (index, low.Lower.units_used) :: !units;
                                    [ Program.Exec index ])
                          end)
                  | Ast.Scalar_assign { scalar; expr } ->
                      if not (List.mem scalar scalars) then begin
                        if !error = None then
                          error :=
                            Some
                              { message = Printf.sprintf "undeclared scalar '%s'" scalar;
                                at_statement = Some !stmt_no };
                        []
                      end
                      else begin
                        let vlen =
                          match refs_of expr with
                          | r :: _ -> (
                              match Lower.array_info env r with
                              | Some i -> i.Lower.length
                              | None -> 1)
                          | [] -> 1
                        in
                        incr next_index;
                        let index = !next_index in
                        match
                          Lower.lower_expr env ~index
                            ~label:(Printf.sprintf "%s = maxreduce(...)" scalar)
                            ~vlen ~write_to:None expr
                        with
                        | Error m ->
                            if !error = None then error := Some { message = m; at_statement = Some !stmt_no };
                            []
                        | Ok low ->
                            (match low.Lower.capture with
                            | Some fu -> Hashtbl.replace captures scalar fu
                            | None -> ());
                            pipelines := low.Lower.pipeline :: !pipelines;
                            units := (index, low.Lower.units_used) :: !units;
                            [ Program.Exec index ]
                      end
                  | Ast.Repeat { count; body } ->
                      let body = walk_stmts body in
                      [ Program.Repeat { count; body } ]
                  | Ast.While { scalar; rel; threshold; max_iters; body } -> (
                      let body_ctl = walk_stmts body in
                      match Hashtbl.find_opt captures scalar with
                      | None ->
                          if !error = None then error :=
                            Some
                              {
                                message =
                                  Printf.sprintf
                                    "while-loop on '%s' needs a '%s = maxreduce(...)' \
                                     inside its body"
                                    scalar scalar;
                                at_statement = Some !stmt_no;
                              };
                          []
                      | Some fu ->
                          [
                            Program.While
                              {
                                condition =
                                  {
                                    Interrupt.unit_watched = fu;
                                    relation = Ast.relation_to_arch rel;
                                    threshold;
                                  };
                                max_iterations = max_iters;
                                body = body_ctl;
                              };
                          ])
                end)
              stmts
          in
          let control = walk_stmts ast.Ast.body @ [ Program.Halt ] in
          match !error with
          | Some e -> Error e
          | None ->
              let prog =
                { prog with Program.pipelines = List.rev !pipelines; control }
              in
              let prog = Balance.balance_program kb prog in
              let diagnostics = Checker.check_program kb prog in
              if Diagnostic.has_errors diagnostics then
                Error
                  {
                    message = Diagnostic.error_summary diagnostics;
                    at_statement = None;
                  }
              else
                Ok
                  {
                    program = prog;
                    captures = Hashtbl.fold (fun k v acc -> (k, v) :: acc) captures [];
                    units_per_pipeline = List.rev !units;
                    diagnostics;
                  }))

(** Where an array lives in the compiled program: (plane, base of element
    0) — i.e. including the pad.  For loading inputs and reading results
    from a simulated node. *)
let array_location (c : compiled) name : (int * int) option =
  Option.map
    (fun (d : Program.declaration) ->
      (* element 0 sits one pad beyond the variable base; recover the pad
         from the declaration length and the source length *)
      (d.Program.plane, d.Program.base))
    (Program.lookup_variable c.program name)
