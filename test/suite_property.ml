(* Property-based tests (QCheck): random-input invariants over the core
   data structures and, most importantly, a fuzzer over the editor's event
   interpreter and a constructive generator of valid pipelines whose
   microcode must round-trip and execute identically from either form. *)

open Nsc_arch
open Nsc_diagram
open Util

module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* generators                                                          *)
(* ------------------------------------------------------------------ *)

(* A random *valid* pipeline, built constructively:
   - one to four ALS icons of random kinds,
   - each active slot programmed with a random legal opcode,
   - A ports of head slots wired from a random memory stream (distinct
     planes, so no port contention and no timing skew between streams),
   - B ports fed by constants (always alignment-safe),
   - chained slots use the internal chain on A,
   - min/max tail slots get a feedback loop on B,
   - the final icon's output written to a fresh plane. *)
let valid_pipeline_gen : Pipeline.t Gen.t =
  let open Gen in
  let* n_icons = int_range 1 4 in
  let* kinds =
    list_repeat n_icons (oneofl [ Als.Singlet; Als.Doublet; Als.Triplet ])
  in
  let* seed = int_range 0 1_000_000 in
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let pl = ref (Pipeline.empty 1) in
  let pl_set v = pl := v in
  let next_plane = ref 0 in
  let fresh_plane () =
    let p = !next_plane in
    incr next_plane;
    p
  in
  let vlen = 1 + Random.State.int rng 64 in
  pl_set (Pipeline.with_vector_length !pl vlen);
  let last_icon = ref None in
  List.iteri
    (fun i kind ->
      match
        Pipeline.place_als params !pl ~kind ~pos:(Geometry.point (4 + (i * 20)) 2) ()
      with
      | Error _ -> ()
      | Ok (icon, pl') ->
          pl_set pl';
          last_icon := Some icon;
          let als =
            match Pipeline.icon_kind !pl icon with
            | Some (Icon.Als_icon { als; _ }) -> als
            | _ -> assert false
          in
          let size = Resource.als_size params als in
          List.iter
            (fun slot ->
              let fu = { Resource.als; slot } in
              let legal =
                List.filter
                  (fun op -> Opcode.arity op >= 1)
                  (Knowledge.legal_opcodes kb fu)
              in
              let op = pick legal in
              let head = slot = 0 in
              let a_binding =
                if head then begin
                  (* wire a fresh memory stream to the A pad *)
                  let plane = fresh_plane () in
                  pl_set
                    (Build.mem_to_pad !pl ~plane ~var:"" ~offset:0 ~icon
                       ~pad:(Icon.In_pad (slot, Resource.A)) ());
                  Fu_config.From_switch
                end
                else Fu_config.From_chain
              in
              let b_binding =
                if Opcode.arity op = 1 then Fu_config.Unbound
                else if
                  Opcode.equal op Opcode.Max || Opcode.equal op Opcode.Min
                  (* a feedback loop keeps reductions alignment-free *)
                then Fu_config.From_feedback (1 + Random.State.int rng 4)
                else Fu_config.From_constant (Random.State.float rng 10.0 -. 5.0)
              in
              pl_set
                (Pipeline.set_config !pl ~id:icon ~slot
                   {
                     Fu_config.op = Some op;
                     a = a_binding;
                     b = b_binding;
                     delay_a = 0;
                     delay_b = 0;
                   }))
            (List.init size (fun s -> s)))
    kinds;
  (* write the last icon's tail output to a fresh plane *)
  (match !last_icon with
  | Some icon -> (
      match Pipeline.icon_kind !pl icon with
      | Some (Icon.Als_icon { als; _ }) ->
          let size = Resource.als_size params als in
          let plane = fresh_plane () in
          pl_set
            (Build.pad_to_mem !pl ~icon ~pad:(Icon.Out_pad (size - 1)) ~plane ~var:""
               ~offset:0 ())
      | _ -> ())
  | None -> ());
  (* memory specs above used var "" which is not resolvable: rebuild them
     as absolute addresses *)
  let fixed =
    {
      !pl with
      Pipeline.connections =
        List.map
          (fun (c : Connection.t) ->
            match c.Connection.spec with
            | Some spec -> { c with Connection.spec = Some { spec with Dma_spec.variable = None } }
            | None -> c)
          !pl.Pipeline.connections;
    }
  in
  return fixed

let checker_clean pl =
  not
    (Nsc_checker.Diagnostic.has_errors
       (Nsc_checker.Checker.check_pipeline kb ~level:`Complete pl))

(* ------------------------------------------------------------------ *)
(* properties                                                          *)
(* ------------------------------------------------------------------ *)

let arch_properties =
  [
    qcheck "gray code round-trips" Gen.(int_range 0 65535) (fun n ->
        Router.gray_inverse (Router.gray n) = n);
    qcheck "gray neighbours differ by one bit" Gen.(int_range 0 16382) (fun n ->
        let d = Router.gray n lxor Router.gray (n + 1) in
        d land (d - 1) = 0 && d <> 0);
    qcheck "e-cube routes never exceed the dimension"
      Gen.(tup2 (int_range 0 63) (int_range 0 63))
      (fun (a, b) ->
        List.length (Router.route ~dim:6 ~src:a ~dst:b) = Router.distance a b);
    qcheck "fu global index is a bijection" Gen.(int_range 0 31) (fun g ->
        Resource.fu_global_index params (Resource.fu_of_global_index params g) = g);
    qcheck "delay queues delay by exactly their depth"
      Gen.(tup2 (int_range 1 32) (list_size (int_range 40 80) (float_range (-100.) 100.)))
      (fun (depth, xs) ->
        let q = Register_file.make_queue depth in
        let out = List.map (Register_file.push q) xs in
        let expected =
          List.mapi
            (fun i _ -> if i < depth then 0.0 else List.nth xs (i - depth))
            xs
        in
        out = expected);
    qcheck "strided extents contain every generated address"
      Gen.(tup3 (int_range 0 1000) (int_range (-5) 5) (int_range 1 50))
      (fun (base, stride, count) ->
        let e = Memory.strided_extent ~plane:0 ~base ~stride ~count in
        List.for_all
          (fun i ->
            let a = base + (i * stride) in
            a >= e.Memory.lo && a < e.Memory.hi)
          (List.init count (fun i -> i)));
  ]

let word_properties =
  [
    qcheck "signed fields round-trip"
      Gen.(tup2 (int_range 2 30) (int_range (-1000) 1000))
      (fun (width, v) ->
        let v = max (-(1 lsl (width - 1))) (min v ((1 lsl (width - 1)) - 1)) in
        let w = Nsc_microcode.Word.create 64 in
        Nsc_microcode.Word.set_signed w ~offset:3 ~width v;
        Nsc_microcode.Word.get_signed w ~offset:3 ~width = v);
    qcheck "adjacent fields never interfere"
      Gen.(tup3 (int_range 1 20) (int_range 0 100000) (int_range 0 100000))
      (fun (w1, a, b) ->
        let a = a land ((1 lsl w1) - 1) in
        let b = b land 0xFFFF in
        let w = Nsc_microcode.Word.create 128 in
        Nsc_microcode.Word.set_int w ~offset:0 ~width:w1 a;
        Nsc_microcode.Word.set_int w ~offset:w1 ~width:16 b;
        Nsc_microcode.Word.get_int w ~offset:0 ~width:w1 = a
        && Nsc_microcode.Word.get_int w ~offset:w1 ~width:16 = b);
    qcheck "floats survive the word bit-exactly" Gen.(float_range (-1e30) 1e30)
      (fun f ->
        let w = Nsc_microcode.Word.create 80 in
        Nsc_microcode.Word.set_float w ~offset:16 f;
        Nsc_microcode.Word.get_float w ~offset:16 = f);
  ]

let layout = Nsc_microcode.Fields.make params

let pipeline_properties =
  [
    qcheck ~count:100 "random valid pipelines pass the complete checker"
      valid_pipeline_gen
      (fun pl -> checker_clean pl);
    qcheck ~count:100 "random valid pipelines round-trip the text format"
      valid_pipeline_gen
      (fun pl ->
        let prog = { (Program.empty "p") with Program.pipelines = [ pl ] } in
        let text = Serialize.to_string prog in
        match Serialize.of_string params text with
        | Ok prog' -> Serialize.to_string prog' = text
        | Error _ -> false);
    qcheck ~count:100 "random valid pipelines round-trip through microcode"
      valid_pipeline_gen
      (fun pl ->
        let sem, issues = Semantic.of_pipeline params pl in
        issues = []
        &&
        match Nsc_microcode.Encode.encode layout sem with
        | Error _ -> false
        | Ok instr -> (
            match Nsc_microcode.Decode.decode layout instr.Nsc_microcode.Encode.word with
            | Ok sem' -> Semantic.equal (Nsc_microcode.Encode.normalize sem) sem'
            | Error _ -> false));
    qcheck ~count:60 "microcode and semantic execution write identical memory"
      valid_pipeline_gen
      (fun pl ->
        let prog = { (Program.empty "p") with Program.pipelines = [ pl ] } in
        match Nsc_microcode.Codegen.compile kb prog with
        | Error _ -> true (* unencodable corner; covered by checker props *)
        | Ok c ->
            let run from_microcode =
              let node = Nsc_sim.Node.create params in
              (* deterministic input data in the planes the pipeline reads *)
              List.iter
                (fun plane ->
                  Nsc_sim.Node.load_array node ~plane ~base:0
                    (Array.init 80 (fun i -> float_of_int ((plane * 100) + i))))
                (List.init 16 (fun p -> p));
              match Nsc_sim.Sequencer.run node ~from_microcode c with
              | Ok _ ->
                  Some
                    (List.map
                       (fun plane -> Nsc_sim.Node.dump_array node ~plane ~base:0 ~len:80)
                       (List.init 16 (fun p -> p)))
              | Error _ -> None
            in
            run true = run false);
    qcheck ~count:100 "balancing leaves no timing errors on random pipelines"
      valid_pipeline_gen
      (fun pl ->
        let pl, _ = Nsc_checker.Balance.balance_pipeline kb pl in
        let ds = Nsc_checker.Checker.check_pipeline kb ~level:`Complete pl in
        not
          (List.exists
             (fun d ->
               Nsc_checker.Diagnostic.is_error d
               && Nsc_checker.Diagnostic.equal_rule d.Nsc_checker.Diagnostic.rule
                    Nsc_checker.Diagnostic.Timing)
             ds));
  ]

(* ------------------------------------------------------------------ *)
(* editor fuzzing                                                      *)
(* ------------------------------------------------------------------ *)

let random_event_gen : Nsc_editor.Event.t Gen.t =
  let open Gen in
  let point =
    let* x = int_range (-5) (Nsc_editor.Layout.window_w + 5) in
    let* y = int_range (-5) (Nsc_editor.Layout.window_h + 5) in
    return (Geometry.point x y)
  in
  oneof
    [
      map (fun p -> Nsc_editor.Event.Mouse_down p) point;
      map (fun p -> Nsc_editor.Event.Mouse_move p) point;
      map (fun p -> Nsc_editor.Event.Mouse_up p) point;
      map (fun n -> Nsc_editor.Event.Menu_select n) (int_range 0 40);
      oneofl
        [
          Nsc_editor.Event.Menu_cancel;
          Nsc_editor.Event.Form_submit;
          Nsc_editor.Event.Form_cancel;
          Nsc_editor.Event.Key "Escape";
          Nsc_editor.Event.Key "x";
        ];
      map
        (fun (f, v) -> Nsc_editor.Event.Form_set (f, v))
        (tup2
           (oneofl [ "plane"; "cache"; "variable"; "offset"; "stride"; "value"; "depth"; "length"; "pipeline"; "to"; "mode"; "amount" ])
           (oneofl [ "0"; "3"; "-1"; "abc"; ""; "1.5"; "99999" ]));
    ]

let editor_fuzz =
  [
    qcheck ~count:60 "the editor survives arbitrary event storms with a valid program"
      Gen.(list_size (int_range 30 120) random_event_gen)
      (fun events ->
        let st =
          List.fold_left Nsc_editor.Editor.handle (Nsc_editor.State.create kb) events
        in
        (* invariants: the program stays structurally sound and the cursor
           stays on an existing pipeline *)
        Validate.program params st.Nsc_editor.State.program = []
        && Program.find_pipeline st.Nsc_editor.State.program st.Nsc_editor.State.current
           <> None);
    qcheck ~count:40 "fuzzed sessions replay deterministically"
      Gen.(list_size (int_range 10 40) random_event_gen)
      (fun events ->
        let script =
          String.concat "\n" (List.map Nsc_editor.Event.to_tokens events)
        in
        let r1 = Nsc_editor.Session.replay (Nsc_editor.State.create kb) script in
        let r2 = Nsc_editor.Session.replay (Nsc_editor.State.create kb) script in
        Serialize.to_string r1.Nsc_editor.Session.final.Nsc_editor.State.program
        = Serialize.to_string r2.Nsc_editor.Session.final.Nsc_editor.State.program);
  ]

let suite =
  [
    ("property:arch", arch_properties);
    ("property:word", word_properties);
    ("property:pipeline", pipeline_properties);
    ("property:editor-fuzz", editor_fuzz);
  ]

(* appended: the two evaluators — the fused kernel (the fast path) and
   the general memoized evaluator (the oracle) — compared on the full
   result of one instruction: every memory plane, [last_values], cycles,
   flops, words written and the interrupt events.  The reference
   discovers traps in memoized recursion order and the kernel in
   element-major order, so events are compared as sorted lists.  Every
   comparison is [compare ... = 0], under which NaN equals itself (a
   corrupted latch drains NaN into memory). *)
let load_planes ~scale ~div node =
  List.iter
    (fun plane ->
      Nsc_sim.Node.load_array node ~plane ~base:0
        (Array.init 80 (fun i -> Float.of_int ((plane * scale) + i) /. div)))
    (List.init 16 (fun p -> p))

let summary (r : Nsc_sim.Engine.result) =
  ( List.sort compare r.Nsc_sim.Engine.last_values,
    r.Nsc_sim.Engine.cycles,
    r.Nsc_sim.Engine.flops,
    r.Nsc_sim.Engine.writes,
    List.sort compare r.Nsc_sim.Engine.events )

(* run [execs] in order on one freshly loaded node: the memory planes
   after the last one, and each run's summary *)
let observe_seq ~scale ~div execs =
  let node = Nsc_sim.Node.create params in
  load_planes ~scale ~div node;
  let rs = List.map (fun exec -> summary (exec node)) execs in
  let mem =
    List.map
      (fun plane -> Nsc_sim.Node.dump_array node ~plane ~base:0 ~len:80)
      (List.init 16 (fun p -> p))
  in
  (mem, rs)

let observe ~scale ~div exec = observe_seq ~scale ~div [ exec ]

let same a b = compare a b = 0

let kernel_exec ?run sem node =
  Nsc_sim.Engine.run_kernel node ?run (Nsc_sim.Kernel.compile (Nsc_sim.Plan.compile params sem))

let reference_exec ?run sem node = Nsc_sim.Engine.run_general node ?run sem

(* the data scale is drawn per case, so planes hold different values *)
let engine_equivalence =
  [
    qcheck ~count:100 "fast and general evaluators write identical memory"
      Gen.(pair valid_pipeline_gen (int_range 1 16))
      (fun (pl, scale) ->
        let sem, _ = Semantic.of_pipeline params pl in
        let run exec =
          let trace = ref [] in
          let o =
            observe ~scale ~div:3.0 (fun node ->
                let r : Nsc_sim.Engine.result = exec node in
                (match r.Nsc_sim.Engine.trace with
                | Some tr ->
                    trace :=
                      List.sort compare
                        (Hashtbl.fold
                           (fun k v acc -> (k, v) :: acc)
                           tr.Nsc_sim.Engine.unit_values [])
                | None -> ());
                r)
          in
          (o, !trace)
        in
        same
          (run (fun node -> Nsc_sim.Engine.run_general node ~record_trace:true sem))
          (run (fun node -> Nsc_sim.Engine.run node ~record_trace:true sem)));
  ]

let suite = suite @ [ ("property:engine-equivalence", engine_equivalence) ]

(* appended: the plan as a compile stage — a kernel compiled with timing
   ignored still matches the reference under the same setting, and a
   kernel replayed from the compile cache matches a fresh compile *)
let plan_equivalence =
  [
    qcheck ~count:60 "compiled plans match the reference evaluator without timing"
      valid_pipeline_gen
      (fun pl ->
        let sem, _ = Semantic.of_pipeline params pl in
        same
          (observe ~scale:11 ~div:7.0 (fun node ->
               Nsc_sim.Engine.run node ~honor_timing:false sem))
          (observe ~scale:11 ~div:7.0 (fun node ->
               Nsc_sim.Engine.run_general node ~honor_timing:false sem)));
    qcheck ~count:40 "cached plans replay identically to fresh compiles"
      valid_pipeline_gen
      (fun pl ->
        let sem, _ = Semantic.of_pipeline params pl in
        let fresh = observe ~scale:5 ~div:2.0 (kernel_exec sem) in
        let cache = Nsc_sim.Kernel.make_cache () in
        (* prime the cache, then the second lookup must hit and agree *)
        ignore (Nsc_sim.Kernel.find_or_compile cache params sem);
        let compiles = Nsc_sim.Plan.compile_count ()
        and hits = Nsc_sim.Kernel.cache_hit_count () in
        let cached =
          observe ~scale:5 ~div:2.0 (fun node ->
              Nsc_sim.Engine.run_kernel node (Nsc_sim.Kernel.find_or_compile cache params sem))
        in
        Nsc_sim.Plan.compile_count () = compiles
        && Nsc_sim.Kernel.cache_hit_count () = hits + 1
        && same cached fresh);
  ]

let suite = suite @ [ ("property:plan-equivalence", plan_equivalence) ]

(* appended: instruction sequences — two instructions run back to back on
   one node, so the second reads what the first wrote and the kernel's
   second body runs on pooled buffers the first handed back dirty.  Both
   results and the final memory must match the reference's. *)
let kernel_equivalence =
  [
    qcheck ~count:100
      "fused kernels match the reference evaluator over two-instruction sequences"
      Gen.(pair valid_pipeline_gen valid_pipeline_gen)
      (fun (p1, p2) ->
        let s1, _ = Semantic.of_pipeline params p1
        and s2, _ = Semantic.of_pipeline params p2 in
        same
          (observe_seq ~scale:13 ~div:5.0 [ kernel_exec s1; kernel_exec s2 ])
          (observe_seq ~scale:13 ~div:5.0 [ reference_exec s1; reference_exec s2 ]));
  ]

let suite = suite @ [ ("property:kernel-equivalence", kernel_equivalence) ]

(* appended: one instruction under a fault model seeded per case.  The
   model is made afresh from the case's seed for each evaluator's run,
   so both consume one fault stream.  Every case draws an FU fault (p=1)
   on a random unit and element, which is what reaches the rare victims —
   such as a unit whose buffer an elided pass-through shares.  A case
   counts as trapped when its observed events hold an invalid-operand
   trap that the same instruction on a clean machine does not raise; the
   property fails if no case trapped, so it cannot pass vacuously. *)
let faulted_equivalence =
  let module F = Nsc_fault.Fault in
  let spec = Result.get_ok (F.parse "fu-fault:p=1,dma-stall:p=0.5") in
  let trapped = ref 0 in
  let invalid_traps (_, rs) =
    List.concat_map
      (fun (_, _, _, _, events) ->
        List.filter
          (function
            | Interrupt.Exception_trapped { kind = Interrupt.Invalid_operand; _ } -> true
            | _ -> false)
          events)
      rs
  in
  let prop (pl, seed) =
    let sem, _ = Semantic.of_pipeline params pl in
    let faulted exec =
      observe ~scale:13 ~div:5.0 (exec (Nsc_sim.Run.make ~fault:(F.make ~seed spec) ()))
    in
    let kernel = faulted (fun run -> kernel_exec ~run sem) in
    let clean = invalid_traps (observe ~scale:13 ~div:5.0 (kernel_exec sem)) in
    if List.exists (fun ev -> not (List.mem ev clean)) (invalid_traps kernel) then
      incr trapped;
    same kernel (faulted (fun run -> reference_exec ~run sem))
  in
  let name = "fused kernels match the reference under per-case seeded faults" in
  [
    case name (fun () ->
        trapped := 0;
        QCheck2.Test.check_exn
          (QCheck2.Test.make ~name ~count:300
             Gen.(pair valid_pipeline_gen (int_range 0 1_000_000))
             prop);
        check_bool "some case trapped an FU fault" true (!trapped > 0));
  ]

let suite = suite @ [ ("property:faulted-equivalence", faulted_equivalence) ]
