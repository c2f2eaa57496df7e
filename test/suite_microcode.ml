(* Microcode: words, field layout, encode/decode round trips, codegen. *)

open Nsc_arch
open Nsc_diagram
open Nsc_microcode
open Util

let layout = Fields.make params

let word_tests =
  [
    case "bit set/get round-trips at arbitrary offsets" (fun () ->
        let w = Word.create 100 in
        Word.set_int w ~offset:13 ~width:7 97;
        check_int "value" 97 (Word.get_int w ~offset:13 ~width:7);
        check_int "neighbours untouched" 0 (Word.get_int w ~offset:0 ~width:13));
    case "values too wide for their field are rejected" (fun () ->
        let w = Word.create 64 in
        Alcotest.check_raises "overflow"
          (Invalid_argument "Word.set: value 256 does not fit in 8 bits") (fun () ->
            Word.set w ~offset:0 ~width:8 256L));
    case "signed fields bias around zero" (fun () ->
        let w = Word.create 64 in
        Word.set_signed w ~offset:3 ~width:17 (-5);
        check_int "neg" (-5) (Word.get_signed w ~offset:3 ~width:17);
        Word.set_signed w ~offset:3 ~width:17 1000;
        check_int "pos" 1000 (Word.get_signed w ~offset:3 ~width:17));
    case "floats are stored bit-exactly" (fun () ->
        let w = Word.create 128 in
        Word.set_float w ~offset:17 (1.0 /. 6.0);
        check_bool "exact" true (Word.get_float w ~offset:17 = 1.0 /. 6.0));
    case "popcount counts live bits" (fun () ->
        let w = Word.create 32 in
        Word.set_int w ~offset:0 ~width:8 0xFF;
        check_int "8 bits" 8 (Word.popcount w));
    case "hex dump covers every byte" (fun () ->
        let w = Word.create 40 in
        let hex = Word.to_hex w in
        check_int "5 bytes = 14 chars" 14 (String.length hex));
    qcheck "random field writes read back" ~count:500
      QCheck2.Gen.(tup3 (int_range 0 900) (int_range 1 63) (int_range 0 1000000))
      (fun (offset, width, v) ->
        let w = Word.create 1024 in
        let v = v land ((1 lsl width) - 1) in
        Word.set_int w ~offset ~width v;
        Word.get_int w ~offset ~width = v);
  ]

(* The bit-by-bit reference read the byte-wise field access is checked
   against. *)
let reference_get w ~offset ~width =
  let v = ref 0L in
  for i = width - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 1) (Int64.of_int (Word.get_bit w (offset + i)))
  done;
  !v

(* A word of 8·nbytes + r bits (never a whole number of bytes, at least
   65 bits) with contents [fill], a field of [width] bits at any offset
   that fits, and a value [v] to write. *)
let word_case_gen =
  QCheck2.Gen.(
    let* nbytes = int_range 8 40 in
    let* r = int_range 1 7 in
    let bits = (8 * nbytes) + r in
    let* width = int_range 1 64 in
    let* offset = int_range 0 (bits - width) in
    let* fill = string_size ~gen:char (return (nbytes + 1)) in
    let* v = int64 in
    return (bits, width, offset, fill, v))

let word_of_fill bits fill =
  let w = Word.create bits in
  for i = 0 to bits - 1 do
    Word.set_bit w i ((Char.code fill.[i lsr 3] lsr (i land 7)) land 1 = 1)
  done;
  w

let word_access_tests =
  [
    qcheck ~count:1000 "field reads equal a bit-by-bit reference" word_case_gen
      (fun (bits, width, offset, fill, _) ->
        let w = word_of_fill bits fill in
        let expect = reference_get w ~offset ~width in
        Word.get w ~offset ~width = expect
        && Word.get_int w ~offset ~width = Int64.to_int expect
        && Word.get_signed w ~offset ~width
           = Int64.to_int expect - (1 lsl (width - 1))
        && (width <> 64
           || Int64.bits_of_float (Word.get_float w ~offset) = expect));
    qcheck ~count:1000 "field writes change exactly the field's bits" word_case_gen
      (fun (bits, width, offset, fill, v) ->
        let w = word_of_fill bits fill in
        let v =
          if width = 64 then v
          else Int64.logand v (Int64.pred (Int64.shift_left 1L width))
        in
        Word.set w ~offset ~width v;
        let before = word_of_fill bits fill in
        let inside i = i >= offset && i < offset + width in
        reference_get w ~offset ~width = v
        && List.for_all
             (fun i -> inside i || Word.get_bit w i = Word.get_bit before i)
             (List.init bits Fun.id));
    case "access outside the word is refused" (fun () ->
        let w = Word.create 70 in
        Alcotest.check_raises "range" (Invalid_argument "Word.get: range") (fun () ->
            ignore (Word.get_int w ~offset:60 ~width:11));
        Alcotest.check_raises "width" (Invalid_argument "Word.get: width") (fun () ->
            ignore (Word.get w ~offset:0 ~width:65));
        Alcotest.check_raises "set range" (Invalid_argument "Word.set: range") (fun () ->
            Word.set_int w ~offset:64 ~width:7 1));
  ]

let fields_tests =
  [
    case "the instruction is a few thousand bits in hundreds of fields" (fun () ->
        check_bool ">= 2000 bits" true (layout.Fields.total_bits >= 2000);
        check_bool ">= 100 field instances" true (Fields.field_count layout >= 100);
        check_bool ">= 24 distinct kinds" true (Fields.kind_count layout >= 24));
    case "fields do not overlap and cover the word" (fun () ->
        let sorted =
          List.sort (fun a b -> compare a.Fields.offset b.Fields.offset) layout.Fields.fields
        in
        let rec walk expected = function
          | [] -> check_int "total" layout.Fields.total_bits expected
          | f :: rest ->
              check_int ("offset of " ^ f.Fields.name) expected f.Fields.offset;
              walk (expected + f.Fields.width) rest
        in
        walk 0 sorted);
    case "every unit has its control fields" (fun () ->
        List.iter
          (fun fu ->
            let g = Resource.fu_global_index params fu in
            check_bool "op" true (Fields.mem layout (Printf.sprintf "fu%d.op" g));
            check_bool "const" true (Fields.mem layout (Printf.sprintf "fu%d.const_val" g)))
          (Resource.all_fus params));
    case "every switch sink has a selector" (fun () ->
        List.iter
          (fun snk ->
            check_bool "sink field" true
              (Fields.mem layout ("snk." ^ Resource.sink_to_string snk)))
          (Knowledge.all_sinks kb));
    case "unknown fields raise" (fun () ->
        Alcotest.check_raises "find" (Invalid_argument "Fields.find: no field 'nope'")
          (fun () -> ignore (Fields.find layout "nope")));
    case "a smaller machine yields a smaller word" (fun () ->
        let small = Fields.make Params.subset_model in
        check_bool "smaller" true (small.Fields.total_bits < layout.Fields.total_bits));
  ]

let roundtrip prog index =
  let sem, issues = semantic_of_program prog index in
  check_int "no issues" 0 (List.length issues);
  match Encode.encode layout sem with
  | Error e -> Alcotest.fail ("encode: " ^ e)
  | Ok instr -> (
      match Decode.decode layout instr.Encode.word with
      | Error e -> Alcotest.fail ("decode: " ^ e)
      | Ok sem' ->
          let n = Encode.normalize sem in
          if not (Semantic.equal n sem') then begin
            print_endline (Semantic.show n);
            print_endline (Semantic.show sem');
            Alcotest.fail "round trip changed the semantics"
          end)

let encode_tests =
  [
    case "vecadd round-trips through machine code" (fun () ->
        let prog, _ = vecadd_program () in
        roundtrip prog 1);
    case "the full Jacobi program round-trips" (fun () ->
        let b = Nsc_apps.Jacobi.build kb (Nsc_apps.Grid.cube 5) ~tol:1e-6 ~max_iters:10 in
        List.iter
          (fun (pl : Pipeline.t) -> roundtrip b.Nsc_apps.Jacobi.program pl.Pipeline.index)
          b.Nsc_apps.Jacobi.program.Program.pipelines);
    case "the red-black program round-trips" (fun () ->
        let b = Nsc_apps.Redblack.build kb (Nsc_apps.Grid.cube 5) ~tol:1e-6 ~max_iters:10 in
        List.iter
          (fun (pl : Pipeline.t) -> roundtrip b.Nsc_apps.Redblack.program pl.Pipeline.index)
          b.Nsc_apps.Redblack.program.Program.pipelines);
    case "the multigrid program round-trips" (fun () ->
        let b =
          Nsc_apps.Multigrid.build kb (Nsc_apps.Multigrid.grid1 17) ~cycles:1 ~nu1:1 ~nu2:1
            ~nu_coarse:2
        in
        List.iter
          (fun (pl : Pipeline.t) ->
            roundtrip b.Nsc_apps.Multigrid.program pl.Pipeline.index)
          b.Nsc_apps.Multigrid.program.Program.pipelines);
    case "every switch source round-trips through a selector" (fun () ->
        (* each unit, every plane and cache DMA engine and every
           shift/delay unit — the highest codes included — routed into
           one sink, encoded and decoded back *)
        let sources = Knowledge.all_sources kb in
        check_int "one source per unit, DMA engine and shift/delay unit"
          (Params.n_functional_units params
          + (params.Params.n_memory_planes * params.Params.plane_dma_slots)
          + (params.Params.n_caches * params.Params.cache_dma_slots)
          + params.Params.n_shift_delay)
          (List.length sources);
        check_bool "both shift/delay units are sources" true
          (List.mem (Resource.Src_shift_delay 1) sources);
        let snk = Resource.Snk_fu ({ Resource.als = 0; slot = 0 }, Resource.A) in
        List.iter
          (fun src ->
            let sem =
              { Semantic.index = 1; label = ""; vector_length = 8; bypasses = []; units = [];
                sds = []; routes = [ { Switch.src; snk } ]; streams = [] }
            in
            let name = Resource.source_to_string src in
            match Encode.encode layout sem with
            | Error e -> Alcotest.failf "%s: encode: %s" name e
            | exception e -> Alcotest.failf "%s: encode raised %s" name (Printexc.to_string e)
            | Ok instr -> (
                match Decode.decode layout instr.Encode.word with
                | Error e -> Alcotest.failf "%s: decode: %s" name e
                | Ok sem' ->
                    check_bool (name ^ " routed back") true
                      (sem'.Semantic.routes = [ { Switch.src; snk } ])))
          sources);
    case "decoding a non-instruction fails on the magic number" (fun () ->
        let w = Fields.fresh_word layout in
        match Decode.decode layout w with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "decoded garbage");
    case "two constants on one unit are unencodable" (fun () ->
        let pl, icon = pipeline_with Nsc_arch.Als.Singlet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:(Fu_config.From_constant 1.0) ~b:(Fu_config.From_constant 2.0)
               Nsc_arch.Opcode.Fadd)
        in
        let sem, _ = Semantic.of_pipeline params pl in
        match Encode.encode layout sem with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "encoded two constants");
  ]

let codegen_tests =
  [
    case "compile produces one instruction per pipeline" (fun () ->
        let prog, _ = vecadd_program () in
        match Codegen.compile kb prog with
        | Ok c ->
            check_int "instrs" 1 (List.length c.Codegen.instructions);
            check_bool "bits" true (Codegen.code_bits c >= 2000)
        | Error _ -> Alcotest.fail "compile failed");
    case "compile refuses a program with errors" (fun () ->
        let pl, icon = pipeline_with Nsc_arch.Als.Singlet in
        let pl =
          Pipeline.set_config pl ~id:icon ~slot:0
            (Fu_config.make ~a:(Fu_config.From_constant 1.0) ~b:(Fu_config.From_constant 1.0)
               Nsc_arch.Opcode.Iadd)
        in
        let prog = { (Program.empty "bad") with Program.pipelines = [ pl ] } in
        check_bool "refused" true (Result.is_error (Codegen.compile kb prog)));
    case "the listing names the operations and streams" (fun () ->
        let prog, _ = vecadd_program () in
        let c = Result.get_ok (Codegen.compile kb prog) in
        let listing = Listing.compiled_to_string c in
        let contains needle =
          let nh = String.length listing and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub listing i nn = needle || go (i + 1)) in
          go 0
        in
        check_bool "fadd" true (contains "fadd");
        check_bool "mem0" true (contains "mem0");
        check_bool "control" true (contains "control:"));
    case "hex listings dump the words" (fun () ->
        let prog, _ = vecadd_program () in
        let c = Result.get_ok (Codegen.compile kb prog) in
        check_bool "longer with hex" true
          (String.length (Listing.compiled_to_string ~hex:true c)
          > String.length (Listing.compiled_to_string c)));
  ]

(* A word of [layout] that decodes cleanly, with one field then
   overwritten by name. *)
let corrupted layout name v =
  let prog, _ = vecadd_program () in
  let sem, _ = semantic_of_program prog 1 in
  let instr = Result.get_ok (Encode.encode layout sem) in
  Fields.set layout instr.Encode.word name v;
  instr.Encode.word

let check_decode_error ?(layout = layout) msg word =
  match Decode.decode layout word with
  | Error e -> check_string "message" msg e
  | Ok _ -> Alcotest.fail "decoded a word with an undefined code"

let decode_error_tests =
  [
    case "a word without the magic number is refused" (fun () ->
        check_decode_error "bad magic number: not an NSC microinstruction"
          (Fields.fresh_word layout));
    case "an undefined opcode is refused" (fun () ->
        let code =
          List.find (fun c -> Opcode.of_code c = None) (List.init 63 (fun c -> c + 1))
        in
        check_decode_error
          (Printf.sprintf "unit 5: undefined opcode %d" code)
          (corrupted layout "fu5.op" code));
    case "an undefined bypass code is refused" (fun () ->
        check_decode_error "ALS3: undefined bypass code 3"
          (corrupted layout "als3.bypass" 3));
    case "an undefined switch source is refused" (fun () ->
        (* one plane and no caches leave the selector codes to spare *)
        let p = { params with Params.n_memory_planes = 1; n_caches = 0 } in
        let layout = Fields.make p in
        let snk, f = layout.Fields.sinks.(0) in
        let code =
          List.find
            (fun c -> Resource.source_of_code p c = None)
            (List.init ((1 lsl f.Fields.width) - 1) (fun c -> c + 1))
        in
        let w = Fields.fresh_word layout in
        Fields.set layout w "hdr.magic" Encode.magic;
        Fields.set layout w f.Fields.name code;
        check_decode_error ~layout
          (Printf.sprintf "sink %s: undefined source code %d" (Resource.sink_to_string snk) code)
          w);
    case "an undefined shift/delay mode is refused" (fun () ->
        check_decode_error "sd1: undefined mode 3" (corrupted layout "sd1.mode" 3));
    case "the sequencer names the instruction that fails to decode" (fun () ->
        let prog, _ = vecadd_program () in
        let c = Result.get_ok (Codegen.compile kb prog) in
        let bad = { (List.hd c.Codegen.instructions) with Encode.word = Fields.fresh_word layout } in
        match
          Nsc_sim.Sequencer.run (Nsc_sim.Node.create params)
            { c with Codegen.instructions = [ bad ] }
        with
        | Error e ->
            check_string "message" "instruction 1: bad magic number: not an NSC microinstruction" e
        | Ok _ -> Alcotest.fail "ran an undecodable word");
    case "prepare reports a corrupted word with the message run gives" (fun () ->
        let b = Nsc_apps.Jacobi.build kb (Nsc_apps.Grid.cube 5) ~tol:1e-6 ~max_iters:10 in
        let c = Result.get_ok (Codegen.compile kb b.Nsc_apps.Jacobi.program) in
        let code =
          List.find (fun c -> Opcode.of_code c = None) (List.init 63 (fun c -> c + 1))
        in
        let instructions =
          List.map
            (fun (i : Encode.instruction) ->
              if i.Encode.index <> 2 then i
              else begin
                let w = Word.copy i.Encode.word in
                Fields.set c.Codegen.layout w "fu5.op" code;
                { i with Encode.word = w }
              end)
            c.Codegen.instructions
        in
        let c = { c with Codegen.instructions } in
        let want = Printf.sprintf "instruction 2: unit 5: undefined opcode %d" code in
        (match Nsc_sim.Sequencer.prepare c with
        | Error e -> check_string "prepare" want e
        | Ok _ -> Alcotest.fail "prepared an undecodable word");
        match Nsc_sim.Sequencer.run (Nsc_sim.Node.create params) c with
        | Error e -> check_string "run" want e
        | Ok _ -> Alcotest.fail "ran an undecodable word");
  ]

(* One instruction touching every section of the subset machine: a
   doublet with a constant and a feedback operand, an explicit bypass,
   plane and cache streams on non-zero engines, and a shift/delay. *)
let subset_semantic : Semantic.t =
  let head = { Resource.als = 8; slot = 0 } and tail = { Resource.als = 8; slot = 1 } in
  {
    Semantic.index = 7;
    label = "";
    vector_length = 40;
    bypasses = [ (8, Als.No_bypass); (9, Als.Keep_tail) ];
    units =
      [
        { Semantic.fu = head; op = Opcode.Fmul; a = Fu_config.From_switch;
          b = Fu_config.From_constant 0.25; delay_a = 3; delay_b = 0 };
        { Semantic.fu = tail; op = Opcode.Fadd; a = Fu_config.From_chain;
          b = Fu_config.From_feedback 2; delay_a = 0; delay_b = 1 };
      ];
    sds = [ { Semantic.sd = 1; mode = Shift_delay.Delay (-4) } ];
    routes =
      [
        { Switch.src = Resource.Src_memory (5, 1); snk = Resource.Snk_fu (head, Resource.A) };
        { Switch.src = Resource.Src_fu tail; snk = Resource.Snk_cache (6, 1) };
        { Switch.src = Resource.Src_fu tail; snk = Resource.Snk_shift_delay 1 };
      ];
    streams =
      [
        { Semantic.transfer =
            { Dma.channel = Dma.Plane 5; direction = Dma.Read; base = 100; stride = -3; count = 0 };
          engine = `Read (Resource.Src_memory (5, 1)) };
        { Semantic.transfer =
            { Dma.channel = Dma.Cache_chan 6; direction = Dma.Write; base = 7; stride = 1; count = 40 };
          engine = `Write (Resource.Snk_cache (6, 1)) };
      ];
  }

let layout_tests =
  [
    case "every section round-trips on the subset machine's layout" (fun () ->
        let small = Fields.make Params.subset_model in
        match Encode.encode small subset_semantic with
        | Error e -> Alcotest.fail ("encode: " ^ e)
        | Ok instr -> (
            match Decode.decode small instr.Encode.word with
            | Error e -> Alcotest.fail ("decode: " ^ e)
            | Ok sem ->
                check_bool "round trip" true
                  (Semantic.equal (Encode.normalize subset_semantic) sem)));
    case "programs compiled for the subset machine round-trip" (fun () ->
        let kb' = Knowledge.subset in
        match
          Nsc_lang.Compile.compile kb'
            "array a[16] plane 0\narray b[16] plane 1\narray c[16] plane 2\n\
             b = (a[-1] + a[+1]) * 0.5\nc = abs(b - a) + 2.0"
        with
        | Error e -> Alcotest.fail e.Nsc_lang.Compile.message
        | Ok lc ->
            let c = Result.get_ok (Codegen.compile kb' lc.Nsc_lang.Compile.program) in
            check_bool "subset layout" true
              (c.Codegen.layout.Fields.total_bits < layout.Fields.total_bits);
            List.iter2
              (fun (i : Encode.instruction) sem ->
                match Decode.decode c.Codegen.layout i.Encode.word with
                | Ok sem' ->
                    check_bool "round trip" true (Semantic.equal (Encode.normalize sem) sem')
                | Error e -> Alcotest.fail e)
              c.Codegen.instructions c.Codegen.semantics);
    case "the section tables hold every named field once, in layout order" (fun () ->
        let l = layout in
        let u = l.Fields.units.(3) in
        let tabled =
          [ l.Fields.header.Fields.magic; l.Fields.header.Fields.index; l.Fields.header.Fields.vlen ]
          @ Array.to_list l.Fields.bypass
          @ List.concat_map
              (fun (u : Fields.unit_fields) ->
                Fields.[ u.op; u.src_a; u.src_b; u.delay_a; u.delay_b; u.fb_a; u.fb_b;
                         u.const_port; u.const_val ])
              (Array.to_list l.Fields.units)
          @ List.map snd (Array.to_list l.Fields.sinks)
          @ List.concat_map
              (fun engines ->
                List.concat_map
                  (fun (e : Fields.dma_fields) ->
                    Fields.[ e.active; e.dir; e.base; e.stride; e.count ])
                  (Array.to_list engines))
              (Array.to_list l.Fields.plane_dma @ Array.to_list l.Fields.cache_dma)
          @ List.concat_map
              (fun (sd : Fields.sd_fields) -> Fields.[ sd.mode; sd.amount ])
              (Array.to_list l.Fields.sds)
        in
        check_bool "same fields" true (tabled = l.Fields.fields);
        check_string "unit 3 op" "fu3.op" u.Fields.op.Fields.name;
        check_bool "unit 3 id" true
          (Resource.equal_fu_id u.Fields.fu (Resource.fu_of_global_index params 3));
        Array.iter
          (fun (snk, f) -> check_bool "sink lookup" true (Fields.sink_field l snk == f))
          l.Fields.sinks;
        Alcotest.check_raises "unknown sink"
          (Invalid_argument "Fields.sink_field: no sink mem0.e9") (fun () ->
            ignore (Fields.sink_field l (Resource.Snk_memory (0, 9)))));
    case "decoding the n=9 Jacobi program allocates under 4k words per instruction"
      (fun () ->
        let b = Nsc_apps.Jacobi.build kb (Nsc_apps.Grid.cube 9) ~tol:1e-6 ~max_iters:1000 in
        let c = Result.get_ok (Codegen.compile kb b.Nsc_apps.Jacobi.program) in
        let decode_all () =
          List.iter
            (fun (i : Encode.instruction) ->
              ignore (Result.get_ok (Decode.decode c.Codegen.layout i.Encode.word)))
            c.Codegen.instructions
        in
        decode_all ();
        let reps = 10 in
        let before = Gc.minor_words () in
        for _ = 1 to reps do
          decode_all ()
        done;
        let per_instruction =
          (Gc.minor_words () -. before)
          /. float_of_int (reps * List.length c.Codegen.instructions)
        in
        if per_instruction > 4000.0 then
          Alcotest.failf "decode allocated %.0f words per instruction" per_instruction);
  ]

(* One layout per machine: [Fields.make] builds a parameter set's layout
   once and hands every later caller, on any domain, that same value. *)
let sharing_tests =
  let one_plane = { params with Params.n_memory_planes = 1; n_caches = 0 } in
  [
    case "equal parameters share one layout" (fun () ->
        List.iter
          (fun (name, p) ->
            check_bool name true (Fields.make p == Fields.make p);
            (* an equal record that is a different value finds it too *)
            check_bool (name ^ ", copied record") true
              (Fields.make { p with Params.n_caches = p.Params.n_caches } == Fields.make p))
          [
            ("default", Params.default);
            ("subset model", Params.subset_model);
            ("one plane, no caches", one_plane);
          ]);
    case "distinct parameters get distinct layouts" (fun () ->
        let layouts = List.map Fields.make [ Params.default; Params.subset_model; one_plane ] in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b -> if i < j then check_bool "not shared" false (a == b))
              layouts)
          layouts;
        let bits = List.map (fun l -> l.Fields.total_bits) layouts in
        check_int "three word widths" 3 (List.length (List.sort_uniq compare bits));
        (* parameters the layout does not depend on still key their own *)
        let slower = { params with Params.hop_latency = params.Params.hop_latency + 1 } in
        check_bool "own layout" false (Fields.make slower == Fields.make params);
        check_int "same width" layout.Fields.total_bits (Fields.make slower).Fields.total_bits);
    case "two domains racing on a new machine encode and decode alike" (fun () ->
        (* a parameter set no other test uses, so both domains ask for its
           layout before either has been published *)
        let p = { params with Params.hop_latency = 977 } in
        let kb = Knowledge.make_exn p in
        let prog =
          (Nsc_apps.Jacobi.build kb (Nsc_apps.Grid.cube 5) ~tol:1e-6 ~max_iters:10)
            .Nsc_apps.Jacobi.program
        in
        let ready = Atomic.make 0 in
        let race () =
          Atomic.incr ready;
          while Atomic.get ready < 2 do
            Domain.cpu_relax ()
          done;
          let layout = Fields.make p in
          let c = Result.get_ok (Codegen.compile kb prog) in
          ( layout,
            List.map
              (fun (i : Encode.instruction) ->
                (i.Encode.word, Result.get_ok (Decode.decode layout i.Encode.word)))
              c.Codegen.instructions )
        in
        let other = Domain.spawn race in
        let l1, code1 = race () in
        let l2, code2 = Domain.join other in
        check_bool "both domains hold the published layout" true
          (l1 == l2 && l1 == Fields.make p);
        check_int "instructions" (List.length code1) (List.length code2);
        List.iter2
          (fun (w1, sem1) (w2, sem2) ->
            check_bool "identical words" true (Word.equal w1 w2);
            check_bool "identical semantics" true (Semantic.equal sem1 sem2))
          code1 code2);
  ]

let suite =
  [
    ("microcode:word", word_tests);
    ("microcode:layout-sharing", sharing_tests);
    ("microcode:word-access", word_access_tests);
    ("microcode:decode-errors", decode_error_tests);
    ("microcode:layout", layout_tests);
    ("microcode:fields", fields_tests);
    ("microcode:roundtrip", encode_tests);
    ("microcode:codegen", codegen_tests);
  ]
