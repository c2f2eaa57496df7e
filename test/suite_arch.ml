(* Architecture knowledge base: parameters, resources, ALS structure,
   opcodes, capabilities. *)

open Nsc_arch
open Util

let default = Params.default

let params_tests =
  [
    case "default parameters are self-consistent" (fun () ->
        check_int "no problems" 0 (List.length (Params.validate default)));
    case "node has the paper's 32 functional units" (fun () ->
        check_int "fus" 32 (Params.n_functional_units default));
    case "peak node rate is the paper's 640 MFLOPS" (fun () ->
        check_float "mflops" 640.0 (Params.peak_mflops default));
    case "64-node machine approaches the paper's 40 GFLOPS" (fun () ->
        check_float "gflops" 40.96 (Params.peak_gflops_machine default));
    case "node memory is the paper's 2 Gbytes" (fun () ->
        check_int "bytes" (2 * 1024 * 1024 * 1024) (Params.node_memory_bytes default));
    case "subset model is also self-consistent" (fun () ->
        check_int "no problems" 0 (List.length (Params.validate Params.subset_model)));
    case "subset model has no triplets" (fun () ->
        check_int "triplets" 0 Params.subset_model.Params.n_triplets);
    case "validate rejects zero ALSs" (fun () ->
        let bad = { default with Params.n_singlets = 0; n_doublets = 0; n_triplets = 0 } in
        check_bool "flagged" true (Params.validate bad <> []));
    case "validate rejects delay queues deeper than the register file" (fun () ->
        let bad = { default with Params.rf_max_delay = default.Params.rf_registers + 1 } in
        check_bool "flagged" true (Params.validate bad <> []));
    case "validate rejects too few DMA engines" (fun () ->
        let bad = { default with Params.plane_dma_slots = 1 } in
        check_bool "flagged" true (Params.validate bad <> []));
    case "validate rejects a negative reconfiguration cost" (fun () ->
        let bad = { default with Params.reconfig_cycles = -1 } in
        check_bool "flagged" true (Params.validate bad <> []));
  ]

let resource_tests =
  [
    case "ALS sizes follow singlets-doublets-triplets order" (fun () ->
        check_int "first singlet" 1 (Resource.als_size default 0);
        check_int "first doublet" 2 (Resource.als_size default default.Params.n_singlets);
        check_int "first triplet" 3
          (Resource.als_size default (default.Params.n_singlets + default.Params.n_doublets)));
    case "global index round-trips over every unit" (fun () ->
        List.iter
          (fun fu ->
            let g = Resource.fu_global_index default fu in
            check_bool "roundtrip" true
              (Resource.equal_fu_id fu (Resource.fu_of_global_index default g)))
          (Resource.all_fus default));
    case "global indices are dense and complete" (fun () ->
        let idxs =
          List.map (Resource.fu_global_index default) (Resource.all_fus default)
          |> List.sort_uniq compare
        in
        check_int "count" 32 (List.length idxs);
        check_int "min" 0 (List.hd idxs);
        check_int "max" 31 (List.nth idxs 31));
    case "singlet units have only floating point" (fun () ->
        check_bool "float" true
          (Resource.fu_has_capability default { Resource.als = 0; slot = 0 } Capability.Float);
        check_bool "no int" false
          (Resource.fu_has_capability default { Resource.als = 0; slot = 0 }
             Capability.Int_logical);
        check_bool "no minmax" false
          (Resource.fu_has_capability default { Resource.als = 0; slot = 0 }
             Capability.Min_max));
    case "doublet head is the double-box unit; tail has min/max" (fun () ->
        let d = default.Params.n_singlets in
        check_bool "head int" true
          (Resource.fu_has_capability default { Resource.als = d; slot = 0 }
             Capability.Int_logical);
        check_bool "tail minmax" true
          (Resource.fu_has_capability default { Resource.als = d; slot = 1 }
             Capability.Min_max);
        check_bool "head not minmax" false
          (Resource.fu_has_capability default { Resource.als = d; slot = 0 }
             Capability.Min_max));
    case "triplet middle unit is plain floating point" (fun () ->
        let t = default.Params.n_singlets + default.Params.n_doublets in
        check_bool "no int" false
          (Resource.fu_has_capability default { Resource.als = t; slot = 1 }
             Capability.Int_logical);
        check_bool "no minmax" false
          (Resource.fu_has_capability default { Resource.als = t; slot = 1 }
             Capability.Min_max));
    case "fu_valid rejects out-of-range slots" (fun () ->
        check_bool "bad slot" false (Resource.fu_valid default { Resource.als = 0; slot = 1 });
        check_bool "bad als" false (Resource.fu_valid default { Resource.als = 99; slot = 0 }));
    case "source codes round-trip for every source" (fun () ->
        let kb = Knowledge.default in
        List.iter
          (fun src ->
            let code = Resource.source_code default src in
            match Resource.source_of_code default code with
            | Some src' -> check_bool "roundtrip" true (Resource.equal_source src src')
            | None -> Alcotest.fail "decode failed")
          (Knowledge.all_sources kb));
    case "source code 0 means unrouted" (fun () ->
        check_bool "none" true (Resource.source_of_code default 0 = None));
    case "source/sink names are distinct" (fun () ->
        let kb = Knowledge.default in
        let names = List.map Resource.sink_to_string (Knowledge.all_sinks kb) in
        check_int "unique" (List.length names)
          (List.length (List.sort_uniq String.compare names)));
    qcheck "the closed-form global index round-trips over random ALS mixes"
      QCheck2.Gen.(triple (int_range 0 12) (int_range 0 12) (int_range 0 12))
      (fun (s, d, t) ->
        let p = { default with Params.n_singlets = s; n_doublets = d; n_triplets = t } in
        (* [all_fus] walks the ALSs slot by slot: the definition the
           closed form must reproduce *)
        let fus = Resource.all_fus p in
        let n = Params.n_functional_units p in
        let out_of_range g =
          match Resource.fu_of_global_index p g with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        List.length fus = n
        && List.for_all2
             (fun g fu ->
               Resource.fu_global_index p fu = g
               && Resource.equal_fu_id (Resource.fu_of_global_index p g) fu)
             (List.init n Fun.id) fus
        && out_of_range n && out_of_range (-1));
  ]

let als_tests =
  [
    case "kind_of agrees with als_size" (fun () ->
        List.iter
          (fun a ->
            check_int "size" (Resource.als_size default a)
              (Als.kind_size (Als.kind_of default a)))
          (Resource.all_als default));
    case "bypass is a doublet-only feature" (fun () ->
        check_int "singlet" 1 (List.length (Als.legal_bypasses ~size:1));
        check_int "doublet" 3 (List.length (Als.legal_bypasses ~size:2));
        check_int "triplet" 1 (List.length (Als.legal_bypasses ~size:3)));
    case "active slots under bypass" (fun () ->
        Alcotest.(check (list int)) "keep head" [ 0 ] (Als.active_slots ~size:2 Als.Keep_head);
        Alcotest.(check (list int)) "keep tail" [ 1 ] (Als.active_slots ~size:2 Als.Keep_tail);
        Alcotest.(check (list int)) "full" [ 0; 1; 2 ] (Als.active_slots ~size:3 Als.No_bypass));
    case "external inputs: head exposes both ports, chained slots expose B" (fun () ->
        let ins = Als.external_inputs ~size:3 Als.No_bypass in
        check_int "count" 4 (List.length ins);
        check_bool "0a" true (List.mem (0, Resource.A) ins);
        check_bool "0b" true (List.mem (0, Resource.B) ins);
        check_bool "1b" true (List.mem (1, Resource.B) ins);
        check_bool "2b" true (List.mem (2, Resource.B) ins));
    case "a bypassed doublet exposes the surviving unit's two ports" (fun () ->
        let ins = Als.external_inputs ~size:2 Als.Keep_tail in
        check_bool "1a" true (List.mem (1, Resource.A) ins);
        check_bool "1b" true (List.mem (1, Resource.B) ins);
        check_int "count" 2 (List.length ins));
    case "chain predecessors" (fun () ->
        check_bool "slot0 has none" true
          (Als.chain_predecessor ~size:3 Als.No_bypass ~slot:0 = None);
        check_bool "slot2 chains from slot1" true
          (Als.chain_predecessor ~size:3 Als.No_bypass ~slot:2 = Some 1);
        check_bool "bypassed tail has none" true
          (Als.chain_predecessor ~size:2 Als.Keep_tail ~slot:1 = None));
    case "output slot respects bypass" (fun () ->
        check_int "full doublet" 1 (Als.output_slot ~size:2 Als.No_bypass);
        check_int "keep head" 0 (Als.output_slot ~size:2 Als.Keep_head));
  ]

let opcode_tests =
  [
    case "mnemonics round-trip" (fun () ->
        List.iter
          (fun op ->
            match Opcode.of_mnemonic (Opcode.mnemonic op) with
            | Some op' -> check_bool "roundtrip" true (Opcode.equal op op')
            | None -> Alcotest.fail "of_mnemonic failed")
          Opcode.all);
    case "codes round-trip and 0 is reserved" (fun () ->
        check_bool "zero" true (Opcode.of_code 0 = None);
        List.iter
          (fun op ->
            match Opcode.of_code (Opcode.to_code op) with
            | Some op' -> check_bool "roundtrip" true (Opcode.equal op op')
            | None -> Alcotest.fail "of_code failed")
          Opcode.all);
    case "capability demands match the machine's asymmetries" (fun () ->
        check_bool "iadd" true
          (Capability.equal (Opcode.required_capability Opcode.Iadd) Capability.Int_logical);
        check_bool "max" true
          (Capability.equal (Opcode.required_capability Opcode.Max) Capability.Min_max);
        check_bool "fadd" true
          (Capability.equal (Opcode.required_capability Opcode.Fadd) Capability.Float));
    case "arity: pass/neg/abs are unary, the rest binary" (fun () ->
        check_int "pass" 1 (Opcode.arity Opcode.Pass);
        check_int "fabs" 1 (Opcode.arity Opcode.Fabs);
        check_int "fadd" 2 (Opcode.arity Opcode.Fadd);
        check_int "max" 2 (Opcode.arity Opcode.Max));
    case "divide is the slowest floating operation" (fun () ->
        let lat = default.Params.latencies in
        check_bool "fdiv slowest" true
          (List.for_all
             (fun op -> Opcode.latency lat op <= Opcode.latency lat Opcode.Fdiv)
             Opcode.all));
    case "flop accounting excludes pass and integer ops" (fun () ->
        check_bool "pass" false (Opcode.is_flop Opcode.Pass);
        check_bool "iadd" false (Opcode.is_flop Opcode.Iadd);
        check_bool "fmul" true (Opcode.is_flop Opcode.Fmul);
        check_bool "max" true (Opcode.is_flop Opcode.Max));
  ]

let knowledge_tests =
  [
    case "singlets may not run integer or min/max operations" (fun () ->
        let ops = Knowledge.legal_opcodes kb { Resource.als = 0; slot = 0 } in
        check_bool "no iadd" false (List.exists (Opcode.equal Opcode.Iadd) ops);
        check_bool "no max" false (List.exists (Opcode.equal Opcode.Max) ops);
        check_bool "fadd ok" true (List.exists (Opcode.equal Opcode.Fadd) ops));
    case "units_for_opcode Max finds exactly the min/max units" (fun () ->
        let units = Knowledge.units_for_opcode kb Opcode.Max in
        (* one per doublet and one per triplet *)
        check_int "count" (default.Params.n_doublets + default.Params.n_triplets)
          (List.length units));
    case "every source is legal for a fresh sink" (fun () ->
        let table = Switch.empty default in
        let legal =
          Knowledge.legal_sources_for kb table
            (Resource.Snk_fu ({ Resource.als = 0; slot = 0 }, Resource.A))
        in
        (* everything except the unit's own output *)
        check_int "count" (List.length (Knowledge.all_sources kb) - 1) (List.length legal));
    case "summary quotes the peak rate" (fun () ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        check_bool "has 640" true (contains (Knowledge.summary kb) "640"));
  ]

let suite =
  [
    ("arch:params", params_tests);
    ("arch:resource", resource_tests);
    ("arch:als", als_tests);
    ("arch:opcode", opcode_tests);
    ("arch:knowledge", knowledge_tests);
  ]
