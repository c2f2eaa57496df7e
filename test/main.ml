(* Test entry point: every suite registered here. *)

let () =
  Alcotest.run "nsc-visual"
    (Suite_arch.suite @ Suite_storage.suite @ Suite_switch.suite @ Suite_diagram.suite
   @ Suite_semantic.suite @ Suite_checker.suite @ Suite_microcode.suite @ Suite_sim.suite @ Suite_native.suite @ Suite_editor.suite @ Suite_lang.suite @ Suite_debug.suite @ Suite_apps.suite @ Suite_property.suite @ Suite_more.suite @ Suite_golden.suite @ Suite_helpers.suite
   @ Suite_trace.suite @ Suite_metrics.suite @ Suite_fault.suite @ Suite_serve.suite
   @ Suite_guard.suite)
