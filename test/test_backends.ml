(* Tests for the alternative backend (CIRCT lowering, the paper's
   further-work item 1) and the host runtime (the OpenCL host-code
   stand-in). *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module Circt = Shmls_circt.Circt
module Host = Shmls_host.Host

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* -- CIRCT ---------------------------------------------------------------- *)

let test_circt_structure () =
  let c = Shmls.compile Shmls_kernels.Pw_advection.kernel ~grid:[ 12; 8; 6 ] in
  let circuit = Circt.build c.c_design in
  let externs, instances, buffers = Circt.stats circuit in
  Alcotest.(check int) "one instance per stage" (List.length c.c_design.d_stages)
    instances;
  Alcotest.(check bool) "extern stage library" true (externs >= 4);
  Alcotest.(check int) "one buffer per stream"
    (List.length c.c_design.d_streams)
    buffers

let test_circt_emission () =
  let c = Shmls.compile Shmls_kernels.Pw_advection.kernel ~grid:[ 12; 8; 6 ] in
  let text = Shmls.emit_circt_text c in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~needle text))
    [
      "hw.module @pw_advection";
      "hw.module.extern @load_data";
      "hw.module.extern @shift_buffer_nb27";
      "hw.module.extern @write_data";
      "!esi.channel<f64>";
      "!esi.channel<!hw.array<27xf64>>";
      "!esi.channel<i512>";
      "esi.buffer";
      "hw.instance \"compute_t0\"";
      "hw.output";
    ]

let test_circt_deterministic () =
  let c = Shmls.compile H.chain_3d ~grid:[ 8; 6; 6 ] in
  Alcotest.(check string) "same text twice" (Shmls.emit_circt_text c)
    (Shmls.emit_circt_text c)

let test_circt_all_kernels () =
  List.iter
    (fun ((k : Shmls.Ast.kernel), grid) ->
      let c = Shmls.compile k ~grid in
      let text = Shmls.emit_circt_text c in
      Alcotest.(check bool) (k.k_name ^ " emits") true (String.length text > 100);
      Alcotest.(check bool)
        (k.k_name ^ " has its module")
        true
        (contains ~needle:("hw.module @" ^ k.k_name) text))
    H.all_test_kernels

let test_circt_depths_survive () =
  (* the balanced FIFO depths must surface in the esi.buffer stages *)
  let c = Shmls.compile H.chain_3d ~grid:[ 8; 6; 6 ] in
  let deepest =
    List.fold_left
      (fun acc (s : Shmls.Design.stream) -> max acc s.st_depth)
      0 c.c_design.d_streams
  in
  let text = Shmls.emit_circt_text c in
  Alcotest.(check bool) "deep buffer in the netlist" true
    (contains ~needle:(Printf.sprintf "{depth = %d}" deepest) text)

(* -- host runtime ----------------------------------------------------------- *)

let test_host_run_matches_interpreter () =
  let k = H.chain_3d in
  let grid = [ 8; 6; 6 ] in
  let c = Shmls.compile k ~grid in
  let dev = Host.create_device () in
  let prog = Host.build_program dev c in
  let event, fields, _smalls =
    Host.run_kernel prog ~params:[ ("alpha", 0.1) ]
  in
  Alcotest.(check string) "event kernel" "chain_3d" event.ev_kernel;
  Alcotest.(check bool) "nonzero duration" true (Host.duration_s event > 0.0);
  (* reference: interpreter with the same seed and parameter values *)
  let ref_state = Shmls.Interp.alloc_state ~seed:7 c.c_lowered in
  let ref_state =
    { ref_state with Shmls.Interp.params = [ ("alpha", 0.1) ] }
  in
  ignore (Shmls.Interp.run_func c.c_lowered.l_func ~args:(Shmls.Interp.state_args ref_state));
  let interior = Shmls.Ty.make_bounds ~lb:[ 0; 0; 0 ] ~ub:grid in
  List.iter
    (fun (fd : Shmls.Ast.field_decl) ->
      if fd.fd_role = Shmls.Ast.Output then begin
        let dev_buf = List.assoc fd.fd_name fields in
        let ref_grid = List.assoc fd.fd_name ref_state.fields in
        let d =
          Shmls.Grid.max_abs_diff_on interior ref_grid dev_buf.Host.buf_grid
        in
        if d <> 0.0 then
          Alcotest.failf "host run of %s differs by %g" fd.fd_name d
      end)
    k.k_fields

let test_host_buffer_transfers () =
  let c = Shmls.compile H.avg_1d ~grid:[ 16 ] in
  let dev = Host.create_device () in
  let prog = Host.build_program dev c in
  let buf = Host.alloc_field_buffer prog in
  let src = Shmls.Grid.create buf.Host.buf_grid.bounds in
  Shmls.Grid.init_hash ~seed:5 src;
  Host.write_buffer buf src;
  let back = Shmls.Grid.create buf.Host.buf_grid.bounds in
  Host.read_buffer buf back;
  Alcotest.(check (float 0.0)) "round trip" 0.0 (Shmls.Grid.max_abs_diff src back)

let test_host_hbm_capacity () =
  (* the device tracks allocations against the 8 GB of HBM; pretend most
     of it is used and check the next allocation is refused before any
     backing store is created *)
  let c = Shmls.compile H.avg_1d ~grid:[ 16 ] in
  let dev = Host.create_device () in
  let prog = Host.build_program dev c in
  dev.Host.allocated_bytes <- Shmls.U280.hbm_bytes - 64;
  match Host.alloc_field_buffer prog with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "HBM capacity not enforced"

let test_host_event_consistency () =
  (* the event's profiled time must equal the analytic model's *)
  let c = Shmls.compile Shmls_kernels.Didactic.heat_3d ~grid:[ 12; 10; 8 ] in
  let dev = Host.create_device () in
  let prog = Host.build_program dev c in
  let event, _, _ = Host.run_kernel prog ~params:[ ("alpha", 0.05) ] in
  let est = Shmls.Perf_model.estimate_design c.c_design in
  Alcotest.(check (float 1e-12)) "profiled = modelled" est.e_seconds
    (Host.duration_s event);
  let mpts = Host.mpts_of_event prog event in
  Alcotest.(check (float 0.01)) "MPt/s consistent" est.e_mpts mpts

(* -- occupancy tracing ------------------------------------------------------ *)

let test_trace_capture () =
  let c = Shmls.compile H.chain_3d ~grid:[ 8; 6; 6 ] in
  let result, t = Shmls.Trace.capture ~every:8 c.c_design in
  Alcotest.(check bool) "completed" true (not result.deadlocked);
  Alcotest.(check bool) "samples collected" true (List.length t.tr_samples > 5);
  let csv = Shmls.Trace.to_csv t in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 0 && String.sub csv 0 6 = "cycle,");
  Alcotest.(check int) "one line per sample + header"
    (List.length t.tr_samples + 1)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)));
  let ascii = Shmls.Trace.to_ascii t c.c_design in
  Alcotest.(check int) "one row per stream"
    (List.length c.c_design.d_streams)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' ascii)))

(* -- synthesis report ------------------------------------------------------ *)

let test_report_contents () =
  let c = Shmls.compile Shmls_kernels.Pw_advection.kernel ~grid:[ 16; 8; 6 ] in
  let text = Shmls.report_text c in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle text))
    [
      "Synthesis report: kernel 'pw_advection'";
      "initiation interval : 1";
      "load_data";
      "shift_buffer";
      "write_data";
      "Utilisation";
      "HBM[";
      "shared small-data";
    ]

let () =
  Alcotest.run "backends"
    [
      ( "circt",
        [
          Alcotest.test_case "structure" `Quick test_circt_structure;
          Alcotest.test_case "emission" `Quick test_circt_emission;
          Alcotest.test_case "deterministic" `Quick test_circt_deterministic;
          Alcotest.test_case "all kernels" `Quick test_circt_all_kernels;
          Alcotest.test_case "balanced depths survive" `Quick
            test_circt_depths_survive;
        ] );
      ("report", [ Alcotest.test_case "contents" `Quick test_report_contents ]);
      ("trace", [ Alcotest.test_case "capture + export" `Quick test_trace_capture ]);
      ( "host",
        [
          Alcotest.test_case "run matches interpreter" `Quick
            test_host_run_matches_interpreter;
          Alcotest.test_case "buffer transfers" `Quick test_host_buffer_transfers;
          Alcotest.test_case "HBM capacity enforced" `Quick test_host_hbm_capacity;
          Alcotest.test_case "event = analytic model" `Quick
            test_host_event_consistency;
        ] );
    ]
