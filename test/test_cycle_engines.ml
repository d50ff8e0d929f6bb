(* Differential suite: the event-driven cycle simulator must be
   bit-exact against the legacy tick oracle — total cycles, deadlock
   verdicts, per-stage progress, final FIFO occupancy, and the full
   tracer-visible occupancy sequence (fast-forwarded cycles synthesise
   their per-cycle records) — across both paper kernels, every ablation
   variant, and random grids. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module F = Shmls_fpga
module Cs = F.Cycle_sim

let run_both ?(trace = false) (d : F.Design.t) =
  let capture engine =
    if trace then begin
      let log = ref [] in
      let r = Cs.run ~engine ~on_cycle:(fun c occs -> log := (c, occs) :: !log) d in
      (r, List.rev !log)
    end
    else (Cs.run ~engine d, [])
  in
  (capture Cs.Tick, capture Cs.Event)

let check_same ?(trace = false) name (d : F.Design.t) =
  let (t, tlog), (e, elog) = run_both ~trace d in
  Alcotest.(check int) (name ^ ": cycles") t.cycles e.cycles;
  Alcotest.(check bool) (name ^ ": deadlocked") t.deadlocked e.deadlocked;
  Alcotest.(check (option string))
    (name ^ ": stalled stage") t.stalled_stage e.stalled_stage;
  Alcotest.(check (list (triple string int int)))
    (name ^ ": progress") t.progress e.progress;
  Alcotest.(check (list (triple int int int)))
    (name ^ ": fifo occupancy") t.fifo_occupancy e.fifo_occupancy;
  (* fast-forward accounting must cover exactly the simulated total *)
  Alcotest.(check int)
    (name ^ ": event cycle accounting") e.cycles
    (e.cycles_simulated + e.cycles_fast_forwarded);
  Alcotest.(check int)
    (name ^ ": tick never fast-forwards") t.cycles t.cycles_simulated;
  (* per-record checks only to locate a difference: thousands of passing
     Alcotest checks per trace would dominate the suite's run time *)
  if trace && tlog <> elog then begin
    Alcotest.(check int)
      (name ^ ": trace length") (List.length tlog) (List.length elog);
    List.iter2
      (fun (tc, toccs) (ec, eoccs) ->
        Alcotest.(check int) (name ^ ": trace cycle") tc ec;
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s: occupancies @%d" name tc)
          toccs eoccs)
      tlog elog
  end

let variant_kernels =
  [
    (Shmls_kernels.Pw_advection.kernel, [ 12; 8; 6 ]);
    (Shmls_kernels.Tracer_advection.kernel, [ 10; 8; 8 ]);
  ]

let check_kernels ?trace ?(variants = Shmls.Variant.ablation_set) kernels () =
  List.iter
    (fun variant ->
      List.iter
        (fun (k, grid) ->
          let c = Shmls.compile_cached ~variant k ~grid in
          let name =
            Printf.sprintf "%s{%s} %s" k.Shmls.Ast.k_name
              (Shmls.Variant.to_string variant)
              (String.concat "x" (List.map string_of_int grid))
          in
          check_same ?trace name c.c_design)
        kernels)
    variants

(* both paper kernels x every ablation variant: cycles + final state *)
let test_variants_bit_exact = check_kernels variant_kernels

(* the full per-cycle tracer sequence, including serial-retirement
   ordering through the fused no-split stages and cu-phased retirement *)
let test_variants_trace_exact =
  check_kernels ~trace:true
    [
      (Shmls_kernels.Pw_advection.kernel, [ 8; 6; 6 ]);
      (Shmls_kernels.Tracer_advection.kernel, [ 8; 6; 6 ]);
    ]

(* grids long enough that shift fill and drain ramps, deep FIFOs
   filling and emptying, and serial-pass boundaries each span many
   periods, so the affine fast-forward is exercised well away from the
   regime edges it must stop at *)
let ramp_kernels =
  [
    (Shmls_kernels.Pw_advection.kernel, [ 32; 24; 16 ]);
    (Shmls_kernels.Tracer_advection.kernel, [ 24; 16; 12 ]);
    (Shmls_kernels.Didactic.heat_3d, [ 32; 16; 16 ]);
  ]

let test_ramp_variants_bit_exact = check_kernels ramp_kernels

let test_ramp_traces_exact =
  check_kernels ~trace:true ~variants:[ Shmls.Variant.default ] ramp_kernels

(* the same designs with every FIFO re-depthed: deep FIFOs then ramp
   up into their capacity while a consumer waits on a sibling, shallow
   ones throttle or wedge the network, so fast-forwarded ramps must stop
   exactly at the occupancy bounds *)
let redepth depth (d : F.Design.t) =
  {
    d with
    F.Design.d_streams =
      List.mapi
        (fun i (s : F.Design.stream) -> { s with st_depth = depth i s.st_depth })
        d.d_streams;
  }

(* computes at II 1, 2, 3 in turn: a slow stage starves the shifts and
   computes behind it mid-stream, so FIFOs drain to empty and shifts
   drop back to their lookahead while their loads are still running *)
let retime (d : F.Design.t) =
  let i = ref 0 in
  {
    d with
    F.Design.d_stages =
      List.map
        (function
          | F.Design.Compute c ->
            incr i;
            F.Design.Compute { c with ii = 1 + (!i mod 3) }
          | st -> st)
        d.d_stages;
  }

let test_redepthed_bit_exact () =
  List.iter
    (fun (k, grid) ->
      let d = (Shmls.compile_cached k ~grid).c_design in
      List.iter
        (fun (label, d') -> check_same (k.Shmls.Ast.k_name ^ " " ^ label) d')
        [
          ("depths x3", redepth (fun _ dp -> 3 * dp) d);
          ("depths 2..6", redepth (fun i _ -> 2 + (i mod 5)) d);
          ("depths 9..89", redepth (fun i _ -> 9 + (i * 37 mod 81)) d);
          ("II 1..3", retime d);
          ("II 1..3, depths 2..6", retime (redepth (fun i _ -> 2 + (i mod 5)) d));
        ])
    ((H.chain_3d, [ 16; 12; 10 ]) :: ramp_kernels)

(* a converging chain with unbalanced FIFO depths throttles or wedges;
   both engines must agree on the verdict and the blamed stage *)
let check_chain grid =
  let l = Shmls_frontend.Lower.lower H.chain_3d ~grid in
  Shmls_transforms.Shape_inference.run_on_module l.l_module;
  let m_hls, _ = Shmls_transforms.Stencil_to_hls.run l.l_module in
  let d = List.hd (F.Extract.extract_module m_hls) in
  let g = String.concat "x" (List.map string_of_int grid) in
  check_same ("unbalanced chain " ^ g) d;
  check_same ("balanced chain " ^ g) (F.Depth_balance.balance_and_reextract d)

let test_unbalanced_chain_bit_exact () =
  check_chain [ 10; 8; 8 ];
  check_chain [ 28; 20; 16 ]

(* the steady-state detector must actually engage on the paper kernels:
   nearly everything outside fill/drain is fast-forwarded *)
let test_steady_state_detected () =
  List.iter
    (fun (k, grid) ->
      let c = Shmls.compile_cached k ~grid in
      let r = Cs.run ~engine:Cs.Event c.c_design in
      Alcotest.(check bool) (k.Shmls.Ast.k_name ^ ": not deadlocked") false
        r.deadlocked;
      (match r.ss_period with
      | None -> Alcotest.failf "%s: no steady-state period detected" k.Shmls.Ast.k_name
      | Some (p, w) ->
        Alcotest.(check bool) (k.Shmls.Ast.k_name ^ ": period sane") true
          (p >= 1 && p <= 8);
        Alcotest.(check bool)
          (k.Shmls.Ast.k_name ^ ": writes per period positive") true (w >= 1));
      let ff_share =
        float_of_int r.cycles_fast_forwarded /. float_of_int r.cycles
      in
      if ff_share < 0.5 then
        Alcotest.failf "%s: only %.0f%% of cycles fast-forwarded"
          k.Shmls.Ast.k_name (100.0 *. ff_share))
    [
      (Shmls_kernels.Pw_advection.kernel, [ 16; 12; 10 ]);
      (Shmls_kernels.Tracer_advection.kernel, [ 12; 10; 8 ]);
    ]

(* the five paper design points at full size: the cycles perfbench
   pins, the exact steady-state period, and a machine-independent cap
   on cycles advanced one at a time — fill and drain ramps included,
   a whole run costs a few hundred simulated cycles *)
let test_paper_scale () =
  List.iter
    (fun (k, grid, cycles, period) ->
      let c = Shmls.compile_cached k ~grid in
      let r = Cs.run ~engine:Cs.Event c.c_design in
      let name =
        Printf.sprintf "%s %s" k.Shmls.Ast.k_name
          (String.concat "x" (List.map string_of_int grid))
      in
      Alcotest.(check int) (name ^ ": cycles") cycles r.cycles;
      Alcotest.(check bool) (name ^ ": not deadlocked") false r.deadlocked;
      Alcotest.(check (option (pair int int)))
        (name ^ ": steady-state period") (Some period) r.ss_period;
      if r.cycles_simulated > 2000 then
        Alcotest.failf "%s: %d cycles simulated one at a time (cap 2000)" name
          r.cycles_simulated)
    [
      (Shmls_kernels.Pw_advection.kernel, Shmls_kernels.Pw_advection.grid_8m,
       8687020, (1, 3));
      (Shmls_kernels.Pw_advection.kernel, Shmls_kernels.Pw_advection.grid_32m,
       34445740, (1, 3));
      (Shmls_kernels.Pw_advection.kernel, Shmls_kernels.Pw_advection.grid_134m,
       137480620, (1, 3));
      (Shmls_kernels.Tracer_advection.kernel,
       Shmls_kernels.Tracer_advection.grid_8m, 9299769, (1, 6));
      (Shmls_kernels.Tracer_advection.kernel,
       Shmls_kernels.Tracer_advection.grid_33m, 36874041, (1, 6));
    ]

(* the perf model's fill/steady split, cross-checked against the event
   engine's detected period on both paper kernels: the model's fill
   estimate must stay within the tuner's default tolerance of the fill
   the measured run implies (measured cycles minus the steady span) *)
let test_fill_steady_check () =
  List.iter
    (fun (k, grid) ->
      let c = Shmls.compile_cached k ~grid in
      let r = Cs.run ~engine:Cs.Event c.c_design in
      match F.Perf_model.check_fill_steady c.c_design r with
      | None ->
        Alcotest.failf "%s: no fill/steady cross-check (period undetected)"
          k.Shmls.Ast.k_name
      | Some fs ->
        Alcotest.(check bool)
          (k.Shmls.Ast.k_name ^ ": steady span within the run") true
          (fs.F.Perf_model.fs_measured_steady > 0.0
          && fs.F.Perf_model.fs_measured_steady
             <= float_of_int r.cycles);
        if fs.F.Perf_model.fs_divergence > 0.10 then
          Alcotest.failf
            "%s: fill model diverges %.1f%% of the run (model %.0f vs \
             measured %.0f)"
            k.Shmls.Ast.k_name
            (100.0 *. fs.F.Perf_model.fs_divergence)
            fs.F.Perf_model.fs_model_fill fs.F.Perf_model.fs_measured_fill)
    [
      (Shmls_kernels.Pw_advection.kernel, [ 16; 12; 10 ]);
      (Shmls_kernels.Tracer_advection.kernel, [ 12; 10; 8 ]);
    ]

(* random dataflow networks on one small design's grid: a load feeding
   shifts (lookahead 0..24), dups and one- or two-input computes (II
   1..3) over FIFOs 1..40 deep, all ending in one write.  Rates and
   lookaheads mismatch, so FIFOs fill to capacity and drain to empty
   mid-stream, results pile up in flight behind a full output, shifts
   starve and fall back to their lookahead, and many networks wedge —
   every fast-forward bound is reached from both sides.  Fixed seeds
   keep the suite reproducible. *)
let random_network seed =
  let d =
    (Shmls.compile_cached Shmls_kernels.Didactic.heat_3d ~grid:[ 6; 5; 4 ])
      .c_design
  in
  let df_op =
    List.find_map
      (function F.Design.Compute c -> Some c.df_op | _ -> None)
      d.d_stages
    |> Option.get
  in
  let rng = Random.State.make [| seed |] in
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let streams = ref [] in
  let fresh () =
    let s = List.hd d.d_streams in
    let id = List.length !streams + 1 in
    streams := { s with st_id = id; st_depth = int 1 40 } :: !streams;
    id
  in
  let outs = List.init (int 1 3) (fun _ -> fresh ()) in
  let stages = ref [ F.Design.Load { out_streams = outs; ptr_args = [] } ] in
  let pool = ref outs in
  let take () =
    let i = Random.State.int rng (List.length !pool) in
    let s = List.nth !pool i in
    pool := List.filteri (fun j _ -> j <> i) !pool;
    s
  in
  for _ = 1 to int 1 6 do
    if !pool <> [] then begin
      let st =
        match int 0 3 with
        | 0 ->
          let input = take () in
          F.Design.Shift
            { input; output = fresh (); halo = [ int 0 24 ]; extent = [ 1 ] }
        | 1 ->
          let input = take () in
          let a = fresh () in
          F.Design.Dup { input; outputs = [ a; fresh () ] }
        | _ ->
          let first = take () in
          let in_streams =
            if !pool <> [] && int 0 1 = 1 then [ first; take () ] else [ first ]
          in
          let out = fresh () in
          F.Design.Compute
            {
              name = "random";
              df_op;
              in_streams;
              out_streams = [ out ];
              serial = 1;
              ext_reads = 0;
              ii = int 1 3;
              flops = int 0 6;
              small_copies = 0;
              small_bytes = 0;
            }
      in
      stages := st :: !stages;
      pool := !pool @ F.Design.outputs_of_stage st
    end
  done;
  let write =
    F.Design.Write { in_streams = !pool; ptr_args = []; halo = []; extent = [] }
  in
  {
    d with
    F.Design.d_streams = List.rev !streams;
    d_stages = List.rev (write :: !stages);
  }

let test_random_networks () =
  for seed = 0 to 1999 do
    check_same ~trace:true
      (Printf.sprintf "random network %d" seed)
      (random_network seed)
  done

(* random grids: totals and final state agree everywhere *)
let qcheck_random_grids =
  let gen =
    QCheck2.Gen.(
      triple (int_range 4 14) (int_range 4 12) (int_range 4 10))
  in
  H.qtest ~count:20 "event = tick on random grids" gen (fun (x, y, z) ->
      List.iter
        (fun k ->
          let c = Shmls.compile_cached k ~grid:[ x; y; z ] in
          check_same
            (Printf.sprintf "%s %dx%dx%d" k.Shmls.Ast.k_name x y z)
            c.c_design)
        [ Shmls_kernels.Pw_advection.kernel; Shmls_kernels.Tracer_advection.kernel ];
      true)

let () =
  Alcotest.run "cycle_engines"
    [
      ( "differential",
        [
          Alcotest.test_case "variants bit-exact" `Quick test_variants_bit_exact;
          Alcotest.test_case "variant traces bit-exact" `Quick
            test_variants_trace_exact;
          Alcotest.test_case "unbalanced chain bit-exact" `Quick
            test_unbalanced_chain_bit_exact;
          Alcotest.test_case "long-ramp variants bit-exact" `Quick
            test_ramp_variants_bit_exact;
          Alcotest.test_case "long-ramp traces bit-exact" `Quick
            test_ramp_traces_exact;
          Alcotest.test_case "re-depthed and re-timed bit-exact" `Quick
            test_redepthed_bit_exact;
          Alcotest.test_case "random networks bit-exact" `Quick
            test_random_networks;
          qcheck_random_grids;
        ] );
      ( "steady state",
        [
          Alcotest.test_case "detected on paper kernels" `Quick
            test_steady_state_detected;
          Alcotest.test_case "fill model vs measured fill" `Quick
            test_fill_steady_check;
          Alcotest.test_case "paper-scale designs" `Quick test_paper_scale;
        ] );
    ]
