(* The three benchmark workloads, each one cold pass through the public
   API of [Shmls] and the layer libraries.

   Every layer call goes through [Span.time] (a plain call when tracing
   is off).  Traced passes call differently in two places, so that each
   step is timed under its own layer: they compile step by step
   ([compile_split]) where untraced passes use [Shmls.compile_cached],
   and they evaluate the five flows one by one ([flows]) where untraced
   passes use [Shmls.evaluate_all].  Both build the same designs and
   outcomes, and the output checks hold either way. *)

module Ast = Shmls.Ast
module Design = Shmls.Design
module Cycle_sim = Shmls.Cycle_sim
module Flow = Shmls.Flow
module Grid = Shmls.Grid
module Interp = Shmls.Interp
module Stage_compiler = Shmls.Stage_compiler
module Multi_device = Shmls_host.Multi_device
module Tune = Shmls_tune.Tune
module PW = Shmls_kernels.Pw_advection
module TA = Shmls_kernels.Tracer_advection

(* What one pass observed: its output checks and the design metrics. *)
type pass = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
  mutable mpts : float list;  (** Cycle_sim MPt/s per default design *)
  mutable vs_best : float list;  (** HMLS MPt/s over best baseline *)
  mutable energy_vs_best : float list;  (** lowest baseline J over HMLS J *)
  mutable validated : int;
  mutable divergent : int;
  mutable counters : (string * float) list;  (** tune counters *)
}

let new_pass () =
  {
    attempted = 0;
    failed = 0;
    first_failure = None;
    mpts = [];
    vs_best = [];
    energy_vs_best = [];
    validated = 0;
    divergent = 0;
    counters = [];
  }

let check r ok fmt =
  Printf.ksprintf
    (fun what ->
      r.attempted <- r.attempted + 1;
      if not ok then begin
        r.failed <- r.failed + 1;
        if r.first_failure = None then r.first_failure <- Some what
      end)
    fmt

let counter r name v =
  let old = Option.value ~default:0.0 (List.assoc_opt name r.counters) in
  r.counters <- (name, old +. v) :: List.remove_assoc name r.counters

let grid_s g = String.concat "x" (List.map string_of_int g)
let points g = List.fold_left ( * ) 1 g

(* ------------------------------------------------------------------ *)
(* Layer calls *)

(* Shmls.compile's pipeline, one timed call per step. *)
let compile_split ~variant (kernel : Ast.kernel) ~grid : Shmls.compiled =
  let open Shmls_transforms in
  let lowered =
    Span.time "frontend.lower_s" (fun () -> Shmls.Lower.lower kernel ~grid)
  in
  Span.time "transforms.shape_inference_s" (fun () ->
      Shape_inference.run_on_module lowered.l_module);
  Span.time "transforms.apply_split_s" (fun () ->
      ignore (Apply_split.run_on_module lowered.l_module));
  Span.time "ir.verify_s" (fun () -> Shmls.Verifier.verify_exn lowered.l_module);
  let hls, plans, pass_stats =
    Span.time "transforms.stencil_to_hls_s" (fun () ->
        Stencil_to_hls.run_with_stats ~variant lowered.l_module)
  in
  Span.time "ir.verify_s" (fun () -> Shmls.Verifier.verify_exn hls);
  Span.count "transforms.hls_ops" (Shmls.Ir.count_ops hls);
  let plan, func =
    match plans with
    | [ p ] -> p
    | _ -> failwith "compile: expected exactly one kernel function"
  in
  let design =
    Span.time "fpga.extract_s" (fun () -> Shmls_fpga.Extract.extract func)
  in
  let design =
    Span.time "fpga.depth_balance_s" (fun () ->
        Shmls_fpga.Depth_balance.balance_and_reextract design)
  in
  let llvm =
    Span.time "llvmir.emit_s" (fun () -> Shmls_llvmir.Emit.emit_module hls)
  in
  let fpp, connectivity =
    Span.time "llvmir.fpp_s" (fun () ->
        let fpp = Shmls_llvmir.Fplusplus.run llvm in
        (fpp, Shmls_llvmir.Fplusplus.connectivity_config ~kernel:kernel.k_name fpp))
  in
  {
    c_kernel = kernel;
    c_grid = grid;
    c_variant = variant;
    c_lowered = lowered;
    c_hls_module = hls;
    c_design = design;
    c_cu = plan.p_cu;
    c_ports_per_cu = plan.p_ports_per_cu;
    c_llvm = llvm;
    c_fpp = fpp;
    c_connectivity = connectivity;
    c_pass_stats = pass_stats;
    c_plan = lazy (Stage_compiler.compile design);
    c_plan_batched = lazy (Stage_compiler.compile_batched design);
  }

let compile ?(variant = Shmls.Variant.default) kernel ~grid =
  if !Span.enabled then compile_split ~variant kernel ~grid
  else Shmls.compile_cached ~variant kernel ~grid

(* The five flows of [Shmls.evaluate_all ~jobs:1] on a compiled design;
   traced, the Stencil-HMLS cost stack and the baselines are timed
   apart. *)
let flows (c : Shmls.compiled) =
  if not !Span.enabled then Shmls.evaluate_all ~jobs:1 c.c_kernel ~grid:c.c_grid
  else
    let kernel = c.c_kernel and grid = c.c_grid in
    let hmls =
      Span.time "fpga.cost_s" (fun () ->
          try Shmls.evaluate_hmls c
          with Shmls.Err.Error e ->
            Flow.Failure
              { f_flow = "Stencil-HMLS"; f_reason = Shmls.Err.to_string e })
    in
    hmls
    :: Span.time "baselines.evaluate_s" (fun () ->
           let open Shmls_baselines in
           [
             Dace.evaluate kernel ~grid;
             Soda.evaluate kernel ~grid;
             Vitis.evaluate kernel ~grid;
             Stencilflow.evaluate kernel ~grid;
           ])

let cycle_sim (d : Design.t) =
  let cs = Span.time "fpga.cycle_sim_s" (fun () -> Cycle_sim.run d) in
  Span.count "fpga.cycle_sim.simulated_cycles" cs.cycles_simulated;
  Span.count "fpga.cycle_sim.ff_cycles" cs.cycles_fast_forwarded;
  cs

let args_of (st : Interp.kernel_state) =
  List.map (fun (_, g) -> Shmls.Functional.Ptr (g.Grid.data, 0)) st.fields
  @ List.map (fun (_, g) -> Shmls.Functional.Ptr (g.Grid.data, 0)) st.smalls
  @ List.map (fun (_, v) -> Shmls.Functional.F v) st.params
  |> Array.of_list

let interior grid =
  Shmls.Ty.make_bounds ~lb:(List.map (fun _ -> 0) grid) ~ub:grid

(* Max |diff| per written field of [want] and [got] on the interior. *)
let diff_fields ~grid ~want got =
  Span.time "interp.diff_s" (fun () ->
      List.map
        (fun (name, g) ->
          (name, Grid.max_abs_diff_on (interior grid) (List.assoc name want) g))
        got)

let outputs_of (c : Shmls.compiled) (st : Interp.kernel_state) =
  List.filter_map
    (fun (fd : Ast.field_decl) ->
      if fd.fd_role = Ast.Output || fd.fd_role = Ast.Inout then
        Some (fd.fd_name, List.assoc fd.fd_name st.fields)
      else None)
    c.c_kernel.k_fields

(* [Shmls.verify ~sim:Batched] in its steps: the reference interpreter,
   fresh inputs, the batched engine, the field diff.  [ref_cache] keeps
   the reference per grid, as Shmls's own reference cache does. *)
let verify ~seed ?ref_cache (c : Shmls.compiled) plan =
  let n = points c.c_grid in
  let run_reference () =
    Span.count "interp.reference_points" n;
    Span.time "interp.reference_s" (fun () ->
        Interp.run_lowered ~seed c.c_lowered)
  in
  let reference =
    match ref_cache with
    | None -> run_reference ()
    | Some tbl -> (
      match Hashtbl.find_opt tbl c.c_grid with
      | Some st -> st
      | None ->
        let st = run_reference () in
        Hashtbl.replace tbl c.c_grid st;
        st)
  in
  let st =
    Span.time "interp.alloc_s" (fun () -> Interp.alloc_state ~seed c.c_lowered)
  in
  let args = args_of st in
  Span.count "fpga.engine_points" n;
  Span.time "fpga.engine_s" (fun () -> Stage_compiler.run plan ~args);
  diff_fields ~grid:c.c_grid ~want:reference.fields (outputs_of c st)

(* ------------------------------------------------------------------ *)
(* Design metrics *)

(* MPt/s of a design from measured single-CU cycles, converted the way
   Perf_model charges CU replication: the fill is paid once, the
   streamed remainder splits over the design's CUs, at the U280 clock. *)
let measured_mpts (d : Design.t) ~cycles =
  let fill = float_of_int (Shmls.Perf_model.design_fill d) in
  let streamed = Float.max 0.0 (float_of_int cycles -. fill) in
  let cycles = fill +. (streamed /. float_of_int d.d_cu) in
  float_of_int (Design.interior_points d)
  /. (cycles /. Shmls.U280.clock_hz)
  /. 1e6

(* Model vs measured cycles, by the rule shmls-tune flags DIVERGENT. *)
let divergent (d : Design.t) (cs : Cycle_sim.result) =
  let model =
    Span.time "fpga.cost_s" (fun () ->
        (Shmls.Cost_model.evaluate_design ~cu:1 d).cycles)
  in
  let tol = Tune.default_divergence_tolerance in
  let measured = float_of_int (max 1 cs.cycles) in
  Float.abs (model -. measured) /. measured > tol
  ||
  match Shmls.Perf_model.check_fill_steady d cs with
  | Some fs -> fs.fs_divergence > tol
  | None -> false

let record_design r (c : Shmls.compiled) (cs : Cycle_sim.result) =
  check r (not cs.deadlocked) "%s %s: cycle sim deadlocked" c.c_kernel.k_name
    (grid_s c.c_grid);
  r.mpts <- measured_mpts c.c_design ~cycles:cs.cycles :: r.mpts;
  r.validated <- r.validated + 1;
  if divergent c.c_design cs then r.divergent <- r.divergent + 1

let record_flows r ~what (outcomes : Flow.outcome list) =
  match outcomes with
  | Flow.Success h :: baselines -> (
    let ok =
      List.filter_map
        (function Flow.Success s -> Some s | Flow.Failure _ -> None)
        baselines
    in
    match ok with
    | [] -> ()
    | s :: rest ->
      let best_mpts =
        List.fold_left (fun m (s : Flow.success) -> Float.max m s.s_est.e_mpts)
          s.s_est.e_mpts rest
      and least_j =
        List.fold_left
          (fun m (s : Flow.success) -> Float.min m s.s_power.p_energy_j)
          s.s_power.p_energy_j rest
      in
      r.vs_best <- (h.s_est.e_mpts /. best_mpts) :: r.vs_best;
      r.energy_vs_best <- (least_j /. h.s_power.p_energy_j) :: r.energy_vs_best)
  | _ -> check r false "%s: Stencil-HMLS flow failed" what

(* ------------------------------------------------------------------ *)
(* paper_eval *)

(* Which of the five flows succeed ([Shmls.evaluate_all] order:
   Stencil-HMLS, DaCe, SODA-opt, Vitis HLS, StencilFlow), as the paper
   reports: DaCe cannot build PW advection at 134M; StencilFlow gives no
   runtime numbers anywhere (PW 8M/32M wedge, PW 134M does not build,
   tracer advection is not expressible). *)
let pw_flows = [ true; true; true; true; false ]
let pw_134m_flows = [ true; false; true; true; false ]
let tracer_flows = [ true; true; true; true; false ]

(* (kernel, grid, pinned Cycle_sim cycles, expected flow outcomes) *)
let paper_points ~smoke =
  if smoke then
    [
      (PW.kernel, [ 16; 12; 10 ], 3234, pw_flows);
      (TA.kernel, [ 10; 8; 8 ], 3481, tracer_flows);
    ]
  else
    [
      (PW.kernel, PW.grid_8m, 8687020, pw_flows);
      (PW.kernel, PW.grid_32m, 34445740, pw_flows);
      (PW.kernel, PW.grid_134m, 137480620, pw_134m_flows);
      (TA.kernel, TA.grid_8m, 9299769, tracer_flows);
      (TA.kernel, TA.grid_33m, 36874041, tracer_flows);
    ]

let paper_eval r ~smoke =
  List.iter
    (fun ((kernel : Ast.kernel), grid, pinned, expected) ->
      let what = kernel.k_name ^ " " ^ grid_s grid in
      let c = compile kernel ~grid in
      let outcomes = flows c in
      let cs = cycle_sim c.c_design in
      ignore (Span.time "llvmir.emit_s" (fun () -> Shmls.emit_llvm_text c));
      check r (cs.cycles = pinned) "%s: %d cycles, pinned %d" what cs.cycles
        pinned;
      let got =
        List.map (function Flow.Success _ -> true | Flow.Failure _ -> false)
          outcomes
      in
      check r (got = expected) "%s: flow outcomes differ from the paper's" what;
      record_design r c cs;
      record_flows r ~what outcomes)
    (paper_points ~smoke)

(* ------------------------------------------------------------------ *)
(* verify_paper *)

let verify_grid ~smoke = if smoke then [ 12; 8; 6 ] else [ 64; 64; 32 ]

let verify_paper r ~smoke ~seed =
  List.iter
    (fun (kernel : Ast.kernel) ->
      let grid = verify_grid ~smoke in
      let what = kernel.k_name ^ " " ^ grid_s grid in
      let c = compile kernel ~grid in
      let plan =
        Span.time "fpga.plan_build_s" (fun () ->
            Stage_compiler.compile_batched c.c_design)
      in
      List.iter
        (fun (field, d) ->
          check r (d = 0.0) "%s: field %s max |diff| %g" what field d)
        (verify ~seed c plan);
      let cs = cycle_sim c.c_design in
      record_design r c cs;
      record_flows r ~what (flows c))
    [ PW.kernel; TA.kernel ]

(* ------------------------------------------------------------------ *)
(* tune_search *)

type search = {
  s_kernel : Ast.kernel;
  s_grid : int list;
  s_devices : int list;
}

let searches ~smoke ~shallow_water =
  let s k g d = { s_kernel = k; s_grid = g; s_devices = d } in
  let heat = Shmls_kernels.Didactic.heat_3d in
  if smoke then
    [
      s heat [ 8; 8; 6 ] [ 1; 2 ];
      s PW.kernel [ 8; 6; 6 ] [ 1 ];
      s shallow_water [ 16; 12 ] [ 1; 2 ];
    ]
  else
    [
      s heat [ 32; 32; 16 ] [ 1 ];
      s PW.kernel [ 16; 12; 10 ] [ 1 ];
      s TA.kernel [ 16; 12; 10 ] [ 1 ];
      s heat [ 32; 16; 16 ] [ 1; 2; 4 ];
      s shallow_water [ 96; 80 ] [ 1; 2 ];
    ]

let tune_jobs () = min 2 (Domain.recommended_domain_count ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Wall and CPU seconds of [f ()]. *)
let timed f =
  let t0 = Unix.gettimeofday () and c0 = Unix.times () in
  let v = f () in
  let c1 = Unix.times () in
  let cpu = c1.tms_utime -. c0.tms_utime +. c1.tms_stime -. c0.tms_stime in
  (v, Unix.gettimeofday () -. t0, cpu)

(* Traced only: the evaluated and validated points of one finished
   search, replayed through the public calls [Tune.run] makes, each
   timed under its layer. *)
let replay r ~seed (s : search) (rep : Tune.report) =
  let kernel = s.s_kernel in
  let designs = Hashtbl.create 64 and ref_cache = Hashtbl.create 4 in
  let slab_grid (p : Tune.point) =
    if p.pt_devices <= 1 then p.pt_grid
    else
      let n0 = List.hd p.pt_grid in
      ((n0 + p.pt_devices - 1) / p.pt_devices) :: List.tl p.pt_grid
  in
  let design_of (p : Tune.point) =
    let key = (slab_grid p, p.pt_variant) in
    match Hashtbl.find_opt designs key with
    | Some c -> c
    | None ->
      let c = compile_split ~variant:p.pt_variant kernel ~grid:(slab_grid p) in
      Hashtbl.replace designs key c;
      c
  in
  let fields = Shmls.Cost_model.loaded_fields kernel in
  let cost ?cu (p : Tune.point) (c : Shmls.compiled) =
    ignore
      (Span.time "fpga.cost_s" (fun () ->
           Shmls.Cost_model.evaluate_multi_device ?cu ~devices:p.pt_devices
             ~global_grid:p.pt_grid ~fields c.c_design))
  in
  List.iter (fun (e : Tune.eval) -> cost e.ev_point (design_of e.ev_point))
    rep.r_evals;
  List.iter
    (fun ((e : Tune.eval), _) ->
      let p = e.ev_point in
      let what =
        Printf.sprintf "replay %s %s %s x%d" kernel.k_name (grid_s p.pt_grid)
          (Shmls.Variant.to_string p.pt_variant)
          p.pt_devices
      in
      let c = design_of p in
      cost ~cu:1 p c;
      let diffs =
        if p.pt_devices <= 1 then begin
          let plan =
            Span.time "fpga.plan_build_s" (fun () ->
                Stage_compiler.compile_batched c.c_design)
          in
          let diffs = verify ~seed ~ref_cache c plan in
          let cs = cycle_sim c.c_design in
          ignore (Shmls.Perf_model.check_fill_steady c.c_design cs);
          diffs
        end
        else begin
          let mp =
            Span.time "host.md_plan_s" (fun () ->
                Multi_device.plan ~variant:p.pt_variant kernel ~grid:p.pt_grid
                  ~devices:p.pt_devices)
          in
          let want =
            Span.time "host.md_reference_s" (fun () ->
                Multi_device.reference ~seed mp)
          in
          let got =
            Span.time "host.md_run_s" (fun () ->
                Multi_device.run ~seed ~sim:Shmls.Batched mp)
          in
          ignore
            (Span.time "host.md_estimate_s" (fun () -> Multi_device.estimate mp));
          diff_fields ~grid:p.pt_grid ~want:want.fields got.rr_outputs
        end
      in
      List.iter
        (fun (field, d) ->
          check r (d = 0.0) "%s: field %s max |diff| %g" what field d)
        diffs)
    rep.r_validations

let tune_search r ~smoke ~seed ~state_dir ~shallow_water =
  let jobs = tune_jobs () in
  List.iteri
    (fun i (s : search) ->
      let kernel = s.s_kernel in
      let what = Printf.sprintf "tune %s %s" kernel.k_name (grid_s s.s_grid) in
      let state =
        Filename.concat state_dir
          (Printf.sprintf "tune-%d-%d.jsonl" (Unix.getpid ()) i)
      in
      if Sys.file_exists state then Sys.remove state;
      let run ~resume () =
        Tune.run ~validate:Tune.All ~jobs ~state ~resume ~devices:s.s_devices
          kernel ~grids:[ s.s_grid ]
      in
      let rep, wall, cpu = timed (run ~resume:false) in
      counter r "tune.run_s" wall;
      counter r "tune.run_cpu_s" cpu;
      let bytes = read_file state in
      let again, resume_wall, _ = timed (run ~resume:true) in
      counter r "tune.resume_s" resume_wall;
      check r (again.r_evaluated_new = 0) "%s: resume evaluated %d points" what
        again.r_evaluated_new;
      check r (again.r_simulated = 0) "%s: resume ran %d simulations" what
        again.r_simulated;
      check r (read_file state = bytes) "%s: resume changed the state file" what;
      Sys.remove state;
      counter r "tune.points_evaluated" (float_of_int rep.r_evaluated_new);
      counter r "tune.points_simulated" (float_of_int rep.r_simulated);
      counter r "tune.state_bytes" (float_of_int (String.length bytes));
      List.iter
        (fun ((e : Tune.eval), (v : Tune.validation)) ->
          check r (v.va_max_diff = 0.0) "%s: point %s x%d max |diff| %g" what
            (Shmls.Variant.to_string e.ev_point.pt_variant)
            e.ev_point.pt_devices v.va_max_diff;
          r.validated <- r.validated + 1;
          if v.va_flagged then r.divergent <- r.divergent + 1;
          if
            e.ev_point.pt_devices = 1
            && e.ev_point.pt_variant = Shmls.Variant.default
          then
            let c = Shmls.compile_cached kernel ~grid:e.ev_point.pt_grid in
            r.mpts <-
              measured_mpts c.c_design ~cycles:v.va_measured_cycles :: r.mpts)
        rep.r_validations;
      record_flows r ~what (flows (Shmls.compile_cached kernel ~grid:s.s_grid));
      if !Span.enabled then begin
        let before = Span.attributed () in
        replay r ~seed s rep;
        counter r "tune.replayed_s" (Span.attributed () -. before)
      end)
    (searches ~smoke ~shallow_water)
