(* Deterministic performance-smoke tests: instead of timing (noisy on
   shared CI), assert the algorithmic counters the perf work targets —
   worklist-driver visit/iteration budgets on the paper kernels, the
   compile-once guarantee of evaluate_all, and the pass-manager memo. *)

let () = Shmls_dialects.Register.all ()
let () = Shmls_transforms.Register.all ()

open Shmls_ir
module PW = Shmls_kernels.Pw_advection
module TA = Shmls_kernels.Tracer_advection

let canonicalize m = (Pass.lookup_exn "canonicalize").Pass.run m

(* ------------------------------------------------------------------ *)
(* Worklist driver budgets *)

(* A chain of n foldable addf ops: x0 = 1.0, x_{i+1} = x_i + x_i.  The
   old re-snapshot driver re-walked the whole tree every iteration; the
   worklist driver folds the seeded queue in O(1) generations because
   each op's operands are already folded when it is dequeued. *)
let fold_chain n =
  let m = Ir.Module_.create () in
  let _ =
    Shmls_dialects.Func.build_func m ~name:"f" ~arg_tys:[] ~result_tys:[]
      (fun b _ ->
        let x = ref (Shmls_dialects.Arith.constant_f b 1.0) in
        for _ = 1 to n do
          x := Shmls_dialects.Arith.addf b !x !x
        done;
        Shmls_dialects.Func.return_ b [])
  in
  m

let driver_stats () =
  match Rewriter.last_stats () with
  | Some s -> s
  | None -> Alcotest.fail "rewrite driver recorded no stats"

let test_chain_budget () =
  let n = 256 in
  let m = fold_chain n in
  canonicalize m;
  let s = driver_stats () in
  Alcotest.(check string) "driver name" "canonicalize" s.Rewriter.ds_driver;
  Alcotest.(check int) "all adds folded" n s.Rewriter.ds_rewrites;
  (* seeded drain + at most one rewrite generation + verification sweeps *)
  if s.Rewriter.ds_iterations > 4 then
    Alcotest.failf "fold chain took %d driver iterations (budget 4)"
      s.Rewriter.ds_iterations;
  (* each op is visited from the seed, once per neighbourhood re-enqueue,
     and once by the confirmation sweep: comfortably under 5 visits/op *)
  let budget = 5 * ((2 * n) + 4) in
  if s.Rewriter.ds_visits > budget then
    Alcotest.failf "fold chain made %d visits (budget %d)"
      s.Rewriter.ds_visits budget;
  Alcotest.(check (list (pair string int)))
    "per-pattern fire counts"
    [ ("arith-fold", n) ]
    s.Rewriter.ds_fires

let kernel_budget name (kernel : Shmls_frontend.Ast.kernel) ~grid () =
  let lowered = Shmls_frontend.Lower.lower kernel ~grid in
  let m = lowered.Shmls_frontend.Lower.l_module in
  Shmls_transforms.Shape_inference.run_on_module m;
  let ops = Ir.count_ops m in
  canonicalize m;
  let s = driver_stats () in
  if s.Rewriter.ds_iterations > 6 then
    Alcotest.failf "%s: %d driver iterations (budget 6)" name
      s.Rewriter.ds_iterations;
  if s.Rewriter.ds_visits > 6 * ops then
    Alcotest.failf "%s: %d visits on %d ops (budget %d)" name
      s.Rewriter.ds_visits ops (6 * ops)

(* ------------------------------------------------------------------ *)
(* Compile-once evaluation *)

let test_compile_once () =
  Shmls.reset_compile_cache ();
  ignore (Shmls.evaluate_all PW.kernel ~grid:PW.grid_small);
  Alcotest.(check int) "first evaluate_all compiles once" 1
    (Shmls.compile_runs ());
  ignore (Shmls.evaluate_all PW.kernel ~grid:PW.grid_small);
  Alcotest.(check int) "second evaluate_all compiles nothing" 1
    (Shmls.compile_runs ());
  ignore (Shmls.evaluate_all TA.kernel ~grid:TA.grid_small);
  Alcotest.(check int) "new kernel compiles once more" 2
    (Shmls.compile_runs ());
  let hits, misses = Shmls.compile_cache_stats () in
  Alcotest.(check (pair int int)) "cache hits/misses" (1, 2) (hits, misses);
  Shmls.reset_compile_cache ()

(* ------------------------------------------------------------------ *)
(* Compile-once functional-sim plans *)

(* The stage-compiler plan is memoised on the compiled record (a lazy
   forced on first Batched verify): repeated verifications — the
   10-run bench protocol — compile the plan exactly once, and a second
   evaluate_all recompiles nothing at either level. *)
let test_stage_compile_once () =
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ();
  let c = Shmls.compile_cached PW.kernel ~grid:PW.grid_small in
  Alcotest.(check int) "compile builds no plan eagerly" 0
    (Shmls.Stage_compiler.compile_count ());
  let v1 = Shmls.verify ~sim:Shmls.Batched c in
  Alcotest.(check (float 0.0)) "batched verify is bit-exact" 0.0 v1.v_max_diff;
  Alcotest.(check int) "first batched verify builds one plan" 1
    (Shmls.Stage_compiler.compile_count ());
  for _ = 1 to 9 do
    ignore (Shmls.verify ~sim:Shmls.Batched c)
  done;
  Alcotest.(check int) "ten verifications share the plan" 1
    (Shmls.Stage_compiler.compile_count ());
  (* interpreter verifications never build plans *)
  ignore (Shmls.verify c);
  Alcotest.(check int) "interp verify builds no plan" 1
    (Shmls.Stage_compiler.compile_count ());
  (* and a second evaluate_all recompiles nothing at either level *)
  ignore (Shmls.evaluate_all PW.kernel ~grid:PW.grid_small);
  let runs = Shmls.compile_runs () in
  ignore (Shmls.evaluate_all PW.kernel ~grid:PW.grid_small);
  Alcotest.(check int) "second evaluate_all: zero pipeline recompiles" runs
    (Shmls.compile_runs ());
  Alcotest.(check int) "second evaluate_all: zero plan recompiles" 1
    (Shmls.Stage_compiler.compile_count ());
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ()

(* ------------------------------------------------------------------ *)
(* Plan/run-state split *)

(* A parallel sweep shares immutable plans across jobs: one plan per
   distinct kernel, and repeating the sweep — the bench protocol —
   recompiles nothing. *)
let test_parallel_sweep_zero_recompiles () =
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ();
  let configs = [ (PW.kernel, PW.grid_small); (TA.kernel, TA.grid_small) ] in
  ignore (Shmls.sweep ~jobs:4 ~sim:Shmls.Batched ~verify_designs:true configs);
  let plans = Shmls.Stage_compiler.compile_count () in
  Alcotest.(check int) "one plan per distinct kernel" 2 plans;
  for _ = 1 to 3 do
    ignore
      (Shmls.sweep ~jobs:4 ~sim:Shmls.Batched ~verify_designs:true configs)
  done;
  Alcotest.(check int) "repeated parallel sweeps: zero plan recompiles" plans
    (Shmls.Stage_compiler.compile_count ());
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ()

(* Run states are cached per domain per plan: repeated runs on one
   domain allocate exactly one state, and k runs from each of n fresh
   domains allocate exactly n more. *)
let test_run_state_budget () =
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_state_count ();
  let c = Shmls.compile_cached PW.kernel ~grid:PW.grid_small in
  ignore (Shmls.verify ~sim:Shmls.Batched c);
  let base = Shmls.Stage_compiler.state_count () in
  Alcotest.(check int) "first batched verify allocates one state" 1 base;
  for _ = 1 to 5 do
    ignore (Shmls.verify ~sim:Shmls.Batched c)
  done;
  Alcotest.(check int) "same domain reuses its cached state" base
    (Shmls.Stage_compiler.state_count ());
  let domains =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 4 do
              ignore (Shmls.verify ~sim:Shmls.Batched c)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "one state per fresh domain" (base + 3)
    (Shmls.Stage_compiler.state_count ());
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_state_count ()

(* Verifies and sweeps share one memo: a sweep reuses the plan a
   Batched verify already forced on the same compiled record, and the
   verify's cached run state serves the sweep's sequential jobs. *)
let test_batched_plan_and_state_budget () =
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ();
  Shmls.Stage_compiler.reset_state_count ();
  let c = Shmls.compile_cached PW.kernel ~grid:PW.grid_small in
  ignore (Shmls.verify ~sim:Shmls.Batched c);
  Alcotest.(check int) "first batched verify builds one plan" 1
    (Shmls.Stage_compiler.compile_count ());
  ignore
    (Shmls.sweep ~jobs:1 ~sim:Shmls.Batched ~verify_designs:true
       [ (PW.kernel, PW.grid_small) ]);
  Alcotest.(check int) "sequential sweep reuses the plan" 1
    (Shmls.Stage_compiler.compile_count ());
  Alcotest.(check int) "sequential sweep reuses the state" 1
    (Shmls.Stage_compiler.state_count ());
  let configs = [ (PW.kernel, PW.grid_small); (TA.kernel, TA.grid_small) ] in
  ignore (Shmls.sweep ~jobs:4 ~sim:Shmls.Batched ~verify_designs:true configs);
  Alcotest.(check int) "parallel sweep: one more plan for the new kernel" 2
    (Shmls.Stage_compiler.compile_count ());
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ();
  Shmls.Stage_compiler.reset_state_count ()

(* The batched engine streams: its rings hold a chunk plus each
   stream's lag, not whole streams.  After a PW run at 64x64x32 the
   state's buffers together hold under 5% of what whole-stream rings
   would (every stream's [total_padded x width] floats). *)
let test_streaming_ring_bound () =
  let c = Shmls.compile PW.kernel ~grid:[ 64; 64; 32 ] in
  let d = c.c_design in
  let plan = Shmls.Stage_compiler.compile d in
  let st = Shmls.Interp.alloc_state ~seed:1 c.c_lowered in
  let ptr (_, (g : Shmls.Grid.t)) = Shmls.Functional.Ptr (g.data, 0) in
  let args =
    List.map ptr st.fields @ List.map ptr st.smalls
    @ List.map (fun (_, v) -> Shmls.Functional.F v) st.params
    |> Array.of_list
  in
  let rs = Shmls.Stage_compiler.create_state plan in
  Shmls.Stage_compiler.run_with plan rs ~args;
  let whole =
    List.fold_left
      (fun acc (s : Shmls.Design.stream) ->
        let w =
          match s.st_elem with
          | Ty.Array (n, _) -> n
          | Ty.Struct ts -> List.length ts
          | _ -> 1
        in
        acc + (Shmls.Design.total_padded d * w))
      0 d.d_streams
  in
  let held = Shmls.Stage_compiler.ring_capacity rs in
  if held * 20 >= whole then
    Alcotest.failf "rings hold %d floats, whole streams %d: not streaming" held
      whole

(* ------------------------------------------------------------------ *)
(* Reference interpreter: recycled apply temporaries *)

(* Per top-level apply result of a lowered function: its type (which
   carries its bounds), the index of the op defining it and the index
   of the last top-level op that reads it. *)
let apply_lifetimes (func : Ir.op) =
  let ops = Ir.Block.ops (Ir.Region.entry (List.hd (Ir.Op.regions func))) in
  let last = Hashtbl.create 64 in
  List.iteri
    (fun t op ->
      Ir.Op.walk op (fun o ->
          List.iter (fun v -> Hashtbl.replace last (Ir.Value.id v) t) (Ir.Op.operands o)))
    ops;
  List.concat
    (List.mapi
       (fun t op ->
         if Ir.Op.name op <> Shmls_dialects.Stencil.apply_op then []
         else
           List.map
             (fun r ->
               let l = Option.value ~default:t (Hashtbl.find_opt last (Ir.Value.id r)) in
               (Ir.Value.ty r, t, l))
             (Ir.Op.results op))
       ops)

(* The fewest grids that hold every apply result when a grid is reused
   only for equal bounds: per bounds class, the most results of that
   class alive at one op, summed over the classes. *)
let equal_bounds_floor lifetimes =
  let classes = List.sort_uniq compare (List.map (fun (ty, _, _) -> ty) lifetimes) in
  let ops = List.fold_left (fun acc (_, _, l) -> max acc (l + 1)) 0 lifetimes in
  List.fold_left
    (fun acc ty ->
      let live t =
        List.length
          (List.filter (fun (ty', d, l) -> ty' = ty && d <= t && t <= l) lifetimes)
      in
      acc + List.fold_left max 0 (List.init ops live))
    0 classes

(* Grid.create calls made by one reference run of [c] on fresh inputs. *)
let reference_grids (c : Shmls.compiled) =
  let st = Shmls.Interp.alloc_state ~seed:1 c.c_lowered in
  let before = Shmls.Grid.create_count () in
  ignore (Shmls.Interp.run_func c.c_lowered.l_func ~args:(Shmls.Interp.state_args st));
  Shmls.Grid.create_count () - before

(* Tracer's reference allocates no more apply-result grids than the
   equal-bounds floor (14 for its 24 results at 16x12x10), and the
   golden reference digests (golden/reference.sum, tracer at 8x6x5) are
   computed through recycled grids, so a stale one would move them. *)
let test_reference_recycles () =
  List.iter
    (fun grid ->
      let c = Shmls.compile TA.kernel ~grid in
      let lifetimes = apply_lifetimes c.c_lowered.l_func in
      let made = reference_grids c and floor = equal_bounds_floor lifetimes in
      let what = String.concat "x" (List.map string_of_int grid) in
      if made > floor then
        Alcotest.failf "tracer %s: %d apply grids allocated, equal-bounds floor %d" what
          made floor;
      if made >= List.length lifetimes then
        Alcotest.failf "tracer %s: %d apply grids for %d results: nothing recycled" what
          made (List.length lifetimes))
    [ [ 16; 12; 10 ]; [ 8; 6; 5 ] ];
  let pinned =
    In_channel.with_open_text "golden/reference.sum" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.exists (String.starts_with ~prefix:"tracer_advection 8x6x5 ")
  in
  Alcotest.(check bool) "tracer 8x6x5 digests pinned" true pinned

(* An in-place kernel whose result runs through a chain of four
   equal-bounds applies: the third and fourth write into the grids of
   the first and second once those are dead.  Closed form per point:
   a' = (2a + 1)^2 - (2a + 1). *)
let test_recycled_chain_inout () =
  let open Shmls_frontend.Ast in
  let k =
    {
      k_loc = Shmls_support.Loc.unknown;
      k_name = "recycled_chain";
      k_rank = 2;
      k_fields = [ { fd_name = "a"; fd_role = Inout } ];
      k_smalls = [];
      k_params = [];
      k_stencils =
        [
          def "t1" (const 2.0 *: fld "a" [ 0; 0 ]);
          def "t2" (fld "t1" [ 0; 0 ] +: const 1.0);
          def "t3" (fld "t2" [ 0; 0 ] *: fld "t2" [ 0; 0 ]);
          def "a" (fld "t3" [ 0; 0 ] -: fld "t2" [ 0; 0 ]);
        ];
    }
  in
  let grid = [ 6; 37 ] in
  let c = Shmls.compile k ~grid in
  let made = reference_grids c in
  if made >= List.length (apply_lifetimes c.c_lowered.l_func) then
    Alcotest.failf "chain: %d apply grids allocated, nothing recycled" made;
  let st = Shmls.Interp.alloc_state ~seed:3 c.c_lowered in
  let a = List.assoc "a" st.fields in
  let before = Shmls.Grid.copy a in
  ignore (Shmls.Interp.run_func c.c_lowered.l_func ~args:(Shmls.Interp.state_args st));
  for i = 0 to 5 do
    for j = 0 to 36 do
      let t2 = (2.0 *. Shmls.Grid.get before [ i; j ]) +. 1.0 in
      Alcotest.(check (float 0.0)) "chain value" ((t2 *. t2) -. t2) (Shmls.Grid.get a [ i; j ])
    done
  done;
  let v = Shmls.verify ~sim:Shmls.Batched c in
  Alcotest.(check (float 0.0)) "batched engine agrees" 0.0 v.v_max_diff

(* ------------------------------------------------------------------ *)
(* Pass-result memo *)

let test_pass_memo () =
  Pass.reset_memo ();
  let m = fold_chain 16 in
  let p = Pass.lookup_exn "canonicalize" in
  let s1 = Pass.run_one ~memo:true p m in
  Alcotest.(check bool) "first run not cached" false s1.Pass.stat_cached;
  (* the module is now canonical: this run is a recorded no-op ... *)
  let s2 = Pass.run_one ~memo:true p m in
  Alcotest.(check bool) "second run not cached" false s2.Pass.stat_cached;
  (* ... so the third run is skipped by the memo *)
  let s3 = Pass.run_one ~memo:true p m in
  Alcotest.(check bool) "third run served from memo" true s3.Pass.stat_cached;
  let hits, misses = Pass.memo_stats () in
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "two misses" 2 misses;
  Pass.reset_memo ()

(* Op counting is gated off by default and on under op_stats/hooks. *)
let test_op_stats_gated () =
  let m = fold_chain 4 in
  let p = Pass.lookup_exn "dce" in
  let s = Pass.run_one p m in
  Alcotest.(check bool) "ungated run did not count" false s.Pass.ops_counted;
  let s = Pass.run_one ~op_stats:true p m in
  Alcotest.(check bool) "op_stats run counted" true s.Pass.ops_counted;
  Alcotest.(check int) "count matches module" (Ir.count_ops m) s.Pass.ops_after

let () =
  Alcotest.run "perf-smoke"
    [
      ( "rewrite driver",
        [
          Alcotest.test_case "fold-chain budget" `Quick test_chain_budget;
          Alcotest.test_case "pw-advection budget" `Quick
            (kernel_budget "pw-advection" PW.kernel ~grid:PW.grid_small);
          Alcotest.test_case "tracer-advection budget" `Quick
            (kernel_budget "tracer-advection" TA.kernel ~grid:TA.grid_small);
        ] );
      ( "compile once",
        [
          Alcotest.test_case "evaluate_all memo" `Quick test_compile_once;
          Alcotest.test_case "stage-compiler plan memo" `Quick
            test_stage_compile_once;
        ] );
      ( "plan/run-state split",
        [
          Alcotest.test_case "parallel sweep recompiles nothing" `Quick
            test_parallel_sweep_zero_recompiles;
          Alcotest.test_case "run-state cache budget" `Quick
            test_run_state_budget;
          Alcotest.test_case "batched plan and state budget" `Quick
            test_batched_plan_and_state_budget;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "ring capacity bound at 64x64x32" `Quick
            test_streaming_ring_bound;
        ] );
      ( "reference",
        [
          Alcotest.test_case "apply grids recycled by bounds" `Quick
            test_reference_recycles;
          Alcotest.test_case "in-place chain through recycled grids" `Quick
            test_recycled_chain_inout;
        ] );
      ( "pass manager",
        [
          Alcotest.test_case "no-op memo" `Quick test_pass_memo;
          Alcotest.test_case "gated op counting" `Quick test_op_stats_gated;
        ] );
    ]
