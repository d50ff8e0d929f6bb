(* Differential tests for the compiled functional simulator: the
   streaming batched plan of {!Stage_compiler} must be bit-for-bit
   identical to the reference IR interpreter in {!Functional} — outputs
   on every kernel of the suites and the zoo, and error behaviour
   (message *and* location) on mis-wired designs. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module Functional = Shmls_fpga.Functional
module Stage_compiler = Shmls_fpga.Stage_compiler
module Interp = Shmls_interp.Interp
module Grid = Shmls_interp.Grid

(* Fresh simulator arguments for [state]: same convention as
   [Shmls.verify]. *)
let args_of_state (st : Interp.kernel_state) =
  List.map (fun (_, g) -> Functional.Ptr (g.Grid.data, 0)) st.fields
  @ List.map (fun (_, g) -> Functional.Ptr (g.Grid.data, 0)) st.smalls
  @ List.map (fun (_, v) -> Functional.F v) st.params
  |> Array.of_list

(* Run the interpreter and the batched plan on identical fresh inputs; compare every float of every field and small,
   bit for bit (full padded arrays, halos included — NaNs compare equal
   by bits). *)
let check_bit_identical ?(seed = 7) ?variant (k : Shmls.Ast.kernel) ~grid =
  let c = Shmls.compile_cached ?variant k ~grid in
  let a = Interp.alloc_state ~seed c.c_lowered in
  Functional.run c.c_design ~args:(args_of_state a);
  let check_against engine (b : Interp.kernel_state) =
    let check_arrays what (xs : (string * Grid.t) list)
        (ys : (string * Grid.t) list) =
      List.iter2
        (fun (na, ga) (nb, gb) ->
          Alcotest.(check string) "same field order" na nb;
          let da = ga.Grid.data and db = gb.Grid.data in
          Alcotest.(check int)
            (Printf.sprintf "%s %s/%s: same length" k.k_name what na)
            (Array.length da) (Array.length db);
          Array.iteri
            (fun i x ->
              if Int64.bits_of_float x <> Int64.bits_of_float db.(i) then
                Alcotest.failf "%s %s %s[%d]: interp %h <> %s %h" k.k_name
                  what na i x engine db.(i))
            da)
        xs ys
    in
    check_arrays "field" a.fields b.fields;
    check_arrays "small" a.smalls b.smalls
  in
  let b = Interp.alloc_state ~seed c.c_lowered in
  Stage_compiler.run (Lazy.force c.c_plan) ~args:(args_of_state b);
  check_against "batched" b

let test_suite_kernels_bit_identical () =
  List.iter
    (fun (k, grid) -> check_bit_identical k ~grid)
    H.all_test_kernels

let test_zoo_bit_identical () =
  List.iter
    (fun (k, grid) -> check_bit_identical k ~grid)
    Shmls_kernels.Zoo.all

let test_seeds_bit_identical () =
  List.iter
    (fun seed -> check_bit_identical ~seed H.chain_3d ~grid:[ 10; 8; 6 ])
    [ 0; 1; 42; 1234 ]

let qcheck_random_kernels_bit_identical =
  H.qtest ~count:25 "compiled sim is bit-identical on random kernels"
    QCheck2.Gen.(pair H.gen_kernel (int_range 0 1000))
    (fun (k, seed) ->
      match Shmls_frontend.Ast.validate k with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        check_bit_identical ~seed k ~grid:(H.small_grid k.k_rank);
        true)

(* The verify entry point itself, through both engines. *)
let test_verify_compiled_matches_interp () =
  List.iter
    (fun (k, grid) ->
      let c = Shmls.compile_cached k ~grid in
      let vi = Shmls.verify ~sim:Shmls.Interp c in
      let vb = Shmls.verify ~sim:Shmls.Batched c in
      Alcotest.(check (float 0.0)) "interp bit-exact" 0.0 vi.v_max_diff;
      Alcotest.(check (float 0.0)) "batched bit-exact" 0.0 vb.v_max_diff)
    H.all_test_kernels

(* -- pipeline variants ------------------------------------------------ *)

(* The ablated pipelines (no-split / no-pack / cu=N) are real designs:
   every variant must stay bit-exact against the reference stencil
   interpreter through *both* functional engines, on both paper
   kernels.  On failure the variant is named so the diverging pipeline
   is identifiable without re-running. *)

let variant_kernels =
  [
    (Shmls_kernels.Pw_advection.kernel, Shmls_kernels.Pw_advection.grid_small);
    ( Shmls_kernels.Tracer_advection.kernel,
      Shmls_kernels.Tracer_advection.grid_small );
  ]

let test_variants_bit_exact () =
  List.iter
    (fun variant ->
      List.iter
        (fun (k, grid) ->
          let c = Shmls.compile_cached ~variant k ~grid in
          let vi = Shmls.verify ~sim:Shmls.Interp c in
          let vb = Shmls.verify ~sim:Shmls.Batched c in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s{%s} interp bit-exact" k.k_name
               (Shmls.Variant.to_string variant))
            0.0 vi.v_max_diff;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s{%s} batched bit-exact" k.k_name
               (Shmls.Variant.to_string variant))
            0.0 vb.v_max_diff)
        variant_kernels)
    Shmls.Variant.ablation_set

let test_variants_engines_bit_identical () =
  List.iter
    (fun variant ->
      List.iter
        (fun (k, grid) -> check_bit_identical ~variant k ~grid)
        variant_kernels)
    Shmls.Variant.ablation_set

(* Structural spot checks: the variants change the *design*, not just a
   model parameter. *)
let test_variant_designs_differ () =
  let k = Shmls_kernels.Pw_advection.kernel in
  let grid = Shmls_kernels.Pw_advection.grid_small in
  let design v = (Shmls.compile_cached ~variant:v k ~grid).c_design in
  let computes d =
    List.filter
      (fun s -> match s with Shmls.Design.Compute _ -> true | _ -> false)
      d.Shmls.Design.d_stages
  in
  let full = design Shmls.Variant.default in
  let no_split = design { Shmls.Variant.default with v_split = false } in
  let no_pack = design { Shmls.Variant.default with v_pack = false } in
  let cu2 = design { Shmls.Variant.default with v_cu = Some 2 } in
  Alcotest.(check bool)
    "split pipeline has concurrent compute stages" true
    (List.length (computes full) > 1);
  Alcotest.(check int) "no-split fuses into one compute stage" 1
    (List.length (computes no_split));
  let serial d =
    List.fold_left
      (fun acc s ->
        match s with
        | Shmls.Design.Compute c -> max acc c.serial
        | _ -> acc)
      1 d.Shmls.Design.d_stages
  in
  Alcotest.(check bool) "no-split compute is serialised" true
    (serial no_split > 1);
  Alcotest.(check int) "full design uses packed 64 B ports" 64
    full.Shmls.Design.d_port_bytes;
  Alcotest.(check int) "no-pack design uses scalar 8-bit ports" 1
    no_pack.Shmls.Design.d_port_bytes;
  Alcotest.(check int) "cu=2 is baked into the design" 2
    cu2.Shmls.Design.d_cu

(* The batched engine must actually batch the paper kernels' compute
   loops — if the whole-stream subset check started rejecting them the
   plans would silently fall back to per-element steps and the headline
   speedup would evaporate without any output diff. *)
let test_batched_plans_actually_batch () =
  List.iter
    (fun (k, grid) ->
      let c = Shmls.compile_cached k ~grid in
      let plan = Lazy.force c.c_plan in
      Alcotest.(check bool)
        (Printf.sprintf "%s: batched plan has whole-stream loops" k.k_name)
        true
        ((Stage_compiler.stats plan).Stage_compiler.cs_batched >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "%s: both plan fields share one plan" k.k_name)
        true
        (Lazy.force c.c_plan_batched == plan))
    variant_kernels

(* Variant syntax round-trips, so pipeline strings and CLI flags agree. *)
let test_variant_parsing () =
  List.iter
    (fun v ->
      match Shmls.Variant.of_string (Shmls.Variant.to_string v) with
      | Ok v' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" (Shmls.Variant.to_string v))
          true (v = v')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    Shmls.Variant.ablation_set;
  (match Shmls.Variant.of_string "no-split+cu=3" with
  | Ok v ->
    Alcotest.(check bool) "composed variant" true
      (v = { Shmls.Variant.v_split = false; v_pack = true; v_cu = Some 3 })
  | Error e -> Alcotest.failf "compose failed: %s" e);
  (match Shmls.Variant.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus variant accepted"
  | Error _ -> ())

(* -- error parity ---------------------------------------------------- *)

let run_expect_error what run =
  match run () with
  | () -> Alcotest.failf "%s: expected an error" what
  | exception Shmls.Err.Error e -> e

(* The batched plan must report the same diagnostic (message and
   location) as the interpreter when a design is mis-wired — a starved
   block through its per-element replay path. *)
let check_error_parity what (d : Shmls.Design.t) ~args_of =
  let ei = run_expect_error (what ^ " (interp)") (fun () ->
      Functional.run d ~args:(args_of ())) in
  let e =
    run_expect_error (what ^ " (batched)") (fun () ->
        Stage_compiler.run (Stage_compiler.compile d) ~args:(args_of ()))
  in
  Alcotest.(check string)
    (what ^ ": same message")
    ei.Shmls_support.Diagnostic.d_message e.Shmls_support.Diagnostic.d_message;
  Alcotest.(check bool)
    (what ^ ": same location")
    true
    (ei.Shmls_support.Diagnostic.d_loc = e.Shmls_support.Diagnostic.d_loc)

let test_starved_read_parity () =
  (* dropping the load stage starves the first read: the diagnostic is
     anchored at the hls.read op in both engines.  The kernel carries a
     real stencil location so the anchor is a *known* position. *)
  let loc = Shmls_support.Loc.file ~file:"avg.psy" ~line:3 ~col:5 in
  let k =
    {
      H.avg_1d with
      Shmls_frontend.Ast.k_name = "avg_1d_located";
      k_stencils =
        List.map
          (fun (s : Shmls_frontend.Ast.stencil_def) -> { s with sd_loc = loc })
          H.avg_1d.k_stencils;
    }
  in
  let c = Shmls.compile_cached k ~grid:[ 16 ] in
  let d = c.c_design in
  let broken =
    (* keep only compute and write stages: the compute's own hls.read is
       the first starved pop, so the diagnostic anchors at its loc *)
    {
      d with
      Shmls.Design.d_stages =
        List.filter
          (fun s ->
            match s with
            | Shmls.Design.Compute _ | Shmls.Design.Write _ -> true
            | _ -> false)
          d.d_stages;
    }
  in
  let args_of () = args_of_state (Interp.alloc_state ~seed:7 c.c_lowered) in
  let e =
    run_expect_error "starved read" (fun () ->
        Functional.run broken ~args:(args_of ()))
  in
  Alcotest.(check string) "message" "functional sim: read from empty stream"
    e.Shmls_support.Diagnostic.d_message;
  Alcotest.(check bool) "read location is known" true
    (e.Shmls_support.Diagnostic.d_loc <> Shmls_support.Loc.unknown);
  check_error_parity "starved read" broken ~args_of

let test_undrained_stream_parity () =
  (* dropping the write stage leaves its input stream full *)
  let c = Shmls.compile_cached H.avg_1d ~grid:[ 16 ] in
  let d = c.c_design in
  let broken =
    {
      d with
      Shmls.Design.d_stages =
        List.filter
          (fun s ->
            match s with Shmls.Design.Write _ -> false | _ -> true)
          d.d_stages;
    }
  in
  let args_of () = args_of_state (Interp.alloc_state ~seed:7 c.c_lowered) in
  let e =
    run_expect_error "undrained" (fun () ->
        Functional.run broken ~args:(args_of ()))
  in
  let contains s sub =
    let n = String.length sub in
    let ok = ref false in
    for i = 0 to String.length s - n do
      if String.sub s i n = sub then ok := true
    done;
    !ok
  in
  Alcotest.(check bool) "mentions undrained tokens" true
    (contains e.Shmls_support.Diagnostic.d_message "undrained");
  check_error_parity "undrained stream" broken ~args_of

(* -- streaming schedule ---------------------------------------------- *)

(* The batched engine streams its stages chunk by chunk through bounded
   rings.  These grids span many chunks, so stages interleave mid-stream;
   each check compares the batched engine bit for bit with [Functional]
   (every padded float) and with the reference interpreter. *)

let check_streamed ?variant k ~grid =
  check_bit_identical ?variant k ~grid;
  let c = Shmls.compile_cached ?variant k ~grid in
  let v = Shmls.verify ~sim:Shmls.Batched c in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "%s %s: batched = reference" k.Shmls.Ast.k_name
       (String.concat "x" (List.map string_of_int grid)))
    0.0 v.v_max_diff

(* In-place kernels: the write stage overwrites the very array the load
   stage (and, under no-split, the fused compute) reads.  In
   "reset_inplace" the new [u] does not depend on any stream, so its
   compute runs the whole grid in the first sweep, far ahead of the
   load of the old [u] that [x] reads. *)
let inplace_kernels =
  let open Shmls_frontend.Ast in
  let k name ?(fields = []) stencils =
    {
      k_loc = Shmls_support.Loc.unknown;
      k_name = name;
      k_rank = 1;
      k_fields = { fd_name = "u"; fd_role = Inout } :: fields;
      k_smalls = [];
      k_params = [];
      k_stencils =
        List.map
          (fun (t, e) ->
            { sd_loc = Shmls_support.Loc.unknown; sd_target = t; sd_expr = e })
          stencils;
    }
  in
  [
    k "relax_inplace" [ ("u", const 0.25 *: (fld "u" [ -1 ] +: fld "u" [ 1 ])) ];
    k "inplace" [ ("u", fld "u" [ -1 ] +: fld "u" [ 1 ]) ];
    k "reset_inplace"
      ~fields:[ { fd_name = "x"; fd_role = Output } ]
      [ ("x", fld "u" [ -1 ] +: fld "u" [ 1 ]); ("u", const 2.0) ];
  ]

let test_inplace_many_chunks () =
  List.iter
    (fun variant ->
      List.iter
        (fun k -> check_streamed ~variant k ~grid:[ 20000 ])
        inplace_kernels)
    [ Shmls.Variant.default; { Shmls.Variant.default with v_split = false } ]

(* Token counts that are not a multiple of the chunk: 5002 padded
   points in 1-D, 25x21x15 = 7875 in 3-D. *)
let test_ragged_last_chunk () =
  check_streamed H.avg_1d ~grid:[ 5000 ];
  check_streamed H.chain_3d ~grid:[ 23; 19; 13 ];
  check_streamed Shmls_kernels.Pw_advection.kernel ~grid:[ 23; 19; 13 ]

(* Two independent chains that both starve.  The first chain's shift
   is given one row more than the load streams, so it starves only once
   the load has finished, thousands of tokens in; the second chain's
   shift is gone, so its compute starves at once.  The schedule sees
   the second failure first, yet must raise the first chain's error,
   as the interpreter (which runs the stages one after another) does. *)
let test_two_starved_chains () =
  let open Shmls_frontend.Ast in
  let k =
    {
      k_loc = Shmls_support.Loc.unknown;
      k_name = "two_chains";
      k_rank = 2;
      k_fields =
        [
          { fd_name = "a"; fd_role = Input };
          { fd_name = "b"; fd_role = Input };
          { fd_name = "x"; fd_role = Output };
          { fd_name = "y"; fd_role = Output };
        ];
      k_smalls = [];
      k_params = [];
      k_stencils =
        [
          {
            sd_loc = Shmls_support.Loc.file ~file:"two.psy" ~line:1 ~col:3;
            sd_target = "x";
            sd_expr = fld "a" [ -1; 0 ] +: fld "a" [ 1; 0 ];
          };
          {
            sd_loc = Shmls_support.Loc.file ~file:"two.psy" ~line:2 ~col:3;
            sd_target = "y";
            sd_expr = fld "b" [ 0; -1 ] *: fld "b" [ 0; 1 ];
          };
        ];
    }
  in
  let c = Shmls.compile_cached k ~grid:[ 60; 150 ] in
  let d = c.c_design in
  let shifts = ref 0 in
  let broken =
    {
      d with
      Shmls.Design.d_stages =
        List.filter_map
          (fun st ->
            match st with
            | Shmls.Design.Shift s ->
              incr shifts;
              if !shifts = 1 then
                Some
                  (Shmls.Design.Shift
                     { s with extent = (List.hd s.extent + 1) :: List.tl s.extent })
              else None
            | st -> Some st)
          d.d_stages;
    }
  in
  Alcotest.(check int) "one shift per chain" 2 !shifts;
  let args_of () = args_of_state (Interp.alloc_state ~seed:7 c.c_lowered) in
  let e =
    run_expect_error "two starved chains" (fun () ->
        Functional.run broken ~args:(args_of ()))
  in
  Alcotest.(check bool) "the first chain's shift fails first" true
    (e.Shmls_support.Diagnostic.d_loc = Shmls_support.Loc.unknown);
  check_error_parity "two starved chains" broken ~args_of

(* -- parallel sweeps and shared plans -------------------------------- *)

(* One immutable plan, driven concurrently from several domains with
   independent run states: every run must stay bit-exact against the
   interpreter oracle.  This is the core contract of the plan/run-state
   split — the old representation carried mutable state inside the plan
   and would corrupt itself here. *)
let test_shared_plan_across_domains () =
  let k = H.chain_3d and grid = [ 10; 8; 6 ] in
  let c = Shmls.compile_cached k ~grid in
  let plan = Lazy.force c.c_plan in
  let oracle = Interp.alloc_state ~seed:7 c.c_lowered in
  Functional.run c.c_design ~args:(args_of_state oracle);
  (* states allocated in the parent: each spawned domain gets its own
     disjoint set of argument arrays but shares the one plan *)
  let n_domains = 4 and runs_per_domain = 3 in
  let states =
    Array.init (n_domains * runs_per_domain) (fun _ ->
        Interp.alloc_state ~seed:7 c.c_lowered)
  in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for r = 0 to runs_per_domain - 1 do
              let st = states.((d * runs_per_domain) + r) in
              if r = 0 then
                (* explicit per-run state, created on this domain *)
                Stage_compiler.run_with plan
                  (Stage_compiler.create_state plan)
                  ~args:(args_of_state st)
              else
                (* the per-domain cached state behind [run] *)
                Stage_compiler.run plan ~args:(args_of_state st)
            done))
  in
  List.iter Domain.join domains;
  Array.iteri
    (fun si (st : Interp.kernel_state) ->
      List.iter2
        (fun (na, (ga : Grid.t)) (_, (gb : Grid.t)) ->
          Array.iteri
            (fun i x ->
              if Int64.bits_of_float x <> Int64.bits_of_float gb.Grid.data.(i)
              then
                Alcotest.failf "run %d field %s[%d]: oracle %h <> domain %h" si
                  na i x gb.Grid.data.(i))
            ga.Grid.data)
        oracle.fields st.fields)
    states

(* The sweep driver is deterministic under any jobs/chunk combination:
   outcomes, verifications and streamed row order all match the
   sequential run (which is the historical behaviour). *)
let sweep_parity_configs =
  [
    (Shmls_kernels.Didactic.heat_3d, [ 8; 7; 6 ]);
    (Shmls_kernels.Didactic.laplace_2d, [ 12; 10 ]);
    (H.avg_1d, [ 32 ]);
    (H.chain_3d, [ 10; 8; 6 ]);
    (* duplicates on purpose: concurrent jobs then share one plan *)
    (Shmls_kernels.Didactic.heat_3d, [ 8; 7; 6 ]);
    (H.chain_3d, [ 10; 8; 6 ]);
  ]

let qcheck_parallel_sweep_identical =
  H.qtest ~count:15 "parallel sweep = sequential sweep for any jobs/chunk"
    QCheck2.Gen.(triple (int_range 2 5) (int_range 1 7) bool)
    (fun (jobs, chunk, batched) ->
      let sim = if batched then Shmls.Batched else Shmls.Interp in
      let expected =
        Shmls.sweep ~jobs:1 ~sim ~verify_designs:true sweep_parity_configs
      in
      let streamed = ref [] in
      let got =
        Shmls.sweep ~jobs ~chunk
          ~on_result:(fun i r -> streamed := (i, r) :: !streamed)
          ~sim ~verify_designs:true sweep_parity_configs
      in
      let streamed = List.rev !streamed in
      got = expected
      && List.map fst streamed
         = List.init (List.length sweep_parity_configs) (fun i -> i)
      && List.map snd streamed = expected)

(* Error parity under parallelism: a mis-wired design raises the same
   diagnostic (message and Loc) through the pool as sequentially, from
   the smallest failing index. *)
let test_parallel_error_loc_parity () =
  let c = Shmls.compile_cached H.avg_1d ~grid:[ 16 ] in
  let d = c.c_design in
  let broken =
    {
      d with
      Shmls.Design.d_stages =
        List.filter
          (fun s ->
            match s with
            | Shmls.Design.Compute _ | Shmls.Design.Write _ -> true
            | _ -> false)
          d.d_stages;
    }
  in
  let args_of () = args_of_state (Interp.alloc_state ~seed:7 c.c_lowered) in
  let seq_err =
    run_expect_error "sequential" (fun () ->
        Functional.run broken ~args:(args_of ()))
  in
  let plan = Stage_compiler.compile broken in
  let par_err =
    run_expect_error "parallel" (fun () ->
        ignore
          (Shmls.Pool.with_pool ~jobs:4 (fun p ->
               Shmls.Pool.map ~chunk:1 p
                 (fun _ -> Stage_compiler.run plan ~args:(args_of ()))
                 (Array.init 8 (fun i -> i)))))
  in
  Alcotest.(check string) "same message"
    seq_err.Shmls_support.Diagnostic.d_message
    par_err.Shmls_support.Diagnostic.d_message;
  Alcotest.(check bool) "same location" true
    (seq_err.Shmls_support.Diagnostic.d_loc
    = par_err.Shmls_support.Diagnostic.d_loc)

let () =
  Alcotest.run "functional_compiled"
    [
      ( "bit-identical",
        [
          Alcotest.test_case "suite kernels" `Quick
            test_suite_kernels_bit_identical;
          Alcotest.test_case "zoo kernels" `Quick test_zoo_bit_identical;
          Alcotest.test_case "seeds" `Quick test_seeds_bit_identical;
          Alcotest.test_case "verify both engines" `Quick
            test_verify_compiled_matches_interp;
          qcheck_random_kernels_bit_identical;
        ] );
      ( "pipeline variants",
        [
          Alcotest.test_case "every variant bit-exact vs interpreter" `Quick
            test_variants_bit_exact;
          Alcotest.test_case "engines bit-identical per variant" `Quick
            test_variants_engines_bit_identical;
          Alcotest.test_case "variant designs structurally differ" `Quick
            test_variant_designs_differ;
          Alcotest.test_case "batched plans actually batch" `Quick
            test_batched_plans_actually_batch;
          Alcotest.test_case "variant syntax round-trips" `Quick
            test_variant_parsing;
        ] );
      ( "error parity",
        [
          Alcotest.test_case "starved read" `Quick test_starved_read_parity;
          Alcotest.test_case "undrained stream" `Quick
            test_undrained_stream_parity;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "in-place kernels across many chunks" `Quick
            test_inplace_many_chunks;
          Alcotest.test_case "ragged last chunk, 1-D and 3-D" `Quick
            test_ragged_last_chunk;
          Alcotest.test_case "two starved chains" `Quick
            test_two_starved_chains;
        ] );
      ( "parallel sweep",
        [
          Alcotest.test_case "shared plan across domains" `Quick
            test_shared_plan_across_domains;
          qcheck_parallel_sweep_identical;
          Alcotest.test_case "error and Loc parity through the pool" `Quick
            test_parallel_error_loc_parity;
        ] );
    ]
