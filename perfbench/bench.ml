(* The Stencil-HMLS benchmark (BENCHMARK.json).

   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   runs workload W (paper_eval | verify_paper | tune_search) for about S
   seconds and prints, as its last line of standard output, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones.  The line before it is a human-readable summary
   (seed, sample counts, the tail percentile, the first failed check).

   Every sample is one cold pass in a fresh child process of this same
   executable, so samples are independent: nothing one pass leaves in a
   process (compile caches, per-domain engine state) reaches the next.
   Passes run one after another until the next one would end past S
   seconds, with a set-up-only child after each, which set-up time is
   taken from.  While a pass runs, the parent probes the machine's
   speed, and the end-to-end host times are reported at a reference
   speed (see [probe_ref]).  A traced run alternates untraced and traced
   passes: the untraced ones give the library's own counters, the
   traced ones the per-layer times, which are raw host times; the
   tracing overhead is the difference of the two kinds' walls at the
   reference speed.

   --smoke runs tiny grids, one pass of each kind; --smoke-test FILE runs
   every workload of BENCHMARK.json [FILE] in smoke mode, traced and
   untraced, and checks that every metric it names is emitted with its
   unit and that the output checks ran and passed.  The exit code is
   non-zero when any output check fails. *)

open Workloads
module Jsonl = Shmls_support.Jsonl

(* ------------------------------------------------------------------ *)
(* Metrics: name, unit. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("wall_tail_s", "s");
    ("cpu_s", "s");
    ("peak_heap_mb", "MB");
    ("check_pass_ratio", "ratio");
    ("design_mpts", "MPt/s");
    ("hmls_vs_best_baseline", "x");
    ("energy_vs_best_baseline", "x");
    ("model_agree_share", "ratio");
  ]

(* Per-layer span totals a traced pass records (seconds). *)
let layer_times =
  [
    "interp.reference_s";
    "interp.alloc_s";
    "interp.diff_s";
    "fpga.cycle_sim_s";
    "fpga.plan_build_s";
    "fpga.engine_s";
    "frontend.lower_s";
    "transforms.shape_inference_s";
    "transforms.apply_split_s";
    "transforms.stencil_to_hls_s";
    "ir.verify_s";
    "fpga.extract_s";
    "fpga.depth_balance_s";
    "llvmir.emit_s";
    "llvmir.fpp_s";
    "fpga.cost_s";
    "baselines.evaluate_s";
    "host.md_plan_s";
    "host.md_reference_s";
    "host.md_run_s";
    "host.md_estimate_s";
  ]

let per_layer =
  List.map (fun n -> (n, "s")) layer_times
  @ [
      ("interp.reference_ns_per_pt", "ns");
      ("fpga.cycle_sim.simulated_cycles", "count");
      ("fpga.cycle_sim.ff_share", "ratio");
      ("fpga.cycle_sim.us_per_sim_cycle", "us");
      ("fpga.engine_ns_per_pt", "ns");
      ("fpga.run_state_retained_mb", "MB");
      ("frontend.parse_s", "s");
      ("transforms.hls_ops", "count");
      ("core.compile_runs", "count");
      ("core.compile_cache_hit_ratio", "ratio");
      ("core.plan_compiles", "count");
      ("core.run_states", "count");
      ("tune.run_s", "s");
      ("tune.resume_s", "s");
      ("tune.self_s", "s");
      ("tune.points_evaluated", "count");
      ("tune.points_simulated", "count");
      ("tune.state_bytes", "bytes");
      ("tune.cpu_over_wall", "ratio");
      ("tune.divergent_share", "ratio");
      ("trace.overhead_s", "s");
      ("trace.attributed_share", "ratio");
    ]

let workloads = [ "paper_eval"; "verify_paper"; "tune_search" ]

(* ------------------------------------------------------------------ *)
(* Child: one pass *)

type kind = Setup | Pass | Traced

let kind_to_string = function
  | Setup -> "setup"
  | Pass -> "pass"
  | Traced -> "traced"

let kind_of_string = function
  | "setup" -> Setup
  | "pass" -> Pass
  | "traced" -> Traced
  | s -> failwith ("unknown child kind " ^ s)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let geomean = function
  | [] -> 0.0
  | l ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let safe_div a b = if b = 0.0 then 0.0 else a /. b

let child ~kind ~workload ~seed ~smoke ~root ~out =
  (* set-up: module initialisation (pass registration, built-in
     kernels) has run; the .psy kernel is parsed here *)
  let parse_t0 = Span.now () in
  let shallow_water =
    lazy
      (Shmls.Psy_parser.parse_file
         (Filename.concat root "examples/kernels/shallow_water_2d.psy"))
  in
  if workload = "tune_search" then ignore (Lazy.force shallow_water);
  let parse_s = Span.now () -. parse_t0 in
  let setup_at = Span.now () in
  let fields =
    if kind = Setup then [ ("setup_at", Jsonl.Float setup_at) ]
    else begin
      Span.enabled := kind = Traced;
      Shmls.reset_compile_cache ();
      Shmls.Stage_compiler.reset_compile_count ();
      Shmls.Stage_compiler.reset_state_count ();
      let r = new_pass () in
      let state_dir = Filename.concat root ".perfbench_state" in
      let (), wall, cpu =
        timed (fun () ->
            match workload with
            | "paper_eval" -> paper_eval r ~smoke
            | "verify_paper" -> verify_paper r ~smoke ~seed
            | "tune_search" ->
              tune_search r ~smoke ~seed ~state_dir
                ~shallow_water:(Lazy.force shallow_water)
            | w -> failwith ("unknown workload " ^ w))
      in
      let peak = mb (Gc.quick_stat ()).top_heap_words in
      check r (r.mpts <> []) "no design was measured";
      check r (r.vs_best <> []) "no baseline comparison was made";
      let hits, misses = Shmls.compile_cache_stats () in
      let tune k = Option.value ~default:0.0 (List.assoc_opt k r.counters) in
      let base =
        [
          ("setup_at", setup_at);
          ("wall_s", wall);
          ("cpu_s", cpu);
          ("peak_heap_mb", peak);
          ("attempted", float_of_int r.attempted);
          ("failed", float_of_int r.failed);
          ("design_mpts", geomean r.mpts);
          ("hmls_vs_best_baseline", geomean r.vs_best);
          ("energy_vs_best_baseline", geomean r.energy_vs_best);
          ( "model_agree_share",
            safe_div
              (float_of_int (r.validated - r.divergent))
              (float_of_int r.validated) );
          ( "tune.divergent_share",
            safe_div (float_of_int r.divergent) (float_of_int r.validated) );
          ("core.compile_runs", float_of_int (Shmls.compile_runs ()));
          ( "core.compile_cache_hit_ratio",
            safe_div (float_of_int hits) (float_of_int (hits + misses)) );
          ( "core.plan_compiles",
            float_of_int (Shmls.Stage_compiler.compile_count ()) );
          ("core.run_states", float_of_int (Shmls.Stage_compiler.state_count ()));
          ("frontend.parse_s", parse_s);
        ]
        @ List.map (fun k -> (k, tune k))
            [
              "tune.run_s";
              "tune.resume_s";
              "tune.points_evaluated";
              "tune.points_simulated";
              "tune.state_bytes";
            ]
        @ [ ("tune.cpu_over_wall", safe_div (tune "tune.run_cpu_s") (tune "tune.run_s")) ]
      in
      let traced =
        if kind <> Traced then []
        else begin
          let attributed = Span.attributed () in
          (* [Tune.run] is timed whole; its layers are the replay's
             spans, sequential, so they are set against its CPU time *)
          let tune_cpu = tune "tune.run_cpu_s" in
          let replayed = tune "tune.replayed_s" in
          let tune_self =
            if tune_cpu = 0.0 then 0.0
            else tune "tune.run_s" *. (1.0 -. (replayed /. tune_cpu))
          in
          let share =
            if tune_cpu = 0.0 then safe_div attributed wall
            else safe_div replayed tune_cpu
          in
          let sim = Span.get "fpga.cycle_sim.simulated_cycles" in
          let ff = Span.get "fpga.cycle_sim.ff_cycles" in
          (* live heap once the pass is over and the caches are reset:
             what the engine's per-domain run states still hold *)
          Shmls.reset_compile_cache ();
          Gc.full_major ();
          let retained = mb (Gc.quick_stat ()).live_words in
          List.map (fun k -> (k, Span.get k)) layer_times
          @ [
              ( "interp.reference_ns_per_pt",
                safe_div (Span.get "interp.reference_s" *. 1e9)
                  (Span.get "interp.reference_points") );
              ("fpga.cycle_sim.simulated_cycles", sim);
              ("fpga.cycle_sim.ff_share", safe_div ff (sim +. ff));
              ( "fpga.cycle_sim.us_per_sim_cycle",
                safe_div (Span.get "fpga.cycle_sim_s" *. 1e6) sim );
              ( "fpga.engine_ns_per_pt",
                safe_div (Span.get "fpga.engine_s" *. 1e9)
                  (Span.get "fpga.engine_points") );
              ("fpga.run_state_retained_mb", retained);
              ("transforms.hls_ops", Span.get "transforms.hls_ops");
              ("tune.self_s", tune_self);
              ("trace.attributed_share", share);
            ]
        end
      in
      List.map (fun (k, v) -> (k, Jsonl.Float v)) (base @ traced)
      @ [
          ( "first_failure",
            Jsonl.Str (Option.value ~default:"" r.first_failure) );
        ]
    end
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Jsonl.obj fields);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Parent: samples, aggregation, output *)

type sample = {
  sa_kind : kind;
  sa_line : string;  (** the child's record *)
  sa_setup : float;
  sa_elapsed : float;  (** spawn to exit *)
  sa_probes : float list;  (** speed probes taken while it ran *)
}

(* Machine speed.  On a shared machine the speed of the cores swings by
   tens of percent, over seconds to minutes, as other tenants come and
   go, and cold passes are too long to repeat often enough to average
   that out.  So the end-to-end host times are reported at a reference
   speed: while a pass runs, the parent (otherwise idle) probes the
   machine every [probe_every] seconds with a fixed loop of the kind of
   work the libraries do, boxed floats and lists through a hashtable,
   and takes the loop's CPU time, which waiting for a core does not
   inflate.  The pass's times are scaled by [probe_ref /. mean probe].
   The loop is the benchmark's own code, so no change to the program
   can move it; it keeps one core busy about a twentieth of the time.  The
   raw times are in the summary line. *)
let probe_ref = 0.015
let probe_every = 0.3

let probe () =
  let c0 = Sys.time () in
  let h = Hashtbl.create 4096 in
  let acc = ref 0.0 in
  for i = 0 to 60_000 do
    Hashtbl.replace h (i land 8191) (float_of_int i, [ i; i + 1 ]);
    match Hashtbl.find_opt h (i * 7 land 8191) with
    | Some (f, l) -> acc := !acc +. f +. float_of_int (List.length l)
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  Sys.time () -. c0

(* Wait for [pid], probing the machine's speed meanwhile if [probing]. *)
let wait_probing ~probing pid =
  let probes = ref [] in
  let rec go next =
    match Unix.waitpid (if probing then [ Unix.WNOHANG ] else []) pid with
    | 0, _ ->
      let now = Span.now () in
      if now >= next then begin
        probes := probe () :: !probes;
        go (now +. probe_every)
      end
      else begin
        Unix.sleepf (Float.min 0.01 (next -. now));
        go next
      end
    | _, status -> (status, !probes)
  in
  go (Span.now () +. 0.01)

(* The highest sample with at least ten samples above it, or the
   maximum when that sample would not lie above the median (fewer than
   21 samples).  Returns (value, percentile). *)
let tail l =
  let a = Array.of_list (List.sort compare l) and n = List.length l in
  if n = 0 then (0.0, 100.0)
  else if n >= 21 then
    (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)
  else (a.(n - 1), 100.0)

type outcome = {
  o_correct : bool;
  o_attempted : int;
  o_failed : int;
  o_metrics : (string * float * string) list;
  o_summary : string;
}

let run_workload ~workload ~seed ~seconds ~trace ~smoke ~root =
  if not (List.mem workload workloads) then
    failwith ("unknown workload " ^ workload);
  let state_dir = Filename.concat root ".perfbench_state" in
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  let started = Span.now () in
  let spawned = ref 0 and crashed = ref [] in
  let spawn kind =
    incr spawned;
    let out =
      Filename.concat state_dir
        (Printf.sprintf "sample-%d-%d.json" (Unix.getpid ()) !spawned)
    in
    let argv =
      [
        Sys.executable_name; "--child"; kind_to_string kind; "--workload";
        workload; "--seed"; string_of_int seed; "--root"; root; "--out"; out;
      ]
      @ if smoke then [ "--smoke" ] else []
    in
    let t0 = Span.now () in
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
        Unix.stderr Unix.stderr
    in
    let status, probes = wait_probing ~probing:(kind <> Setup) pid in
    let elapsed = Span.now () -. t0 in
    let line =
      if Sys.file_exists out then begin
        let l = String.trim (In_channel.with_open_bin out In_channel.input_all) in
        Sys.remove out;
        l
      end
      else ""
    in
    match (status, Jsonl.find_float line "setup_at") with
    | Unix.WEXITED 0, Some at ->
      Some
        {
          sa_kind = kind;
          sa_line = line;
          sa_setup = at -. t0;
          sa_elapsed = elapsed;
          sa_probes = probes;
        }
    | _ ->
      crashed := kind_to_string kind :: !crashed;
      None
  in
  (* set-up-only children between passes, so that the set-up samples
     spread over the run *)
  let setups = ref [] in
  let setup () =
    match spawn Setup with Some s -> setups := s :: !setups | None -> ()
  in
  (* passes until the next would end past [seconds] *)
  let order = if trace then [| Pass; Traced |] else [| Pass |] in
  let samples = ref [] in
  let last = Hashtbl.create 2 in
  let rec loop i =
    let kind = order.(i mod Array.length order) in
    let first = i < Array.length order in
    let due =
      match Hashtbl.find_opt last kind with
      | Some d -> Span.now () -. started +. d <= float_of_int seconds
      | None -> true
    in
    if first || ((not smoke) && due) then begin
      (match spawn kind with
       | Some s ->
         Hashtbl.replace last kind s.sa_elapsed;
         samples := s :: !samples;
         setup ()
       | None -> Hashtbl.replace last kind infinity);
      loop (i + 1)
    end
  in
  loop 0;
  let wanted = if smoke then 2 else 20 and tries = ref 0 in
  while List.length !setups < wanted && !tries < wanted do
    incr tries;
    setup ()
  done;
  let samples = List.rev !samples in
  let field s name = Option.value ~default:0.0 (Jsonl.find_float s.sa_line name) in
  let of_kind k = List.filter (fun s -> s.sa_kind = k) samples in
  let values k name = List.map (fun s -> field s name) (of_kind k) in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let all_probes = List.concat_map (fun s -> s.sa_probes) samples in
  let run_probe = if all_probes = [] then probe_ref else median all_probes in
  (* a pass's host time at the reference speed *)
  let at_ref k name =
    List.map
      (fun s ->
        let p = if s.sa_probes = [] then run_probe else mean s.sa_probes in
        field s name *. probe_ref /. p)
      (of_kind k)
  in
  let med k name = median (values k name) in
  let sum name = List.fold_left (fun a s -> a +. field s name) 0.0 samples in
  let crashes = List.length !crashed in
  let attempted = int_of_float (sum "attempted") + crashes in
  let failed = int_of_float (sum "failed") + crashes in
  let walls = at_ref Pass "wall_s" in
  let tail_v, tail_p = tail walls in
  let metrics =
    if not trace then
      List.map
        (fun (name, unit) ->
          let v =
            match name with
            | "setup_s" ->
              median (List.map (fun s -> s.sa_setup) !setups)
              *. probe_ref /. run_probe
            | "wall_s" -> median walls
            | "wall_tail_s" -> tail_v
            | "cpu_s" -> median (at_ref Pass "cpu_s")
            | "check_pass_ratio" ->
              safe_div (float_of_int (attempted - failed)) (float_of_int attempted)
            | _ -> med Pass name
          in
          (name, v, unit))
        end_to_end
    else
      List.map
        (fun (name, unit) ->
          let v =
            match name with
            | "trace.overhead_s" ->
              median (at_ref Traced "wall_s") -. median (at_ref Pass "wall_s")
            | _ when String.starts_with ~prefix:"core." name -> med Pass name
            | _ -> med Traced name
          in
          (name, v, unit))
        per_layer
  in
  let first_failure =
    List.find_map
      (fun s ->
        match Jsonl.find_string s.sa_line "first_failure" with
        | Some "" | None -> None
        | f -> f)
      samples
  in
  let summary =
    Printf.sprintf
      "workload=%s seed=%d trace=%d passes=%d traced=%d raw_wall_s=[%s] \
       wall_tail=p%.0f of %d raw_setup_s=%.6f (%d) probe_s=%.5f (%d)%s%s"
      workload seed (if trace then 1 else 0) (List.length (of_kind Pass))
      (List.length (of_kind Traced))
      (String.concat " " (List.map (Printf.sprintf "%.3f") (values Pass "wall_s")))
      tail_p (List.length walls)
      (median (List.map (fun s -> s.sa_setup) !setups))
      (List.length !setups)
      run_probe (List.length all_probes)
      (if crashes > 0 then
         Printf.sprintf " crashed=[%s]" (String.concat " " !crashed)
       else "")
      (match first_failure with
       | Some f -> " first_failure=" ^ f
       | None -> "")
  in
  {
    o_correct = failed = 0;
    o_attempted = attempted;
    o_failed = failed;
    o_metrics = metrics;
    o_summary = summary;
  }

let to_json o =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.o_correct o.o_attempted o.o_failed
    (String.concat ", " (List.map metric o.o_metrics))

(* ------------------------------------------------------------------ *)
(* Smoke test *)

let smoke_test ~spec ~root =
  let spec = Json.parse (In_channel.with_open_bin spec In_channel.input_all) in
  let named key =
    List.map
      (fun m ->
        (Json.to_string (Json.member "name" m), Json.to_string (Json.member "unit" m)))
      (Json.to_list (Json.member key spec))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      let workload = Json.to_string (Json.member "name" w) in
      List.iter
        (fun (trace, key) ->
          let o = run_workload ~workload ~seed:1 ~seconds:1 ~trace ~smoke:true ~root in
          if not o.o_correct then prerr_endline o.o_summary;
          if o.o_attempted < 1 then problem "%s: no output check ran" workload;
          if not o.o_correct then
            problem "%s: %d of %d output checks failed" workload o.o_failed
              o.o_attempted;
          let emitted = List.map (fun (n, _, u) -> (n, u)) o.o_metrics in
          List.iter
            (fun (name, unit) ->
              match List.assoc_opt name emitted with
              | None -> problem "%s trace=%b: %s not emitted" workload trace name
              | Some u when u <> unit ->
                problem "%s: %s emitted in %s, BENCHMARK.json says %s" workload
                  name u unit
              | Some _ -> ())
            (named key);
          List.iter
            (fun (name, _) ->
              if not (List.mem_assoc name (named key)) then
                problem "%s: %s emitted but not in BENCHMARK.json %s" workload
                  name key)
            emitted;
          List.iter
            (fun (name, v, _) ->
              if not (Float.is_finite v) then
                problem "%s: %s = %g" workload name v)
            o.o_metrics)
        [ (false, "end_to_end"); (true, "per_layer") ])
    (Json.to_list (Json.member "workloads" spec));
  match List.rev !problems with
  | [] -> print_endline "perfbench smoke test: ok"
  | ps ->
    List.iter prerr_endline ps;
    exit 1

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name default = Option.value ~default (opt name args) in
  let flag name = List.mem name args in
  let root = get "--root" "." in
  let smoke = flag "--smoke" in
  let workload = get "--workload" "" in
  let seed = int_of_string (get "--seed" "1") in
  match (opt "--child" args, opt "--smoke-test" args) with
  | Some kind, _ ->
    child ~kind:(kind_of_string kind) ~workload ~seed ~smoke ~root
      ~out:(get "--out" "sample.json")
  | None, Some spec -> smoke_test ~spec ~root
  | None, None ->
    let o =
      run_workload ~workload ~seed
        ~seconds:(int_of_string (get "--seconds" "10"))
        ~trace:(get "--trace" "0" = "1") ~smoke ~root
    in
    print_endline o.o_summary;
    print_endline (to_json o);
    if not o.o_correct then exit 1
