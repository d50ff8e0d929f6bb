(* Common shape of a baseline-flow evaluation.

   Each baseline model reproduces the *structure* the paper measured for
   that flow (initiation interval, stage serialisation, CU count,
   resource profile, failure modes) and lets the shared performance /
   power models account the cycles — the comparison is then as generous
   to the baselines as the paper's own measurements were (DESIGN.md
   section 2). *)

type success = {
  s_flow : string;
  s_est : Shmls_fpga.Perf_model.estimate;
  s_usage : Shmls_fpga.Resources.usage;
  s_power : Shmls_fpga.Power.report;
  s_note : string;
}

type outcome =
  | Success of success
  | Failure of { f_flow : string; f_reason : string }

let flow_name = function Success s -> s.s_flow | Failure f -> f.f_flow

(* Structural statistics of a kernel that the flow models consume. *)
type kernel_stats = {
  ks_fields : int; (* external field arguments *)
  ks_inputs : int;
  ks_outputs : int;
  ks_smalls : int;
  ks_stencils : int;
  ks_intermediates : int;
  ks_components : int; (* weakly-connected components of the dep graph *)
  ks_refs_per_stencil : int list; (* field references, with multiplicity *)
  ks_small_refs_per_stencil : int list;
  ks_flops : int;
  ks_halo : int list;
}

let stats_of_kernel (k : Shmls_frontend.Ast.kernel) =
  let open Shmls_frontend.Ast in
  let refs s = List.length (field_refs s.sd_expr) in
  let small_refs s = List.length (small_refs s.sd_expr) in
  let deps = dependencies k in
  (* weakly-connected components over stencil indices *)
  let n = List.length k.k_stencils in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter (fun (a, b) -> union a b) deps;
  let components =
    List.init n find |> List.sort_uniq Int.compare |> List.length
  in
  {
    ks_fields = List.length k.k_fields;
    ks_inputs =
      List.length
        (List.filter (fun fd -> fd.fd_role = Input || fd.fd_role = Inout) k.k_fields);
    ks_outputs =
      List.length
        (List.filter (fun fd -> fd.fd_role = Output || fd.fd_role = Inout) k.k_fields);
    ks_smalls = List.length k.k_smalls;
    ks_stencils = List.length k.k_stencils;
    ks_intermediates = List.length (intermediates k);
    ks_components = components;
    ks_refs_per_stencil = List.map refs k.k_stencils;
    ks_small_refs_per_stencil = List.map small_refs k.k_stencils;
    ks_flops = flops k;
    ks_halo = halo k;
  }

let total_padded ~grid ~halo =
  if List.length grid <> List.length halo then
    Err.raise_error "grid rank %d, kernel rank %d" (List.length grid)
      (List.length halo);
  List.fold_left ( * ) 1 (List.map2 (fun g h -> g + (2 * h)) grid halo)

let interior ~grid = List.fold_left ( * ) 1 grid

(* Bytes a flow moves per interior point when every field is read/written
   once per pass over the grid. *)
let bytes_per_point ~reads ~writes = 8 * (reads + writes)
