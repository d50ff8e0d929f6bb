(* First-class multi-device designs (DESIGN.md section 16).

   Slab decomposition as a plan the rest of the stack can reason
   about: one compiled design per slab shape, explicit halo-exchange
   streams between neighbouring devices, and host-level Jacobi
   time-stepping ([mp_sweeps] kernel applications with feedback + halo
   exchange between consecutive sweeps).

   Correctness argument (the induction the tests enforce bit-exactly):
   at every sweep start each slab's padded memory mirrors the global
   memory of the single-device reference on the slab's padded region.
   Seeding establishes it; a design run preserves it on interiors
   (each slab's padded region holds every input its interior reads);
   the feedback copy is applied identically on both sides; and the
   exchange then refreshes every dim-0 halo plane that lies inside the
   global interior from the owning neighbour's freshly-computed
   interior, which is exactly where the mirror could have gone stale.
   Rows outside the global interior are written by nobody and keep the
   identical initial seed on both sides. *)

module Grid = Shmls_interp.Grid
module Link = Shmls_fpga.Link
module Design = Shmls_fpga.Design
module Cycle_sim = Shmls_fpga.Cycle_sim

type direction = Recv | Send

type exchange_stream = {
  xs_field : string;
  xs_peer : int;
  xs_dir : direction;
  xs_rows : int;
  xs_bytes : int;
}

type slab = {
  sl_device : int;
  sl_offset : int;
  sl_extent : int;
  sl_grid : int list;
  sl_compiled : Shmls.compiled;
  sl_exchanges : exchange_stream list;
}

type plan = {
  mp_kernel : Shmls.Ast.kernel;
  mp_grid : int list;
  mp_variant : Shmls.Variant.t;
  mp_devices : int;
  mp_sweeps : int;
  mp_link : Link.t;
  mp_halo : int list;
  mp_feedback : (string * string) list;
  mp_slabs : slab list;
}

let slab_extents n p =
  let base = n / p and extra = n mod p in
  List.init p (fun i -> base + if i < extra then 1 else 0)

(* Host-level time-stepping pairs: Inout fields feed back in place;
   an Output field "X_new"/"X_out"/"X_next" updates a declared field
   "X" — the Jacobi convention the built-in kernels follow (heat_3d's
   t/t_new, laplace_2d's phi/phi_new, tracer_advection's tsn/tsn_out). *)
let feedback_pairs (k : Shmls.Ast.kernel) =
  let strip name =
    List.find_map
      (fun suffix ->
        let ls = String.length suffix and ln = String.length name in
        if ln > ls && String.sub name (ln - ls) ls = suffix then
          Some (String.sub name 0 (ln - ls))
        else None)
      [ "_new"; "_out"; "_next" ]
  in
  List.filter_map
    (fun (fd : Shmls.Ast.field_decl) ->
      match fd.fd_role with
      | Shmls.Ast.Inout -> Some (fd.fd_name, fd.fd_name)
      | Shmls.Ast.Output -> (
        match strip fd.fd_name with
        | Some base when Shmls.Ast.is_field k base && base <> fd.fd_name ->
          Some (base, fd.fd_name)
        | _ -> None)
      | Shmls.Ast.Input -> None)
    k.k_fields

(* Distinct declared fields the kernel reads — the planes a device
   must receive from its neighbours before a run.  Kernel-derived, so
   the exchange streams are identical across pipeline variants (split
   designs load them through load_data, no-split designs through the
   fused compute's external reads — same data either way). *)
let loaded_field_names (k : Shmls.Ast.kernel) =
  let read =
    List.concat_map
      (fun (s : Shmls.Ast.stencil_def) ->
        List.map fst (Shmls.Ast.field_refs s.sd_expr))
      k.k_stencils
  in
  List.filter_map
    (fun (fd : Shmls.Ast.field_decl) ->
      if List.mem fd.fd_name read then Some fd.fd_name else None)
    k.k_fields

let plan ?(variant = Shmls.Variant.default) ?(sweeps = 1)
    ?(link = Link.default) (kernel : Shmls.Ast.kernel) ~grid ~devices =
  if devices < 1 then
    Err.raise_error "multi_device: need at least one device";
  if sweeps < 1 then Err.raise_error "multi_device: need at least one sweep";
  let n0 = List.hd grid in
  if n0 < devices then
    Err.raise_error "multi_device: more devices (%d) than dim-0 rows (%d)"
      devices n0;
  let halo = Shmls.Ast.halo kernel in
  let h0 = List.hd halo in
  let extents = slab_extents n0 devices in
  let offsets =
    List.fold_left (fun acc e -> (List.hd acc + e) :: acc) [ 0 ] extents
    |> List.tl |> List.rev
  in
  let loaded = loaded_field_names kernel in
  let slabs =
    List.mapi
      (fun i (offset, extent) ->
        let slab_grid = extent :: List.tl grid in
        let c = Shmls.compile_cached ~variant kernel ~grid:slab_grid in
        let plane = Link.halo_plane_bytes ~grid:slab_grid ~halo in
        let neighbours =
          (if i > 0 then [ i - 1 ] else [])
          @ if i < devices - 1 then [ i + 1 ] else []
        in
        let exchanges =
          if h0 = 0 then []
          else
            List.concat_map
              (fun peer ->
                List.concat_map
                  (fun f ->
                    let stream dir =
                      {
                        xs_field = f;
                        xs_peer = peer;
                        xs_dir = dir;
                        xs_rows = h0;
                        xs_bytes = h0 * plane;
                      }
                    in
                    [ stream Recv; stream Send ])
                  loaded)
              neighbours
        in
        {
          sl_device = i;
          sl_offset = offset;
          sl_extent = extent;
          sl_grid = slab_grid;
          sl_compiled = c;
          sl_exchanges = exchanges;
        })
      (List.combine offsets extents)
  in
  {
    mp_kernel = kernel;
    mp_grid = grid;
    mp_variant = variant;
    mp_devices = devices;
    mp_sweeps = sweeps;
    mp_link = link;
    mp_halo = halo;
    mp_feedback = feedback_pairs kernel;
    mp_slabs = slabs;
  }

let recv_bytes_per_phase (sl : slab) =
  List.fold_left
    (fun acc xs -> if xs.xs_dir = Recv then acc + xs.xs_bytes else acc)
    0 sl.sl_exchanges

(* ------------------------------------------------------------------ *)
(* Functional execution *)

(* One dim-0 plane of a padded grid is contiguous (row-major layout):
   strides.(0) elements starting at (row - lb0) * strides.(0). *)
let plane_size (g : Grid.t) =
  if Array.length g.strides = 0 then 1 else g.strides.(0)

let blit_plane ~(src : Grid.t) ~src_row ~(dst : Grid.t) ~dst_row =
  let ps = plane_size dst in
  Array.blit src.data
    ((src_row - src.lb.(0)) * ps)
    dst.data
    ((dst_row - dst.lb.(0)) * ps)
    ps

let resolve_params (defaults : (string * float) list) overrides =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name defaults) then
        Err.raise_error "multi_device: unknown parameter %s" name)
    overrides;
  List.map
    (fun (name, v) ->
      match List.assoc_opt name overrides with
      | Some o -> (name, o)
      | None -> (name, v))
    defaults

type run_result = {
  rr_outputs : (string * Grid.t) list;
  rr_events : Host.event list;
  rr_exchange_phases : int;
  rr_exchanged_bytes : int;
}

let run ?(seed = 7) ?(sim = Shmls.Interp) ?(params = []) (p : plan) =
  let kernel = p.mp_kernel in
  let global_c =
    Shmls.compile_cached ~variant:p.mp_variant kernel ~grid:p.mp_grid
  in
  let global = Shmls.Interp.alloc_state ~seed global_c.Shmls.c_lowered in
  let params = resolve_params global.params params in
  let h0 = List.hd p.mp_halo in
  let n0 = List.hd p.mp_grid in
  let slabs = Array.of_list p.mp_slabs in
  (* per-slab devices, programs and buffers, seeded from the global
     state shifted into slab coordinates (row-wise plane blits: the
     non-streamed padded extents are shared with the global grids) *)
  let devices =
    Array.map
      (fun sl ->
        let device = Host.create_device () in
        let prog = Host.build_program device sl.sl_compiled in
        let field_bufs =
          List.map
            (fun (fd : Shmls.Ast.field_decl) ->
              let buf = Host.alloc_field_buffer prog in
              let g = List.assoc fd.fd_name global.fields in
              for r = -h0 to sl.sl_extent + h0 - 1 do
                blit_plane ~src:g ~src_row:(r + sl.sl_offset)
                  ~dst:buf.Host.buf_grid ~dst_row:r
              done;
              (fd.fd_name, buf))
            kernel.k_fields
        in
        let small_bufs =
          List.map
            (fun (sd : Shmls.Ast.small_decl) ->
              let buf = Host.alloc_small_buffer prog ~axis:sd.sd_axis in
              let g = List.assoc sd.sd_name global.smalls in
              Grid.iter_bounds buf.Host.buf_grid.bounds (fun idx ->
                  match idx with
                  | [ i ] ->
                    let src = if sd.sd_axis = 0 then i + sl.sl_offset else i in
                    Grid.set buf.Host.buf_grid idx (Grid.get g [ src ])
                  | _ -> ());
              (sd.sd_name, buf))
            kernel.k_smalls
        in
        let args =
          List.map (fun (_, b) -> Host.Buffer b) field_bufs
          @ List.map (fun (_, b) -> Host.Buffer b) small_bufs
          @ List.map
              (fun name -> Host.Scalar (List.assoc name params))
              kernel.k_params
        in
        (prog, field_bufs, args))
      slabs
  in
  let owner_of_row g0 =
    let rec find i =
      if i >= Array.length slabs then
        Err.raise_error "multi_device: no slab owns row %d" g0
      else
        let sl = slabs.(i) in
        if g0 >= sl.sl_offset && g0 < sl.sl_offset + sl.sl_extent then i
        else find (i + 1)
    in
    find 0
  in
  let exchanged_bytes = ref 0 in
  (* refresh every dim-0 halo plane that lies inside the global
     interior from the device that owns the row; covers every field so
     the slab memories mirror the global memory again *)
  let exchange () =
    Array.iteri
      (fun i (_, field_bufs, _) ->
        let sl = slabs.(i) in
        let halo_rows =
          List.init h0 (fun r -> -h0 + r)
          @ List.init h0 (fun r -> sl.sl_extent + r)
        in
        List.iter
          (fun r ->
            let g0 = sl.sl_offset + r in
            if g0 >= 0 && g0 < n0 then begin
              let j = owner_of_row g0 in
              let _, src_bufs, _ = devices.(j) in
              let src_off = slabs.(j).sl_offset in
              List.iter
                (fun (name, (dbuf : Host.buffer)) ->
                  let sbuf = List.assoc name src_bufs in
                  blit_plane ~src:sbuf.Host.buf_grid ~src_row:(g0 - src_off)
                    ~dst:dbuf.Host.buf_grid ~dst_row:r;
                  exchanged_bytes :=
                    !exchanged_bytes + (8 * plane_size dbuf.Host.buf_grid))
                field_bufs
            end)
          halo_rows)
      devices
  in
  (* host-level feedback: the new-state buffer is copied onto the
     old-state buffer (ping-pong swap), identically on every device *)
  let feedback () =
    Array.iter
      (fun (_, field_bufs, _) ->
        List.iter
          (fun (dst, src) ->
            if dst <> src then begin
              let d = (List.assoc dst field_bufs : Host.buffer).Host.buf_grid in
              let s = (List.assoc src field_bufs : Host.buffer).Host.buf_grid in
              Array.blit s.Grid.data 0 d.Grid.data 0 (Array.length s.Grid.data)
            end)
          p.mp_feedback)
      devices
  in
  let events = ref [] in
  for sweep = 1 to p.mp_sweeps do
    Array.iter
      (fun (prog, _, args) -> events := Host.enqueue ~sim prog args :: !events)
      devices;
    if sweep < p.mp_sweeps then begin
      feedback ();
      exchange ()
    end
  done;
  (* gather: every written field's slab interiors reassembled into a
     copy of the global grid *)
  let outputs =
    List.filter_map
      (fun (fd : Shmls.Ast.field_decl) ->
        if fd.fd_role = Shmls.Ast.Input then None
        else Some (fd.fd_name, Grid.copy (List.assoc fd.fd_name global.fields)))
      kernel.k_fields
  in
  Array.iteri
    (fun i (_, field_bufs, _) ->
      let sl = slabs.(i) in
      List.iter
        (fun (name, dst) ->
          let buf = (List.assoc name field_bufs : Host.buffer).Host.buf_grid in
          for r = 0 to sl.sl_extent - 1 do
            blit_plane ~src:buf ~src_row:r ~dst ~dst_row:(r + sl.sl_offset)
          done)
        outputs)
    devices;
  {
    rr_outputs = outputs;
    rr_events = List.rev !events;
    rr_exchange_phases = p.mp_sweeps - 1;
    rr_exchanged_bytes = !exchanged_bytes;
  }

let reference ?(seed = 7) ?(params = []) (p : plan) =
  let c =
    Shmls.compile_cached ~variant:p.mp_variant p.mp_kernel ~grid:p.mp_grid
  in
  let st = Shmls.Interp.alloc_state ~seed c.Shmls.c_lowered in
  let st =
    { st with Shmls.Interp.params = resolve_params st.params params }
  in
  for sweep = 1 to p.mp_sweeps do
    ignore
      (Shmls.Interp.run_func c.Shmls.c_lowered.l_func
         ~args:(Shmls.Interp.state_args st));
    if sweep < p.mp_sweeps then
      List.iter
        (fun (dst, src) ->
          if dst <> src then begin
            let d = List.assoc dst st.Shmls.Interp.fields in
            let s = List.assoc src st.Shmls.Interp.fields in
            Array.blit s.Grid.data 0 d.Grid.data 0 (Array.length s.Grid.data)
          end)
        p.mp_feedback
  done;
  st

let verify_vs_reference ?(seed = 7) ?(sim = Shmls.Interp) ?(params = [])
    (p : plan) =
  let result = run ~seed ~sim ~params p in
  let st = reference ~seed ~params p in
  let interior =
    Shmls.Ty.make_bounds
      ~lb:(List.map (fun _ -> 0) p.mp_grid)
      ~ub:p.mp_grid
  in
  let fields =
    List.map
      (fun (name, got) ->
        let want = List.assoc name st.Shmls.Interp.fields in
        (name, Grid.max_abs_diff_on interior want got))
      result.rr_outputs
  in
  let max_diff =
    List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 fields
  in
  { Shmls.v_fields = fields; v_max_diff = max_diff }

(* ------------------------------------------------------------------ *)
(* Cycle-level estimates *)

let estimate ?engine (p : plan) =
  Cycle_sim.run_multi ?engine ~sweeps:p.mp_sweeps ~link:p.mp_link
    (List.map
       (fun sl -> (sl.sl_compiled.Shmls.c_design, recv_bytes_per_phase sl))
       p.mp_slabs)

let aggregate_mpts (p : plan) (mr : Cycle_sim.multi_result) =
  let interior = List.fold_left ( * ) 1 p.mp_grid in
  let seconds = mr.Cycle_sim.mr_cycles /. Shmls_fpga.U280.clock_hz in
  float_of_int (interior * p.mp_sweeps) /. seconds /. 1e6

let summarise (p : plan) =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "multi-device plan: %d device(s), %d sweep(s), link %s, halo %s, \
     feedback %s\n"
    p.mp_devices p.mp_sweeps
    (Link.to_string p.mp_link)
    (String.concat "x" (List.map string_of_int p.mp_halo))
    (if p.mp_feedback = [] then "none"
     else
       String.concat ", "
         (List.map (fun (d, s) -> s ^ "->" ^ d) p.mp_feedback));
  List.iter
    (fun sl ->
      let recv = recv_bytes_per_phase sl in
      Printf.bprintf b
        "  device %d: rows [%d, %d), grid %s, %d CU(s), %d exchange \
         stream(s), %d B/phase recv\n"
        sl.sl_device sl.sl_offset
        (sl.sl_offset + sl.sl_extent)
        (String.concat "x" (List.map string_of_int sl.sl_grid))
        sl.sl_compiled.Shmls.c_cu
        (List.length sl.sl_exchanges)
        recv)
    p.mp_slabs;
  Buffer.contents b
