(* Reference interpreter for stencil-dialect IR.

   Executes a shape-inferred module on concrete grids, providing the
   ground-truth results that the FPGA functional simulator and all
   baseline flows are checked against.  Gather semantics: each
   stencil.apply computes into fresh grids before stencil.store copies the
   written region into the destination field, so in-place (Inout) kernels
   behave like their PSyclone originals.

   Everything is resolved once per function, never per grid point:
   - every SSA value owns a dense slot in the register file of its class
     (floats, ints/indices/booleans, grids), reused across points;
   - every op compiles once into a closure over its slot indices, so the
     per-point loop neither compares op names nor looks values up;
   - every stencil.access becomes a constant linear delta
     [sum_d offset_d * stride_d] from its grid's running linear index,
     and an apply runs as rows over the contiguous innermost dimension. *)

open Shmls_ir
open Shmls_dialects

type rval =
  | F of float
  | I of int
  | B of bool
  | G of Grid.t

(* The register files of one function execution; [slot] maps a value id
   to its index in the file of the value's class. *)
type env = {
  slot : (int, int) Hashtbl.t;
  f : float array;
  i : int array; (* ints, indices and booleans (0/1) *)
  g : Grid.t array;
}

type cls = Flt | Int | Grd

let cls_of v =
  match Ir.Value.ty v with
  | t when Ty.is_float t -> Some Flt
  | t when Ty.is_int t || Ty.is_index t -> Some Int
  | Ty.Temp _ | Ty.Field _ | Ty.Memref _ -> Some Grd
  | _ -> None

(* Number every value of [func] densely within its class. *)
let make_env (func : Ir.op) =
  let slot = Hashtbl.create 64 in
  let nf = ref 0 and ni = ref 0 and ng = ref 0 in
  let assign v =
    let next n =
      Hashtbl.replace slot (Ir.Value.id v) !n;
      incr n
    in
    match cls_of v with
    | Some Flt -> next nf
    | Some Int -> next ni
    | Some Grd -> next ng
    | None -> ()
  in
  Ir.Op.walk func (fun (o : Ir.op) ->
      List.iter assign (Ir.Op.results o);
      List.iter
        (fun r ->
          List.iter (fun b -> List.iter assign (Ir.Block.args b)) (Ir.Region.blocks r))
        (Ir.Op.regions o));
  let empty = Grid.create (Ty.make_bounds ~lb:[ 0 ] ~ub:[ 0 ]) in
  { slot; f = Array.make !nf 0.0; i = Array.make !ni 0; g = Array.make !ng empty }

let slot_of cls what env v =
  if cls_of v <> Some cls then Err.raise_error "interp: expected %s" what;
  match Hashtbl.find_opt env.slot (Ir.Value.id v) with
  | Some s -> s
  | None -> Err.raise_error "interp: unbound value %%v%d" (Ir.Value.id v)

let fslot env v = slot_of Flt "float" env v
let islot env v = slot_of Int "int" env v
let gslot env v = slot_of Grd "grid" env v

let bind env v rv =
  match (cls_of v, rv) with
  | Some Flt, F x -> env.f.(fslot env v) <- x
  | Some Flt, I n -> env.f.(fslot env v) <- float_of_int n
  | Some Int, I n -> env.i.(islot env v) <- n
  | Some Int, B b -> env.i.(islot env v) <- Bool.to_int b
  | Some Grd, G g -> env.g.(gslot env v) <- g
  | Some Flt, _ -> Err.raise_error "interp: expected float"
  | Some Int, _ -> Err.raise_error "interp: expected int"
  | Some Grd, _ -> Err.raise_error "interp: expected grid"
  | None, _ ->
    Err.raise_error "interp: unsupported argument type %s"
      (Ty.to_string (Ir.Value.ty v))

let bind_args (func : Ir.op) args =
  let env = make_env func in
  let body = Ir.Region.entry (List.hd (Ir.Op.regions func)) in
  let block_args = Ir.Block.args body in
  if List.length block_args <> List.length args then
    Err.raise_error "interp: %s expects %d args, got %d" (Func.sym_name func)
      (List.length block_args) (List.length args);
  List.iter2 (bind env) block_args args;
  (env, Ir.Block.ops body)

let temp_bounds v =
  match Ir.Value.ty v with
  | Ty.Temp (Some b, _) -> b
  | Ty.Temp (None, _) ->
    Err.raise_error "interp: temp without bounds (run shape inference first)"
  | t -> Err.raise_error "interp: expected temp, got %s" (Ty.to_string t)

(* The checked linear index in [g] of the point whose coordinates sit in
   the int slots [idx], gathered through the scratch array [at]. *)
let linear_at env (g : Grid.t) idx at =
  Array.iteri (fun k s -> at.(k) <- env.i.(s)) idx;
  Grid.check_index_arr g at;
  Grid.unsafe_linear g at

let unsupported (op : Ir.op) =
  Err.raise_error "interp: unsupported op %s in stencil body" (Ir.Op.name op)

(* [dsts := srcs] as one parallel assignment, so loop-carried values may
   swap; moves of different classes never interfere. *)
let compile_moves env srcs dsts =
  let pairs cls slot =
    List.filter_map
      (fun (s, d) -> if cls_of d = Some cls then Some (slot env s, slot env d) else None)
      (List.combine srcs dsts)
    |> Array.of_list
  in
  let fm = pairs Flt fslot and im = pairs Int islot and gm = pairs Grd gslot in
  if Array.length fm + Array.length im + Array.length gm <> List.length dsts then
    Err.raise_error "interp: unsupported value type";
  let tf = Array.make (Array.length fm) 0.0 and ti = Array.make (Array.length im) 0 in
  let { f; i; g; _ } = env in
  fun () ->
    Array.iteri (fun k (s, _) -> tf.(k) <- f.(s)) fm;
    Array.iteri (fun k (s, _) -> ti.(k) <- i.(s)) im;
    let tg = Array.map (fun (s, _) -> g.(s)) gm in
    Array.iteri (fun k (_, d) -> f.(d) <- tf.(k)) fm;
    Array.iteri (fun k (_, d) -> i.(d) <- ti.(k)) im;
    Array.iteri (fun k (_, d) -> g.(d) <- tg.(k)) gm

(* The meaning of every arith/math op, compiled once into a closure over
   register slots.  Shared by the stencil and the CPU-lowered executors. *)
let compile_scalar env (op : Ir.op) =
  let open Array in
  let f = env.f and i = env.i in
  let arg k = Ir.Op.operand op k and res () = Ir.Op.result op 0 in
  let ff () = (fslot env (arg 0), fslot env (arg 1), fslot env (res ())) in
  let f1 () = (fslot env (arg 0), fslot env (res ())) in
  let ii () = (islot env (arg 0), islot env (arg 1), islot env (res ())) in
  let fi () = (fslot env (arg 0), fslot env (arg 1), islot env (res ())) in
  match Ir.Op.name op with
  | "arith.constant" -> (
    match (Ir.Op.get_attr_exn op "value", cls_of (res ())) with
    | Attr.Float x, Some Flt ->
      let d = fslot env (res ()) in
      fun () -> f.(d) <- x
    | Attr.Int n, Some Flt ->
      let d = fslot env (res ()) in
      fun () -> f.(d) <- float_of_int n
    | Attr.Int n, Some Int ->
      let d = islot env (res ()) in
      fun () -> i.(d) <- n
    | _ -> Err.raise_error "interp: bad arith.constant")
  | "arith.addf" ->
    let a, b, d = ff () in
    fun () -> unsafe_set f d (unsafe_get f a +. unsafe_get f b)
  | "arith.subf" ->
    let a, b, d = ff () in
    fun () -> unsafe_set f d (unsafe_get f a -. unsafe_get f b)
  | "arith.mulf" ->
    let a, b, d = ff () in
    fun () -> unsafe_set f d (unsafe_get f a *. unsafe_get f b)
  | "arith.divf" ->
    let a, b, d = ff () in
    fun () -> unsafe_set f d (unsafe_get f a /. unsafe_get f b)
  | "arith.maximumf" ->
    let a, b, d = ff () in
    fun () -> unsafe_set f d (Float.max (unsafe_get f a) (unsafe_get f b))
  | "arith.minimumf" ->
    let a, b, d = ff () in
    fun () -> unsafe_set f d (Float.min (unsafe_get f a) (unsafe_get f b))
  | "math.powf" ->
    let a, b, d = ff () in
    fun () -> unsafe_set f d (unsafe_get f a ** unsafe_get f b)
  | "arith.negf" ->
    let a, d = f1 () in
    fun () -> unsafe_set f d (-.unsafe_get f a)
  | "math.sqrt" ->
    let a, d = f1 () in
    fun () -> unsafe_set f d (sqrt (unsafe_get f a))
  | "math.exp" ->
    let a, d = f1 () in
    fun () -> unsafe_set f d (exp (unsafe_get f a))
  | "math.log" ->
    let a, d = f1 () in
    fun () -> unsafe_set f d (log (unsafe_get f a))
  | "math.absf" ->
    let a, d = f1 () in
    fun () -> unsafe_set f d (Float.abs (unsafe_get f a))
  | "math.tanh" ->
    let a, d = f1 () in
    fun () -> unsafe_set f d (tanh (unsafe_get f a))
  | "arith.addi" ->
    let a, b, d = ii () in
    fun () -> unsafe_set i d (unsafe_get i a + unsafe_get i b)
  | "arith.subi" ->
    let a, b, d = ii () in
    fun () -> unsafe_set i d (unsafe_get i a - unsafe_get i b)
  | "arith.muli" ->
    let a, b, d = ii () in
    fun () -> unsafe_set i d (unsafe_get i a * unsafe_get i b)
  | "arith.divsi" ->
    let a, b, d = ii () in
    fun () -> unsafe_set i d (unsafe_get i a / unsafe_get i b)
  | "arith.remsi" ->
    let a, b, d = ii () in
    fun () -> unsafe_set i d (unsafe_get i a mod unsafe_get i b)
  | "arith.sitofp" ->
    let a = islot env (arg 0) and d = fslot env (res ()) in
    fun () -> unsafe_set f d (float_of_int (unsafe_get i a))
  | "arith.index_cast" ->
    let a = islot env (arg 0) and d = islot env (res ()) in
    fun () -> unsafe_set i d (unsafe_get i a)
  | "arith.select" -> (
    if cls_of (arg 0) <> Some Int then Err.raise_error "interp: select condition";
    let c = islot env (arg 0) in
    match cls_of (res ()) with
    | Some Flt ->
      let a = fslot env (arg 1) and b = fslot env (arg 2) and d = fslot env (res ()) in
      fun () ->
        unsafe_set f d (if unsafe_get i c <> 0 then unsafe_get f a else unsafe_get f b)
    | Some Int ->
      let a = islot env (arg 1) and b = islot env (arg 2) and d = islot env (res ()) in
      fun () ->
        unsafe_set i d (if unsafe_get i c <> 0 then unsafe_get i a else unsafe_get i b)
    | Some Grd | None ->
      let g = env.g in
      let a = gslot env (arg 1) and b = gslot env (arg 2) and d = gslot env (res ()) in
      fun () -> g.(d) <- (if i.(c) <> 0 then g.(a) else g.(b)))
  | "arith.cmpf" -> (
    let a, b, d = fi () in
    let[@inline] set r = unsafe_set i d (Bool.to_int r) in
    match Attr.str_exn (Ir.Op.get_attr_exn op "predicate") with
    | "olt" | "ult" -> fun () -> set (unsafe_get f a < unsafe_get f b)
    | "ole" | "ule" -> fun () -> set (unsafe_get f a <= unsafe_get f b)
    | "ogt" | "ugt" -> fun () -> set (unsafe_get f a > unsafe_get f b)
    | "oge" | "uge" -> fun () -> set (unsafe_get f a >= unsafe_get f b)
    | "oeq" | "ueq" -> fun () -> set (unsafe_get f a = unsafe_get f b)
    | "one" | "une" -> fun () -> set (unsafe_get f a <> unsafe_get f b)
    | p -> Err.raise_error "interp: cmpf predicate %s" p)
  | _ -> unsupported op

(* ------------------------------------------------------------------ *)
(* stencil.apply: the body compiled against the grids bound to its
   operands, then run row by row. *)

let run_apply env (op : Ir.op) =
  let block = Stencil.apply_block op in
  compile_moves env (Ir.Op.operands op) (Ir.Block.args block) ();
  let result_vals = Array.of_list (Ir.Op.results op) in
  let results = Array.map (fun res -> Grid.create (temp_bounds res)) result_vals in
  let bounds = temp_bounds (Ir.Op.result op 0) in
  let rank = Ty.bounds_rank bounds in
  let f = env.f and i = env.i in
  (* [pos] is the current point.  Every grid read or written unchecked
     gets a cursor [c]: [lin.(c)] is the point's linear index in that
     grid, advanced by 1 per point along the contiguous innermost
     dimension. *)
  let pos = Array.of_list bounds.Ty.lb in
  let body_ops = Ir.Block.ops block in
  let access_grid (o : Ir.op) = env.g.(gslot env (Ir.Op.operand o 0)) in
  (* corner-check an access's whole iteration range once: reads inside
     it index unchecked, the others check every point *)
  let access_inside (o : Ir.op) =
    let off = Stencil.access_offset o in
    Grid.region_inside (access_grid o)
      (Ty.make_bounds
         ~lb:(List.map2 ( + ) bounds.Ty.lb off)
         ~ub:(List.map2 ( + ) bounds.Ty.ub off))
  in
  let results_inside = Array.map (fun g -> Grid.region_inside g bounds) results in
  let grids =
    List.concat_map
      (fun (o : Ir.op) ->
        match Ir.Op.name o with
        | "stencil.access" when access_inside o -> [ access_grid o ]
        | name when name = Stencil.return_op ->
          List.filteri (fun k _ -> results_inside.(k)) (Array.to_list results)
        | _ -> [])
      body_ops
    |> List.fold_left (fun acc g -> if List.memq g acc then acc else g :: acc) []
    |> List.rev |> Array.of_list
  in
  let lin = Array.make (Array.length grids) 0 in
  let cursor g =
    let rec find c = if grids.(c) == g then c else find (c + 1) in
    find 0
  in
  let compile_body (o : Ir.op) =
    match Ir.Op.name o with
    | "stencil.access" ->
      let g = access_grid o and d = fslot env (Ir.Op.result o 0) in
      let off = Array.of_list (Stencil.access_offset o) and data = g.Grid.data in
      if access_inside o then begin
        let c = cursor g in
        let delta =
          Array.fold_left ( + ) 0 (Array.mapi (fun k x -> x * g.Grid.strides.(k)) off)
        in
        [
          (fun () ->
            Array.unsafe_set f d (Array.unsafe_get data (Array.unsafe_get lin c + delta)));
        ]
      end
      else begin
        let at = Array.make (Array.length off) 0 in
        [
          (fun () ->
            Array.iteri (fun k x -> at.(k) <- pos.(k) + x) off;
            Grid.check_index_arr g at;
            f.(d) <- data.(Grid.unsafe_linear g at));
        ]
      end
    | "stencil.dyn_access" ->
      let g = access_grid o and d = fslot env (Ir.Op.result o 0) in
      let idx = Array.of_list (List.tl (Ir.Op.operands o)) |> Array.map (islot env) in
      let at = Array.make (Array.length idx) 0 in
      [ (fun () -> f.(d) <- g.Grid.data.(linear_at env g idx at)) ]
    | "stencil.index" ->
      let dim = Attr.int_exn (Ir.Op.get_attr_exn o "dim") in
      let d = islot env (Ir.Op.result o 0) in
      [ (fun () -> i.(d) <- pos.(dim)) ]
    | name when name = Stencil.return_op ->
      List.mapi
        (fun k v ->
          let res = results.(k) and s = fslot env v in
          let data = res.Grid.data in
          if results_inside.(k) then begin
            let c = cursor res in
            fun () ->
              Array.unsafe_set data (Array.unsafe_get lin c) (Array.unsafe_get f s)
          end
          else fun () ->
            Grid.check_index_arr res pos;
            data.(Grid.unsafe_linear res pos) <- f.(s))
        (Ir.Op.operands o)
    | _ -> [ compile_scalar env o ]
  in
  if Ty.bounds_points bounds > 0 then begin
    let body = Array.of_list (List.concat_map compile_body body_ops) in
    let n = Array.length body and inner = rank - 1 in
    Grid.iter_rows bounds pos (fun len ->
        Array.iteri (fun c g -> lin.(c) <- Grid.unsafe_linear g pos) grids;
        let lo = pos.(inner) in
        for x = lo to lo + len - 1 do
          pos.(inner) <- x;
          for k = 0 to n - 1 do
            (Array.unsafe_get body k) ()
          done;
          for c = 0 to Array.length lin - 1 do
            Array.unsafe_set lin c (Array.unsafe_get lin c + 1)
          done
        done)
  end;
  Array.iteri (fun k res -> bind env res (G results.(k))) result_vals

let run_store env (op : Ir.op) =
  let src = env.g.(gslot env (Ir.Op.operand op 0)) in
  let dst = env.g.(gslot env (Ir.Op.operand op 1)) in
  let bounds = Stencil.store_bounds op in
  if Grid.region_inside src bounds && Grid.region_inside dst bounds then begin
    if Ty.bounds_points bounds > 0 then
      let pos = Array.of_list bounds.Ty.lb in
      Grid.iter_rows bounds pos (fun len ->
          Array.blit src.Grid.data (Grid.unsafe_linear src pos) dst.Grid.data
            (Grid.unsafe_linear dst pos) len)
  end
  else
    Grid.iter_bounds_arr bounds (fun pos ->
        Grid.check_index_arr src pos;
        Grid.check_index_arr dst pos;
        Array.unsafe_set dst.Grid.data
          (Grid.unsafe_linear dst pos)
          (Array.unsafe_get src.Grid.data (Grid.unsafe_linear src pos)))

(* Execute one function on the given argument values. Grids are mutated
   in place (fields written by stencil.store). *)
let run_func (func : Ir.op) ~(args : rval list) =
  let env, ops = bind_args func args in
  List.iter
    (fun (op : Ir.op) ->
      match Ir.Op.name op with
      | "stencil.load" | "stencil.external_load" | "stencil.cast" ->
        (* the temp shares the field's storage: reads see the field *)
        compile_moves env [ Ir.Op.operand op 0 ] [ Ir.Op.result op 0 ] ()
      | name when name = Stencil.apply_op -> run_apply env op
      | name when name = Stencil.store_op -> run_store env op
      | "func.return" -> ()
      | _ -> compile_scalar env op ())
    ops;
  env

(* ------------------------------------------------------------------ *)
(* Generic executor for the CPU-lowered form (scf + memref + arith).
   Used to validate the stencil-to-cpu lowering against the stencil-level
   interpreter above.  The whole function compiles to closures first;
   loop bodies then run without re-resolving anything. *)

let rec compile_generic env (op : Ir.op) =
  let arg k = Ir.Op.operand op k in
  let indices from =
    List.filteri (fun k _ -> k >= from) (Ir.Op.operands op)
    |> Array.of_list |> Array.map (islot env)
  in
  match Ir.Op.name op with
  | "memref.alloc" | "memref.alloca" ->
    let shape =
      match Ir.Value.ty (Ir.Op.result op 0) with
      | Ty.Memref (shape, _) -> shape
      | _ -> Err.raise_error "interp: alloc result not a memref"
    in
    let bounds = Ty.make_bounds ~lb:(List.map (fun _ -> 0) shape) ~ub:shape in
    let d = gslot env (Ir.Op.result op 0) in
    fun () -> env.g.(d) <- Grid.create bounds
  | "memref.dealloc" | "func.return" -> fun () -> ()
  | "memref.load" ->
    let m = gslot env (arg 0) and idx = indices 1 in
    let d = fslot env (Ir.Op.result op 0) and at = Array.make (Array.length idx) 0 in
    fun () ->
      let g = env.g.(m) in
      env.f.(d) <- g.Grid.data.(linear_at env g idx at)
  | "memref.store" ->
    let v = fslot env (arg 0) and m = gslot env (arg 1) and idx = indices 2 in
    let at = Array.make (Array.length idx) 0 in
    fun () ->
      let g = env.g.(m) in
      g.Grid.data.(linear_at env g idx at) <- env.f.(v)
  | "memref.copy" ->
    let s = gslot env (arg 0) and d = gslot env (arg 1) in
    fun () ->
      let src = env.g.(s) in
      Array.blit src.Grid.data 0 env.g.(d).Grid.data 0 (Array.length src.Grid.data)
  | "scf.for" ->
    let lb = islot env (arg 0) and ub = islot env (arg 1) and step = islot env (arg 2) in
    let block = Ir.Region.entry (List.hd (Ir.Op.regions op)) in
    let iv, iters =
      match Ir.Block.args block with
      | iv :: iters -> (islot env iv, iters)
      | [] -> Err.raise_error "interp: scf.for without induction arg"
    in
    let init = compile_moves env (List.filteri (fun k _ -> k >= 3) (Ir.Op.operands op)) iters in
    let body = compile_yielding env block iters in
    let finish = compile_moves env iters (Ir.Op.results op) in
    fun () ->
      let ub = env.i.(ub) and step = env.i.(step) in
      init ();
      let x = ref env.i.(lb) in
      while !x < ub do
        env.i.(iv) <- !x;
        body ();
        x := !x + step
      done;
      finish ()
  | "scf.if" ->
    if cls_of (arg 0) <> Some Int then Err.raise_error "interp: scf.if condition";
    let c = islot env (arg 0) in
    let branch r = compile_yielding env (Ir.Region.entry r) (Ir.Op.results op) in
    let then_, else_ =
      match Ir.Op.regions op with
      | [ t ] -> (branch t, fun () -> ())
      | [ t; e ] -> (branch t, branch e)
      | _ -> Err.raise_error "interp: scf.if regions"
    in
    fun () -> if env.i.(c) <> 0 then then_ () else else_ ()
  | _ -> compile_scalar env op

(* A block whose scf.yield assigns [dsts]. *)
and compile_yielding env block dsts =
  let steps =
    List.map
      (fun (o : Ir.op) ->
        if Ir.Op.name o = "scf.yield" then compile_moves env (Ir.Op.operands o) dsts
        else compile_generic env o)
      (Ir.Block.ops block)
    |> Array.of_list
  in
  fun () -> Array.iter (fun s -> s ()) steps

(* Execute a CPU-lowered function (no stencil ops) on grid/scalar args. *)
let run_generic_func (func : Ir.op) ~(args : rval list) =
  let env, ops = bind_args func args in
  List.iter (fun s -> s ()) (List.map (compile_generic env) ops);
  env

(* ------------------------------------------------------------------ *)
(* Kernel-level convenience *)

(* Allocate grids for a lowered kernel: one per field (with halo), one per
   small array, deterministic pseudo-random contents. *)
type kernel_state = {
  fields : (string * Grid.t) list;
  smalls : (string * Grid.t) list;
  params : (string * float) list;
}

let alloc_state ?(seed = 7) (l : Shmls_frontend.Lower.lowered) =
  let k = l.l_kernel in
  let halo = l.l_halo in
  let bounds =
    Ty.make_bounds
      ~lb:(List.map (fun h -> -h) halo)
      ~ub:(List.map2 ( + ) l.l_grid halo)
  in
  let fields =
    List.mapi
      (fun i fd ->
        let g = Grid.create bounds in
        Grid.init_hash ~seed:(seed + i) g;
        (fd.Shmls_frontend.Ast.fd_name, g))
      k.k_fields
  in
  let smalls =
    List.mapi
      (fun i sd ->
        let axis = sd.Shmls_frontend.Ast.sd_axis in
        let n = List.nth l.l_grid axis and h = List.nth halo axis in
        let g = Grid.create (Ty.make_bounds ~lb:[ -h ] ~ub:[ n + h ]) in
        Grid.init_hash ~seed:(seed + 100 + i) g;
        (sd.sd_name, g))
      k.k_smalls
  in
  let params =
    List.mapi (fun i name -> (name, 0.1 +. (0.05 *. float_of_int i))) k.k_params
  in
  { fields; smalls; params }

let state_args (s : kernel_state) =
  List.map (fun (_, g) -> G g) s.fields
  @ List.map (fun (_, g) -> G g) s.smalls
  @ List.map (fun (_, v) -> F v) s.params

(* Run a lowered kernel end to end on a fresh state; returns the state
   after execution. *)
let run_lowered ?seed (l : Shmls_frontend.Lower.lowered) =
  let state = alloc_state ?seed l in
  ignore (run_func l.l_func ~args:(state_args state));
  state
