(* Reference interpreter for stencil-dialect IR.

   Executes a shape-inferred module on concrete grids, providing the
   ground-truth results that the FPGA functional simulator and all
   baseline flows are checked against.  Gather semantics: each
   stencil.apply computes into its own result grids before stencil.store
   copies the written region into the destination field, so in-place
   (Inout) kernels behave like their PSyclone originals.

   Everything is resolved once per function, never per grid point:
   - every SSA value owns a dense slot in the register file of its class
     (floats, ints/indices/booleans, grids);
   - top-level ops compile once into closures over their slot indices;
   - an apply runs its body op at a time over whole rows of the
     contiguous innermost dimension: every float or int value the body
     defines is a column as long as a row, each op one tight loop over
     it, and constants and values from outside the body fill their
     column once per apply;
   - checked accesses and stores keep a per-lane index check, and a row
     raises the error per-point execution would raise first (lowest
     lane, then earliest op);
   - an apply result whose last reader has run is recycled as the
     result grid of a later apply with equal bounds. *)

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

(* What a grid slot holds before its value is defined. *)
let no_grid = Grid.create (Ty.make_bounds ~lb:[ 0 ] ~ub:[ 0 ])

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
  { slot; f = Array.make !nf 0.0; i = Array.make !ni 0; g = Array.make !ng no_grid }

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

(* The meaning of every arith/math op, defined once and shared by the
   per-value closures of [compile_scalar] and the row loops of
   [run_rows].  Ops dispatch through tiny opcode variants instead of
   operator closures: without flambda a closure argument costs an
   indirect call and a boxed float per lane, while an [@inline] apply
   function called with a constant opcode compiles to the bare
   operation. *)

type f2op = F2Add | F2Sub | F2Mul | F2Div | F2Max | F2Min | F2Pow
type f1op = F1Neg | F1Sqrt | F1Exp | F1Log | F1Abs | F1Tanh
type i2op = I2Add | I2Sub | I2Mul | I2Div | I2Rem
type fcmp = CLt | CLe | CGt | CGe | CEq | CNe

let[@inline] f2_apply k a b =
  match k with
  | F2Add -> a +. b
  | F2Sub -> a -. b
  | F2Mul -> a *. b
  | F2Div -> a /. b
  | F2Max -> Float.max a b
  | F2Min -> Float.min a b
  | F2Pow -> a ** b

let[@inline] f1_apply k a =
  match k with
  | F1Neg -> -.a
  | F1Sqrt -> sqrt a
  | F1Exp -> exp a
  | F1Log -> log a
  | F1Abs -> Float.abs a
  | F1Tanh -> tanh a

let[@inline] i2_apply k a b =
  match k with
  | I2Add -> a + b
  | I2Sub -> a - b
  | I2Mul -> a * b
  | I2Div -> a / b
  | I2Rem -> a mod b

let[@inline] fcmp_apply k (a : float) b =
  match k with
  | CLt -> a < b
  | CLe -> a <= b
  | CGt -> a > b
  | CGe -> a >= b
  | CEq -> a = b
  | CNe -> a <> b

type scalar =
  | Const_f of float
  | Const_i of int
  | F2 of f2op
  | F1 of f1op
  | I2 of i2op
  | Sitofp
  | Index_cast
  | Select
  | Cmpf of fcmp

let scalar_of (op : Ir.op) =
  match Ir.Op.name op with
  | "arith.constant" -> (
    match (Ir.Op.get_attr_exn op "value", cls_of (Ir.Op.result op 0)) with
    | Attr.Float x, Some Flt -> Const_f x
    | Attr.Int n, Some Flt -> Const_f (float_of_int n)
    | Attr.Int n, Some Int -> Const_i n
    | _ -> Err.raise_error "interp: bad arith.constant")
  | "arith.addf" -> F2 F2Add
  | "arith.subf" -> F2 F2Sub
  | "arith.mulf" -> F2 F2Mul
  | "arith.divf" -> F2 F2Div
  | "arith.maximumf" -> F2 F2Max
  | "arith.minimumf" -> F2 F2Min
  | "math.powf" -> F2 F2Pow
  | "arith.negf" -> F1 F1Neg
  | "math.sqrt" -> F1 F1Sqrt
  | "math.exp" -> F1 F1Exp
  | "math.log" -> F1 F1Log
  | "math.absf" -> F1 F1Abs
  | "math.tanh" -> F1 F1Tanh
  | "arith.addi" -> I2 I2Add
  | "arith.subi" -> I2 I2Sub
  | "arith.muli" -> I2 I2Mul
  | "arith.divsi" -> I2 I2Div
  | "arith.remsi" -> I2 I2Rem
  | "arith.sitofp" -> Sitofp
  | "arith.index_cast" -> Index_cast
  | "arith.select" ->
    if cls_of (Ir.Op.operand op 0) <> Some Int then
      Err.raise_error "interp: select condition";
    Select
  | "arith.cmpf" -> (
    match Attr.str_exn (Ir.Op.get_attr_exn op "predicate") with
    | "olt" | "ult" -> Cmpf CLt
    | "ole" | "ule" -> Cmpf CLe
    | "ogt" | "ugt" -> Cmpf CGt
    | "oge" | "uge" -> Cmpf CGe
    | "oeq" | "ueq" -> Cmpf CEq
    | "one" | "une" -> Cmpf CNe
    | p -> Err.raise_error "interp: cmpf predicate %s" p)
  | _ -> unsupported op

(* One arith/math op compiled into a closure over register slots, for
   the CPU-lowered executor and the top level of a stencil function. *)
let compile_scalar env (op : Ir.op) =
  let open Array in
  let f = env.f and i = env.i in
  let arg k = Ir.Op.operand op k and res () = Ir.Op.result op 0 in
  match scalar_of op with
  | Const_f x ->
    let d = fslot env (res ()) in
    fun () -> f.(d) <- x
  | Const_i n ->
    let d = islot env (res ()) in
    fun () -> i.(d) <- n
  | F2 k ->
    let a = fslot env (arg 0) and b = fslot env (arg 1) and d = fslot env (res ()) in
    fun () -> unsafe_set f d (f2_apply k (unsafe_get f a) (unsafe_get f b))
  | F1 k ->
    let a = fslot env (arg 0) and d = fslot env (res ()) in
    fun () -> unsafe_set f d (f1_apply k (unsafe_get f a))
  | I2 k ->
    let a = islot env (arg 0) and b = islot env (arg 1) and d = islot env (res ()) in
    fun () -> unsafe_set i d (i2_apply k (unsafe_get i a) (unsafe_get i b))
  | Sitofp ->
    let a = islot env (arg 0) and d = fslot env (res ()) in
    fun () -> unsafe_set f d (float_of_int (unsafe_get i a))
  | Index_cast ->
    let a = islot env (arg 0) and d = islot env (res ()) in
    fun () -> unsafe_set i d (unsafe_get i a)
  | Select -> (
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
  | Cmpf k ->
    let a = fslot env (arg 0) and b = fslot env (arg 1) and d = islot env (res ()) in
    fun () ->
      unsafe_set i d (Bool.to_int (fcmp_apply k (unsafe_get f a) (unsafe_get f b)))

(* ------------------------------------------------------------------ *)
(* stencil.apply, op at a time over whole rows of the contiguous
   innermost dimension.  Every float or int value the body defines owns
   a column as long as a row, and each op is one tight loop over the
   row's lanes.  Constants and values defined outside the body fill
   their column once per apply; the position along an outer dimension
   fills its column once per row.

   The row loops are [@inline] and called with a constant opcode, so
   each call compiles to its own loop with the opcode match folded
   away. *)

let[@inline] f2_row k a b d n =
  for j = 0 to n - 1 do
    Array.unsafe_set d j (f2_apply k (Array.unsafe_get a j) (Array.unsafe_get b j))
  done

let[@inline] f1_row k a d n =
  for j = 0 to n - 1 do
    Array.unsafe_set d j (f1_apply k (Array.unsafe_get a j))
  done

let[@inline] i2_row k a b d n =
  for j = 0 to n - 1 do
    Array.unsafe_set d j (i2_apply k (Array.unsafe_get a j) (Array.unsafe_get b j))
  done

let[@inline] fcmp_row k a b d n =
  for j = 0 to n - 1 do
    Array.unsafe_set d j
      (Bool.to_int (fcmp_apply k (Array.unsafe_get a j) (Array.unsafe_get b j)))
  done

let f2_step k a b d n =
  match k with
  | F2Add -> fun () -> f2_row F2Add a b d n
  | F2Sub -> fun () -> f2_row F2Sub a b d n
  | F2Mul -> fun () -> f2_row F2Mul a b d n
  | F2Div -> fun () -> f2_row F2Div a b d n
  | F2Max -> fun () -> f2_row F2Max a b d n
  | F2Min -> fun () -> f2_row F2Min a b d n
  | F2Pow -> fun () -> f2_row F2Pow a b d n

let f1_step k a d n =
  match k with
  | F1Neg -> fun () -> f1_row F1Neg a d n
  | F1Sqrt -> fun () -> f1_row F1Sqrt a d n
  | F1Exp -> fun () -> f1_row F1Exp a d n
  | F1Log -> fun () -> f1_row F1Log a d n
  | F1Abs -> fun () -> f1_row F1Abs a d n
  | F1Tanh -> fun () -> f1_row F1Tanh a d n

let fcmp_step k a b d n =
  match k with
  | CLt -> fun () -> fcmp_row CLt a b d n
  | CLe -> fun () -> fcmp_row CLe a b d n
  | CGt -> fun () -> fcmp_row CGt a b d n
  | CGe -> fun () -> fcmp_row CGe a b d n
  | CEq -> fun () -> fcmp_row CEq a b d n
  | CNe -> fun () -> fcmp_row CNe a b d n

(* Checked ops (accesses and stores outside their grid, integer
   division) may fail at some lanes.  Each records its lowest failing
   lane in [lim], and the ops after it look only at the lanes below;
   at the end of the row the recorded error is raised.  That is the
   error per-point execution raises: lowest lane first, then earliest
   op. *)
type row = { mutable lim : int; mutable err : exn }

let fail row j e =
  row.lim <- j;
  row.err <- e

(* The division ops, whose lanes fail on a zero divisor. *)
let[@inline] idiv_row row k a b d =
  let j = ref 0 in
  while !j < row.lim do
    let y = Array.unsafe_get b !j in
    if y = 0 then fail row !j Division_by_zero
    else begin
      Array.unsafe_set d !j (i2_apply k (Array.unsafe_get a !j) y);
      incr j
    end
  done

let i2_step row k a b d n =
  match k with
  | I2Add -> fun () -> i2_row I2Add a b d n
  | I2Sub -> fun () -> i2_row I2Sub a b d n
  | I2Mul -> fun () -> i2_row I2Mul a b d n
  | I2Div -> fun () -> idiv_row row I2Div a b d
  | I2Rem -> fun () -> idiv_row row I2Rem a b d

let run_rows env (block : Ir.block) (bounds : Ty.bounds) (results : Grid.t array) =
  let inner = Ty.bounds_rank bounds - 1 in
  let pos = Array.of_list bounds.Ty.lb in
  let lo = pos.(inner) in
  let len = List.nth bounds.Ty.ub inner - lo in
  let row = { lim = len; err = Exit } in
  (* the column of every float and int value the body reads, by id *)
  let fcols = Hashtbl.create 32 and icols = Hashtbl.create 8 in
  let column tbl v make =
    match Hashtbl.find_opt tbl (Ir.Value.id v) with
    | Some c -> c
    | None ->
      let c = make () in
      Hashtbl.replace tbl (Ir.Value.id v) c;
      c
  in
  let fsrc v = column fcols v (fun () -> Array.make len env.f.(fslot env v)) in
  let isrc v = column icols v (fun () -> Array.make len env.i.(islot env v)) in
  let fdef ?(x = 0.0) v = column fcols v (fun () -> Array.make len x) in
  let idef ?(x = 0) v = column icols v (fun () -> Array.make len x) in
  let access_grid (o : Ir.op) = env.g.(gslot env (Ir.Op.operand o 0)) in
  (* lane [j] of a checked op at the point [pos + off] moved [j] along
     the innermost dimension *)
  let checked g off (f : int -> int -> unit) =
    let at = Array.make (Array.length off) 0 in
    fun () ->
      let j = ref 0 in
      while !j < row.lim do
        for k = 0 to Array.length at - 1 do
          at.(k) <- pos.(k) + off.(k) + if k = inner then !j else 0
        done;
        match Grid.check_index_arr g at with
        | () ->
          f !j (Grid.unsafe_linear g at);
          incr j
        | exception e -> fail row !j e
      done
  in
  let compile (o : Ir.op) =
    let arg k = Ir.Op.operand o k and res () = Ir.Op.result o 0 in
    match Ir.Op.name o with
    | "stencil.access" ->
      let g = access_grid o in
      let offl = Stencil.access_offset o in
      let off = Array.of_list offl and data = g.Grid.data in
      let d = fdef (res ()) in
      let reads =
        Ty.make_bounds
          ~lb:(List.map2 ( + ) bounds.Ty.lb offl)
          ~ub:(List.map2 ( + ) bounds.Ty.ub offl)
      in
      if Grid.region_inside g reads then begin
        let delta =
          Array.fold_left ( + ) 0 (Array.mapi (fun k x -> x * g.Grid.strides.(k)) off)
        in
        [ (fun () -> Array.blit data (Grid.unsafe_linear g pos + delta) d 0 len) ]
      end
      else [ checked g off (fun j l -> Array.unsafe_set d j data.(l)) ]
    | "stencil.dyn_access" ->
      let g = access_grid o in
      let data = g.Grid.data in
      let d = fdef (res ()) in
      let idx = Array.of_list (List.tl (Ir.Op.operands o)) |> Array.map isrc in
      let at = Array.make (Array.length idx) 0 in
      [
        (fun () ->
          let j = ref 0 in
          while !j < row.lim do
            for k = 0 to Array.length at - 1 do
              at.(k) <- idx.(k).(!j)
            done;
            match Grid.check_index_arr g at with
            | () ->
              Array.unsafe_set d !j data.(Grid.unsafe_linear g at);
              incr j
            | exception e -> fail row !j e
          done);
      ]
    | "stencil.index" ->
      let dim = Attr.int_exn (Ir.Op.get_attr_exn o "dim") in
      let d = idef (res ()) in
      if dim = inner then begin
        Array.iteri (fun j _ -> d.(j) <- lo + j) d;
        []
      end
      else [ (fun () -> Array.fill d 0 len pos.(dim)) ]
    | name when name = Stencil.return_op ->
      List.mapi
        (fun k v ->
          let out = results.(k) and s = fsrc v in
          let data = out.Grid.data in
          if Grid.region_inside out bounds then fun () ->
            Array.blit s 0 data (Grid.unsafe_linear out pos) len
          else
            checked out (Array.make (Array.length pos) 0) (fun j l ->
                data.(l) <- Array.unsafe_get s j))
        (Ir.Op.operands o)
    | _ -> (
      match scalar_of o with
      | Const_f x ->
        ignore (fdef ~x (res ()));
        []
      | Const_i x ->
        ignore (idef ~x (res ()));
        []
      | F2 k ->
        let a = fsrc (arg 0) and b = fsrc (arg 1) in
        [ f2_step k a b (fdef (res ())) len ]
      | F1 k -> [ f1_step k (fsrc (arg 0)) (fdef (res ())) len ]
      | I2 k ->
        let a = isrc (arg 0) and b = isrc (arg 1) in
        [ i2_step row k a b (idef (res ())) len ]
      | Cmpf k ->
        let a = fsrc (arg 0) and b = fsrc (arg 1) in
        [ fcmp_step k a b (idef (res ())) len ]
      | Sitofp ->
        let a = isrc (arg 0) and d = fdef (res ()) in
        [
          (fun () ->
            for j = 0 to len - 1 do
              Array.unsafe_set d j (float_of_int (Array.unsafe_get a j))
            done);
        ]
      | Index_cast ->
        (* the same ints: share the operand's column *)
        Hashtbl.replace icols (Ir.Value.id (res ())) (isrc (arg 0));
        []
      | Select -> (
        let c = isrc (arg 0) in
        match cls_of (res ()) with
        | Some Flt ->
          let a = fsrc (arg 1) and b = fsrc (arg 2) and d = fdef (res ()) in
          [
            (fun () ->
              for j = 0 to len - 1 do
                Array.unsafe_set d j
                  (if Array.unsafe_get c j <> 0 then Array.unsafe_get a j
                   else Array.unsafe_get b j)
              done);
          ]
        | Some Int ->
          let a = isrc (arg 1) and b = isrc (arg 2) and d = idef (res ()) in
          [
            (fun () ->
              for j = 0 to len - 1 do
                Array.unsafe_set d j
                  (if Array.unsafe_get c j <> 0 then Array.unsafe_get a j
                   else Array.unsafe_get b j)
              done);
          ]
        | Some Grd | None -> unsupported o))
  in
  let steps = Array.of_list (List.concat_map compile (Ir.Block.ops block)) in
  let n = Array.length steps in
  Grid.iter_rows bounds pos (fun _ ->
      row.lim <- len;
      for k = 0 to n - 1 do
        (Array.unsafe_get steps k) ()
      done;
      if row.lim < len then raise row.err)

(* [alloc bounds] supplies each result grid; the apply writes every
   point of its bounds. *)
let run_apply env (op : Ir.op) ~alloc =
  let block = Stencil.apply_block op in
  compile_moves env (Ir.Op.operands op) (Ir.Block.args block) ();
  let result_vals = Array.of_list (Ir.Op.results op) in
  let results = Array.map (fun res -> alloc (temp_bounds res)) result_vals in
  let bounds = temp_bounds (Ir.Op.result op 0) in
  if Ty.bounds_points bounds > 0 then run_rows env block bounds results;
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
   in place (fields written by stencil.store).

   Apply results are recycled within the call: after the last top-level
   op that reads a grid slot, an apply result that no live slot still
   holds (a grid arith.select may alias it) goes onto a free list keyed
   by bounds, and a later apply with equal bounds writes into it instead
   of allocating.  Field grids are never recycled, and the free list
   dies with the call, so concurrent runs share nothing. *)
let run_func (func : Ir.op) ~(args : rval list) =
  let env, ops = bind_args func args in
  let ops = Array.of_list ops in
  let last = Array.make (Array.length env.g) (-1) in
  Array.iteri
    (fun t op ->
      Ir.Op.walk op (fun (o : Ir.op) ->
          let note v =
            if cls_of v = Some Grd then
              Option.iter (fun s -> last.(s) <- t) (Hashtbl.find_opt env.slot (Ir.Value.id v))
          in
          List.iter note (Ir.Op.operands o);
          List.iter note (Ir.Op.results o)))
    ops;
  let free = Hashtbl.create 8 and owned = ref [] in
  let freed (b : Ty.bounds) = Option.value ~default:[] (Hashtbl.find_opt free b) in
  let alloc bounds =
    let g =
      match freed bounds with
      | g :: rest ->
        Hashtbl.replace free bounds rest;
        g
      | [] -> Grid.create bounds
    in
    owned := g :: !owned;
    g
  in
  let release t =
    let held g =
      let rec from s = s < Array.length env.g && ((last.(s) > t && env.g.(s) == g) || from (s + 1)) in
      from 0
    in
    owned :=
      List.filter
        (fun (g : Grid.t) ->
          held g
          || begin
               Hashtbl.replace free g.bounds (g :: freed g.bounds);
               false
             end)
        !owned
  in
  Array.iteri
    (fun t (op : Ir.op) ->
      (match Ir.Op.name op with
      | "stencil.load" | "stencil.external_load" | "stencil.cast" ->
        (* the temp shares the field's storage: reads see the field *)
        compile_moves env [ Ir.Op.operand op 0 ] [ Ir.Op.result op 0 ] ()
      | name when name = Stencil.apply_op -> run_apply env op ~alloc
      | name when name = Stencil.store_op -> run_store env op
      | "func.return" -> ()
      | _ -> compile_scalar env op ());
      release t)
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
