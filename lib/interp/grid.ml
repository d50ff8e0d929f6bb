(* Dense rank-1..3 float grids over integer bounds, the runtime data
   representation shared by the reference interpreter and the functional
   FPGA simulator.  Indexing is row-major over [lb, ub) per dimension.

   The bounds are mirrored into int arrays together with precomputed
   row-major strides, so the per-point hot paths (interpreter apply
   loops, functional-simulator shift networks) index with a handful of
   integer multiply-adds instead of re-walking cons lists. *)

open Shmls_ir

type t = {
  bounds : Ty.bounds;
  data : float array;
  lb : int array; (* bounds.lb as an array *)
  ub : int array; (* bounds.ub as an array *)
  strides : int array; (* row-major strides, innermost = 1 *)
}

(* (lb, ub, strides) arrays of a bounds value. *)
let geometry (bounds : Ty.bounds) =
  let lb = Array.of_list bounds.Ty.lb and ub = Array.of_list bounds.Ty.ub in
  let rank = Array.length lb in
  let strides = Array.make rank 1 in
  for d = rank - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * (ub.(d + 1) - lb.(d + 1))
  done;
  (lb, ub, strides)

let extent t = Ty.bounds_extent t.bounds
let size t = Ty.bounds_points t.bounds
let rank t = Array.length t.lb

let created = Atomic.make 0
let create_count () = Atomic.get created

let create bounds =
  Atomic.incr created;
  let lb, ub, strides = geometry bounds in
  { bounds; data = Array.make (Ty.bounds_points bounds) 0.0; lb; ub; strides }

let copy t = { t with data = Array.copy t.data }

let linear_index t idx =
  let rank = Array.length t.lb in
  let rec go d idx acc =
    match idx with
    | [] ->
      if d = rank then acc else Err.raise_error "Grid: index rank mismatch"
    | i :: idx' ->
      if d >= rank then Err.raise_error "Grid: index rank mismatch";
      let lb = t.lb.(d) and ub = t.ub.(d) in
      if i < lb || i >= ub then
        Err.raise_error "Grid: index %d outside [%d,%d)" i lb ub;
      go (d + 1) idx' (acc + ((i - lb) * t.strides.(d)))
  in
  go 0 idx 0

let get t idx = t.data.(linear_index t idx)
let set t idx v = t.data.(linear_index t idx) <- v

(* Linear offset of an absolute index given as an array, no bounds
   checks: callers validate the corners of their loop nest once (see
   [check_index_arr]) instead of every point. *)
let unsafe_linear t (pos : int array) =
  let lin = ref 0 in
  for d = 0 to Array.length pos - 1 do
    lin :=
      !lin
      + ((Array.unsafe_get pos d - Array.unsafe_get t.lb d)
        * Array.unsafe_get t.strides d)
  done;
  !lin

(* Closure-free: the interpreter's checked accesses call this per lane. *)
let check_index_arr t (pos : int array) =
  if Array.length pos <> Array.length t.lb then
    Err.raise_error "Grid: index rank mismatch";
  for d = 0 to Array.length pos - 1 do
    let i = pos.(d) in
    if i < t.lb.(d) || i >= t.ub.(d) then
      Err.raise_error "Grid: index %d outside [%d,%d)" i t.lb.(d) t.ub.(d)
  done

(* Whether every point of [bounds] lies inside [t]: checking the two
   corners of the (rectangular) region subsumes the per-point checks, so
   loop nests validate once and index unchecked. *)
let region_inside t (bounds : Ty.bounds) =
  Ty.bounds_points bounds = 0
  ||
  let lb, ub, _ = geometry bounds in
  Array.length lb = Array.length t.lb
  && begin
       let ok = ref true in
       Array.iteri
         (fun d l -> if l < t.lb.(d) || ub.(d) > t.ub.(d) then ok := false)
         lb;
       !ok
     end

(* Iterate f over every point of [bounds] (row-major). *)
let iter_bounds (bounds : Ty.bounds) f =
  let lb, ub, _ = geometry bounds in
  let rank = Array.length lb in
  let idx = Array.copy lb in
  let rec go d =
    if d = rank then f (Array.to_list idx)
    else
      for i = lb.(d) to ub.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  go 0

(* Same iteration handing out one shared mutable index array: the hot
   paths read it and must not retain it across points. *)
let iter_bounds_arr (bounds : Ty.bounds) f =
  let lb, ub, _ = geometry bounds in
  let rank = Array.length lb in
  let idx = Array.copy lb in
  let rec go d =
    if d = rank then f idx
    else
      for i = lb.(d) to ub.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  go 0

(* Visit every row of [bounds] (the points that differ only in their
   innermost index): before each call of [f len], [pos] holds the row's
   first point, and [f] may move [pos]'s innermost index. *)
let iter_rows (bounds : Ty.bounds) (pos : int array) f =
  let lb, ub, _ = geometry bounds in
  let inner = Array.length lb - 1 in
  if Ty.bounds_points bounds > 0 then begin
    let len = ub.(inner) - lb.(inner) in
    let rec go d =
      if d = inner then begin
        pos.(inner) <- lb.(inner);
        f len
      end
      else
        for x = lb.(d) to ub.(d) - 1 do
          pos.(d) <- x;
          go (d + 1)
        done
    in
    go 0
  end

let iter t f = iter_bounds t.bounds (fun idx -> f idx (get t idx))

let map_inplace t f =
  iter_bounds t.bounds (fun idx -> set t idx (f idx (get t idx)))

let fill t v = Array.fill t.data 0 (Array.length t.data) v

(* Deterministic pseudo-random initialisation (splitmix-style hash of the
   linear index), so every flow sees identical input data without carrying
   an RNG around. *)
let init_hash ?(seed = 42) t =
  let n = Array.length t.data in
  for i = 0 to n - 1 do
    let z = ref (Int64.of_int ((i + 1) * 0x9E3779B9 + seed)) in
    z := Int64.mul !z 0xBF58476D1CE4E5B9L;
    z := Int64.logxor !z (Int64.shift_right_logical !z 31);
    let u =
      Int64.to_float (Int64.logand !z 0xFFFFFFFFL) /. 4294967296.0
    in
    t.data.(i) <- (2.0 *. u) -. 1.0
  done

(* Reindex from [lb, ub) to [0, ub-lb) sharing the same storage: the
   row-major layout is unchanged (same extent, hence same strides), so
   writes through either view alias. *)
let rebase_zero t =
  let extent = Ty.bounds_extent t.bounds in
  {
    t with
    bounds = Ty.make_bounds ~lb:(List.map (fun _ -> 0) extent) ~ub:extent;
    lb = Array.make (Array.length t.lb) 0;
    ub = Array.of_list extent;
  }

let max_abs_diff a b =
  if Array.length a.data <> Array.length b.data then
    Err.raise_error "Grid.max_abs_diff: size mismatch";
  let d = ref 0.0 in
  Array.iteri
    (fun i x -> d := Float.max !d (Float.abs (x -. b.data.(i))))
    a.data;
  !d

let equal_within ~tol a b = max_abs_diff a b <= tol

(* Restrict comparison to the interior region [lb, ub).  When the region
   sits inside both grids (validated once at the corners), the innermost
   extent is contiguous in each, so the comparison runs over whole rows;
   otherwise fall back to the per-point path for its index errors. *)
let max_abs_diff_on bounds a b =
  if not (region_inside a bounds && region_inside b bounds) then begin
    let d = ref 0.0 in
    iter_bounds_arr bounds (fun pos ->
        check_index_arr a pos;
        check_index_arr b pos;
        let da = a.data.(unsafe_linear a pos)
        and db = b.data.(unsafe_linear b pos) in
        d := Float.max !d (Float.abs (da -. db)));
    !d
  end
  else begin
    let d = ref 0.0 in
    let pos = Array.of_list bounds.Ty.lb in
    iter_rows bounds pos (fun len ->
        let ba = unsafe_linear a pos and bb = unsafe_linear b pos in
        let da = a.data and db = b.data in
        for j = 0 to len - 1 do
          d :=
            Float.max !d
              (Float.abs
                 (Array.unsafe_get da (ba + j) -. Array.unsafe_get db (bb + j)))
        done);
    !d
  end

let checksum t = Array.fold_left ( +. ) 0.0 t.data
