(* Stage compiler for the functional simulator.

   A one-time pre-pass per extracted design that turns the per-element
   IR interpretation of {!Functional} into a specialized closure
   pipeline:

     - every SSA value is resolved at compile time to a dense slot in an
       unboxed [float array] (floats), an [int array] (ints and i1s), a
       base/offset pair (pointers and BRAM memrefs) or a flat scratch
       [float array] (shift-buffer neighbourhood tokens) — no hashtable
       lookup and no [value] boxing happens in the element loop;
     - each region op becomes a step closure capturing its slot indices
       (constants are folded into the plan's constant pool at compile
       time and emit no step at all);
     - stream buffers are growable [float array] ring buffers with O(1)
       push/pop/length; a vector stream of width [w] stores [w]
       consecutive floats per token, so neighbourhoods travel as flat
       slices instead of boxed [Vector] tokens;
     - compute loops whose bodies are independent per element run in
       whole-stream blocks over dense columns (see "Batched compute-loop
       compilation" below); every other loop runs per element.

   The compiled artefact is split in two:

     - {!t}, the plan, is immutable once [compile] returns: slot
       layout, per-op step closures over slot indices, the constant
       pools, ring descriptors.  One plan is safely shared across any
       number of domains — parallel sweeps share the memoised plan
       instead of recompiling a private one per job.
     - {!Run_state.t} holds every mutable word a run touches: register
       files (seeded from the plan's constant pools), ring buffers,
       neighbourhood scratch.  States are cheap to allocate, reusable
       across runs, and cached per (domain, plan) so repeated runs on
       the same worker reuse one allocation ({!run}).

   The interpreter in {!Functional} stays the reference oracle: the
   differential suite (test_functional_compiled) asserts bit-identical
   outputs and error parity (same message, same {!Loc}) on the paper
   kernels and the zoo — including one shared plan driven concurrently
   from several domains with independent run states. *)

open Shmls_ir
open Shmls_dialects

(* ------------------------------------------------------------------ *)
(* Ring buffers *)

(* Each stream has exactly one producer stage, and stages run to
   completion in topological order, so a ring is fully pushed (while
   [rg_head = 0]) before its consumer pops anything: the data never
   wraps.  That invariant lets the hot paths below index [rg_data]
   directly — pushes land at [rg_head + rg_len], pops read at
   [rg_head] — with no modulo arithmetic anywhere. *)
type ring = {
  rg_stream : int; (* SSA stream id, for error messages *)
  rg_width : int; (* floats per token (1 = scalar stream) *)
  mutable rg_data : float array;
  mutable rg_head : int; (* index of the first queued float *)
  mutable rg_len : int; (* queued floats *)
}

let ring_create ~stream ~width =
  {
    rg_stream = stream;
    rg_width = max 1 width;
    rg_data = Array.make (256 * max 1 width) 0.0;
    rg_head = 0;
    rg_len = 0;
  }

let ring_reset r =
  r.rg_head <- 0;
  r.rg_len <- 0

let ring_tokens r = r.rg_len / r.rg_width

(* Make room for [extra] more floats, compacting to [rg_head = 0]. *)
let ring_reserve r extra =
  let needed = r.rg_head + r.rg_len + extra in
  if needed > Array.length r.rg_data then begin
    let cap = ref (2 * Array.length r.rg_data) in
    while !cap < r.rg_len + extra do
      cap := 2 * !cap
    done;
    let data = Array.make !cap 0.0 in
    Array.blit r.rg_data r.rg_head data 0 r.rg_len;
    r.rg_data <- data;
    r.rg_head <- 0
  end

let ring_push r v =
  if r.rg_head + r.rg_len >= Array.length r.rg_data then ring_reserve r 1;
  Array.unsafe_set r.rg_data (r.rg_head + r.rg_len) v;
  r.rg_len <- r.rg_len + 1

(* Append [n] floats from [src.(srcoff ..)] in one blit. *)
let ring_push_blit r src srcoff n =
  ring_reserve r n;
  Array.blit src srcoff r.rg_data (r.rg_head + r.rg_len) n;
  r.rg_len <- r.rg_len + n

let starved loc = Err.raise_error ~loc "functional sim: read from empty stream"

(* Fail like a starved pop unless [n] floats are queued — used by the
   bulk stage loops below, which then index [rg_data] directly. *)
let ring_require ?(loc = Loc.unknown) r n = if r.rg_len < n then starved loc

let ring_drop r n =
  r.rg_head <- r.rg_head + n;
  r.rg_len <- r.rg_len - n

(* ------------------------------------------------------------------ *)
(* Per-run state: every mutable word a run touches lives here *)

let batch_width = 64

type run_state = {
  mutable rs_args : Functional.value array;
  rs_fregs : float array; (* seeded from the plan's float constant pool *)
  rs_iregs : int array; (* seeded from the plan's int constant pool *)
  rs_pbase : float array array;
  rs_poff : int array;
  rs_vecs : float array array; (* neighbourhood scratch, one per KV slot *)
  rs_rings : ring array; (* plan ring-descriptor order (ascending id) *)
  (* Column files.  A batched compute loop processes the stream in
     blocks of up to [batch_width] elements: every in-loop SSA value
     becomes a dense column, one lane per element of the current
     block. *)
  rs_fcols : float array array; (* float columns, [batch_width] lanes each *)
  rs_icols : int array array; (* int/i1 columns *)
  rs_pcols_base : float array array; (* pointer columns: shared base ... *)
  rs_pcols_off : int array array; (* ... plus a per-lane offset column *)
  rs_vbase : int array; (* per KV slot: ring base of the current block *)
}

module Run_state = struct
  type t = run_state
end

(* ------------------------------------------------------------------ *)
(* Slot allocation *)

type kind =
  | KF of int (* float slot *)
  | KI of int (* int / i1 slot *)
  | KP of int (* pointer or memref slot: base array + offset *)
  | KV of int (* vector-token slot: a private scratch array *)
  | KS of int * int * int * int
      (* batched engine only: an extracted neighbourhood lane left in
         the input ring — (ring, vbase slot, token width, lane).
         Consumers read it with stride [width] instead of gathering it
         into a dense column first. *)

type alloc = {
  slots : (int, kind) Hashtbl.t; (* SSA value id -> slot *)
  mutable nf : int;
  mutable ni : int;
  mutable np : int;
  mutable vec_widths : int list; (* reversed; scratch sizes in slot order *)
  mutable nv : int;
}

let kind_of_ty (ty : Ty.t) =
  match ty with
  | Ty.F16 | Ty.F32 | Ty.F64 -> `F
  | Ty.I1 | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.Index -> `I
  | Ty.Ptr _ | Ty.Memref _ -> `P
  | Ty.Struct ts -> `V (List.length ts)
  | Ty.Array (n, _) -> `V n
  | Ty.Stream _ -> `S
  | _ -> `Skip

let alloc_value a v =
  let id = Ir.Value.id v in
  if not (Hashtbl.mem a.slots id) then
    match kind_of_ty (Ir.Value.ty v) with
    | `F ->
      Hashtbl.add a.slots id (KF a.nf);
      a.nf <- a.nf + 1
    | `I ->
      Hashtbl.add a.slots id (KI a.ni);
      a.ni <- a.ni + 1
    | `P ->
      Hashtbl.add a.slots id (KP a.np);
      a.np <- a.np + 1
    | `V w ->
      Hashtbl.add a.slots id (KV a.nv);
      a.vec_widths <- w :: a.vec_widths;
      a.nv <- a.nv + 1
    | `S | `Skip -> ()

let rec alloc_op a (op : Ir.op) =
  List.iter (alloc_value a) (Ir.Op.results op);
  List.iter
    (fun r ->
      List.iter
        (fun b ->
          List.iter (alloc_value a) (Ir.Block.args b);
          List.iter (alloc_op a) (Ir.Block.ops b))
        (Ir.Region.blocks r))
    (Ir.Op.regions op)

(* ------------------------------------------------------------------ *)
(* Plans *)

type ring_desc = { rd_stream : int; rd_width : int }

type stats = {
  cs_fregs : int;
  cs_iregs : int;
  cs_pregs : int;
  cs_vregs : int;
  cs_steps : int; (* compiled step closures across all stages *)
  cs_folded : int; (* constants folded into the pools at compile time *)
  cs_batched : int; (* compute loops compiled to whole-stream batches *)
}

(* The immutable plan: nothing in here is written after [compile]
   returns, so one plan is freely shared across domains.  All the step
   closures take the run state as an argument instead of capturing it. *)
type t = {
  pl_id : int; (* plan identity, keys the per-domain state cache *)
  pl_design : Design.t;
  pl_ring_descs : ring_desc array; (* ascending stream id, drain order *)
  pl_const_f : float array; (* constant pool: initial float registers *)
  pl_const_i : int array; (* constant pool: initial int registers *)
  pl_np : int;
  pl_vec_widths : int array;
  pl_n_fcols : int; (* batched column-file sizes *)
  pl_n_icols : int;
  pl_n_pcols : int;
  pl_bind : Functional.value array -> run_state -> unit;
  pl_steps : (run_state -> unit) array; (* stages, in topological order *)
  pl_stats : stats;
}

let compile_counter = Atomic.make 0
let compile_count () = Atomic.get compile_counter
let reset_compile_count () = Atomic.set compile_counter 0
let state_counter = Atomic.make 0
let state_count () = Atomic.get state_counter
let reset_state_count () = Atomic.set state_counter 0
let stats t = t.pl_stats

let create_state (t : t) : run_state =
  Atomic.incr state_counter;
  {
    rs_args = [||];
    rs_fregs = Array.copy t.pl_const_f;
    rs_iregs = Array.copy t.pl_const_i;
    rs_pbase = Array.make (max 1 t.pl_np) [||];
    rs_poff = Array.make (max 1 t.pl_np) 0;
    rs_vecs = Array.map (fun w -> Array.make w 0.0) t.pl_vec_widths;
    rs_rings =
      Array.map
        (fun rd -> ring_create ~stream:rd.rd_stream ~width:rd.rd_width)
        t.pl_ring_descs;
    rs_fcols = Array.init t.pl_n_fcols (fun _ -> Array.make batch_width 0.0);
    rs_icols = Array.init t.pl_n_icols (fun _ -> Array.make batch_width 0);
    rs_pcols_base = Array.make t.pl_n_pcols [||];
    rs_pcols_off = Array.init t.pl_n_pcols (fun _ -> Array.make batch_width 0);
    rs_vbase = Array.make (max 1 (Array.length t.pl_vec_widths)) 0;
  }

(* ------------------------------------------------------------------ *)
(* Compute-stage compilation *)

type cctx = {
  al : alloc;
  const_f : float array; (* compile-time constant folding writes here *)
  const_i : int array;
  vec_w : int array; (* scratch width per KV slot *)
  ring_index : (int, int) Hashtbl.t; (* SSA stream id -> rs_rings index *)
  mutable folded : int;
  (* batched-loop compilation state *)
  cols : (int, kind) Hashtbl.t; (* in-loop SSA id -> column slot *)
  vec_ring : (int, int * int) Hashtbl.t; (* KV slot -> (ring idx, width) *)
  mutable nfc : int; (* column-file sizes *)
  mutable nic : int;
  mutable npc : int;
  mutable batched_loops : int;
}

let slot_exn c v =
  match Hashtbl.find_opt c.al.slots (Ir.Value.id v) with
  | Some k -> k
  | None -> Err.raise_error "functional sim: unbound value"

let fslot c v =
  match slot_exn c v with
  | KF i -> i
  | _ -> Err.raise_error "functional sim: expected float"

let islot c v =
  match slot_exn c v with
  | KI i -> i
  | _ -> Err.raise_error "functional sim: expected int"

let pslot c v =
  match slot_exn c v with
  | KP i -> i
  | _ -> Err.raise_error "functional sim: expected pointer"

(* A float getter that mirrors the interpreter's [as_f] int coercion. *)
let getf c v =
  match slot_exn c v with
  | KF i -> fun rs -> Array.unsafe_get rs.rs_fregs i
  | KI i -> fun rs -> float_of_int (Array.unsafe_get rs.rs_iregs i)
  | _ -> Err.raise_error "functional sim: expected float"

let ring_idx c v =
  let id = Ir.Value.id v in
  match Hashtbl.find_opt c.ring_index id with
  | Some i -> i
  | None -> Err.raise_error "functional sim: read of unknown stream %d" id

(* ------------------------------------------------------------------ *)
(* Batched compute-loop compilation.

   A compute stage's [scf.for] is batched when every body op is in the
   independent-per-element subset below (no nested loops, no stores, at
   most one read and one write per stream — the only op forms whose
   per-element interleaving is observable through the rings).  The loop
   then runs in blocks of up to [batch_width] elements: each op becomes
   one closure looping its lanes over dense columns, loop-invariant
   operands (including folded constants) are read once per block, and
   stream reads/writes move whole blocks through the rings with blits.
   Neighbourhood (vector) reads never materialise: an [extractvalue]
   lane reads the input ring directly with stride [width].

   Bit-exactness vs the interpreter is structural: every lane's dataflow
   is the identical float expression, evaluated op-at-a-time instead of
   element-at-a-time, and batchable loops contain no stores,
   so no partial-block state is observable.  Starved reads are detected
   before a block touches anything; the remainder then re-runs through
   the per-element body so the raised error (message, [Loc], which read
   fires first) matches the interpreter exactly. *)

exception Not_batchable

(* operand sources within a batched loop: a column or a loop-invariant
   scalar register read once per block *)
type fsrc = FCol of int | FInv of (run_state -> float)
type isrc = ICol of int | IInv of (run_state -> int)
type psrc = PCol of int | PInv of int

let new_fcol c =
  let i = c.nfc in
  c.nfc <- i + 1;
  i

let new_icol c =
  let i = c.nic in
  c.nic <- i + 1;
  i

let new_pcol c =
  let i = c.npc in
  c.npc <- i + 1;
  i

let bind_fcol c v =
  let i = new_fcol c in
  Hashtbl.replace c.cols (Ir.Value.id v) (KF i);
  i

let bind_icol c v =
  let i = new_icol c in
  Hashtbl.replace c.cols (Ir.Value.id v) (KI i);
  i

let bind_pcol c v =
  let i = new_pcol c in
  Hashtbl.replace c.cols (Ir.Value.id v) (KP i);
  i

(* Resolve a float operand, mirroring the interpreter's int coercion; a
   coerced int column converts through a prep step once per block. *)
let bfsrc c preps v =
  match Hashtbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KF i) -> FCol i
  | Some (KS (ri, s, w, lane)) ->
    (* a consumer outside the strided fast path: gather the lane into a
       dense column once and rebind, so later consumers share it *)
    let d = new_fcol c in
    Hashtbl.replace c.cols (Ir.Value.id v) (KF d);
    preps :=
      (fun rs n ->
        let r = Array.unsafe_get rs.rs_rings ri in
        let src = r.rg_data in
        let b0 = Array.unsafe_get rs.rs_vbase s + lane in
        let fd = Array.unsafe_get rs.rs_fcols d in
        let p = ref b0 in
        for j = 0 to n - 1 do
          Array.unsafe_set fd j (Array.unsafe_get src !p);
          p := !p + w
        done)
      :: !preps;
    FCol d
  | Some (KI i) ->
    let d = new_fcol c in
    preps :=
      (fun rs n ->
        let src = Array.unsafe_get rs.rs_icols i
        and dst = Array.unsafe_get rs.rs_fcols d in
        for j = 0 to n - 1 do
          Array.unsafe_set dst j (float_of_int (Array.unsafe_get src j))
        done)
      :: !preps;
    FCol d
  | Some _ -> raise Not_batchable
  | None -> (
    match slot_exn c v with
    | KF i -> FInv (fun rs -> Array.unsafe_get rs.rs_fregs i)
    | KI i -> FInv (fun rs -> float_of_int (Array.unsafe_get rs.rs_iregs i))
    | _ -> raise Not_batchable)

let bisrc c v =
  match Hashtbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KI i) -> ICol i
  | Some _ -> raise Not_batchable
  | None -> (
    match slot_exn c v with
    | KI i -> IInv (fun rs -> Array.unsafe_get rs.rs_iregs i)
    | _ -> raise Not_batchable)

let bpsrc c v =
  match Hashtbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KP i) -> PCol i
  | Some _ -> raise Not_batchable
  | None -> (
    match slot_exn c v with KP i -> PInv i | _ -> raise Not_batchable)

(* Extended float source for the binary-arithmetic fast path: an
   extracted neighbourhood lane stays in the input ring and is read
   with stride [w] right inside the consumer's loop, skipping the dense
   column (one strided load instead of gather-store + dense load). *)
type xfsrc =
  | XCol of int
  | XInv of (run_state -> float)
  | XStr of int * int * int * int (* ring, vbase slot, width, lane *)

let bxfsrc c preps v =
  match Hashtbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KS (ri, s, w, lane)) -> XStr (ri, s, w, lane)
  | _ -> (
    match bfsrc c preps v with FCol i -> XCol i | FInv g -> XInv g)

(* Lane arithmetic is dispatched through tiny opcode variants instead
   of operator closures: without flambda a closure argument means an
   indirect call (and float boxing) on every lane, which would eat most
   of the batching win.  The [@inline] match compiles to a perfectly
   predicted jump on a loop-invariant tag, keeping lanes unboxed. *)
type f2op = F2Add | F2Sub | F2Mul | F2Div | F2Max | F2Min | F2Pow
type f1op = F1Neg | F1Sqrt | F1Exp | F1Log | F1Abs | F1Tanh
type i2op = I2Add | I2Sub | I2Mul | I2Div | I2Rem
type icmp = CLt | CLe | CGt | CGe | CEq | CNe

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

let[@inline] icmp_apply k (a : int) b =
  match k with
  | CLt -> a < b
  | CLe -> a <= b
  | CGt -> a > b
  | CGe -> a >= b
  | CEq -> a = b
  | CNe -> a <> b

(* Compile one batchable-loop body op into an optional per-block step
   [fun rs n -> ...] over the first [n] lanes.  Raises [Not_batchable]
   on anything outside the subset; the caller falls back to the
   per-element loop. *)
let compile_bop c ~reads ~writes (op : Ir.op) :
    (run_state -> int -> unit) option =
  let preps = ref [] in
  let finish body =
    match !preps with
    | [] -> Some body
    | ps ->
      let ps = Array.of_list (List.rev ps) in
      let np = Array.length ps in
      Some
        (fun rs n ->
          for k = 0 to np - 1 do
            (Array.unsafe_get ps k) rs n
          done;
          body rs n)
  in
  let bin k =
    let a = bxfsrc c preps (Ir.Op.operand op 0) in
    let b = bxfsrc c preps (Ir.Op.operand op 1) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    finish
      (match (a, b) with
      | XCol a, XCol b ->
        fun rs n ->
          let fa = Array.unsafe_get rs.rs_fcols a
          and fb = Array.unsafe_get rs.rs_fcols b
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (f2_apply k (Array.unsafe_get fa j) (Array.unsafe_get fb j))
          done
      | XCol a, XInv gb ->
        fun rs n ->
          let fa = Array.unsafe_get rs.rs_fcols a
          and fd = Array.unsafe_get rs.rs_fcols d in
          let b = gb rs in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j (f2_apply k (Array.unsafe_get fa j) b)
          done
      | XInv ga, XCol b ->
        fun rs n ->
          let fb = Array.unsafe_get rs.rs_fcols b
          and fd = Array.unsafe_get rs.rs_fcols d in
          let a = ga rs in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j (f2_apply k a (Array.unsafe_get fb j))
          done
      | XInv ga, XInv gb ->
        fun rs n ->
          Array.fill
            (Array.unsafe_get rs.rs_fcols d)
            0 n
            (f2_apply k (ga rs) (gb rs))
      | XStr (ria, sa, wa, la), XCol b ->
        fun rs n ->
          let sa_ = (Array.unsafe_get rs.rs_rings ria).rg_data in
          let pa = ref (Array.unsafe_get rs.rs_vbase sa + la) in
          let fb = Array.unsafe_get rs.rs_fcols b
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (f2_apply k (Array.unsafe_get sa_ !pa) (Array.unsafe_get fb j));
            pa := !pa + wa
          done
      | XCol a, XStr (rib, sb, wb, lb) ->
        fun rs n ->
          let sb_ = (Array.unsafe_get rs.rs_rings rib).rg_data in
          let pb = ref (Array.unsafe_get rs.rs_vbase sb + lb) in
          let fa = Array.unsafe_get rs.rs_fcols a
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (f2_apply k (Array.unsafe_get fa j) (Array.unsafe_get sb_ !pb));
            pb := !pb + wb
          done
      | XStr (ria, sa, wa, la), XInv gb ->
        fun rs n ->
          let sa_ = (Array.unsafe_get rs.rs_rings ria).rg_data in
          let pa = ref (Array.unsafe_get rs.rs_vbase sa + la) in
          let fd = Array.unsafe_get rs.rs_fcols d in
          let b = gb rs in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j (f2_apply k (Array.unsafe_get sa_ !pa) b);
            pa := !pa + wa
          done
      | XInv ga, XStr (rib, sb, wb, lb) ->
        fun rs n ->
          let sb_ = (Array.unsafe_get rs.rs_rings rib).rg_data in
          let pb = ref (Array.unsafe_get rs.rs_vbase sb + lb) in
          let fd = Array.unsafe_get rs.rs_fcols d in
          let a = ga rs in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j (f2_apply k a (Array.unsafe_get sb_ !pb));
            pb := !pb + wb
          done
      | XStr (ria, sa, wa, la), XStr (rib, sb, wb, lb) ->
        fun rs n ->
          let sa_ = (Array.unsafe_get rs.rs_rings ria).rg_data in
          let pa = ref (Array.unsafe_get rs.rs_vbase sa + la) in
          let sb_ = (Array.unsafe_get rs.rs_rings rib).rg_data in
          let pb = ref (Array.unsafe_get rs.rs_vbase sb + lb) in
          let fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (f2_apply k (Array.unsafe_get sa_ !pa) (Array.unsafe_get sb_ !pb));
            pa := !pa + wa;
            pb := !pb + wb
          done)
  in
  let un k =
    let a = bfsrc c preps (Ir.Op.operand op 0) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    finish
      (match a with
      | FCol a ->
        fun rs n ->
          let fa = Array.unsafe_get rs.rs_fcols a
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j (f1_apply k (Array.unsafe_get fa j))
          done
      | FInv g ->
        fun rs n ->
          Array.fill (Array.unsafe_get rs.rs_fcols d) 0 n (f1_apply k (g rs)))
  in
  let bini k =
    let a = bisrc c (Ir.Op.operand op 0) in
    let b = bisrc c (Ir.Op.operand op 1) in
    let d = bind_icol c (Ir.Op.result op 0) in
    finish
      (match (a, b) with
      | ICol a, ICol b ->
        fun rs n ->
          let ia = Array.unsafe_get rs.rs_icols a
          and ib = Array.unsafe_get rs.rs_icols b
          and id = Array.unsafe_get rs.rs_icols d in
          for j = 0 to n - 1 do
            Array.unsafe_set id j
              (i2_apply k (Array.unsafe_get ia j) (Array.unsafe_get ib j))
          done
      | ICol a, IInv gb -> (
        match k with
        | (I2Div | I2Rem) as k ->
          (* columns here are usually consecutive (derived from the
             induction variable), so the expensive hardware division
             strength-reduces to a carry counter; any lane that breaks
             the progression (or a non-positive divisor) falls back to
             real division, keeping the values bit-identical *)
          fun rs n ->
            let ia = Array.unsafe_get rs.rs_icols a
            and id = Array.unsafe_get rs.rs_icols d in
            let b = gb rs in
            if b > 0 && Array.unsafe_get ia 0 >= 0 then begin
              let v0 = Array.unsafe_get ia 0 in
              let q = ref (v0 / b)
              and r = ref (v0 mod b)
              and prev = ref v0 in
              Array.unsafe_set id 0 (match k with I2Div -> !q | _ -> !r);
              for j = 1 to n - 1 do
                let v = Array.unsafe_get ia j in
                if v = !prev + 1 then begin
                  incr r;
                  if !r = b then begin
                    r := 0;
                    incr q
                  end
                end
                else begin
                  q := v / b;
                  r := v mod b
                end;
                prev := v;
                Array.unsafe_set id j (match k with I2Div -> !q | _ -> !r)
              done
            end
            else
              for j = 0 to n - 1 do
                Array.unsafe_set id j (i2_apply k (Array.unsafe_get ia j) b)
              done
        | k ->
          fun rs n ->
            let ia = Array.unsafe_get rs.rs_icols a
            and id = Array.unsafe_get rs.rs_icols d in
            let b = gb rs in
            for j = 0 to n - 1 do
              Array.unsafe_set id j (i2_apply k (Array.unsafe_get ia j) b)
            done)
      | IInv ga, ICol b ->
        fun rs n ->
          let ib = Array.unsafe_get rs.rs_icols b
          and id = Array.unsafe_get rs.rs_icols d in
          let a = ga rs in
          for j = 0 to n - 1 do
            Array.unsafe_set id j (i2_apply k a (Array.unsafe_get ib j))
          done
      | IInv ga, IInv gb ->
        fun rs n ->
          Array.fill
            (Array.unsafe_get rs.rs_icols d)
            0 n
            (i2_apply k (ga rs) (gb rs)))
  in
  let cmpi k =
    let a = bisrc c (Ir.Op.operand op 0) in
    let b = bisrc c (Ir.Op.operand op 1) in
    let d = bind_icol c (Ir.Op.result op 0) in
    finish
      (match (a, b) with
      | ICol a, ICol b ->
        fun rs n ->
          let ia = Array.unsafe_get rs.rs_icols a
          and ib = Array.unsafe_get rs.rs_icols b
          and id = Array.unsafe_get rs.rs_icols d in
          for j = 0 to n - 1 do
            Array.unsafe_set id j
              (if icmp_apply k (Array.unsafe_get ia j) (Array.unsafe_get ib j)
               then 1
               else 0)
          done
      | ICol a, IInv gb ->
        fun rs n ->
          let ia = Array.unsafe_get rs.rs_icols a
          and id = Array.unsafe_get rs.rs_icols d in
          let b = gb rs in
          for j = 0 to n - 1 do
            Array.unsafe_set id j
              (if icmp_apply k (Array.unsafe_get ia j) b then 1 else 0)
          done
      | IInv ga, ICol b ->
        fun rs n ->
          let ib = Array.unsafe_get rs.rs_icols b
          and id = Array.unsafe_get rs.rs_icols d in
          let a = ga rs in
          for j = 0 to n - 1 do
            Array.unsafe_set id j
              (if icmp_apply k a (Array.unsafe_get ib j) then 1 else 0)
          done
      | IInv ga, IInv gb ->
        fun rs n ->
          Array.fill
            (Array.unsafe_get rs.rs_icols d)
            0 n
            (if icmp_apply k (ga rs) (gb rs) then 1 else 0))
  in
  match Ir.Op.name op with
  | "arith.constant" -> (
    (* folded into the pools exactly like [compile_op] does; the
       value stays out of [c.cols], so operand resolution sees it as a
       loop-invariant register (the "constants hoisted" fast path) *)
    match Ir.Op.get_attr_exn op "value" with
    | Attr.Float f ->
      c.const_f.(fslot c (Ir.Op.result op 0)) <- f;
      None
    | Attr.Int i ->
      c.const_i.(islot c (Ir.Op.result op 0)) <- i;
      None
    | _ -> raise Not_batchable)
  | "arith.addf" -> bin F2Add
  | "arith.subf" -> bin F2Sub
  | "arith.mulf" -> bin F2Mul
  | "arith.divf" -> bin F2Div
  | "arith.maximumf" -> bin F2Max
  | "arith.minimumf" -> bin F2Min
  | "arith.negf" -> un F1Neg
  | "arith.addi" -> bini I2Add
  | "arith.subi" -> bini I2Sub
  | "arith.muli" -> bini I2Mul
  | "arith.divsi" -> bini I2Div
  | "arith.remsi" -> bini I2Rem
  | "math.sqrt" -> un F1Sqrt
  | "math.exp" -> un F1Exp
  | "math.log" -> un F1Log
  | "math.absf" -> un F1Abs
  | "math.tanh" -> un F1Tanh
  | "math.powf" -> bin F2Pow
  | "arith.cmpi" -> (
    match Attr.str_exn (Ir.Op.get_attr_exn op "predicate") with
    | "slt" -> cmpi CLt
    | "sle" -> cmpi CLe
    | "sgt" -> cmpi CGt
    | "sge" -> cmpi CGe
    | "eq" -> cmpi CEq
    | "ne" -> cmpi CNe
    | _ -> raise Not_batchable)
  | "arith.select" -> (
    let cnd = bisrc c (Ir.Op.operand op 0) in
    match slot_exn c (Ir.Op.result op 0) with
    | KF _ -> (
      let a = bfsrc c preps (Ir.Op.operand op 1) in
      let b = bfsrc c preps (Ir.Op.operand op 2) in
      let d = bind_fcol c (Ir.Op.result op 0) in
      match cnd with
      | IInv g ->
        (* lane-uniform condition: pick a side once per block *)
        let copy = function
          | FCol s ->
            fun rs n ->
              Array.blit
                (Array.unsafe_get rs.rs_fcols s)
                0
                (Array.unsafe_get rs.rs_fcols d)
                0 n
          | FInv gs ->
            fun rs n ->
              Array.fill (Array.unsafe_get rs.rs_fcols d) 0 n (gs rs)
        in
        let ca = copy a and cb = copy b in
        finish (fun rs n -> if g rs <> 0 then ca rs n else cb rs n)
      | ICol cc ->
        finish
          (match (a, b) with
          | FCol a, FCol b ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and fa = Array.unsafe_get rs.rs_fcols a
              and fb = Array.unsafe_get rs.rs_fcols b
              and fd = Array.unsafe_get rs.rs_fcols d in
              for j = 0 to n - 1 do
                Array.unsafe_set fd j
                  (if Array.unsafe_get ic j <> 0 then Array.unsafe_get fa j
                   else Array.unsafe_get fb j)
              done
          | FCol a, FInv gb ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and fa = Array.unsafe_get rs.rs_fcols a
              and fd = Array.unsafe_get rs.rs_fcols d in
              let b = gb rs in
              for j = 0 to n - 1 do
                Array.unsafe_set fd j
                  (if Array.unsafe_get ic j <> 0 then Array.unsafe_get fa j
                   else b)
              done
          | FInv ga, FCol b ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and fb = Array.unsafe_get rs.rs_fcols b
              and fd = Array.unsafe_get rs.rs_fcols d in
              let a = ga rs in
              for j = 0 to n - 1 do
                Array.unsafe_set fd j
                  (if Array.unsafe_get ic j <> 0 then a
                   else Array.unsafe_get fb j)
              done
          | FInv ga, FInv gb ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and fd = Array.unsafe_get rs.rs_fcols d in
              let a = ga rs and b = gb rs in
              for j = 0 to n - 1 do
                Array.unsafe_set fd j
                  (if Array.unsafe_get ic j <> 0 then a else b)
              done))
    | KI _ -> (
      let a = bisrc c (Ir.Op.operand op 1) in
      let b = bisrc c (Ir.Op.operand op 2) in
      let d = bind_icol c (Ir.Op.result op 0) in
      match cnd with
      | IInv g ->
        let copy = function
          | ICol s ->
            fun rs n ->
              Array.blit
                (Array.unsafe_get rs.rs_icols s)
                0
                (Array.unsafe_get rs.rs_icols d)
                0 n
          | IInv gs ->
            fun rs n -> Array.fill (Array.unsafe_get rs.rs_icols d) 0 n (gs rs)
        in
        let ca = copy a and cb = copy b in
        finish (fun rs n -> if g rs <> 0 then ca rs n else cb rs n)
      | ICol cc ->
        finish
          (match (a, b) with
          | ICol a, ICol b ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and ia = Array.unsafe_get rs.rs_icols a
              and ib = Array.unsafe_get rs.rs_icols b
              and id = Array.unsafe_get rs.rs_icols d in
              for j = 0 to n - 1 do
                Array.unsafe_set id j
                  (if Array.unsafe_get ic j <> 0 then Array.unsafe_get ia j
                   else Array.unsafe_get ib j)
              done
          | ICol a, IInv gb ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and ia = Array.unsafe_get rs.rs_icols a
              and id = Array.unsafe_get rs.rs_icols d in
              let b = gb rs in
              for j = 0 to n - 1 do
                Array.unsafe_set id j
                  (if Array.unsafe_get ic j <> 0 then Array.unsafe_get ia j
                   else b)
              done
          | IInv ga, ICol b ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and ib = Array.unsafe_get rs.rs_icols b
              and id = Array.unsafe_get rs.rs_icols d in
              let a = ga rs in
              for j = 0 to n - 1 do
                Array.unsafe_set id j
                  (if Array.unsafe_get ic j <> 0 then a
                   else Array.unsafe_get ib j)
              done
          | IInv ga, IInv gb ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and id = Array.unsafe_get rs.rs_icols d in
              let a = ga rs and b = gb rs in
              for j = 0 to n - 1 do
                Array.unsafe_set id j
                  (if Array.unsafe_get ic j <> 0 then a else b)
              done))
    | _ -> raise Not_batchable)
  | "hls.pipeline" | "hls.unroll" | "hls.array_partition" -> None
  | "scf.yield" -> None
  | "hls.read" -> (
    let ri = ring_idx c (Ir.Op.operand op 0) in
    if List.mem_assoc ri !reads then raise Not_batchable;
    match slot_exn c (Ir.Op.result op 0) with
    | KF _ ->
      reads := (ri, 1) :: !reads;
      let d = bind_fcol c (Ir.Op.result op 0) in
      finish (fun rs n ->
          (* the block driver checked availability up front *)
          let r = Array.unsafe_get rs.rs_rings ri in
          Array.blit r.rg_data r.rg_head (Array.unsafe_get rs.rs_fcols d) 0 n;
          r.rg_head <- r.rg_head + n;
          r.rg_len <- r.rg_len - n)
    | KV s ->
      let w = c.vec_w.(s) in
      reads := (ri, w) :: !reads;
      Hashtbl.replace c.vec_ring s (ri, w);
      Hashtbl.replace c.cols (Ir.Value.id (Ir.Op.result op 0)) (KV s);
      (* no materialisation: record the block's base in the ring and
         let extracted lanes read it with stride [w] *)
      finish (fun rs n ->
          let r = Array.unsafe_get rs.rs_rings ri in
          Array.unsafe_set rs.rs_vbase s r.rg_head;
          r.rg_head <- r.rg_head + (n * w);
          r.rg_len <- r.rg_len - (n * w))
    | _ -> raise Not_batchable)
  | "llvm.extractvalue" -> (
    match
      ( Hashtbl.find_opt c.cols (Ir.Value.id (Ir.Op.operand op 0)),
        Ir.Op.get_attr_exn op "indices" )
    with
    | Some (KV s), Attr.Ints [ i ] ->
      let ri, w =
        match Hashtbl.find_opt c.vec_ring s with
        | Some rw -> rw
        | None -> raise Not_batchable
      in
      (* no step at all: the lane stays in the input ring and consumers
         read it with stride [w] (arithmetic directly, anything else
         through a one-time gather in [bfsrc]) *)
      Hashtbl.replace c.cols
        (Ir.Value.id (Ir.Op.result op 0))
        (KS (ri, s, w, i));
      None
    | _ -> raise Not_batchable)
  | "hls.write" -> (
    let ri = ring_idx c (Ir.Op.operand op 1) in
    if List.mem ri !writes then raise Not_batchable;
    writes := ri :: !writes;
    match bfsrc c preps (Ir.Op.operand op 0) with
    | FCol s ->
      finish (fun rs n ->
          ring_push_blit
            (Array.unsafe_get rs.rs_rings ri)
            (Array.unsafe_get rs.rs_fcols s)
            0 n)
    | FInv g ->
      finish (fun rs n ->
          let r = Array.unsafe_get rs.rs_rings ri in
          ring_reserve r n;
          Array.fill r.rg_data (r.rg_head + r.rg_len) n (g rs);
          r.rg_len <- r.rg_len + n))
  | "llvm.getelementptr" -> (
    let s = bpsrc c (Ir.Op.operand op 0) in
    let d = bind_pcol c (Ir.Op.result op 0) in
    match
      (Attr.ints_exn (Ir.Op.get_attr_exn op "indices"), Ir.Op.num_operands op)
    with
    | [], 2 ->
      let k = bisrc c (Ir.Op.operand op 1) in
      finish
        (match (s, k) with
        | PInv s, ICol k ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d (Array.unsafe_get rs.rs_pbase s);
            let o = Array.unsafe_get rs.rs_poff s in
            let ko = Array.unsafe_get rs.rs_icols k
            and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              Array.unsafe_set od j (o + Array.unsafe_get ko j)
            done
        | PInv s, IInv g ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d (Array.unsafe_get rs.rs_pbase s);
            Array.fill
              (Array.unsafe_get rs.rs_pcols_off d)
              0 n
              (Array.unsafe_get rs.rs_poff s + g rs)
        | PCol s, ICol k ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d
              (Array.unsafe_get rs.rs_pcols_base s);
            let os = Array.unsafe_get rs.rs_pcols_off s
            and ko = Array.unsafe_get rs.rs_icols k
            and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              Array.unsafe_set od j
                (Array.unsafe_get os j + Array.unsafe_get ko j)
            done
        | PCol s, IInv g ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d
              (Array.unsafe_get rs.rs_pcols_base s);
            let delta = g rs in
            let os = Array.unsafe_get rs.rs_pcols_off s
            and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              Array.unsafe_set od j (Array.unsafe_get os j + delta)
            done)
    | idx, 1 ->
      let delta = List.fold_left ( + ) 0 idx in
      finish
        (match s with
        | PInv s ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d (Array.unsafe_get rs.rs_pbase s);
            Array.fill
              (Array.unsafe_get rs.rs_pcols_off d)
              0 n
              (Array.unsafe_get rs.rs_poff s + delta)
        | PCol s ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d
              (Array.unsafe_get rs.rs_pcols_base s);
            let os = Array.unsafe_get rs.rs_pcols_off s
            and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              Array.unsafe_set od j (Array.unsafe_get os j + delta)
            done)
    | _ -> raise Not_batchable)
  | "llvm.load" -> (
    let s = bpsrc c (Ir.Op.operand op 0) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    finish
      (match s with
      | PCol s ->
        fun rs n ->
          let base = Array.unsafe_get rs.rs_pcols_base s
          and off = Array.unsafe_get rs.rs_pcols_off s
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (Array.unsafe_get base (Array.unsafe_get off j))
          done
      | PInv s ->
        fun rs n ->
          Array.fill
            (Array.unsafe_get rs.rs_fcols d)
            0 n
            (Array.unsafe_get
               (Array.unsafe_get rs.rs_pbase s)
               (Array.unsafe_get rs.rs_poff s))))
  | "memref.load" -> (
    let m = bpsrc c (Ir.Op.operand op 0) in
    let i = bisrc c (Ir.Op.operand op 1) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    match (m, i) with
    | PInv m, ICol i ->
      finish (fun rs n ->
          let arr = Array.unsafe_get rs.rs_pbase m
          and ic = Array.unsafe_get rs.rs_icols i
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j arr.(Array.unsafe_get ic j)
          done)
    | PInv m, IInv g ->
      finish (fun rs n ->
          Array.fill
            (Array.unsafe_get rs.rs_fcols d)
            0 n
            (Array.unsafe_get rs.rs_pbase m).(g rs))
    | PCol _, _ -> raise Not_batchable)
  | _ -> raise Not_batchable

(* Attempt to batch one top-level [scf.for] of a compute stage.
   [scalar_body]/[iv_slot] are the per-element compilation of the same
   loop: the fallback when the body is not batchable, and the exact
   replay path when a block's input rings are starved (so the raised
   error — message, [Loc], which read fires first — matches the
   interpreter). *)
let compile_for_batched c op ~lb ~ub ~step ~iv_slot ~scalar_body =
  let block = Ir.Region.entry (List.hd (Ir.Op.regions op)) in
  let iv =
    match Ir.Block.args block with
    | a :: _ -> a
    | [] -> raise Not_batchable
  in
  let reads = ref [] and writes = ref [] in
  let ivc = new_icol c in
  Hashtbl.replace c.cols (Ir.Value.id iv) (KI ivc);
  match
    (let steps =
       List.fold_left
         (fun acc o ->
           match compile_bop c ~reads ~writes o with
           | None -> acc
           | Some step -> step :: acc)
         [] (Ir.Block.ops block)
     in
     Array.of_list (List.rev steps))
  with
  | exception Not_batchable -> None
  | bsteps ->
    c.batched_loops <- c.batched_loops + 1;
    let nb = Array.length bsteps in
    let reads = Array.of_list (List.rev !reads) in
    let nreads = Array.length reads in
    let nscal = Array.length scalar_body in
    Some
      (fun rs ->
        let ir = rs.rs_iregs in
        let ub = Array.unsafe_get ir ub and st = Array.unsafe_get ir step in
        let ivcol = Array.unsafe_get rs.rs_icols ivc in
        let i = ref (Array.unsafe_get ir lb) in
        while !i < ub do
          let rem = (ub - !i + st - 1) / st in
          let n = if rem < batch_width then rem else batch_width in
          let enough = ref true in
          for k = 0 to nreads - 1 do
            let ri, w = Array.unsafe_get reads k in
            if (Array.unsafe_get rs.rs_rings ri).rg_len < n * w then
              enough := false
          done;
          if !enough then begin
            for j = 0 to n - 1 do
              Array.unsafe_set ivcol j (!i + (j * st))
            done;
            for k = 0 to nb - 1 do
              (Array.unsafe_get bsteps k) rs n
            done;
            i := !i + (n * st)
          end
          else
            (* a starved block: replay the remainder per-element so the
               error surfaces exactly like the interpreter *)
            while !i < ub do
              Array.unsafe_set ir iv_slot !i;
              for k = 0 to nscal - 1 do
                (Array.unsafe_get scalar_body k) rs
              done;
              i := !i + st
            done
        done)

(* Compile one region op into an optional step closure over the run
   state.  Constants are folded straight into the plan's constant pools
   (SSA values never change, and every fresh run state copies the pools
   into its register files, so the fold survives across runs). *)
let rec compile_op c (op : Ir.op) : (run_state -> unit) option =
  let bin f =
    let d = fslot c (Ir.Op.result op 0) in
    match (slot_exn c (Ir.Op.operand op 0), slot_exn c (Ir.Op.operand op 1)) with
    | KF a, KF b ->
      Some
        (fun rs ->
          let fr = rs.rs_fregs in
          Array.unsafe_set fr d
            (f (Array.unsafe_get fr a) (Array.unsafe_get fr b)))
    | _ ->
      let ga = getf c (Ir.Op.operand op 0) and gb = getf c (Ir.Op.operand op 1) in
      Some (fun rs -> Array.unsafe_set rs.rs_fregs d (f (ga rs) (gb rs)))
  in
  let bini f =
    let d = islot c (Ir.Op.result op 0) in
    let a = islot c (Ir.Op.operand op 0) and b = islot c (Ir.Op.operand op 1) in
    Some
      (fun rs ->
        let ir = rs.rs_iregs in
        Array.unsafe_set ir d
          (f (Array.unsafe_get ir a) (Array.unsafe_get ir b)))
  in
  let un f =
    let d = fslot c (Ir.Op.result op 0) in
    let g = getf c (Ir.Op.operand op 0) in
    Some (fun rs -> Array.unsafe_set rs.rs_fregs d (f (g rs)))
  in
  match Ir.Op.name op with
  | "arith.constant" -> (
    c.folded <- c.folded + 1;
    match Ir.Op.get_attr_exn op "value" with
    | Attr.Float f ->
      c.const_f.(fslot c (Ir.Op.result op 0)) <- f;
      None
    | Attr.Int i ->
      c.const_i.(islot c (Ir.Op.result op 0)) <- i;
      None
    | _ -> Err.raise_error "functional sim: bad constant")
  | "arith.addf" -> bin ( +. )
  | "arith.subf" -> bin ( -. )
  | "arith.mulf" -> bin ( *. )
  | "arith.divf" -> bin ( /. )
  | "arith.maximumf" -> bin Float.max
  | "arith.minimumf" -> bin Float.min
  | "arith.negf" -> un (fun x -> -.x)
  | "arith.addi" -> bini ( + )
  | "arith.subi" -> bini ( - )
  | "arith.muli" -> bini ( * )
  | "arith.divsi" -> bini ( / )
  | "arith.remsi" -> bini (fun a b -> a mod b)
  | "math.sqrt" -> un sqrt
  | "math.exp" -> un exp
  | "math.log" -> un log
  | "math.absf" -> un Float.abs
  | "math.tanh" -> un tanh
  | "math.powf" -> bin ( ** )
  | "arith.cmpi" ->
    let d = islot c (Ir.Op.result op 0) in
    let a = islot c (Ir.Op.operand op 0) and b = islot c (Ir.Op.operand op 1) in
    let p = Attr.str_exn (Ir.Op.get_attr_exn op "predicate") in
    let cmp : int -> int -> bool =
      match p with
      | "slt" -> ( < )
      | "sle" -> ( <= )
      | "sgt" -> ( > )
      | "sge" -> ( >= )
      | "eq" -> ( = )
      | "ne" -> ( <> )
      | _ -> Err.raise_error "functional sim: cmpi predicate %s" p
    in
    Some
      (fun rs ->
        let ir = rs.rs_iregs in
        ir.(d) <- (if cmp ir.(a) ir.(b) then 1 else 0))
  | "arith.select" -> (
    let cnd = islot c (Ir.Op.operand op 0) in
    match slot_exn c (Ir.Op.result op 0) with
    | KF d ->
      let a = fslot c (Ir.Op.operand op 1) and b = fslot c (Ir.Op.operand op 2) in
      Some
        (fun rs ->
          let fr = rs.rs_fregs in
          fr.(d) <- (if rs.rs_iregs.(cnd) <> 0 then fr.(a) else fr.(b)))
    | KI d ->
      let a = islot c (Ir.Op.operand op 1) and b = islot c (Ir.Op.operand op 2) in
      Some
        (fun rs ->
          let ir = rs.rs_iregs in
          ir.(d) <- (if ir.(cnd) <> 0 then ir.(a) else ir.(b)))
    | _ -> Err.raise_error "functional sim: select condition")
  | "hls.pipeline" | "hls.unroll" | "hls.array_partition" -> None
  | "hls.read" -> (
    let ri = ring_idx c (Ir.Op.operand op 0) in
    let loc = Ir.Op.loc op in
    match slot_exn c (Ir.Op.result op 0) with
    | KF d ->
      Some
        (fun rs ->
          let r = Array.unsafe_get rs.rs_rings ri in
          if r.rg_len = 0 then starved loc;
          Array.unsafe_set rs.rs_fregs d (Array.unsafe_get r.rg_data r.rg_head);
          r.rg_head <- r.rg_head + 1;
          r.rg_len <- r.rg_len - 1)
    | KV d ->
      let w = c.vec_w.(d) in
      Some
        (fun rs ->
          let r = Array.unsafe_get rs.rs_rings ri in
          if r.rg_len < w then starved loc;
          Array.blit r.rg_data r.rg_head rs.rs_vecs.(d) 0 w;
          r.rg_head <- r.rg_head + w;
          r.rg_len <- r.rg_len - w)
    | _ -> Err.raise_error "functional sim: bad hls.read result")
  | "hls.write" -> (
    let ri = ring_idx c (Ir.Op.operand op 1) in
    match slot_exn c (Ir.Op.operand op 0) with
    | KF s ->
      Some (fun rs -> ring_push rs.rs_rings.(ri) rs.rs_fregs.(s))
    | KV s ->
      let w = c.vec_w.(s) in
      Some (fun rs -> ring_push_blit rs.rs_rings.(ri) rs.rs_vecs.(s) 0 w)
    | _ -> Err.raise_error "functional sim: bad hls.write value")
  | "llvm.extractvalue" -> (
    match (slot_exn c (Ir.Op.operand op 0), Ir.Op.get_attr_exn op "indices") with
    | KV s, Attr.Ints [ i ] ->
      let d = fslot c (Ir.Op.result op 0) in
      Some
        (fun rs ->
          Array.unsafe_set rs.rs_fregs d
            (Array.unsafe_get (Array.unsafe_get rs.rs_vecs s) i))
    | _ -> Err.raise_error "functional sim: bad extractvalue")
  | "llvm.getelementptr" -> (
    let s = pslot c (Ir.Op.operand op 0) in
    let d = pslot c (Ir.Op.result op 0) in
    match
      (Attr.ints_exn (Ir.Op.get_attr_exn op "indices"), Ir.Op.num_operands op)
    with
    | [], 2 ->
      let k = islot c (Ir.Op.operand op 1) in
      Some
        (fun rs ->
          let pb = rs.rs_pbase and po = rs.rs_poff in
          Array.unsafe_set pb d (Array.unsafe_get pb s);
          Array.unsafe_set po d
            (Array.unsafe_get po s + Array.unsafe_get rs.rs_iregs k))
    | idx, 1 ->
      let delta = List.fold_left ( + ) 0 idx in
      Some
        (fun rs ->
          let pb = rs.rs_pbase and po = rs.rs_poff in
          pb.(d) <- pb.(s);
          po.(d) <- po.(s) + delta)
    | _ -> Err.raise_error "functional sim: unsupported gep form")
  | "llvm.load" ->
    let s = pslot c (Ir.Op.operand op 0) in
    let d = fslot c (Ir.Op.result op 0) in
    Some
      (fun rs ->
        Array.unsafe_set rs.rs_fregs d
          (Array.unsafe_get
             (Array.unsafe_get rs.rs_pbase s)
             (Array.unsafe_get rs.rs_poff s)))
  | "llvm.store" ->
    let g = getf c (Ir.Op.operand op 0) in
    let s = pslot c (Ir.Op.operand op 1) in
    Some
      (fun rs ->
        (Array.unsafe_get rs.rs_pbase s).(Array.unsafe_get rs.rs_poff s) <-
          g rs)
  | "memref.alloca" | "memref.alloc" -> (
    match Ir.Value.ty (Ir.Op.result op 0) with
    | Ty.Memref (shape, _) ->
      let size = List.fold_left ( * ) 1 shape in
      let d = pslot c (Ir.Op.result op 0) in
      (* executing the alloca yields a fresh zeroed array, as in the
         interpreter; the array lives in the run state's pointer file,
         never in the shared plan *)
      Some
        (fun rs ->
          rs.rs_pbase.(d) <- Array.make size 0.0;
          rs.rs_poff.(d) <- 0)
    | _ -> Err.raise_error "functional sim: alloca result not memref")
  | "memref.load" ->
    let m = pslot c (Ir.Op.operand op 0) in
    let i = islot c (Ir.Op.operand op 1) in
    let d = fslot c (Ir.Op.result op 0) in
    Some
      (fun rs ->
        Array.unsafe_set rs.rs_fregs d
          (Array.unsafe_get rs.rs_pbase m).(Array.unsafe_get rs.rs_iregs i))
  | "memref.store" ->
    let g = getf c (Ir.Op.operand op 0) in
    let m = pslot c (Ir.Op.operand op 1) in
    let i = islot c (Ir.Op.operand op 2) in
    Some
      (fun rs -> (Array.unsafe_get rs.rs_pbase m).(rs.rs_iregs.(i)) <- g rs)
  | "scf.for" ->
    let lb = islot c (Ir.Op.operand op 0) in
    let ub = islot c (Ir.Op.operand op 1) in
    let step = islot c (Ir.Op.operand op 2) in
    let block = Ir.Region.entry (List.hd (Ir.Op.regions op)) in
    let iv =
      match Ir.Block.args block with
      | a :: _ -> islot c a
      | [] -> Err.raise_error "functional sim: scf.for without args"
    in
    let body = compile_block c block in
    let nbody = Array.length body in
    let scalar_step rs =
      let ir = rs.rs_iregs in
      let ub = ir.(ub) and step = ir.(step) in
      let i = ref ir.(lb) in
      while !i < ub do
        Array.unsafe_set ir iv !i;
        for k = 0 to nbody - 1 do
          (Array.unsafe_get body k) rs
        done;
        i := !i + step
      done
    in
    Some
      (Option.value ~default:scalar_step
         (compile_for_batched c op ~lb ~ub ~step ~iv_slot:iv
            ~scalar_body:body))
  | "scf.yield" -> None
  | name -> Err.raise_error "functional sim: unsupported op %s" name

and compile_block c block =
  Ir.Block.ops block
  |> List.filter_map (fun o -> compile_op c o)
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Structural stages (the native runtime: load_data, shift_buffer,
   duplicate, write_data on ring buffers) *)

let design_ring_idx ring_index id =
  match Hashtbl.find_opt ring_index id with
  | Some i -> i
  | None -> Err.raise_error "design: unknown stream %d" id

let compile_load ring_index (d : Design.t) ~out_streams ~ptr_args =
  let total = Design.total_padded d in
  let pairs =
    List.map2
      (fun s argi -> (design_ring_idx ring_index s, argi))
      out_streams ptr_args
  in
  fun rs ->
    List.iter
      (fun (ri, argi) ->
        let data =
          match rs.rs_args.(argi) with
          | Functional.Ptr (a, 0) -> a
          | _ -> Err.raise_error "functional sim: load_data arg is not a pointer"
        in
        ring_push_blit rs.rs_rings.(ri) data 0 total)
      pairs

(* Batched dup: zero-copy.  Each output stream has exactly one producer
   (this dup) and its consumers only ever read, while the input stream
   is fully produced before the dup runs (topological stage order) and
   never pushed again afterwards — so the "copies" can alias the input
   ring's buffer, each with its own head/length.  Bit-identical token
   sequences, none of the memory traffic. *)
let compile_dup_batched ring_index ~input ~outputs =
  let in_ri = design_ring_idx ring_index input in
  let out_ris =
    List.map (design_ring_idx ring_index) outputs |> Array.of_list
  in
  let nout = Array.length out_ris in
  fun rs ->
    let inring = Array.unsafe_get rs.rs_rings in_ri in
    let n = inring.rg_len in
    for k = 0 to nout - 1 do
      let r = Array.unsafe_get rs.rs_rings (Array.unsafe_get out_ris k) in
      r.rg_data <- inring.rg_data;
      r.rg_head <- inring.rg_head;
      r.rg_len <- n
    done;
    ring_drop inring n

(* Batched shift: same geometry as the interpreter's shift buffer,
   but the inner dimension of every fully-interior row is branch-free — all
   neighbourhood offsets are provably in range there, so the loop is a
   strided copy with the per-point bounds checks hoisted to the row's
   halo edges (and to non-interior rows). *)
let compile_shift_batched ring_index ~input ~output ~halo ~extent =
  let ext, strides, total = Functional.stage_geometry extent in
  let rank = Array.length ext in
  let in_ri = design_ring_idx ring_index input in
  let out_ri = design_ring_idx ring_index output in
  let offsets =
    Functional.offsets_of_halo halo |> List.map Array.of_list |> Array.of_list
  in
  let deltas =
    Array.map
      (fun off ->
        let s = ref 0 in
        Array.iteri (fun d o -> s := !s + (o * strides.(d))) off;
        !s)
      offsets
  in
  let nb_n = Array.length offsets in
  let hal = Array.of_list halo in
  let inner = ext.(rank - 1) in
  let h_in = hal.(rank - 1) in
  (* inner positions where every offset stays in range *)
  let ilo = min h_in inner in
  let ihi = max ilo (inner - h_in) in
  let nrows = total / inner in
  let off_inner = Array.map (fun off -> off.(rank - 1)) offsets in
  fun rs ->
    let inring = Array.unsafe_get rs.rs_rings in_ri in
    let outring = Array.unsafe_get rs.rs_rings out_ri in
    if inring.rg_width <> 1 then
      Err.raise_error "functional sim: shift input must be scalar";
    ring_require inring total;
    ring_reserve outring (total * nb_n);
    let src = inring.rg_data and h = inring.rg_head in
    let out = outring.rg_data in
    let ob0 = outring.rg_head + outring.rg_len in
    (* pos is the outer odometer (inner coordinate handled separately);
       okmask.(k) caches, per row, whether offset k stays in range in
       every outer dimension — the per-point edge path then only checks
       the inner dimension.  Both are per-call scratch (a few words), so
       the closure stays safe to run concurrently from several states. *)
    let pos = Array.make (max 1 (rank - 1)) 0 in
    let okmask = Array.make nb_n true in
    let per_point base j0 j1 =
      for j = j0 to j1 - 1 do
        let i = base + j in
        let ob = ob0 + (i * nb_n) in
        for k = 0 to nb_n - 1 do
          let p = j + Array.unsafe_get off_inner k in
          Array.unsafe_set out (ob + k)
            (if Array.unsafe_get okmask k && p >= 0 && p < inner then
               Array.unsafe_get src (h + i + Array.unsafe_get deltas k)
             else Float.nan)
        done
      done
    in
    for row = 0 to nrows - 1 do
      let base = row * inner in
      let interior_row = ref true in
      for d = 0 to rank - 2 do
        if pos.(d) < hal.(d) || pos.(d) >= ext.(d) - hal.(d) then
          interior_row := false
      done;
      if !interior_row && ihi > ilo then begin
        (* every offset is outer-valid on an interior row *)
        Array.fill okmask 0 nb_n true;
        per_point base 0 ilo;
        for j = ilo to ihi - 1 do
          let ob = ob0 + ((base + j) * nb_n) in
          let sb = h + base + j in
          for k = 0 to nb_n - 1 do
            Array.unsafe_set out (ob + k)
              (Array.unsafe_get src (sb + Array.unsafe_get deltas k))
          done
        done;
        per_point base ihi inner
      end
      else begin
        for k = 0 to nb_n - 1 do
          let off = Array.unsafe_get offsets k in
          let ok = ref true in
          for d = 0 to rank - 2 do
            let p = Array.unsafe_get pos d + Array.unsafe_get off d in
            if p < 0 || p >= Array.unsafe_get ext d then ok := false
          done;
          Array.unsafe_set okmask k !ok
        done;
        per_point base 0 inner
      end;
      (* advance the outer odometer *)
      let d = ref (rank - 2) in
      let carry = ref true in
      while !carry && !d >= 0 do
        let p = pos.(!d) + 1 in
        if p >= ext.(!d) then begin
          pos.(!d) <- 0;
          decr d
        end
        else begin
          pos.(!d) <- p;
          carry := false
        end
      done
    done;
    outring.rg_len <- outring.rg_len + (total * nb_n);
    ring_drop inring total

(* Batched write: the interior of each interior row is one contiguous
   run of linear indices, so the per-point gather becomes one
   [Array.blit] per interior row (halo tokens are discarded by the
   final bulk drop, exactly like the interpreter's discard-pop). *)
let compile_write_batched ring_index ~in_streams ~ptr_args ~halo ~extent =
  let ext, _, total = Functional.stage_geometry extent in
  let hal = Array.of_list halo in
  let rank = Array.length ext in
  let pairs =
    List.map2
      (fun s argi -> (design_ring_idx ring_index s, argi))
      in_streams ptr_args
  in
  let inner = ext.(rank - 1) in
  let h_in = hal.(rank - 1) in
  let run_len = max 0 (inner - (2 * h_in)) in
  let runs =
    let pos = Array.make (max 1 (rank - 1)) 0 in
    let acc = ref [] in
    let nrows = total / inner in
    for row = 0 to nrows - 1 do
      let ok = ref (run_len > 0) in
      for d = 0 to rank - 2 do
        if pos.(d) < hal.(d) || pos.(d) >= ext.(d) - hal.(d) then ok := false
      done;
      if !ok then acc := ((row * inner) + h_in) :: !acc;
      let d = ref (rank - 2) in
      let carry = ref true in
      while !carry && !d >= 0 do
        let p = pos.(!d) + 1 in
        if p >= ext.(!d) then begin
          pos.(!d) <- 0;
          decr d
        end
        else begin
          pos.(!d) <- p;
          carry := false
        end
      done
    done;
    Array.of_list (List.rev !acc)
  in
  let n_runs = Array.length runs in
  fun rs ->
    List.iter
      (fun (ri, argi) ->
        let ring = rs.rs_rings.(ri) in
        let data =
          match rs.rs_args.(argi) with
          | Functional.Ptr (a, 0) -> a
          | _ ->
            Err.raise_error "functional sim: write_data arg is not a pointer"
        in
        ring_require ring total;
        let src = ring.rg_data and h = ring.rg_head in
        for k = 0 to n_runs - 1 do
          let s = Array.unsafe_get runs k in
          Array.blit src (h + s) data s run_len
        done;
        ring_drop ring total)
      pairs

(* ------------------------------------------------------------------ *)
(* Whole-design compilation *)

let stream_width (s : Design.stream) =
  match s.Design.st_elem with
  | Ty.Array (n, _) -> n
  | Ty.Struct ts -> List.length ts
  | _ -> 1

let plan_id_counter = Atomic.make 0

let compile (d : Design.t) : t =
  Atomic.incr compile_counter;
  (* ring descriptors: one per design stream, ascending stream id (the
     drain check reports in that order, like the interpreter) *)
  let ring_descs =
    List.map
      (fun (s : Design.stream) ->
        { rd_stream = s.Design.st_id; rd_width = max 1 (stream_width s) })
      d.d_streams
    |> List.sort (fun a b -> Int.compare a.rd_stream b.rd_stream)
    |> Array.of_list
  in
  let ring_index = Hashtbl.create 32 in
  Array.iteri
    (fun i rd -> Hashtbl.replace ring_index rd.rd_stream i)
    ring_descs;
  (* slot allocation: kernel arguments plus every compute-stage region *)
  let al =
    {
      slots = Hashtbl.create 256;
      nf = 0;
      ni = 0;
      np = 0;
      vec_widths = [];
      nv = 0;
    }
  in
  let body = Ir.Region.entry (List.hd (Ir.Op.regions d.d_func)) in
  let func_args = Ir.Block.args body in
  List.iter (alloc_value al) func_args;
  List.iter
    (fun stage ->
      match stage with
      | Design.Compute c -> alloc_op al c.df_op
      | _ -> ())
    d.d_stages;
  let c =
    {
      al;
      const_f = Array.make (max 1 al.nf) 0.0;
      const_i = Array.make (max 1 al.ni) 0;
      vec_w = Array.of_list (List.rev al.vec_widths);
      ring_index;
      folded = 0;
      cols = Hashtbl.create 64;
      vec_ring = Hashtbl.create 8;
      nfc = 0;
      nic = 0;
      npc = 0;
      batched_loops = 0;
    }
  in
  (* argument binding: resolve each kernel argument to its slot once *)
  let binders =
    List.mapi
      (fun i v ->
        match Hashtbl.find_opt al.slots (Ir.Value.id v) with
        | Some (KP s) -> (
          fun (args : Functional.value array) rs ->
            match args.(i) with
            | Functional.Ptr (a, o) ->
              rs.rs_pbase.(s) <- a;
              rs.rs_poff.(s) <- o
            | Functional.Mem a ->
              rs.rs_pbase.(s) <- a;
              rs.rs_poff.(s) <- 0
            | _ -> Err.raise_error "functional sim: gep of non-pointer")
        | Some (KF s) -> (
          fun args rs ->
            match args.(i) with
            | Functional.F f -> rs.rs_fregs.(s) <- f
            | Functional.I n -> rs.rs_fregs.(s) <- float_of_int n
            | _ -> Err.raise_error "functional sim: expected float")
        | Some (KI s) -> (
          fun args rs ->
            match args.(i) with
            | Functional.I n -> rs.rs_iregs.(s) <- n
            | _ -> Err.raise_error "functional sim: expected int")
        | _ -> fun _ _ -> ())
      func_args
  in
  let nargs = List.length func_args in
  let bind args rs =
    if Array.length args <> nargs then
      Err.raise_error "functional sim: expected %d arguments, got %d" nargs
        (Array.length args);
    rs.rs_args <- args;
    List.iter (fun b -> b args rs) binders
  in
  (* stage steps, in the design's topological order *)
  let n_steps = ref 0 in
  let steps =
    List.map
      (fun stage ->
        match stage with
        | Design.Load { out_streams; ptr_args } ->
          compile_load ring_index d ~out_streams ~ptr_args
        | Design.Shift { input; output; halo; extent } ->
          compile_shift_batched ring_index ~input ~output ~halo ~extent
        | Design.Dup { input; outputs } ->
          compile_dup_batched ring_index ~input ~outputs
        | Design.Compute cc ->
          let body = compile_block c (Hls.dataflow_body cc.df_op) in
          n_steps := !n_steps + Array.length body;
          let nbody = Array.length body in
          fun rs ->
            for k = 0 to nbody - 1 do
              (Array.unsafe_get body k) rs
            done
        | Design.Write { in_streams; ptr_args; halo; extent } ->
          compile_write_batched ring_index ~in_streams ~ptr_args ~halo ~extent)
      d.d_stages
    |> Array.of_list
  in
  {
    pl_id = Atomic.fetch_and_add plan_id_counter 1;
    pl_design = d;
    pl_ring_descs = ring_descs;
    pl_const_f = c.const_f;
    pl_const_i = c.const_i;
    pl_np = al.np;
    pl_vec_widths = c.vec_w;
    pl_n_fcols = c.nfc;
    pl_n_icols = c.nic;
    pl_n_pcols = c.npc;
    pl_bind = bind;
    pl_steps = steps;
    pl_stats =
      {
        cs_fregs = al.nf;
        cs_iregs = al.ni;
        cs_pregs = al.np;
        cs_vregs = al.nv;
        cs_steps = !n_steps;
        cs_folded = c.folded;
        cs_batched = c.batched_loops;
      };
  }

(* perfbench builds [Shmls.compiled] records through this name. *)
let compile_batched = compile

(* ------------------------------------------------------------------ *)
(* Execution *)

let run_with (t : t) (rs : run_state) ~(args : Functional.value array) =
  (* a failed previous run may have left tokens queued *)
  Array.iter ring_reset rs.rs_rings;
  t.pl_bind args rs;
  let steps = t.pl_steps in
  for k = 0 to Array.length steps - 1 do
    (Array.unsafe_get steps k) rs
  done;
  (* every stream should be fully drained: catches mis-wired designs
     (checked in ascending stream order, like the interpreter) *)
  Array.iter
    (fun r ->
      if r.rg_len <> 0 then
        Err.raise_error "functional sim: stream %d left %d undrained tokens"
          r.rg_stream (ring_tokens r))
    rs.rs_rings

(* The per-domain state cache: one run state per (domain, plan), so a
   worker reuses its allocation across every run it executes on that
   plan, and two domains never share mutable state.  Keyed by plan
   identity; lives exactly as long as its domain. *)
let domain_states : (int, run_state) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let domain_state (t : t) =
  let tbl = Domain.DLS.get domain_states in
  match Hashtbl.find_opt tbl t.pl_id with
  | Some rs -> rs
  | None ->
    let rs = create_state t in
    Hashtbl.add tbl t.pl_id rs;
    rs

let run (t : t) ~(args : Functional.value array) =
  run_with t (domain_state t) ~args

let design t = t.pl_design
