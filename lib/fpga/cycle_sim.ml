(* Token-level cycle simulation of an extracted design.

   Simulates the dataflow network cycle by cycle with *bounded* FIFOs and
   back-pressure — the behaviour the paper's Figure 3 structure exhibits
   in hardware.  Tokens are counted, not valued (numerics are the
   functional simulator's job); what this measures is timing: fill
   latency, steady-state initiation interval, and completion cycles, plus
   deadlock detection (the StencilFlow failure mode reported in the
   paper's evaluation).

   Firing rules per stage and cycle:
     load     pushes up to 8 elements per output stream (512-bit words)
     shift    consumes 1 element; emits neighbourhood n once element
              n + lookahead has been consumed (or the input is exhausted)
     dup      moves 1 element to all copies when all have space
     compute  starts one iteration per II when every input has a token
              and the result (after a pipeline latency) fits downstream
     write    retires 1 element per stream per cycle

   Two engines implement those rules:

     Tick   the original loop: every stage fired every cycle.  Kept as
            the bit-exact oracle — slow but obviously correct.
     Event  the same firing rules on precomputed arrays, plus two
            fast-forward mechanisms that skip whole runs of cycles in
            closed form: an idle jump to the next time-based guard flip
            when a cycle mutates nothing (pure pipeline-latency wait),
            and an affine period detector that recognises when the
            compute state (in-flight offsets, II distances, pass phase)
            repeats with period p while every counter, FIFO occupancy
            and shift fill level moves by a constant per-period delta,
            then applies n periods at once — as long as no guard
            changes its answer, so the steady state and the fill and
            drain ramps alike cost a handful of cycles each.  Cycle
            counts, deadlock verdicts and tracer-visible occupancy
            sequences are identical to Tick by construction (the
            differential suite in test/test_cycle_engines.ml enforces
            it). *)

type engine = Tick | Event

let engine_to_string = function Tick -> "tick" | Event -> "event"

let engine_of_string = function
  | "tick" -> Some Tick
  | "event" -> Some Event
  | _ -> None

type result = {
  cycles : int;
  deadlocked : bool;
  stalled_stage : string option; (* where progress stopped, if deadlocked *)
  progress : (string * int * int) list; (* stage, tokens done, target *)
  fifo_occupancy : (int * int * int) list; (* stream, occ, cap (at end) *)
  engine : engine; (* which engine produced this result *)
  cycles_simulated : int; (* cycles advanced one at a time *)
  cycles_fast_forwarded : int; (* cycles covered in closed form *)
  ss_period : (int * int) option;
      (* detected steady state: (period cycles, write retirements/period) *)
}

type fifo = { mutable occ : int; cap : int }

type stage_state =
  | S_load of { mutable remaining : int array } (* per output stream *)
  | S_shift of {
      mutable consumed : int;
      mutable produced : int;
      lookahead : int;
      window : int;
      total : int;
    }
  | S_dup of { mutable moved : int; total : int }
  | S_compute of {
      mutable started : int;
      mutable retired : int;
      ii : int;
      latency : int;
      total : int;
      in_flight : int Queue.t; (* ready cycles, FIFO: O(1) add/pop *)
      mutable last_start : int;
    }
  | S_write of { mutable retired : int array (* per input stream *) }

let max_cycles_factor = 64

let check_has_write (d : Design.t) =
  if
    not
      (List.exists
         (fun s -> match s with Design.Write _ -> true | _ -> false)
         d.d_stages)
  then Err.raise_error "cycle sim: design has no write_data stage"

(* ------------------------------------------------------------------ *)
(* Tick engine: the original per-cycle loop, kept as the oracle.      *)

let run_tick ?on_cycle (d : Design.t) =
  check_has_write d;
  let total = Design.total_padded d in
  let fifos = Hashtbl.create 32 in
  List.iter
    (fun (s : Design.stream) ->
      Hashtbl.replace fifos s.st_id { occ = 0; cap = s.st_depth })
    d.d_streams;
  let fifo id =
    match Hashtbl.find_opt fifos id with
    | Some f -> f
    | None -> Err.raise_error "cycle sim: unknown stream %d" id
  in
  let states =
    List.map
      (fun stage ->
        let st =
          match stage with
          | Design.Load { out_streams; _ } ->
            S_load { remaining = Array.make (List.length out_streams) total }
          | Design.Shift { halo; extent; _ } ->
            let la = Design.shift_lookahead ~halo ~extent in
            S_shift
              {
                consumed = 0;
                produced = 0;
                lookahead = la;
                window = (2 * la) + 1;
                total;
              }
          | Design.Dup _ -> S_dup { moved = 0; total }
          | Design.Compute c ->
            (* a fused (no-split) stage makes [serial] passes over the
               grid, one per output stream, back to back *)
            S_compute
              {
                started = 0;
                retired = 0;
                ii = c.ii;
                latency = 8 + c.flops;
                total = c.serial * total;
                in_flight = Queue.create ();
                last_start = -1_000_000; (* "long ago", without overflow *)
              }
          | Design.Write { in_streams; _ } ->
            S_write { retired = Array.make (List.length in_streams) 0 }
        in
        (stage, st))
      d.d_stages
  in
  let complete () =
    List.for_all
      (fun (_, st) ->
        match st with
        | S_write w -> Array.for_all (fun r -> r >= total) w.retired
        | _ -> true)
      states
  in
  let cycle = ref 0 in
  let progressed = ref true in
  let stalled = ref None in
  let budget = max_cycles_factor * (total + 1000) in
  while (not (complete ())) && !progressed && !cycle < budget do
    progressed := false;
    List.iter
      (fun (stage, st) ->
        match (stage, st) with
        | Design.Load { out_streams; _ }, S_load l ->
          List.iteri
            (fun i sid ->
              let f = fifo sid in
              let burst = min 8 (min l.remaining.(i) (f.cap - f.occ)) in
              if burst > 0 then begin
                f.occ <- f.occ + burst;
                l.remaining.(i) <- l.remaining.(i) - burst;
                progressed := true
              end)
            out_streams
        | Design.Shift { input; output; _ }, S_shift s ->
          let fin = fifo input and fout = fifo output in
          (* consume *)
          if s.consumed < s.total && fin.occ > 0 && s.consumed - s.produced < s.window
          then begin
            fin.occ <- fin.occ - 1;
            s.consumed <- s.consumed + 1;
            progressed := true
          end;
          (* produce *)
          if
            s.produced < s.total
            && (s.consumed >= s.produced + s.lookahead + 1 || s.consumed = s.total)
            && fout.occ < fout.cap
          then begin
            fout.occ <- fout.occ + 1;
            s.produced <- s.produced + 1;
            progressed := true
          end
        | Design.Dup { input; outputs }, S_dup du ->
          let fin = fifo input in
          let fouts = List.map fifo outputs in
          if
            du.moved < du.total && fin.occ > 0
            && List.for_all (fun f -> f.occ < f.cap) fouts
          then begin
            fin.occ <- fin.occ - 1;
            List.iter (fun f -> f.occ <- f.occ + 1) fouts;
            du.moved <- du.moved + 1;
            progressed := true
          end
        | Design.Compute { in_streams; out_streams; _ }, S_compute c ->
          let fins = List.map fifo in_streams in
          (* start a new iteration *)
          if
            c.started < c.total
            && !cycle - c.last_start >= c.ii
            && List.for_all (fun f -> f.occ > 0) fins
          then begin
            List.iter (fun f -> f.occ <- f.occ - 1) fins;
            c.started <- c.started + 1;
            c.last_start <- !cycle;
            Queue.add (!cycle + c.latency) c.in_flight;
            progressed := true
          end;
          (* retire finished iterations *)
          (match Queue.peek_opt c.in_flight with
          | Some ready when ready <= !cycle ->
            (* pass k (of [serial]) retires into out_streams[k] *)
            let phase =
              min (c.retired / total) (List.length out_streams - 1)
            in
            let fout = fifo (List.nth out_streams phase) in
            if fout.occ < fout.cap then begin
              fout.occ <- fout.occ + 1;
              c.retired <- c.retired + 1;
              ignore (Queue.pop c.in_flight);
              progressed := true
            end
          | Some _ ->
            (* results draining through the pipeline: time passing is
               progress, not deadlock *)
            progressed := true
          | None -> ())
        | Design.Write { in_streams; _ }, S_write w ->
          List.iteri
            (fun i sid ->
              let f = fifo sid in
              if w.retired.(i) < total && f.occ > 0 then begin
                f.occ <- f.occ - 1;
                w.retired.(i) <- w.retired.(i) + 1;
                progressed := true
              end)
            in_streams
        | _ -> assert false)
      states;
    (* only materialise the occupancy list when someone is listening —
       it used to allocate every cycle even with no tracer attached *)
    (match on_cycle with
    | Some f -> f !cycle (Hashtbl.fold (fun id f acc -> (id, f.occ) :: acc) fifos [])
    | None -> ());
    incr cycle
  done;
  let deadlocked = not (complete ()) in
  if deadlocked then
    stalled :=
      List.find_map
        (fun (stage, st) ->
          let blocked =
            match st with
            | S_load l -> Array.exists (fun r -> r > 0) l.remaining
            | S_shift s -> s.produced < s.total
            | S_dup du -> du.moved < du.total
            | S_compute c -> c.retired < c.total
            | S_write w -> Array.exists (fun r -> r < total) w.retired
          in
          if blocked then Some (Design.stage_name stage) else None)
        states;
  let progress =
    List.map
      (fun (stage, st) ->
        let done_, target =
          match st with
          | S_load l -> (Array.fold_left (fun a r -> a + (total - r)) 0 l.remaining,
                         total * Array.length l.remaining)
          | S_shift s -> (s.produced, s.total)
          | S_dup du -> (du.moved, du.total)
          | S_compute c -> (c.retired, c.total)
          | S_write w -> (Array.fold_left ( + ) 0 w.retired, total * Array.length w.retired)
        in
        (Design.stage_name stage, done_, target))
      states
  in
  let fifo_occupancy =
    Hashtbl.fold (fun id f acc -> (id, f.occ, f.cap) :: acc) fifos []
    |> List.sort compare
  in
  { cycles = !cycle; deadlocked; stalled_stage = !stalled; progress;
    fifo_occupancy; engine = Tick; cycles_simulated = !cycle;
    cycles_fast_forwarded = 0; ss_period = None }

(* ------------------------------------------------------------------ *)
(* Event engine.

   Same firing rules as Tick, compiled to arrays with direct FIFO
   references (no per-cycle hashtable lookups or list allocation), plus
   two closed-form fast-forward mechanisms:

   Idle jump.  When a fired cycle mutates no state yet still counts as
   progress (results draining through a compute pipeline), nothing can
   change until a time-based guard flips: an in-flight result becomes
   ready, or a compute's II distance elapses.  We jump straight to the
   earliest such flip, synthesising the unchanged per-cycle tracer
   records in between.

   Affine period skip.  After every mutating cycle we record three
   views of the state.  The *exact* part: each compute's retirement
   phase, in-flight ready offsets (clamped at 0 — once ready <= cycle
   the exact value can never matter again) and II distance (clamped at
   ii — once the guard is satisfied it stays satisfied until the next
   start).  The *affine* part: every FIFO occupancy and each shift's
   held element count.  And the vector of monotone counters.  If the
   exact part at cycle t equals the one at t-p, while the affine part
   and the counters moved by some delta, determinism makes cycles
   t+1..t+p replay t-p+1..t with every affine value and counter moved
   by that delta — provided every guard evaluates the same.  For the
   counters that holds while each stays strictly inside its current
   regime: below [total] for the monotone-increasing ones, at or above
   a full burst (8) for load's remaining words, and inside the current
   serial pass for a compute's retirement phase.  For a moving affine
   value it holds while its values at the starts of the period's cycles
   (the samples at t-p..t-1) and their images after n periods all lie
   in one guard regime: an occupancy in [takes, cap - puts] (the most a
   stream's consumers take and its producers push in one cycle, so with
   one consumer and one producer [1, cap-1], and [1, cap-8] under a
   load's burst), a held count in [0, la-1] or [la+1, window-1].  Those
   bounds cap how many whole periods n can be applied at once; we add
   n * delta to every counter and occupancy, n * p to every in-flight
   ready time and (when the compute started during the period) to
   last_start, and advance the clock by n * p.  Delta 0 is the plain
   steady state, and only such an exact period is reported as
   [ss_period]; a nonzero delta is a fill or drain ramp (a shift
   filling its window, a deep FIFO filling or emptying), skipped the
   same way.  Variants break periodicity only transiently: a
   no-split fused stage changes its retirement target stream once per
   serial pass and cu=N designs interleave phased retirement, both of
   which land outside the match or the phase threshold for a few
   cycles, after which the detector locks on again. *)

type estage =
  | E_load of { outs : fifo array; remaining : int array }
  | E_shift of {
      s_fin : fifo;
      s_fout : fifo;
      mutable consumed : int;
      mutable produced : int;
      lookahead : int;
      window : int;
      total : int;
    }
  | E_dup of {
      d_fin : fifo;
      d_fouts : fifo array;
      mutable moved : int;
      total : int;
    }
  | E_compute of {
      c_fins : fifo array;
      c_fouts : fifo array; (* one per serial pass *)
      mutable started : int;
      mutable retired : int;
      ii : int;
      latency : int;
      total : int;
      per_pass : int;
      passes : int;
      (* in-flight ready cycles as a power-of-two ring buffer.  At most
         one start per cycle and a fixed latency keep latency + 1
         results in flight while the output drains; a full output holds
         finished results back while starts go on, and then the ring
         doubles *)
      mutable q_buf : int array;
      mutable q_mask : int;
      mutable q_head : int;
      mutable q_len : int;
      mutable last_start : int;
      (* bit j set iff an iteration started j cycles ago (j < latency).
         Together with q_len this encodes the in-flight ready offsets
         exactly — entries older than latency are all ready (offset
         clamps to 0) — so the steady-state signature needs one word
         per compute instead of a queue walk.  0 mask = latency too
         large for a word; the signature lists the offsets of the
         results not yet ready instead. *)
      bits_mask : int;
      mutable start_bits : int;
    }
  | E_write of { w_fins : fifo array; w_retired : int array; w_total : int }

(* counter thresholds: how far a moving counter may advance before a
   counter-dependent guard could change its value *)
type cnt_kind =
  | K_inc of int (* guard reads [v < limit] *)
  | K_dec (* load remaining: full bursts only while >= 8 *)
  | K_phase of int * int (* per_pass, passes: retirement stream select *)

let[@inline] imin (a : int) b = if a <= b then a else b

(* Loops, not [Array.for_all]: its local recursive closure would
   allocate on every simulated cycle. *)
let all_nonempty (fs : fifo array) =
  let ok = ref true in
  for i = 0 to Array.length fs - 1 do
    if fs.(i).occ <= 0 then ok := false
  done;
  !ok

let all_have_space (fs : fifo array) =
  let ok = ref true in
  for i = 0 to Array.length fs - 1 do
    if fs.(i).occ >= fs.(i).cap then ok := false
  done;
  !ok

let run_event ?on_cycle (d : Design.t) =
  check_has_write d;
  let total = Design.total_padded d in
  let nstreams = List.length d.d_streams in
  let fifos = Hashtbl.create 32 in
  let fifo_arr = Array.make (max nstreams 1) { occ = 0; cap = 0 } in
  let stream_index = Hashtbl.create 32 in
  List.iteri
    (fun i (s : Design.stream) ->
      let f = { occ = 0; cap = s.st_depth } in
      Hashtbl.replace fifos s.st_id f;
      Hashtbl.replace stream_index s.st_id i;
      fifo_arr.(i) <- f)
    d.d_streams;
  let fifo id =
    match Hashtbl.find_opt fifos id with
    | Some f -> f
    | None -> Err.raise_error "cycle sim: unknown stream %d" id
  in
  let estages =
    List.map
      (fun stage ->
        let st =
          match stage with
          | Design.Load { out_streams; _ } ->
            E_load
              {
                outs = Array.of_list (List.map fifo out_streams);
                remaining = Array.make (List.length out_streams) total;
              }
          | Design.Shift { input; output; halo; extent; _ } ->
            let la = Design.shift_lookahead ~halo ~extent in
            E_shift
              {
                s_fin = fifo input;
                s_fout = fifo output;
                consumed = 0;
                produced = 0;
                lookahead = la;
                window = (2 * la) + 1;
                total;
              }
          | Design.Dup { input; outputs } ->
            E_dup
              {
                d_fin = fifo input;
                d_fouts = Array.of_list (List.map fifo outputs);
                moved = 0;
                total;
              }
          | Design.Compute c ->
            let latency = 8 + c.flops in
            let cap = ref 1 in
            while !cap < latency + 2 do
              cap := !cap * 2
            done;
            E_compute
              {
                c_fins = Array.of_list (List.map fifo c.in_streams);
                c_fouts = Array.of_list (List.map fifo c.out_streams);
                started = 0;
                retired = 0;
                ii = c.ii;
                latency;
                total = c.serial * total;
                per_pass = total;
                passes = List.length c.out_streams;
                q_buf = Array.make !cap 0;
                q_mask = !cap - 1;
                q_head = 0;
                q_len = 0;
                last_start = -1_000_000;
                bits_mask = (if latency <= 62 then (1 lsl latency) - 1 else 0);
                start_bits = 0;
              }
          | Design.Write { in_streams; _ } ->
            E_write
              {
                w_fins = Array.of_list (List.map fifo in_streams);
                w_retired = Array.make (List.length in_streams) 0;
                w_total = total;
              }
        in
        (stage, st))
      d.d_stages
    |> Array.of_list
  in
  (* The per-cycle helpers below are closure-free index loops: they run
     once per simulated cycle, and a closure over a stage record would
     allocate on every call. *)
  let complete () =
    let ok = ref true and k = ref 0 in
    while !ok && !k < Array.length estages do
      (match snd estages.(!k) with
      | E_write w ->
        for j = 0 to Array.length w.w_retired - 1 do
          if w.w_retired.(j) < w.w_total then ok := false
        done
      | _ -> ());
      incr k
    done;
    !ok
  in
  (* counter layout (stage order), mirrored by read/apply below *)
  let kinds =
    Array.to_list estages
    |> List.concat_map (fun (_, st) ->
           match st with
           | E_load l -> Array.to_list (Array.map (fun _ -> K_dec) l.remaining)
           | E_shift s -> [ K_inc s.total; K_inc s.total ]
           | E_dup du -> [ K_inc du.total ]
           | E_compute c -> [ K_inc c.total; K_phase (c.per_pass, c.passes) ]
           | E_write w ->
             Array.to_list (Array.map (fun _ -> K_inc w.w_total) w.w_retired))
    |> Array.of_list
  in
  let ncnt = Array.length kinds in
  let read_counters dst =
    let i = ref 0 in
    for k = 0 to Array.length estages - 1 do
      match snd estages.(k) with
      | E_load l ->
        for j = 0 to Array.length l.remaining - 1 do
          dst.(!i) <- l.remaining.(j);
          incr i
        done
      | E_shift s ->
        dst.(!i) <- s.consumed;
        dst.(!i + 1) <- s.produced;
        i := !i + 2
      | E_dup du ->
        dst.(!i) <- du.moved;
        incr i
      | E_compute c ->
        dst.(!i) <- c.started;
        dst.(!i + 1) <- c.retired;
        i := !i + 2
      | E_write w ->
        for j = 0 to Array.length w.w_retired - 1 do
          dst.(!i) <- w.w_retired.(j);
          incr i
        done
    done
  in
  (* affine layout: every FIFO occupancy (stream order), then each
     shift's held count (stage order).  A moving value keeps every guard
     that reads it fixed while it stays in [a_lo, a_hi] on one side of
     [a_piv]; a_piv = a_lo - 1 leaves the whole range one regime. *)
  let nshifts =
    Array.fold_left
      (fun acc (_, st) -> match st with E_shift _ -> acc + 1 | _ -> acc)
      0 estages
  in
  let naff = nstreams + nshifts in
  let a_lo = Array.make naff 0 in
  let a_hi = Array.make naff 0 in
  let a_piv = Array.make naff 0 in
  (* occupancy: [takes, cap - puts], counting every consumer's token and
     every producer's push (a load's burst of 8) one cycle can move *)
  Array.iteri (fun i f -> a_hi.(i) <- f.cap) fifo_arr;
  List.iter
    (fun stage ->
      let bump arr n sid =
        let i = Hashtbl.find stream_index sid in
        arr.(i) <- arr.(i) + n
      in
      List.iter (bump a_lo 1) (Design.inputs_of_stage stage);
      let burst = match stage with Design.Load _ -> 8 | _ -> 1 in
      List.iter (bump a_hi (-burst)) (Design.outputs_of_stage stage))
    d.d_stages;
  for i = 0 to nstreams - 1 do
    a_piv.(i) <- a_lo.(i) - 1
  done;
  (let j = ref nstreams in
   Array.iter
     (fun (_, st) ->
       match st with
       | E_shift s ->
         a_lo.(!j) <- 0;
         a_hi.(!j) <- s.window - 1;
         a_piv.(!j) <- s.lookahead;
         incr j
       | _ -> ())
     estages);
  let read_affine dst =
    for i = 0 to nstreams - 1 do
      dst.(i) <- fifo_arr.(i).occ
    done;
    let j = ref nstreams in
    for k = 0 to Array.length estages - 1 do
      match snd estages.(k) with
      | E_shift s ->
        dst.(!j) <- s.consumed - s.produced;
        incr j
      | _ -> ()
    done
  in
  let cycle = ref 0 in
  let progressed = ref true in
  let mutated = ref false in
  let stalled = ref None in
  let fast_forwarded = ref 0 in
  let ss_period = ref None in
  let budget = max_cycles_factor * (total + 1000) in
  let occ_list () =
    Hashtbl.fold (fun id f acc -> (id, f.occ) :: acc) fifos []
  in
  (* one mutating cycle, bit-equal to the Tick loop body *)
  let fire () =
    let now = !cycle in
    for k = 0 to Array.length estages - 1 do
      match snd estages.(k) with
      | E_load l ->
        for i = 0 to Array.length l.outs - 1 do
          let f = l.outs.(i) in
          let burst = imin 8 (imin l.remaining.(i) (f.cap - f.occ)) in
          if burst > 0 then begin
            f.occ <- f.occ + burst;
            l.remaining.(i) <- l.remaining.(i) - burst;
            progressed := true;
            mutated := true
          end
        done
      | E_shift s ->
        if
          s.consumed < s.total && s.s_fin.occ > 0
          && s.consumed - s.produced < s.window
        then begin
          s.s_fin.occ <- s.s_fin.occ - 1;
          s.consumed <- s.consumed + 1;
          progressed := true;
          mutated := true
        end;
        if
          s.produced < s.total
          && (s.consumed >= s.produced + s.lookahead + 1
             || s.consumed = s.total)
          && s.s_fout.occ < s.s_fout.cap
        then begin
          s.s_fout.occ <- s.s_fout.occ + 1;
          s.produced <- s.produced + 1;
          progressed := true;
          mutated := true
        end
      | E_dup du ->
        if du.moved < du.total && du.d_fin.occ > 0 && all_have_space du.d_fouts
        then begin
          du.d_fin.occ <- du.d_fin.occ - 1;
          for i = 0 to Array.length du.d_fouts - 1 do
            let f = du.d_fouts.(i) in
            f.occ <- f.occ + 1
          done;
          du.moved <- du.moved + 1;
          progressed := true;
          mutated := true
        end
      | E_compute c ->
        if
          c.started < c.total
          && now - c.last_start >= c.ii
          && all_nonempty c.c_fins
        then begin
          for i = 0 to Array.length c.c_fins - 1 do
            let f = c.c_fins.(i) in
            f.occ <- f.occ - 1
          done;
          c.started <- c.started + 1;
          c.last_start <- now;
          if c.q_len = Array.length c.q_buf then begin
            let n = Array.length c.q_buf in
            let buf = Array.make (2 * n) 0 in
            for j = 0 to n - 1 do
              buf.(j) <- c.q_buf.((c.q_head + j) land c.q_mask)
            done;
            c.q_buf <- buf;
            c.q_mask <- (2 * n) - 1;
            c.q_head <- 0
          end;
          c.q_buf.((c.q_head + c.q_len) land c.q_mask) <- now + c.latency;
          c.q_len <- c.q_len + 1;
          progressed := true;
          mutated := true
        end;
        if c.q_len > 0 then begin
          let ready = c.q_buf.(c.q_head) in
          if ready <= now then begin
            let phase = imin (c.retired / c.per_pass) (c.passes - 1) in
            let fout = c.c_fouts.(phase) in
            if fout.occ < fout.cap then begin
              fout.occ <- fout.occ + 1;
              c.retired <- c.retired + 1;
              c.q_head <- (c.q_head + 1) land c.q_mask;
              c.q_len <- c.q_len - 1;
              progressed := true;
              mutated := true
            end
          end
          else progressed := true
        end;
        c.start_bits <-
          ((c.start_bits lsl 1)
          lor (if c.last_start = now then 1 else 0))
          land c.bits_mask
      | E_write w ->
        for i = 0 to Array.length w.w_fins - 1 do
          let f = w.w_fins.(i) in
          if w.w_retired.(i) < w.w_total && f.occ > 0 then begin
            f.occ <- f.occ - 1;
            w.w_retired.(i) <- w.w_retired.(i) + 1;
            progressed := true;
            mutated := true
          end
        done
    done
  in
  (* signature of the exact part of the state, written into a reused
     scratch buffer with a full accumulated hash — no allocation per
     cycle, and hash inequality is decisive enough that deep compares
     only happen on genuine period candidates *)
  let max_sig =
    Array.fold_left
      (fun acc (_, st) ->
        match st with
        | E_compute c -> acc + 3 + c.latency
        | _ -> acc)
      0 estages
  in
  let scratch = Array.make (max max_sig 16) 0 in
  let slen = ref 0 in
  let shash = ref 0 in
  (* closure-free: this runs once per mutating cycle on the hot path *)
  let sig_of c =
    let i = ref 0 in
    let h = ref 0 in
    for k = 0 to Array.length estages - 1 do
      match snd estages.(k) with
      | E_compute cc ->
        let phase = min (cc.retired / cc.per_pass) (cc.passes - 1) in
        let dist = min (c - cc.last_start) cc.ii in
        scratch.(!i) <- phase;
        scratch.(!i + 1) <- dist;
        scratch.(!i + 2) <- cc.q_len;
        i := !i + 3;
        h := (((((!h * 31) + phase) * 31) + dist) * 31) + cc.q_len;
        if cc.bits_mask <> 0 then begin
          scratch.(!i) <- cc.start_bits;
          incr i;
          h := (!h * 31) + cc.start_bits
        end
        else
          (* ready times ascend: the ready results (offset clamped to 0)
             come first and q_len counts them; at most [latency] remain *)
          for j = 0 to cc.q_len - 1 do
            let v = cc.q_buf.((cc.q_head + j) land cc.q_mask) - c in
            if v > 0 then begin
              scratch.(!i) <- v;
              incr i;
              h := (!h * 31) + v
            end
          done
      | _ -> ()
    done;
    slen := !i;
    shash := !h
  in
  (* history ring of (time, signature, hash, counters, affine values)
     for the last p_max+1 mutating cycles *)
  let p_max = 8 in
  let hcap = p_max + 1 in
  let h_time = Array.make hcap (-1) in
  let h_sig = Array.init hcap (fun _ -> Array.make (Array.length scratch) 0) in
  let h_siglen = Array.make hcap 0 in
  let h_hash = Array.make hcap 0 in
  let h_cnt = Array.init hcap (fun _ -> Array.make ncnt 0) in
  let h_aff = Array.init hcap (fun _ -> Array.make naff 0) in
  let hlen = ref 0 in
  let record_history c =
    let slot = c mod hcap in
    sig_of c;
    h_time.(slot) <- c;
    Array.blit scratch 0 h_sig.(slot) 0 !slen;
    h_siglen.(slot) <- !slen;
    h_hash.(slot) <- !shash;
    read_counters h_cnt.(slot);
    read_affine h_aff.(slot);
    if !hlen < hcap then incr hlen
  in
  let sig_equal a b =
    h_time.(a) >= 0 && h_hash.(a) = h_hash.(b) && h_siglen.(a) = h_siglen.(b)
    &&
    let sa = h_sig.(a) and sb = h_sig.(b) in
    let n = h_siglen.(a) in
    let i = ref 0 in
    while !i < n && sa.(!i) = sb.(!i) do
      incr i
    done;
    !i = n
  in
  (* per-period deltas of the candidate period, reused across calls *)
  let d_cnt = Array.make ncnt 0 in
  let d_aff = Array.make naff 0 in
  (* how many whole periods the counter thresholds allow *)
  let bound_periods cnts =
    let n = ref max_int in
    for i = 0 to ncnt - 1 do
      let dv = d_cnt.(i) and v = cnts.(i) in
      if dv <> 0 then begin
        let b =
          match kinds.(i) with
          | K_inc limit -> if dv > 0 then (limit - 1 - v) / dv else 0
          | K_dec -> if dv < 0 then (v - 8) / -dv else 0
          | K_phase (per_pass, passes) ->
            if dv <= 0 then 0
            else if v / per_pass >= passes - 1 then max_int
            else ((v / per_pass + 1) * per_pass - 1 - v) / dv
        in
        if b < !n then n := b
      end
    done;
    !n
  in
  (* how many whole periods keep every moving affine value inside the
     guard regime it has at the starts of the period's cycles — the
     samples at c-p..c-1 *)
  let bound_regimes c p =
    let n = ref max_int in
    for i = 0 to naff - 1 do
      let dv = d_aff.(i) in
      if dv <> 0 && !n > 0 then begin
        let mn = ref max_int and mx = ref min_int in
        for t = c - p to c - 1 do
          let v = h_aff.(t mod hcap).(i) in
          if v < !mn then mn := v;
          if v > !mx then mx := v
        done;
        let piv = a_piv.(i) in
        let b =
          if !mn < a_lo.(i) || !mx > a_hi.(i) || (!mn <= piv && !mx >= piv)
          then 0
          else
            let lo = if !mx < piv then a_lo.(i) else piv + 1 in
            let hi = if !mx < piv then piv - 1 else a_hi.(i) in
            if dv > 0 then (hi - !mx) / dv else (!mn - lo) / -dv
        in
        if b < !n then n := b
      end
    done;
    !n
  in
  (* detect a period ending at cycle c (= !cycle - 1) and apply as many
     whole periods as the thresholds and budget allow *)
  let try_skip c =
    let cur = c mod hcap in
    let period = ref 1 in
    let applied = ref false in
    while (not !applied) && !period <= min p_max (!hlen - 1) do
      let p = !period in
      let prev = (c - p) mod hcap in
      if h_time.(prev) = c - p && sig_equal cur prev then begin
        let moving = ref false in
        for i = 0 to ncnt - 1 do
          d_cnt.(i) <- h_cnt.(cur).(i) - h_cnt.(prev).(i);
          if d_cnt.(i) <> 0 then moving := true
        done;
        let exact = ref true in
        for i = 0 to naff - 1 do
          d_aff.(i) <- h_aff.(cur).(i) - h_aff.(prev).(i);
          if d_aff.(i) <> 0 then exact := false
        done;
        if !moving then begin
          if !exact && !ss_period = None then begin
            (* write retirements per detected period, for the model's
               fill/steady cross-check *)
            let wd = ref 0 and i = ref 0 in
            for k = 0 to Array.length estages - 1 do
              match snd estages.(k) with
              | E_load l -> i := !i + Array.length l.remaining
              | E_shift _ -> i := !i + 2
              | E_dup _ -> incr i
              | E_compute _ -> i := !i + 2
              | E_write w ->
                for _ = 1 to Array.length w.w_retired do
                  wd := !wd + d_cnt.(!i);
                  incr i
                done
            done;
            ss_period := Some (p, !wd)
          end;
          let n =
            min
              (min (bound_periods h_cnt.(cur)) (bound_regimes c p))
              ((budget - !cycle) / p)
          in
          if n >= 1 then begin
            (* cycle c+1+m ends in the state of c-p+1+(m mod p), moved
               by (m/p + 1) deltas *)
            (match on_cycle with
            | Some f ->
              for m = 0 to (n * p) - 1 do
                let slot = (c - p + 1 + (m mod p)) mod hcap in
                let k = (m / p) + 1 in
                Array.iteri
                  (fun i fx -> fx.occ <- h_aff.(slot).(i) + (k * d_aff.(i)))
                  fifo_arr;
                f (!cycle + m) (occ_list ())
              done
            | None -> ());
            for i = 0 to nstreams - 1 do
              fifo_arr.(i).occ <- h_aff.(cur).(i) + (n * d_aff.(i))
            done;
            (* advance counters by n periods *)
            let i = ref 0 in
            for k = 0 to Array.length estages - 1 do
              match snd estages.(k) with
              | E_load l ->
                for j = 0 to Array.length l.remaining - 1 do
                  l.remaining.(j) <- l.remaining.(j) + (n * d_cnt.(!i));
                  incr i
                done
              | E_shift s ->
                s.consumed <- s.consumed + (n * d_cnt.(!i));
                s.produced <- s.produced + (n * d_cnt.(!i + 1));
                i := !i + 2
              | E_dup du ->
                du.moved <- du.moved + (n * d_cnt.(!i));
                incr i
              | E_compute cc ->
                let d_started = d_cnt.(!i) in
                cc.started <- cc.started + (n * d_started);
                cc.retired <- cc.retired + (n * d_cnt.(!i + 1));
                i := !i + 2;
                let shift = n * p in
                if d_started > 0 then cc.last_start <- cc.last_start + shift;
                for j = 0 to cc.q_len - 1 do
                  let slot = (cc.q_head + j) land cc.q_mask in
                  cc.q_buf.(slot) <- cc.q_buf.(slot) + shift
                done
              | E_write w ->
                for j = 0 to Array.length w.w_retired - 1 do
                  w.w_retired.(j) <- w.w_retired.(j) + (n * d_cnt.(!i));
                  incr i
                done
            done;
            let skipped = n * p in
            cycle := !cycle + skipped;
            fast_forwarded := !fast_forwarded + skipped;
            hlen := 0;
            applied := true
          end
        end
      end;
      incr period
    done
  in
  (* a cycle that mutated nothing can only be unblocked by time: jump to
     the earliest in-flight ready or II-distance expiry *)
  let idle_jump c =
    let e = ref max_int in
    for k = 0 to Array.length estages - 1 do
      match snd estages.(k) with
      | E_compute cc ->
        if cc.q_len > 0 then begin
          let r = cc.q_buf.(cc.q_head) in
          if r > c && r < !e then e := r
        end;
        if
          cc.started < cc.total
          && cc.last_start + cc.ii > c
          && all_nonempty cc.c_fins
        then begin
          let t = cc.last_start + cc.ii in
          if t < !e then e := t
        end
      | _ -> ()
    done;
    if !e < max_int then begin
      let target = min !e budget in
      if target > !cycle then begin
        (match on_cycle with
        | Some f ->
          let occs = occ_list () in
          for j = !cycle to target - 1 do
            f j occs
          done
        | None -> ());
        let jumped = target - !cycle in
        Array.iter
          (fun (_, st) ->
            match st with
            | E_compute cc ->
              cc.start_bits <-
                (if jumped > 62 then 0
                 else (cc.start_bits lsl jumped) land cc.bits_mask)
            | _ -> ())
          estages;
        fast_forwarded := !fast_forwarded + jumped;
        cycle := target
      end
    end;
    hlen := 0
  in
  while (not (complete ())) && !progressed && !cycle < budget do
    progressed := false;
    mutated := false;
    fire ();
    (match on_cycle with
    | Some f -> f !cycle (occ_list ())
    | None -> ());
    incr cycle;
    if !progressed then
      if !mutated then begin
        record_history (!cycle - 1);
        if !hlen >= 2 then try_skip (!cycle - 1)
      end
      else idle_jump (!cycle - 1)
  done;
  let deadlocked = not (complete ()) in
  if deadlocked then
    stalled :=
      Array.to_list estages
      |> List.find_map (fun (stage, st) ->
             let blocked =
               match st with
               | E_load l -> Array.exists (fun r -> r > 0) l.remaining
               | E_shift s -> s.produced < s.total
               | E_dup du -> du.moved < du.total
               | E_compute c -> c.retired < c.total
               | E_write w -> Array.exists (fun r -> r < w.w_total) w.w_retired
             in
             if blocked then Some (Design.stage_name stage) else None);
  let progress =
    Array.to_list estages
    |> List.map (fun (stage, st) ->
           let done_, target =
             match st with
             | E_load l ->
               ( Array.fold_left (fun a r -> a + (total - r)) 0 l.remaining,
                 total * Array.length l.remaining )
             | E_shift s -> (s.produced, s.total)
             | E_dup du -> (du.moved, du.total)
             | E_compute c -> (c.retired, c.total)
             | E_write w ->
               ( Array.fold_left ( + ) 0 w.w_retired,
                 total * Array.length w.w_retired )
           in
           (Design.stage_name stage, done_, target))
  in
  let fifo_occupancy =
    Hashtbl.fold (fun id f acc -> (id, f.occ, f.cap) :: acc) fifos []
    |> List.sort compare
  in
  { cycles = !cycle; deadlocked; stalled_stage = !stalled; progress;
    fifo_occupancy; engine = Event; cycles_simulated = !cycle - !fast_forwarded;
    cycles_fast_forwarded = !fast_forwarded; ss_period = !ss_period }

let run ?(engine = Event) ?on_cycle (d : Design.t) =
  match engine with
  | Tick -> run_tick ?on_cycle d
  | Event -> run_event ?on_cycle d

(* ------------------------------------------------------------------ *)
(* Multi-device runs: one design per slab device, joined by an
   inter-device link (DESIGN.md section 16).  Each device runs its own
   (independent) cycle simulation; every sweep is preceded by a halo
   delivery over the link, whose charged cycles come from the link
   model (latency never hidden, serialisation overlapped with the
   design's fill ramp — computed here from the stream delays, the same
   quantity {!Depth_balance.design_fill} reports).  The makespan is the
   slowest device's total: compute and exchange of different devices
   overlap freely, neighbours' exchanges are concurrent on distinct
   links. *)

type device_lane = {
  dl_result : result;
  dl_exchange_bytes : int;  (** received per exchange phase *)
  dl_exchange_cycles : float;  (** link transfer per phase (unhidden) *)
  dl_exchange_charged : float;  (** per phase, after fill overlap *)
  dl_total : float;  (** sweeps x (compute + charged exchange) *)
}

type multi_result = {
  mr_link : Link.t;
  mr_sweeps : int;
  mr_lanes : device_lane list;
  mr_cycles : float;  (** makespan: the slowest lane's total *)
  mr_exchange_charged : float;  (** makespan lane, per phase *)
  mr_exchange_hidden : float;  (** makespan lane: transfer - charged *)
  mr_deadlocked : bool;
}

let run_multi ?(engine = Event) ?(sweeps = 1) ~link
    (devices : (Design.t * int) list) =
  if devices = [] then Err.raise_error "cycle_sim: run_multi needs a device";
  if sweeps < 1 then Err.raise_error "cycle_sim: run_multi needs sweeps >= 1";
  let lanes =
    List.map
      (fun (d, bytes) ->
        let r = run ~engine d in
        let fill = Depth_balance.design_fill d in
        let transfer =
          if bytes <= 0 then 0.0 else Link.transfer_cycles link ~bytes
        in
        let charged = Link.charged_cycles link ~bytes ~fill in
        {
          dl_result = r;
          dl_exchange_bytes = bytes;
          dl_exchange_cycles = transfer;
          dl_exchange_charged = charged;
          dl_total =
            float_of_int sweeps *. (float_of_int r.cycles +. charged);
        })
      devices
  in
  let slowest =
    List.fold_left
      (fun acc l -> if l.dl_total > acc.dl_total then l else acc)
      (List.hd lanes) lanes
  in
  {
    mr_link = link;
    mr_sweeps = sweeps;
    mr_lanes = lanes;
    mr_cycles = slowest.dl_total;
    mr_exchange_charged = slowest.dl_exchange_charged;
    mr_exchange_hidden =
      slowest.dl_exchange_cycles -. slowest.dl_exchange_charged;
    mr_deadlocked = List.exists (fun l -> l.dl_result.deadlocked) lanes;
  }
