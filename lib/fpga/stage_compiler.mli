(** Compiled functional simulation.

    [compile] is a one-time pre-pass over an extracted design that
    resolves every SSA value in the compute-stage IR to a dense slot in
    an unboxed register array and emits a specialized step closure per
    op, batching loops into blocks where it can. [run] then executes the
    design with no hashtable lookups or token boxing in the element
    loops.

    Execution streams: the loads push one fixed-size chunk per sweep
    and every later stage, in topological order, advances as far as its
    input streams allow, keeping its cursor in the run state. Stream
    buffers are growable and keep only what some reader still needs, so
    they hold about a chunk plus each stream's lag (a shift buffer's
    lookahead, for instance), not whole streams.

    The compiled artefact is split in two:

    - {!t}, the {e plan}, is immutable once [compile] returns (slot
      layout, step closures over slot indices, constant pools, stream
      descriptors). One plan is safe to share across any number of
      domains: parallel sweeps share the memoised plan instead of
      compiling a private one per job.
    - {!Run_state.t} holds every mutable word a run touches: register
      files seeded from the plan's constant pools, stream buffers, stage
      cursors, neighbourhood scratch. States are cheap to allocate,
      reusable across runs, but must never be shared between two
      domains.

    The interpreter in {!Functional} remains the reference oracle: the
    compiled simulator produces bit-identical outputs and raises the
    same {!Err.Error}s (message and location) on mis-wired designs. *)

type t
(** An immutable compiled plan for one design. Freely shareable across
    domains; all mutation lives in {!Run_state.t}. *)

module Run_state : sig
  type t
  (** Mutable per-run execution state for one plan: register files, ring
      buffers, scratch arrays. *)
end

(** Compile a design into an immutable plan. Compute-stage loops whose
    bodies are independent per element (no nested loops, no stores, at
    most one read/write per stream) run in blocks over dense unboxed
    columns — constants and loop-invariant operands read once per
    block, stream reads/writes blitted in bulk, neighbourhood lanes read
    from the input buffer with a stride instead of materialising, and
    the shift/write stages split into a branch-free interior plus
    per-point halo edges. Loops outside that subset (e.g. BRAM
    small-copy loops) run per element, so the engine is always
    complete. Bit-exact against the interpreter, including starved-read
    errors ({!Loc} and firing order: a stage's error surfaces only once
    every earlier stage has finished, and a starved block replays per
    element once its inputs are closed), NaN out-of-range shifts and
    undrained-stream reports. A write stage never overwrites an array
    before the stages ahead of it have read it. Raises {!Err.Error} on
    unsupported ops (same message the interpreter would raise) and on
    stream wiring extraction never emits: a stream with two producers
    or two consumers, or read before it is written. *)
val compile : Design.t -> t

(** Same as {!compile}; perfbench builds plans through this name. *)
val compile_batched : Design.t -> t

(** A fresh run state for this plan: registers seeded from the plan's
    constant pools, empty rings. O(slot count) allocation. *)
val create_state : t -> Run_state.t

(** Execute the plan in the given state; same argument convention as
    {!Functional.run}. Output fields are written in place. The state
    must have been created by {!create_state} on this same plan. *)
val run_with : t -> Run_state.t -> args:Functional.value array -> unit

(** [run_with] on this domain's cached state for the plan: each domain
    lazily creates one state per plan (keyed by plan identity in
    domain-local storage) and reuses it for every subsequent [run] on
    that domain. Safe to call concurrently from several domains on one
    shared plan. *)
val run : t -> args:Functional.value array -> unit

val design : t -> Design.t

(** Plan shape, for reports and perf tests. *)
type stats = {
  cs_fregs : int;  (** float slots *)
  cs_iregs : int;  (** int/bool slots *)
  cs_pregs : int;  (** pointer/memref slots *)
  cs_vregs : int;  (** neighbourhood (vector-token) slots *)
  cs_steps : int;  (** compiled step closures across compute stages *)
  cs_folded : int;  (** constants folded into the pools at compile time *)
  cs_batched : int;  (** compute loops compiled to batched blocks *)
}

val stats : t -> stats

(** Process-wide count of [compile] calls — lets perf tests assert the
    compile-once memoization in {!Shmls} actually memoizes (e.g. zero
    plan recompiles during a repeated parallel sweep). *)
val compile_count : unit -> int

val reset_compile_count : unit -> unit

(** Process-wide count of {!create_state} calls — bounds the per-domain
    state cache (at most one cached state per domain per plan). *)
val state_count : unit -> int

val reset_state_count : unit -> unit

(** Floats allocated across a run state's stream buffers — what it
    retains between runs; perf tests bound it. *)
val ring_capacity : Run_state.t -> int
