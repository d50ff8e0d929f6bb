(* Layer spans recorded from the benchmark's own files, around its calls
   into the libraries' public functions.

   Spans are leaves: a span never encloses another, so the durations of
   every span recorded in a pass add up to the wall that the listed
   layers account for.  Durations and counts accumulate per metric name
   in memory and are read out once the pass has ended.  With tracing off
   [time] is a plain call and nothing is recorded. *)

let enabled = ref false
let totals : (string, float) Hashtbl.t = Hashtbl.create 64

let now = Unix.gettimeofday

let add name v =
  Hashtbl.replace totals name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt totals name))

let count name n = if !enabled then add name (float_of_int n)

(* [time name f]: [f ()], with its wall time added to [name] (a metric
   name in seconds) when tracing is on. *)
let time name f =
  if not !enabled then f ()
  else
    let t0 = now () in
    Fun.protect ~finally:(fun () -> add name (now () -. t0)) f

let get name = Option.value ~default:0.0 (Hashtbl.find_opt totals name)

(* Sum of every duration metric recorded so far (names ending in "_s"). *)
let attributed () =
  Hashtbl.fold
    (fun name v acc ->
      if String.ends_with ~suffix:"_s" name then acc +. v else acc)
    totals 0.0
