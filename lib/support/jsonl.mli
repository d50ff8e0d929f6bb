(** Minimal flat-JSON codec for the JSON Lines files the drivers emit
    (sweep rows, tune search state).

    This is not a general JSON parser: it round-trips exactly the
    object shape {!obj} produces — one object per line,
    string/number/bool scalars and arrays of integers, no nesting.
    Lookups scan for the literal ["name":] key pattern, which is
    unambiguous because emitted string values escape the quote
    character. *)

type field =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Ints of int list

(** One flat JSON object (no trailing newline), keys in list order. *)
val obj : (string * field) list -> string

(** JSON string-escape (quotes, backslashes, control characters). *)
val escape : string -> string

(** Round-trippable float literal: integral values keep [".0"]. *)
val float_repr : float -> string

val find_string : string -> string -> string option
val find_float : string -> string -> float option
val find_int : string -> string -> int option
val find_bool : string -> string -> bool option
val find_ints : string -> string -> int list option

(** Is [line] one whole JSON object — a leading [{] whose matching [}]
    ends the line, brackets balanced outside strings?  A row cut short
    by an interrupted write is not. *)
val complete_object : string -> bool

(** The rows of a JSON Lines file that sweep or tune resumes, parsed, in file
    order; [[]] if the file does not exist.  A row counts when it is a
    {!complete_object} and [parse] accepts it.  A last row that fails is
    a write cut short: it is reported on standard output ("dropping the
    torn last row (line N); it is [again]"), cut from the file and left
    out, so its work is done again.  Any other failing row raises
    {!Err.Error} [malformed], located at [path:LINE:1].  A whole last
    row that lost only its newline gets it back, so appended rows start
    on a line of their own. *)
val resume_rows :
  again:string -> malformed:string -> parse:(string -> 'a option) -> string ->
  'a list
