(* Minimal flat-JSON codec for the JSON Lines files the drivers emit
   (sweep rows, tune search state).  The repo carries no JSON library;
   this is NOT a general parser — it reads back exactly the object shape
   the emitters below produce: one object per line, string/number/bool
   scalars and arrays of integers, no nesting, no escaped quotes inside
   keys.  Field lookup scans for the literal ["name":] key pattern,
   which is unambiguous because emitted string VALUES escape the quote
   character, so a key pattern can never occur inside one. *)

let buf_add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  buf_add_escaped buf s;
  Buffer.contents buf

(* Floats print round-trippably; integral values keep a trailing ".0"
   so the field parses back as a float unambiguously. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

type field =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Ints of int list

let obj fields =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      buf_add_escaped buf k;
      Buffer.add_string buf "\":";
      match v with
      | Str s ->
        Buffer.add_char buf '"';
        buf_add_escaped buf s;
        Buffer.add_char buf '"'
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Float f -> Buffer.add_string buf (float_repr f)
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Ints ns ->
        Buffer.add_char buf '[';
        List.iteri
          (fun j n ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (string_of_int n))
          ns;
        Buffer.add_char buf ']')
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Field extraction *)

(* Position just after ["name":] in [line], if the key is present. *)
let after_key line name =
  let pat = Printf.sprintf "\"%s\":" name in
  let pl = String.length pat and ll = String.length line in
  let rec go i =
    if i + pl > ll then None
    else if String.sub line i pl = pat then Some (i + pl)
    else go (i + 1)
  in
  go 0

let find_string line name =
  match after_key line name with
  | None -> None
  | Some i ->
    let ll = String.length line in
    if i >= ll || line.[i] <> '"' then None
    else begin
      let buf = Buffer.create 16 in
      let rec go j =
        if j >= ll then None
        else
          match line.[j] with
          | '"' -> Some (Buffer.contents buf)
          | '\\' when j + 1 < ll ->
            (match line.[j + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'u' when j + 5 < ll ->
              (match int_of_string_opt ("0x" ^ String.sub line (j + 2) 4) with
              | Some c when c < 0x80 -> Buffer.add_char buf (Char.chr c)
              | _ -> Buffer.add_string buf (String.sub line j 6))
            | c -> Buffer.add_char buf c);
            go (j + if line.[j + 1] = 'u' && j + 5 < ll then 6 else 2)
          | c ->
            Buffer.add_char buf c;
            go (j + 1)
      in
      go (i + 1)
    end

let scalar_end line i =
  let ll = String.length line in
  let rec go j =
    if j >= ll then j
    else match line.[j] with ',' | '}' | ']' | ' ' -> j | _ -> go (j + 1)
  in
  go i

let find_float line name =
  match after_key line name with
  | None -> None
  | Some i -> float_of_string_opt (String.sub line i (scalar_end line i - i))

let find_int line name =
  match after_key line name with
  | None -> None
  | Some i -> int_of_string_opt (String.sub line i (scalar_end line i - i))

let find_bool line name =
  match after_key line name with
  | None -> None
  | Some i ->
    let s = String.sub line i (scalar_end line i - i) in
    (match s with "true" -> Some true | "false" -> Some false | _ -> None)

let find_ints line name =
  match after_key line name with
  | None -> None
  | Some i ->
    let ll = String.length line in
    if i >= ll || line.[i] <> '[' then None
    else
      let close =
        let rec go j =
          if j >= ll then None
          else if line.[j] = ']' then Some j
          else go (j + 1)
        in
        go (i + 1)
      in
      (match close with
      | None -> None
      | Some j ->
        let body = String.sub line (i + 1) (j - i - 1) in
        if String.trim body = "" then Some []
        else
          let parts = String.split_on_char ',' body in
          let ints = List.filter_map (fun p -> int_of_string_opt (String.trim p)) parts in
          if List.length ints = List.length parts then Some ints else None)

let complete_object line =
  let n = String.length line in
  let rec go i depth in_str =
    if i >= n then false
    else
      let c = line.[i] in
      if in_str then
        if c = '\\' then go (i + 2) depth true
        else go (i + 1) depth (c <> '"')
      else
        match c with
        | '"' -> go (i + 1) depth true
        | '{' | '[' -> go (i + 1) (depth + 1) false
        | '}' | ']' ->
          if depth = 1 then i = n - 1 && c = '}' else go (i + 1) (depth - 1) false
        | _ -> go (i + 1) depth false
  in
  n > 0 && line.[0] = '{' && go 0 0 false

(* ------------------------------------------------------------------ *)
(* Resuming a file *)

let resume_rows ~again ~malformed ~parse path =
  if not (Sys.file_exists path) then []
  else begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    let len = String.length text in
    (* non-blank rows: (line number, start offset, text) *)
    let rec rows lno off acc =
      if off >= len then List.rev acc
      else
        let stop =
          Option.value ~default:len (String.index_from_opt text off '\n')
        in
        let l = String.sub text off (stop - off) in
        let acc = if String.trim l = "" then acc else (lno, off, l) :: acc in
        rows (lno + 1) (stop + 1) acc
    in
    let rows = rows 1 0 [] in
    let last = List.length rows - 1 in
    let parsed =
      List.mapi
        (fun i (lno, off, l) ->
          match if complete_object l then parse l else None with
          | Some r -> Some r
          | None when i = last ->
            Printf.printf
              "resuming %s: dropping the torn last row (line %d); it is %s\n%!"
              path lno again;
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (String.sub text 0 off));
            None
          | None ->
            Err.raise_error ~loc:(Loc.file ~file:path ~line:lno ~col:1) "%s"
              malformed)
        rows
    in
    if len > 0 && text.[len - 1] <> '\n' && List.nth parsed last <> None then
      Out_channel.with_open_gen [ Open_wronly; Open_append ] 0o644 path
        (fun oc -> output_char oc '\n');
    List.filter_map Fun.id parsed
  end
