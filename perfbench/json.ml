(* A small JSON reader, enough for BENCHMARK.json: objects, arrays,
   strings (no \u escapes beyond ASCII), numbers, booleans and null. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "JSON: %s at byte %d" what !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
      incr pos;
      skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        let c = if !pos + 1 < n then s.[!pos + 1] else fail "bad escape" in
        Buffer.add_char b
          (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c);
        pos := !pos + 2;
        go ()
      | '\000' -> fail "unterminated string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then (
        incr pos;
        Obj [])
      else
        let rec members acc =
          let k = string () in
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then (
        incr pos;
        Arr [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n && String.contains "+-0123456789.eE" s.[!pos]
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some f -> Num f
       | None -> fail "bad value")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function
  | Obj kvs -> (
    match List.assoc_opt k kvs with Some v -> v | None -> failwith ("JSON: no key " ^ k))
  | _ -> failwith ("JSON: not an object looking up " ^ k)

let to_list = function Arr l -> l | _ -> failwith "JSON: not an array"
let to_string = function Str s -> s | _ -> failwith "JSON: not a string"
