(* A small JSON reader into {!Pstm_obs.Json.t}, for BENCHMARK.json and the
   result files [perf.exe compare] reads back. Strings keep their bytes;
   \u escapes outside ASCII are not needed by either file and are
   rejected. *)

module J = Pstm_obs.Json

exception Error of string

let parse (s : string) : J.t =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      skip ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char buf c
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          if code > 0x7f then fail "non-ASCII \\u escape";
          Buffer.add_char buf (Char.chr code);
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | '\000' when !pos >= n -> fail "unterminated string"
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    while
      match peek () with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> J.Int i
    | None -> (
      match float_of_string_opt text with Some f -> J.Float f | None -> fail "bad number")
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then (incr pos; J.Obj [])
      else
        let rec fields acc =
          skip ();
          let k = string () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; J.Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then (incr pos; J.List [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; J.List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> J.Str (string ())
    | 't' -> literal "true" (J.Bool true)
    | 'f' -> literal "false" (J.Bool false)
    | 'n' -> literal "null" J.Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let file path = parse (In_channel.with_open_bin path In_channel.input_all)

(* --- Accessors ----------------------------------------------------------- *)

let member key = function
  | J.Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> raise (Error ("missing key " ^ key)))
  | _ -> raise (Error ("not an object, looking for " ^ key))

let to_list = function J.List l -> l | _ -> raise (Error "not a list")
let to_string = function J.Str s -> s | _ -> raise (Error "not a string")

let to_float = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> raise (Error "not a number")
