(* The little JSON the harness needs: its own result files, the one-line
   run summary, and the bounds in BENCHMARK.json. No library in the
   toolchain provides it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Integral values print as integers; everything else with all 17
   significant digits, so a measured time is never rounded into a
   constant. Non-finite values have no JSON spelling. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (number f)
  | Str s -> add_quoted b s
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          add b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          add_quoted b k;
          Buffer.add_string b ": ";
          add b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (
      incr pos;
      ws ())
  in
  let expect c =
    ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* Only the ASCII range ever appears in the harness's files. *)
              Buffer.add_char b (if code < 128 then Char.chr code else '?')
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = '}' then (
          incr pos;
          Obj [])
        else
          let rec members acc =
            let k = str () in
            expect ':';
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then (
              incr pos;
              members ((k, v) :: acc))
            else (
              expect '}';
              Obj (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = ']' then (
          incr pos;
          Arr [])
        else
          let rec elems acc =
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then (
              incr pos;
              elems (v :: acc))
            else (
              expect ']';
              Arr (List.rev (v :: acc)))
          in
          elems []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_list = function Arr l -> l | _ -> []
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
