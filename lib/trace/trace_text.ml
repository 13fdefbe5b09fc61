open Crd_base

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

(* Names (objects, locks, globals, fields) print bare when they lex as
   identifiers and quoted otherwise, so arbitrary runtime names (e.g.
   "dictionary:chunks" or "customers.hwm#3") round-trip. *)
let ident_name s =
  s <> ""
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
     | _ -> false)
  &&
  String.for_all
    (function
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '-' -> true
      | _ -> false)
    s

let pp_name ppf s =
  if ident_name s then Fmt.string ppf s else Fmt.pf ppf "%S" s

let pp_loc ppf = function
  | Mem_loc.Global g -> Fmt.pf ppf "global:%a" pp_name g
  | Mem_loc.Field (o, f) ->
      Fmt.pf ppf "field:%a.%a" pp_name (Obj_id.name o) pp_name f
  | Mem_loc.Slot (o, f, v) ->
      Fmt.pf ppf "slot:%a.%a[%a]" pp_name (Obj_id.name o) pp_name f Value.pp v

let pp_event ppf (e : Event.t) =
  let t = Tid.to_int e.tid in
  match e.op with
  | Call a ->
      let pp_vals = Fmt.(list ~sep:(any ", ") Value.pp) in
      Fmt.pf ppf "T%d call %a.%s(%a)" t pp_name (Obj_id.name a.obj) a.meth
        pp_vals a.args;
      (match a.rets with
      | [] -> ()
      | [ r ] -> Fmt.pf ppf " / %a" Value.pp r
      | rs -> Fmt.pf ppf " / (%a)" pp_vals rs)
  | Read l -> Fmt.pf ppf "T%d read %a" t pp_loc l
  | Write l -> Fmt.pf ppf "T%d write %a" t pp_loc l
  | Fork u -> Fmt.pf ppf "T%d fork T%d" t (Tid.to_int u)
  | Join u -> Fmt.pf ppf "T%d join T%d" t (Tid.to_int u)
  | Acquire l -> Fmt.pf ppf "T%d acquire %a" t pp_name (Lock_id.name l)
  | Release l -> Fmt.pf ppf "T%d release %a" t pp_name (Lock_id.name l)
  | Begin -> Fmt.pf ppf "T%d begin" t
  | End -> Fmt.pf ppf "T%d end" t

let print ppf trace =
  Trace.iter_events trace ~f:(fun e -> Fmt.pf ppf "%a@." pp_event e)

let to_string trace = Fmt.str "%a" print trace

(* ------------------------------------------------------------------ *)
(* Lexing                                                             *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | REF of int
  | LPAREN
  | RPAREN
  | COMMA
  | SLASH
  | DOT
  | COLON
  | LBRACKET
  | RBRACKET

exception Err of string

let err fmt = Fmt.kstr (fun s -> raise (Err s)) fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9') || c = '\'' || c = '-'
let is_digit c = c >= '0' && c <= '9'

let tokenize (line : string) : token list =
  let n = String.length line in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then Stdlib.incr i
    else if c = '#' then i := n
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident line.[!i] do
        Stdlib.incr i
      done;
      push (IDENT (String.sub line start (!i - start)))
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit line.[!i + 1]) then begin
      let start = !i in
      Stdlib.incr i;
      while !i < n && is_digit line.[!i] do
        Stdlib.incr i
      done;
      push (INT (int_of_string (String.sub line start (!i - start))))
    end
    else if c = '@' then begin
      Stdlib.incr i;
      let start = !i in
      while !i < n && is_digit line.[!i] do
        Stdlib.incr i
      done;
      if !i = start then err "malformed reference literal";
      push (REF (int_of_string (String.sub line start (!i - start))))
    end
    else if c = '"' then begin
      Stdlib.incr i;
      let buf = Buffer.create 8 in
      let closed = ref false in
      while (not !closed) && !i < n do
        let c = line.[!i] in
        if c = '"' then begin
          closed := true;
          Stdlib.incr i
        end
        else if c = '\\' && !i + 1 < n then begin
          (match line.[!i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | c -> Buffer.add_char buf c);
          i := !i + 2
        end
        else begin
          Buffer.add_char buf c;
          Stdlib.incr i
        end
      done;
      if not !closed then err "unterminated string literal";
      push (STRING (Buffer.contents buf))
    end
    else begin
      (match c with
      | '(' -> push LPAREN
      | ')' -> push RPAREN
      | ',' -> push COMMA
      | '/' -> push SLASH
      | '.' -> push DOT
      | ':' -> push COLON
      | '[' -> push LBRACKET
      | ']' -> push RBRACKET
      | c -> err "unexpected character %C" c);
      Stdlib.incr i
    end
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

type interner = {
  objs : (string, Obj_id.t) Hashtbl.t;
  locks : (string, Lock_id.t) Hashtbl.t;
  mutable next_obj : int;
  mutable next_lock : int;
}

let interner () =
  { objs = Hashtbl.create 8; locks = Hashtbl.create 8; next_obj = 0; next_lock = 0 }

let intern_obj it name =
  match Hashtbl.find_opt it.objs name with
  | Some o -> o
  | None ->
      let o = Obj_id.make ~name it.next_obj in
      it.next_obj <- it.next_obj + 1;
      Hashtbl.add it.objs name o;
      o

let intern_lock it name =
  match Hashtbl.find_opt it.locks name with
  | Some l -> l
  | None ->
      let l = Lock_id.make ~name it.next_lock in
      it.next_lock <- it.next_lock + 1;
      Hashtbl.add it.locks name l;
      l

let parse_tid = function
  | IDENT s
    when String.length s >= 2
         && s.[0] = 'T'
         && String.for_all is_digit (String.sub s 1 (String.length s - 1)) ->
      (match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some i when i <= Tid.max_id -> Tid.of_int i
      | _ -> err "thread id %s above the maximum T%d" s Tid.max_id)
  | _ -> err "expected a thread id (T<n>)"

let value_of_token = function
  | INT i -> Value.Int i
  | STRING s -> Value.Str s
  | REF r -> Value.Ref r
  | IDENT "nil" -> Value.Nil
  | IDENT "true" -> Value.Bool true
  | IDENT "false" -> Value.Bool false
  | _ -> err "expected a value literal"

(* values ::= eps | value (',' value)* *)
let rec parse_values toks =
  match toks with
  | RPAREN :: _ -> ([], toks)
  | tok :: rest -> (
      let v = value_of_token tok in
      match rest with
      | COMMA :: rest ->
          let vs, rest = parse_values rest in
          (v :: vs, rest)
      | _ -> ([ v ], rest))
  | [] -> err "expected a value"

let parse_rets toks =
  match toks with
  | [] -> []
  | SLASH :: LPAREN :: rest -> (
      let vs, rest = parse_values rest in
      match rest with
      | [ RPAREN ] -> vs
      | _ -> err "malformed return tuple")
  | [ SLASH; tok ] -> [ value_of_token tok ]
  | _ -> err "trailing tokens after call"

(* Name positions accept both bare identifiers and quoted strings (the
   printer quotes names with non-identifier characters). *)
let name_of_token = function
  | IDENT s | STRING s -> Some s
  | _ -> None

let parse_call it toks =
  match toks with
  | objtok :: DOT :: IDENT meth :: LPAREN :: rest -> (
      let obj =
        match name_of_token objtok with
        | Some o -> o
        | None -> err "expected an object name"
      in
      let args, rest = parse_values rest in
      match rest with
      | RPAREN :: rest ->
          let rets = parse_rets rest in
          Action.make ~obj:(intern_obj it obj) ~meth ~args ~rets ()
      | _ -> err "expected ')' after arguments")
  | _ -> err "malformed call (expected obj.method(args) [/ ret])"

let parse_loc it toks =
  let name tok what =
    match name_of_token tok with Some s -> s | None -> err "expected %s" what
  in
  match toks with
  | [ IDENT "global"; COLON; g ] -> Mem_loc.Global (name g "a global name")
  | [ IDENT "field"; COLON; o; DOT; f ] ->
      Mem_loc.Field (intern_obj it (name o "an object name"), name f "a field name")
  | IDENT "slot" :: COLON :: o :: DOT :: f :: LBRACKET :: rest -> (
      match rest with
      | [ tok; RBRACKET ] ->
          Mem_loc.Slot
            ( intern_obj it (name o "an object name"),
              name f "a field name",
              value_of_token tok )
      | _ -> err "malformed slot location")
  | _ -> err "malformed memory location"

let parse_line it line : Event.t option =
  match tokenize line with
  | [] -> None
  | tid_tok :: IDENT verb :: rest ->
      let tid = parse_tid tid_tok in
      let op =
        match (verb, rest) with
        | "call", rest -> Event.Call (parse_call it rest)
        | "read", rest -> Event.Read (parse_loc it rest)
        | "write", rest -> Event.Write (parse_loc it rest)
        | "fork", [ u ] -> Event.Fork (parse_tid u)
        | "join", [ u ] -> Event.Join (parse_tid u)
        | "acquire", [ (IDENT l | STRING l) ] -> Event.Acquire (intern_lock it l)
        | "release", [ (IDENT l | STRING l) ] -> Event.Release (intern_lock it l)
        | "begin", [] -> Event.Begin
        | "end", [] -> Event.End
        | verb, _ -> err "unknown or malformed event %S" verb
      in
      Some { Event.tid; op }
  | _ -> err "expected '<tid> <verb> ...'"

let parse text =
  let it = interner () in
  let trace = Trace.create () in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] -> Ok trace
    | line :: rest -> (
        match parse_line it line with
        | None -> go (lineno + 1) rest
        | Some e ->
            Trace.append trace e;
            go (lineno + 1) rest
        | exception Err msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 lines

(* Channel input is streamed line-by-line: memory is O(longest line +
   intern tables), never O(file). *)
let iter_channel ic ~f =
  let it = interner () in
  let rec go lineno =
    match In_channel.input_line ic with
    | None -> Ok ()
    | Some line -> (
        match parse_line it line with
        | None -> go (lineno + 1)
        | Some e ->
            f e;
            go (lineno + 1)
        | exception Err msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1

let of_channel ic =
  let trace = Trace.create () in
  match iter_channel ic ~f:(Trace.append trace) with
  | Ok () -> Ok trace
  | Error e -> Error e

let parse_file path =
  match In_channel.with_open_text path of_channel with
  | r -> r
  | exception Sys_error msg -> Error msg
