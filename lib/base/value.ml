type t =
  | Nil
  | Bool of bool
  | Int of int
  | Str of string
  | Ref of int

(* Physically equal values — the decoder's shared small ints, a value
   compared against itself — settle without a match. *)
let equal a b =
  a == b
  ||
  match (a, b) with
  | Nil, Nil -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Str a, Str b -> String.equal a b
  | Ref a, Ref b -> a = b
  | (Nil | Bool _ | Int _ | Str _ | Ref _), _ -> false

let rank = function
  | Nil -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Ref _ -> 4

let compare a b =
  match (a, b) with
  | Nil, Nil -> 0
  | Bool a, Bool b -> Bool.compare a b
  | Int a, Int b -> Int.compare a b
  | Str a, Str b -> String.compare a b
  | Ref a, Ref b -> Int.compare a b
  | _ -> Int.compare (rank a) (rank b)

let hash = function
  | Nil -> 0x9e37
  | Bool b -> if b then 0x5bd1 else 0x85eb
  | Int i -> Hashtbl.hash (2, i)
  | Str s -> Hashtbl.hash (3, s)
  | Ref r -> Hashtbl.hash (4, r)

let is_nil = function Nil -> true | _ -> false
let lt a b = compare a b < 0
let le a b = compare a b <= 0

(* Decimal digits of [n >= 0], most significant first: the recursion
   is at most 19 deep and allocates nothing, where [Int.to_string]
   formats through [caml_format_int] into a fresh string. No scratch
   [Bytes] is shared, so domains may write concurrently. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* [min_int] has no positive negation; it is rare enough to format. *)
let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (Int.to_string n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* The one rendering of a value, written straight into a buffer: race
   lines are built from it on the per-race path, where a Format
   round trip per value would dominate. [Str] is OCaml string-literal
   syntax, as [Printf]'s [%S] renders it, so [parse] inverts it. *)
let to_buffer buf = function
  | Nil -> Buffer.add_string buf "nil"
  | Bool b -> Buffer.add_string buf (Bool.to_string b)
  | Int i -> add_int buf i
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (String.escaped s);
      Buffer.add_char buf '"'
  | Ref r ->
      Buffer.add_char buf '@';
      add_int buf r

let to_string v =
  let buf = Buffer.create 16 in
  to_buffer buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

let parse s =
  let n = String.length s in
  if n = 0 then Error "empty value"
  else if String.equal s "nil" then Ok Nil
  else if String.equal s "true" then Ok (Bool true)
  else if String.equal s "false" then Ok (Bool false)
  else if s.[0] = '"' then
    if n >= 2 && s.[n - 1] = '"' then
      match Scanf.sscanf_opt s "%S" (fun str -> str) with
      | Some str -> Ok (Str str)
      | None -> Error (Printf.sprintf "malformed string literal %s" s)
    else Error (Printf.sprintf "unterminated string literal %s" s)
  else if s.[0] = '@' then
    match int_of_string_opt (String.sub s 1 (n - 1)) with
    | Some r -> Ok (Ref r)
    | None -> Error (Printf.sprintf "malformed reference %s" s)
  else
    match int_of_string_opt s with
    | Some i -> Ok (Int i)
    | None -> Error (Printf.sprintf "unrecognized value %s" s)
