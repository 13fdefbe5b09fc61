module Varint = Crd_base.Varint

type t = (string * int) list

let empty = []
let get t node = match List.assoc_opt node t with Some v -> v | None -> 0

let set t node v =
  if v <= 0 then invalid_arg "Vv.set: non-positive component";
  let rec go = function
    | [] -> [ (node, v) ]
    | (n, _) :: rest when n = node -> (n, v) :: rest
    | (n, x) :: rest when n > node -> (node, v) :: (n, x) :: rest
    | p :: rest -> p :: go rest
  in
  go t

let bump t node = set t node (get t node + 1)

let join a b =
  let rec go a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (na, va) :: ra, (nb, vb) :: rb ->
        if na = nb then (na, max va vb) :: go ra rb
        else if na < nb then (na, va) :: go ra b
        else (nb, vb) :: go a rb
  in
  go a b

let dominates a b = List.for_all (fun (n, v) -> get a n >= v) b
let equal a b = a = b
let to_list t = t

let of_list l =
  List.fold_left
    (fun acc (n, v) ->
      if v <= 0 then acc
      else
        match List.assoc_opt n acc with
        | Some cur -> set acc n (max cur v)
        | None -> set acc n v)
    empty l

let node_max_bytes = 64

let encode b t =
  Varint.add b (List.length t);
  List.iter
    (fun (n, v) ->
      Varint.add b (String.length n);
      Buffer.add_string b n;
      Varint.add b v)
    t

let decode s pos =
  let k, pos = Varint.get s pos in
  if k < 0 || k > 1 lsl 16 then failwith "vv: bad component count";
  let rec go acc k pos =
    if k = 0 then (of_list (List.rev acc), pos)
    else
      let n, pos = Varint.get s pos in
      if n < 0 || n > node_max_bytes || pos + n > String.length s then
        failwith "vv: bad node id";
      let node = String.sub s pos n in
      let v, pos = Varint.get s (pos + n) in
      if v <= 0 then failwith "vv: non-positive component";
      go ((node, v) :: acc) (k - 1) pos
  in
  go [] k pos

let pp ppf t =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:(Fmt.any ",") (fun ppf (n, v) -> Fmt.pf ppf "%s:%d" n v))
    t
