open Crd_base

type state =
  | Map of (Value.t * Value.t) list
  | Num of int
  | Reg of Value.t
  | Seq of Value.t list

let state_equal a b =
  match (a, b) with
  | Map a, Map b ->
      List.equal
        (fun (k1, v1) (k2, v2) -> Value.equal k1 k2 && Value.equal v1 v2)
        a b
  | Num a, Num b -> a = b
  | Reg a, Reg b -> Value.equal a b
  | Seq a, Seq b -> List.equal Value.equal a b
  | (Map _ | Num _ | Reg _ | Seq _), _ -> false

type shape = { meth : string; args : Value.t list; rets : Value.t list }

let pp_shape ppf s =
  Fmt.pf ppf "%s(%a)/%a" s.meth
    Fmt.(list ~sep:(any ", ") Value.pp)
    s.args
    Fmt.(list ~sep:(any ", ") Value.pp)
    s.rets

type t = {
  name : string;
  initial : state;
  states : state list;
  shapes : shape list;
  apply : state -> shape -> state option;
}

let compose_defined t a b s =
  match t.apply s b with None -> None | Some s' -> t.apply s' a

let commute t a b =
  List.for_all
    (fun s ->
      let ab = compose_defined t a b s and ba = compose_defined t b a s in
      match (ab, ba) with
      | None, None -> true
      | Some s1, Some s2 -> state_equal s1 s2
      | (None | Some _), _ -> false)
    t.states

let enabled t s = List.filter (fun shape -> t.apply s shape <> None) t.shapes

let map_get kvs k =
  match List.find_opt (fun (k', _) -> Value.equal k k') kvs with
  | Some (_, v) -> v
  | None -> Value.Nil

let map_put kvs k v =
  let rest = List.filter (fun (k', _) -> not (Value.equal k k')) kvs in
  if Value.is_nil v then rest
  else List.sort (fun (a, _) (b, _) -> Value.compare a b) ((k, v) :: rest)
