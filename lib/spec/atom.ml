open Crd_base

module Side = struct
  type t = Fst | Snd

  let flip = function Fst -> Snd | Snd -> Fst
  let equal a b = match (a, b) with Fst, Fst | Snd, Snd -> true | _ -> false
  let pp ppf = function Fst -> Fmt.string ppf "1" | Snd -> Fmt.string ppf "2"
end

type var = { side : Side.t; slot : int; name : string }

let var_equal a b = Side.equal a.side b.side && a.slot = b.slot

type term = Var of var | Const of Value.t

let term_equal a b =
  match (a, b) with
  | Var a, Var b -> var_equal a b
  | Const a, Const b -> Value.equal a b
  | (Var _ | Const _), _ -> false

type pred = Eq | Ne | Lt | Le | Gt | Ge

let pred_holds p a b =
  match p with
  | Eq -> Value.equal a b
  | Ne -> not (Value.equal a b)
  | Lt -> Value.lt a b
  | Le -> Value.le a b
  | Gt -> Value.lt b a
  | Ge -> Value.le b a

(* Mirror image when the two operands are exchanged. *)
let pred_mirror = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let pred_symbol = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

type t = { pred : pred; lhs : term; rhs : term }

let equal a b =
  a.pred = b.pred && term_equal a.lhs b.lhs && term_equal a.rhs b.rhs

let vars t =
  let of_term = function Var v -> [ v ] | Const _ -> [] in
  of_term t.lhs @ of_term t.rhs

let sides t =
  List.sort_uniq compare
    (List.map (fun (v : var) -> v.side) (vars t))

let single_sided t =
  match sides t with
  | [] -> Some Side.Fst
  | [ s ] -> Some s
  | _ -> None

let flip_term = function
  | Var v -> Var { v with side = Side.flip v.side }
  | Const c -> Const c

let flip_sides t = { t with lhs = flip_term t.lhs; rhs = flip_term t.rhs }

let norm_term = function
  | Var v -> Var { side = Side.Fst; slot = v.slot; name = "" }
  | Const c -> Const c

let term_rank = function
  | Var (v : var) -> (0, v.slot, Value.Nil)
  | Const c -> (1, 0, c)

let normalize t =
  let lhs = norm_term t.lhs and rhs = norm_term t.rhs in
  (* Orient so the smaller term is on the left, mirroring the predicate,
     then force a positive predicate (Eq, Lt or Le), tracking polarity. *)
  let pred, lhs, rhs =
    if compare (term_rank lhs) (term_rank rhs) <= 0 then (t.pred, lhs, rhs)
    else (pred_mirror t.pred, rhs, lhs)
  in
  match pred with
  | Eq | Lt | Le -> ({ pred; lhs; rhs }, true)
  | Ne -> ({ pred = Eq; lhs; rhs }, false)
  | Ge -> ({ pred = Lt; lhs; rhs }, false)
  | Gt -> ({ pred = Le; lhs; rhs }, false)

let eval t env =
  let value = function Var v -> env v | Const c -> c in
  pred_holds t.pred (value t.lhs) (value t.rhs)

let pp_term ppf = function
  | Var (v : var) ->
      if String.equal v.name "" then Fmt.pf ppf "$%a.%d" Side.pp v.side v.slot
      else Fmt.string ppf v.name
  | Const c -> Value.pp ppf c

let pp ppf t =
  Fmt.pf ppf "%a %s %a" pp_term t.lhs (pred_symbol t.pred) pp_term t.rhs
