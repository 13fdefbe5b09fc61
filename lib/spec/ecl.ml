type atom_class = Ls_atom | Lb_atom of Atom.Side.t

let classify_atom (a : Atom.t) =
  match Atom.single_sided a with
  | Some side -> Some (Lb_atom side)
  | None -> (
      (* Variables from both sides: only a plain disequality between two
         variables is admissible (the SIMPLE shape [V1 != V2]). *)
      match (a.pred, a.lhs, a.rhs) with
      | Atom.Ne, Atom.Var _, Atom.Var _ -> Some Ls_atom
      | _ -> None)

let rec is_ls (f : Formula.t) =
  match f with
  | Formula.True | Formula.False -> true
  | Formula.Atom a -> classify_atom a = Some Ls_atom
  | Formula.And (f, g) -> is_ls f && is_ls g
  | Formula.Or _ | Formula.Not _ -> false

let rec is_lb (f : Formula.t) =
  match f with
  | Formula.True | Formula.False -> true
  | Formula.Atom a -> (
      match classify_atom a with Some (Lb_atom _) -> true | _ -> false)
  | Formula.Not f -> is_lb f
  | Formula.And (f, g) | Formula.Or (f, g) -> is_lb f && is_lb g

let rec is_ecl (f : Formula.t) =
  if is_ls f || is_lb f then true
  else
    match f with
    | Formula.And (f, g) -> is_ecl f && is_ecl g
    | Formula.Or (f, g) ->
        (* The grammar says X \/ B; we also accept the mirror image B \/ X
           since disjunction is commutative. *)
        (is_ecl f && is_lb g) || (is_lb f && is_ecl g)
    | _ -> false

let check f =
  let err fmt = Fmt.kstr (fun s -> Error s) fmt in
  let rec go f =
    if is_ls f || is_lb f then Ok ()
    else
      match f with
      | Formula.Atom a ->
          err "atom '%a' relates both sides with a predicate other than !="
            Atom.pp a
      | Formula.Not g ->
          if is_lb g then Ok ()
          else err "negation over a non-LB formula '%a'" Formula.pp g
      | Formula.And (f, g) -> (
          match go f with Ok () -> go g | e -> e)
      | Formula.Or (f, g) ->
          if is_lb g then go f
          else if is_lb f then go g
          else
            err
              "disjunction '%a' needs at least one LB disjunct (no \
               cross-side atoms, no disequalities between the two actions)"
              Formula.pp (Formula.Or (f, g))
      | Formula.True | Formula.False -> Ok ()
  in
  go f
