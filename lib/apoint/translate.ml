open Crd_spec

type kind = Ds | Slot of int

let kind_equal a b =
  match (a, b) with
  | Ds, Ds -> true
  | Slot i, Slot j -> i = j
  | (Ds | Slot _), _ -> false

let pp_kind ppf = function
  | Ds -> Fmt.string ppf "ds"
  | Slot i -> Fmt.pf ppf "slot %d" i

type key = { meth : int; beta : int; kind : kind }

let key_equal a b =
  a.meth = b.meth && a.beta = b.beta && kind_equal a.kind b.kind

let key_compare = compare

type t = {
  spec : Spec.t;
  methods : Signature.t array;
  atoms : Atom.t array array;
  conflicts : (key, key list) Hashtbl.t;
}

let max_atoms = 14

let rec find_method methods m i =
  if i >= Array.length methods then -1
  else if String.equal methods.(i).Signature.meth m then i
  else find_method methods m (i + 1)

let method_index t m = find_method t.methods m 0

(* ------------------------------------------------------------------ *)
(* Collecting B(Phi, m)                                               *)
(* ------------------------------------------------------------------ *)

let collect_atoms (spec : Spec.t) (methods : Signature.t array) =
  let atoms = Array.map (fun _ -> ref []) methods in
  let add m (a : Atom.t) =
    if Atom.vars a <> [] then begin
      let norm, _sign = Atom.normalize a in
      let bucket = atoms.(m) in
      if not (List.exists (Atom.equal norm) !bucket) then
        bucket := !bucket @ [ norm ]
    end
  in
  Array.iteri
    (fun i (si : Signature.t) ->
      Array.iteri
        (fun j (sj : Signature.t) ->
          if i <= j then
            let phi = Spec.formula spec si.Signature.meth sj.Signature.meth in
            List.iter
              (fun a ->
                match Ecl.classify_atom a with
                | Some (Ecl.Lb_atom Atom.Side.Fst) -> add i a
                | Some (Ecl.Lb_atom Atom.Side.Snd) -> add j a
                | Some Ecl.Ls_atom | None -> ())
              (Formula.atoms phi))
        methods)
    methods;
  Array.map (fun r -> Array.of_list !r) atoms

(* ------------------------------------------------------------------ *)
(* Beta vectors                                                       *)
(* ------------------------------------------------------------------ *)

let atom_index t m (a : Atom.t) =
  let arr = t.atoms.(m) in
  let n = Array.length arr in
  let rec go k =
    if k >= n then None else if Atom.equal arr.(k) a then Some k else go (k + 1)
  in
  go 0

(* Slot [i] of [args @ rets], read without building the list. *)
let rec slot_value args rets i =
  match args with
  | v :: args -> if i = 0 then v else slot_value args rets (i - 1)
  | [] -> List.nth rets i

let term_value args rets = function
  | Atom.Var (v : Atom.var) -> slot_value args rets v.slot
  | Atom.Const c -> c

let beta_of t m args rets =
  let arr = t.atoms.(m) in
  let beta = ref 0 in
  for k = 0 to Array.length arr - 1 do
    let a = arr.(k) in
    if
      Atom.pred_holds a.Atom.pred
        (term_value args rets a.Atom.lhs)
        (term_value args rets a.Atom.rhs)
    then beta := !beta lor (1 lsl k)
  done;
  !beta

let beta_pp t m ppf beta =
  let arr = t.atoms.(m) in
  if Array.length arr = 0 then Fmt.string ppf "{}"
  else begin
    Fmt.string ppf "{";
    Array.iteri
      (fun k a ->
        if k > 0 then Fmt.string ppf ", ";
        Fmt.pf ppf "%a:%b" Atom.pp a (beta land (1 lsl k) <> 0))
      arr;
    Fmt.string ppf "}"
  end

(* ------------------------------------------------------------------ *)
(* Building the conflict table                                        *)
(* ------------------------------------------------------------------ *)

let add_conflict conflicts a b =
  let add x y =
    let l = Option.value ~default:[] (Hashtbl.find_opt conflicts x) in
    if not (List.exists (key_equal y) l) then Hashtbl.replace conflicts x (y :: l)
  in
  add a b;
  add b a

let of_spec spec =
  let methods = Array.of_list (Spec.methods spec) in
  let atoms = collect_atoms spec methods in
  let too_big = ref None in
  Array.iteri
    (fun m arr ->
      if Array.length arr > max_atoms && !too_big = None then
        too_big := Some methods.(m).Signature.meth)
    atoms;
  match !too_big with
  | Some m ->
      Error
        (Printf.sprintf
           "method %s has more than %d relevant atoms; beta enumeration \
            would explode"
           m max_atoms)
  | None -> (
      let t = { spec; methods; atoms; conflicts = Hashtbl.create 64 } in
      let beta_fun m beta a =
        match atom_index t m a with
        | Some k -> beta land (1 lsl k) <> 0
        | None ->
            invalid_arg
              (Fmt.str "Translate.of_spec: atom %a not collected for %s"
                 Atom.pp a t.methods.(m).Signature.meth)
      in
      try
        Array.iteri
          (fun i (si : Signature.t) ->
            Array.iteri
              (fun j (sj : Signature.t) ->
                if i <= j then begin
                  let phi = Spec.formula spec si.Signature.meth sj.Signature.meth in
                  (match Ecl.check phi with
                  | Ok () -> ()
                  | Error e ->
                      raise
                        (Residual.Not_ecl
                           (Printf.sprintf "pair (%s, %s): %s"
                              si.Signature.meth sj.Signature.meth e)));
                  let n1 = 1 lsl Array.length atoms.(i)
                  and n2 = 1 lsl Array.length atoms.(j) in
                  for b1 = 0 to n1 - 1 do
                    for b2 = 0 to n2 - 1 do
                      match
                        Residual.residuate phi ~beta1:(beta_fun i b1)
                          ~beta2:(beta_fun j b2)
                      with
                      | Residual.Rfalse ->
                          add_conflict t.conflicts
                            { meth = i; beta = b1; kind = Ds }
                            { meth = j; beta = b2; kind = Ds }
                      | Residual.Rconj conjuncts ->
                          List.iter
                            (fun (si_slot, sj_slot) ->
                              add_conflict t.conflicts
                                { meth = i; beta = b1; kind = Slot si_slot }
                                { meth = j; beta = b2; kind = Slot sj_slot })
                            conjuncts
                    done
                  done
                end)
              methods)
          methods;
        Ok t
      with Residual.Not_ecl msg -> Error msg)

let universe t =
  let keys = ref [] in
  Array.iteri
    (fun m (s : Signature.t) ->
      let nbeta = 1 lsl Array.length t.atoms.(m) in
      for beta = 0 to nbeta - 1 do
        keys := { meth = m; beta; kind = Ds } :: !keys;
        for slot = 0 to Signature.arity s - 1 do
          keys := { meth = m; beta; kind = Slot slot } :: !keys
        done
      done)
    t.methods;
  List.rev !keys

let conflict_set t key =
  match Hashtbl.find_opt t.conflicts key with
  | None -> []
  | Some l -> List.sort key_compare l
