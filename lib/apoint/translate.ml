open Crd_spec

type kind = Ds | Slot of int
type key = { meth : int; beta : int; kind : kind }

let key_compare = compare

(* phi_ij residuated over the atoms it reads: [fst] and [snd] index
   [atoms.(i)] and [atoms.(j)], and bit [k] of a table index is the truth
   of atom [fst.(k)], bit [Array.length fst + k] that of atom [snd.(k)]. *)
type pair = { fst : int array; snd : int array; table : Residual.t array }

type t = {
  spec : Spec.t;
  methods : Signature.t array;
  atoms : Atom.t array array;
  pairs : pair array array;
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

(* The single-sided atoms of [phi] that mention a slot, normalized, with
   their side, in formula order. *)
let lb_atoms phi =
  List.filter_map
    (fun a ->
      match Ecl.classify_atom a with
      | Some (Ecl.Lb_atom side) when Atom.vars a <> [] ->
          Some (side, fst (Atom.normalize a))
      | Some (Ecl.Lb_atom _ | Ecl.Ls_atom) | None -> None)
    (Formula.atoms phi)

let collect_atoms (spec : Spec.t) (methods : Signature.t array) =
  let atoms = Array.map (fun _ -> ref []) methods in
  Array.iteri
    (fun i (si : Signature.t) ->
      Array.iteri
        (fun j (sj : Signature.t) ->
          if i <= j then
            List.iter
              (fun (side, a) ->
                let bucket = atoms.(if side = Atom.Side.Fst then i else j) in
                if not (List.exists (Atom.equal a) !bucket) then
                  bucket := !bucket @ [ a ])
              (lb_atoms (Spec.formula spec si.Signature.meth sj.Signature.meth)))
        methods)
    methods;
  Array.map (fun r -> Array.of_list !r) atoms

(* ------------------------------------------------------------------ *)
(* Beta vectors                                                       *)
(* ------------------------------------------------------------------ *)

let atom_index arr a = Array.find_index (Atom.equal a) arr

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

(* ------------------------------------------------------------------ *)
(* Residual tables                                                    *)
(* ------------------------------------------------------------------ *)

(* The indices in [arr], increasing, of the [side] atoms [phi] reads. *)
let read_atoms arr side phi =
  List.filter_map
    (fun (s, a) -> if s = side then atom_index arr a else None)
    (lb_atoms phi)
  |> List.sort_uniq compare |> Array.of_list

(* The mask over [atoms.(m)] whose bit [idx.(k)] is bit [k] of [b]. *)
let expand idx b =
  let beta = ref 0 in
  Array.iteri
    (fun k q -> if b land (1 lsl k) <> 0 then beta := !beta lor (1 lsl q))
    idx;
  !beta

(* The inverse of [expand]: [beta]'s bits at [idx], packed. *)
let project idx beta =
  let b = ref 0 in
  Array.iteri
    (fun k q -> if beta land (1 lsl q) <> 0 then b := !b lor (1 lsl k))
    idx;
  !b

let of_spec spec =
  let methods = Array.of_list (Spec.methods spec) in
  let atoms = collect_atoms spec methods in
  match Array.find_index (fun arr -> Array.length arr > max_atoms) atoms with
  | Some m ->
      Error
        (Printf.sprintf
           "method %s has more than %d relevant atoms; its dispatch table \
            would pass 2^%d ints (128 KiB) per point kind"
           methods.(m).Signature.meth max_atoms max_atoms)
  | None -> (
      let beta_fun m beta a =
        match atom_index atoms.(m) a with
        | Some k -> beta land (1 lsl k) <> 0
        | None ->
            invalid_arg
              (Fmt.str "Translate.of_spec: atom %a not collected for %s"
                 Atom.pp a methods.(m).Signature.meth)
      in
      let pair i j =
        let si = methods.(i) and sj = methods.(j) in
        let phi = Spec.formula spec si.Signature.meth sj.Signature.meth in
        (match Ecl.check phi with
        | Ok () -> ()
        | Error e ->
            raise
              (Residual.Not_ecl
                 (Printf.sprintf "pair (%s, %s): %s" si.Signature.meth
                    sj.Signature.meth e)));
        let fst = read_atoms atoms.(i) Atom.Side.Fst phi
        and snd = read_atoms atoms.(j) Atom.Side.Snd phi in
        let nfst = Array.length fst in
        let table =
          Array.init
            (1 lsl (nfst + Array.length snd))
            (fun b ->
              Residual.residuate phi
                ~beta1:(beta_fun i (expand fst (b land ((1 lsl nfst) - 1))))
                ~beta2:(beta_fun j (expand snd (b lsr nfst))))
        in
        { fst; snd; table }
      in
      let n = Array.length methods in
      try
        let pairs =
          Array.init n (fun i -> Array.init (n - i) (fun d -> pair i (i + d)))
        in
        Ok { spec; methods; atoms; pairs }
      with Residual.Not_ecl msg -> Error msg)

(* The atoms of [m] that the formula of [m] and [j] reads, as a mask. *)
let reads t m j =
  let mask idx = expand idx (-1) in
  if m < j then mask t.pairs.(m).(j - m).fst
  else if m > j then mask t.pairs.(j).(m - j).snd
  else mask t.pairs.(m).(0).fst lor mask t.pairs.(m).(0).snd

(* Whether the first-side key [(b1, k1)] and the second-side key
   [(b2, k2)] conflict under [p]: two ds keys where the residue is false,
   two slot keys where it requires them to differ. *)
let lookup p b1 k1 b2 k2 =
  let residue () =
    p.table.(project p.fst b1 lor (project p.snd b2 lsl Array.length p.fst))
  in
  match (k1, k2) with
  | Ds, Ds -> residue () = Residual.Rfalse
  | Slot x, Slot y -> (
      match residue () with
      | Residual.Rconj cs -> List.mem (x, y) cs
      | Residual.Rfalse -> false)
  | (Ds | Slot _), _ -> false

let conflict t a b =
  if a.meth < b.meth then
    lookup t.pairs.(a.meth).(b.meth - a.meth) a.beta a.kind b.beta b.kind
  else if a.meth > b.meth then
    lookup t.pairs.(b.meth).(a.meth - b.meth) b.beta b.kind a.beta a.kind
  else
    let p = t.pairs.(a.meth).(0) in
    lookup p a.beta a.kind b.beta b.kind || lookup p b.beta b.kind a.beta a.kind
