open Crd_base
open Crd_trace
open Crd_spec

(* Kind index: 0 = Ds, 1 + i = argument/return slot i. *)
let kind_index = function Translate.Ds -> 0 | Translate.Slot i -> 1 + i
let kind_of_index = function 0 -> Translate.Ds | i -> Translate.Slot (i - 1)

type t = {
  raw : Translate.t;
  (* dispatch.(m).(kind_index).(beta) -> shape id, or -1 when the point is
     never emitted (cleaned up). *)
  dispatch : int array array array;
  conflict_ids : int array array;
  (* is_keyed.(id): shape generates Keyed points (vs Ds points). *)
  is_keyed : bool array;
  descs : string array;
  arity : int array;  (* arity.(m): length of method m's args @ rets *)
  max_points : int;  (* 1 + the largest arity: eta's size bound *)
}

let spec t = t.raw.Translate.spec

(* ------------------------------------------------------------------ *)
(* Building: shared plumbing                                           *)
(* ------------------------------------------------------------------ *)

let name_slots (m : Signature.t) (a : Atom.t) =
  let slot_name i =
    match List.nth_opt (Signature.slot_names m) i with
    | Some n -> n
    | None -> Printf.sprintf "w%d" i
  in
  let fix = function
    | Atom.Var (v : Atom.var) -> Atom.Var { v with name = slot_name v.slot }
    | Atom.Const c -> Atom.Const c
  in
  { a with Atom.lhs = fix a.Atom.lhs; rhs = fix a.Atom.rhs }

let desc_of_key (raw : Translate.t) (k : Translate.key) ~mask =
  let m = raw.Translate.methods.(k.Translate.meth) in
  let atoms = raw.Translate.atoms.(k.Translate.meth) in
  let conds = Buffer.create 16 in
  Array.iteri
    (fun i a ->
      if mask land (1 lsl i) <> 0 then begin
        if Buffer.length conds > 0 then Buffer.add_string conds ", ";
        Buffer.add_string conds
          (Fmt.str "%a=%b" Atom.pp (name_slots m a)
             (k.Translate.beta land (1 lsl i) <> 0))
      end)
    atoms;
  let kind =
    match k.Translate.kind with
    | Translate.Ds -> "ds"
    | Translate.Slot i -> (
        match List.nth_opt (Signature.slot_names m) i with
        | Some n -> n
        | None -> Printf.sprintf "slot%d" i)
  in
  if Buffer.length conds = 0 then
    Printf.sprintf "%s:%s" m.Signature.meth kind
  else
    Printf.sprintf "%s{%s}:%s" m.Signature.meth (Buffer.contents conds) kind

(* The submasks of [mask], in increasing order. *)
let submasks mask =
  let rec go s acc =
    if s = 0 then 0 :: acc else go ((s - 1) land mask) (s :: acc)
  in
  go mask []

(* The keys of method [m] with a beta within [mask] and a kind in [kinds]. *)
let keys m mask kinds =
  List.concat_map
    (fun beta -> List.map (fun kind -> { Translate.meth = m; beta; kind }) kinds)
    (submasks mask)

(* Pass 1, dropping: the atoms of [m] whose flip changes the conflicts of
   a [kind] shape of [m]. A key of [m] meets a key of partner [j] only
   through the atoms their pair reads, so it is enough to compare, over
   those atoms of [m], the partner's keys over its atoms of the pair. *)
let relevant (raw : Translate.t) m kind =
  let natoms = Array.length raw.Translate.atoms.(m) in
  let bits = List.init natoms (fun q -> 1 lsl q) in
  Array.to_list raw.Translate.methods
  |> List.mapi (fun j (sj : Signature.t) ->
         let kinds = List.init (1 + Signature.arity sj) kind_of_index in
         let partners = keys j (Translate.reads raw j m) kinds in
         let meets = Hashtbl.create 16 in
         List.iter
           (fun beta ->
             let k = { Translate.meth = m; beta; kind } in
             Hashtbl.replace meets beta
               (List.filter (Translate.conflict raw k) partners))
           (submasks (Translate.reads raw m j));
         Hashtbl.fold
           (fun beta hits acc ->
             List.fold_left
               (fun acc bit ->
                 match Hashtbl.find_opt meets (beta lor bit) with
                 | Some hits' when beta land bit = 0 && hits <> hits' ->
                     acc lor bit
                 | Some _ | None -> acc)
               acc bits)
           meets 0)
  |> List.fold_left ( lor ) 0

let build ~optimize (raw : Translate.t) =
  let methods = raw.Translate.methods in
  let nmeth = Array.length methods in
  let natoms m = Array.length raw.Translate.atoms.(m) in
  let nkinds m = 1 + Signature.arity methods.(m) in
  let masks =
    Array.init nmeth (fun m ->
        Array.init (nkinds m) (fun ki ->
            if optimize then relevant raw m (kind_of_index ki)
            else (1 lsl natoms m) - 1))
  in
  (* --- The projected shapes of each method, in key order. A projected
         shape's conflicts are the projected shapes it conflicts with:
         flipping an irrelevant bit keeps a shape's conflicts, so this is
         its raw set, projected. A shape meets partner [j] only through
         the bits their pair reads, so its hits on [j] are shared by every
         shape that agrees on those bits. ------------------------------ *)
  let of_meth =
    Array.init nmeth (fun m ->
        List.init (nkinds m) (fun ki ->
            keys m masks.(m).(ki) [ kind_of_index ki ])
        |> List.concat
        |> List.sort Translate.key_compare)
  in
  let partners = List.init nmeth Fun.id in
  let per_partner f =
    let memo = Hashtbl.create 64 in
    fun (k : Translate.key) j ->
      let reads = Translate.reads raw k.Translate.meth j in
      let k = { k with Translate.beta = k.Translate.beta land reads } in
      match Hashtbl.find_opt memo (k, j) with
      | Some v -> v
      | None ->
          let v = f k j in
          Hashtbl.add memo (k, j) v;
          v
  in
  let hits =
    per_partner (fun k j -> List.filter (Translate.conflict raw k) of_meth.(j))
  in
  (* --- Pass 2: cleanup (drop conflict-free shapes). ------------------ *)
  let shapes =
    List.concat (Array.to_list of_meth)
    |> List.filter (fun k ->
           (not optimize) || List.exists (fun j -> hits k j <> []) partners)
    |> Array.of_list
  in
  (* Assign provisional ids. A kept shape conflicts only with kept
     shapes: a dropped one has no conflicts, and [Co] is symmetric. *)
  let id_of = Hashtbl.create 64 in
  Array.iteri (fun i k -> Hashtbl.replace id_of k i) shapes;
  let n = Array.length shapes in
  let hit_ids =
    per_partner (fun k j -> List.map (Hashtbl.find id_of) (hits k j))
  in
  let conf_ids =
    Array.map (fun k -> List.concat_map (hit_ids k) partners) shapes
  in
  let descs =
    Array.map
      (fun (k : Translate.key) ->
        desc_of_key raw k
          ~mask:masks.(k.Translate.meth).(kind_index k.Translate.kind))
      shapes
  in
  let keyed =
    Array.map (fun (k : Translate.key) -> k.Translate.kind <> Translate.Ds) shapes
  in
  (* --- Pass 3: congruence replacement (merge shapes with identical
         conflict sets and the same point kind), to fixpoint. ---------- *)
  let repr = Array.init n (fun i -> i) in
  let conf = Array.copy conf_ids in
  if optimize then begin
    let changed = ref true in
    while !changed do
      changed := false;
      let classes : (bool * int list, int) Hashtbl.t = Hashtbl.create 32 in
      for i = 0 to n - 1 do
        if repr.(i) = i then begin
          let key = (keyed.(i), conf.(i)) in
          match Hashtbl.find_opt classes key with
          | Some j ->
              repr.(i) <- j;
              changed := true
          | None -> Hashtbl.replace classes key i
        end
      done;
      if !changed then begin
        (* Path-compress and rewrite conflict sets through [repr]. *)
        let find i =
          let rec go i = if repr.(i) = i then i else go repr.(i) in
          go i
        in
        for i = 0 to n - 1 do
          repr.(i) <- find i
        done;
        for i = 0 to n - 1 do
          if repr.(i) = i then
            conf.(i) <- List.sort_uniq compare (List.map (fun j -> repr.(j)) conf.(i))
        done
      end
    done
  end;
  (* --- Final dense numbering. ---------------------------------------- *)
  let final = Array.make n (-1) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if repr.(i) = i then begin
      final.(i) <- !count;
      incr count
    end
  done;
  let nfinal = !count in
  let final_of i = final.(repr.(i)) in
  let conflict_ids = Array.make nfinal [||] in
  let is_keyed = Array.make nfinal false in
  let members = Array.make nfinal [] in
  for i = n - 1 downto 0 do
    let f = final_of i in
    members.(f) <- descs.(i) :: members.(f);
    if repr.(i) = i then begin
      conflict_ids.(f) <-
        Array.of_list (List.sort_uniq compare (List.map final_of conf.(i)));
      is_keyed.(f) <- keyed.(i)
    end
  done;
  (* Record merged constituents in the description. *)
  let final_descs = Array.map (String.concat " ~ ") members in
  (* --- Dispatch tables. ---------------------------------------------- *)
  let dispatch =
    Array.init nmeth (fun m ->
        Array.init (nkinds m) (fun ki ->
            let nbeta = 1 lsl natoms m in
            Array.init nbeta (fun beta ->
                let beta = beta land masks.(m).(ki) in
                let k = { Translate.meth = m; beta; kind = kind_of_index ki } in
                match Hashtbl.find_opt id_of k with
                | Some i -> final_of i
                | None -> -1)))
  in
  let arity = Array.map Signature.arity methods in
  {
    raw;
    dispatch;
    conflict_ids;
    is_keyed;
    descs = final_descs;
    arity;
    max_points = 1 + Array.fold_left max 0 arity;
  }

let of_spec ?(optimize = true) spec =
  match Translate.of_spec spec with
  | Error e -> Error e
  | Ok raw -> Ok (build ~optimize raw)

let memo () =
  let cache = Hashtbl.create 8 in
  fun spec ->
    let name = Spec.name spec in
    match Hashtbl.find_opt cache name with
    | Some r -> r
    | None ->
        let r =
          Result.map_error (Printf.sprintf "spec %s: %s" name) (of_spec spec)
        in
        Hashtbl.add cache name r;
        r

(* ------------------------------------------------------------------ *)
(* Runtime interface                                                   *)
(* ------------------------------------------------------------------ *)

let method_of t (a : Action.t) =
  let m = Translate.method_index t.raw a.meth in
  if m < 0 then
    invalid_arg
      (Printf.sprintf "Repr.eta: method %s not in spec %s" a.meth
         (Spec.name (spec t)));
  let arity = List.length a.args + List.length a.rets in
  let expected = t.arity.(m) in
  if arity <> expected then
    invalid_arg
      (Printf.sprintf "Repr.eta: action %s has arity %d, expected %d"
         (Action.to_string a) arity expected);
  m

(* Whether point (id, v) is among the first [j + 1] written points. *)
let rec written shapes values id v j =
  j >= 0
  && ((shapes.(j) = id && Value.equal values.(j) v)
     || written shapes values id v (j - 1))

(* Append the slot points of [vs] (slot numbers from [slot]) after the
   [n] points written so far; return the new count. *)
let rec add_slots kinds beta shapes values n slot = function
  | [] -> n
  | v :: vs ->
      let id = kinds.(1 + slot).(beta) in
      let n =
        if id >= 0 && not (written shapes values id v (n - 1)) then begin
          shapes.(n) <- id;
          values.(n) <- v;
          n + 1
        end
        else n
      in
      add_slots kinds beta shapes values n (slot + 1) vs

let eta_into t (a : Action.t) ~shapes ~values =
  let m = method_of t a in
  let beta = Translate.beta_of t.raw m a.args a.rets in
  let kinds = t.dispatch.(m) in
  let ds = kinds.(0).(beta) in
  let n =
    if ds >= 0 then begin
      shapes.(0) <- ds;
      values.(0) <- Value.Nil;
      1
    end
    else 0
  in
  let n = add_slots kinds beta shapes values n 0 a.args in
  add_slots kinds beta shapes values n (List.length a.args) a.rets

let max_points t = t.max_points
let conflict_ids t id = t.conflict_ids.(id)
let is_keyed t id = t.is_keyed.(id)

let eta t a =
  let shapes = Array.make t.max_points 0 in
  let values = Array.make t.max_points Value.Nil in
  let n = eta_into t a ~shapes ~values in
  List.init n (fun i ->
      let id = shapes.(i) in
      if t.is_keyed.(id) then Point.Keyed (id, values.(i)) else Point.Ds id)

let conflicts t pt =
  let neighbors = t.conflict_ids.(Point.shape pt) in
  match pt with
  | Point.Ds _ -> Array.to_list (Array.map (fun j -> Point.Ds j) neighbors)
  | Point.Keyed (_, v) ->
      Array.to_list (Array.map (fun j -> Point.Keyed (j, v)) neighbors)

let conflict t p1 p2 =
  let id1 = Point.shape p1 in
  let shape_conflict = Array.exists (fun j -> j = Point.shape p2) t.conflict_ids.(id1) in
  shape_conflict
  &&
  match (p1, p2) with
  | Point.Ds _, Point.Ds _ -> true
  | Point.Keyed (_, u), Point.Keyed (_, v) -> Value.equal u v
  | (Point.Ds _ | Point.Keyed _), _ -> false

let num_shapes t = Array.length t.conflict_ids

let max_conflicts t =
  Array.fold_left (fun m c -> max m (Array.length c)) 0 t.conflict_ids

let shape_desc t id =
  if id < 0 || id >= Array.length t.descs then "?" else t.descs.(id)

let point_desc t = function
  | Point.Ds id -> shape_desc t id
  | Point.Keyed (id, v) ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf (shape_desc t id);
      Buffer.add_char buf '[';
      Value.to_buffer buf v;
      Buffer.add_char buf ']';
      Buffer.contents buf

let pp ppf t =
  Fmt.pf ppf "@[<v>access point representation for %s (%d shapes, max \
              conflicts %d)@,"
    (Spec.name (spec t)) (num_shapes t) (max_conflicts t);
  Array.iteri
    (fun i desc ->
      Fmt.pf ppf "  #%d %s%s@,    conflicts: %a@," i
        (if t.is_keyed.(i) then "(keyed) " else "(ds) ")
        desc
        Fmt.(list ~sep:(any ", ") (fun ppf j -> pf ppf "#%d" j))
        (Array.to_list t.conflict_ids.(i)))
    t.descs;
  Fmt.pf ppf "@]"
