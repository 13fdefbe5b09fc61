open Crd_base
open Crd_trace
open Crd_spec

(* Kind index: 0 = Ds, 1 + i = argument/return slot i. *)
let kind_index = function Translate.Ds -> 0 | Translate.Slot i -> 1 + i

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

module KeyTbl = Hashtbl

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

(* A projected key: raw key whose beta has been masked to the relevant
   atoms of its (method, kind). *)

let build ~optimize (raw : Translate.t) =
  let methods = raw.Translate.methods in
  let nmeth = Array.length methods in
  (* --- Pass 1: dropping (compute per-(m, kind) relevance masks). ----- *)
  let natoms m = Array.length raw.Translate.atoms.(m) in
  let nkinds m = 1 + Signature.arity methods.(m) in
  let kind_of_index = function 0 -> Translate.Ds | i -> Translate.Slot (i - 1) in
  let masks =
    Array.init nmeth (fun m ->
        Array.init (nkinds m) (fun ki ->
            if not optimize then (1 lsl natoms m) - 1
            else begin
              let kind = kind_of_index ki in
              let relevant = ref 0 in
              for q = 0 to natoms m - 1 do
                let bit = 1 lsl q in
                let differs = ref false in
                let nbeta = 1 lsl natoms m in
                let beta = ref 0 in
                while (not !differs) && !beta < nbeta do
                  let k1 = { Translate.meth = m; beta = !beta; kind } in
                  let k2 =
                    { Translate.meth = m; beta = !beta lxor bit; kind }
                  in
                  if
                    not
                      (List.equal Translate.key_equal
                         (Translate.conflict_set raw k1)
                         (Translate.conflict_set raw k2))
                  then differs := true;
                  incr beta
                done;
                if !differs then relevant := !relevant lor bit
              done;
              !relevant
            end))
  in
  let project (k : Translate.key) =
    let mask = masks.(k.Translate.meth).(kind_index k.Translate.kind) in
    { k with Translate.beta = k.Translate.beta land mask }
  in
  (* --- Collect projected shapes and their conflict sets. ------------- *)
  let proj_conf : (Translate.key, Translate.key list) KeyTbl.t =
    KeyTbl.create 64
  in
  let proj_desc : (Translate.key, string) KeyTbl.t = KeyTbl.create 64 in
  List.iter
    (fun k ->
      let pk = project k in
      if not (KeyTbl.mem proj_conf pk) then begin
        let conf =
          Translate.conflict_set raw k
          |> List.map project
          |> List.sort_uniq Translate.key_compare
        in
        KeyTbl.replace proj_conf pk conf;
        KeyTbl.replace proj_desc pk
          (desc_of_key raw k
             ~mask:(masks.(k.Translate.meth).(kind_index k.Translate.kind)))
      end)
    (Translate.universe raw);
  (* --- Pass 2: cleanup (drop conflict-free shapes). ------------------ *)
  let keep conf = (not optimize) || conf <> [] in
  let shapes =
    KeyTbl.fold
      (fun k conf acc -> if keep conf then k :: acc else acc)
      proj_conf []
    |> List.sort Translate.key_compare
  in
  (* Assign provisional ids. *)
  let id_of : (Translate.key, int) KeyTbl.t = KeyTbl.create 64 in
  List.iteri (fun i k -> KeyTbl.replace id_of k i) shapes;
  let shapes = Array.of_list shapes in
  let n = Array.length shapes in
  let conf_ids =
    Array.map
      (fun k ->
        KeyTbl.find proj_conf k
        |> List.filter_map (fun k' -> KeyTbl.find_opt id_of k')
        |> List.sort_uniq compare)
      shapes
  in
  let descs = Array.map (fun k -> KeyTbl.find proj_desc k) shapes in
  let keyed =
    Array.map
      (fun (k : Translate.key) ->
        match k.Translate.kind with Translate.Ds -> false | Translate.Slot _ -> true)
      shapes
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
  let final_descs = Array.make nfinal "" in
  for i = 0 to n - 1 do
    let f = final_of i in
    if repr.(i) = i then begin
      conflict_ids.(f) <-
        Array.of_list (List.sort_uniq compare (List.map final_of conf.(i)));
      is_keyed.(f) <- keyed.(i);
      final_descs.(f) <- descs.(i)
    end
    else
      (* Record merged constituents in the description. *)
      final_descs.(f) <- final_descs.(f) ^ " ~ " ^ descs.(i)
  done;
  (* --- Dispatch tables. ---------------------------------------------- *)
  let dispatch =
    Array.init nmeth (fun m ->
        Array.init (nkinds m) (fun ki ->
            let nbeta = 1 lsl natoms m in
            Array.init nbeta (fun beta ->
                let k =
                  project { Translate.meth = m; beta; kind = kind_of_index ki }
                in
                match KeyTbl.find_opt id_of k with
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
