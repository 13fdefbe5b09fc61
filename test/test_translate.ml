open Crd
module Gen = QCheck2.Gen

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let obj = Obj_id.make ~name:"o" 0
let dict = Stdspecs.dictionary ()
let act meth args rets = Action.make ~obj ~meth ~args ~rets ()

let dict_repr = Result.get_ok (Repr.of_spec dict)

(* The optimized dictionary representation must be exactly Fig 7:
   four shapes (w:k, r:k, resize, size) with max two conflicts. *)
let fig7_shapes () =
  Alcotest.(check int) "4 shapes" 4 (Repr.num_shapes dict_repr);
  Alcotest.(check int) "max conflicts 2" 2 (Repr.max_conflicts dict_repr)

let i n = Value.Int n

(* Fig 7(b): eta per action kind. *)
let fig7_eta () =
  let eta a = Repr.eta dict_repr a in
  (* Inserting put: w:k and resize. *)
  let pts = eta (act "put" [ i 5; i 1 ] [ Value.Nil ]) in
  Alcotest.(check int) "insert put touches 2 points" 2 (List.length pts);
  (* Overwriting put: only w:k. *)
  let pts = eta (act "put" [ i 5; i 2 ] [ i 1 ]) in
  Alcotest.(check int) "overwrite put touches 1 point" 1 (List.length pts);
  (* No-op put: only r:k. *)
  let pts = eta (act "put" [ i 5; i 1 ] [ i 1 ]) in
  Alcotest.(check int) "no-op put touches 1 point" 1 (List.length pts);
  (* Removing put (v = nil, p /= nil): w:k and resize. *)
  let pts = eta (act "put" [ i 5; Value.Nil ] [ i 1 ]) in
  Alcotest.(check int) "removing put touches 2 points" 2 (List.length pts);
  (* get: r:k; size: size. *)
  Alcotest.(check int) "get touches 1" 1 (List.length (eta (act "get" [ i 5 ] [ i 1 ])));
  Alcotest.(check int) "size touches 1" 1 (List.length (eta (act "size" [] [ i 0 ])))

(* Fig 7(c): conflicts. *)
let fig7_conflicts () =
  let eta a = Repr.eta dict_repr a in
  let conflict a b =
    List.exists
      (fun p1 -> List.exists (fun p2 -> Repr.conflict dict_repr p1 p2) (eta b))
      (eta a)
  in
  let w k = act "put" [ i k; i 9 ] [ i 1 ] in
  let r k = act "get" [ i k ] [ i 1 ] in
  let noop_put k = act "put" [ i k; i 1 ] [ i 1 ] in
  let insert k = act "put" [ i k; i 1 ] [ Value.Nil ] in
  let size = act "size" [] [ i 0 ] in
  Alcotest.(check bool) "w:5 ~ w:5" true (conflict (w 5) (w 5));
  Alcotest.(check bool) "w:5 !~ w:6" false (conflict (w 5) (w 6));
  Alcotest.(check bool) "w:5 ~ r:5" true (conflict (w 5) (r 5));
  Alcotest.(check bool) "w:5 !~ r:6" false (conflict (w 5) (r 6));
  Alcotest.(check bool) "r:5 !~ r:5" false (conflict (r 5) (r 5));
  Alcotest.(check bool) "noop !~ r" false (conflict (noop_put 5) (r 5));
  Alcotest.(check bool) "noop ~ w" true (conflict (noop_put 5) (w 5));
  Alcotest.(check bool) "size ~ resize" true (conflict size (insert 5));
  Alcotest.(check bool) "size !~ overwrite" false (conflict size (w 5));
  Alcotest.(check bool) "size !~ size" false (conflict size size)

(* Definition 4.5 on the real dictionary: conflict of access points iff
   the logical specification says the actions may not commute. *)
let repr_matches_spec_dict =
  let action_gen =
    let open Gen in
    let* m = oneofl [ "put"; "get"; "size" ] in
    match m with
    | "put" ->
        let* k = Generators.small_value
        and* v = Generators.small_value
        and* p = Generators.small_value in
        return (act "put" [ k; v ] [ p ])
    | "get" ->
        let* k = Generators.small_value and* v = Generators.small_value in
        return (act "get" [ k ] [ v ])
    | _ ->
        let* r = Gen.int_range 0 3 in
        return (act "size" [] [ i r ])
  in
  qcheck ~count:1000 "Definition 4.5 holds for the dictionary"
    (Gen.pair action_gen action_gen) (fun (a, b) ->
      let conflicting =
        List.exists
          (fun p1 ->
            List.exists (fun p2 -> Repr.conflict dict_repr p1 p2) (Repr.eta dict_repr b))
          (Repr.eta dict_repr a)
      in
      conflicting = not (Spec.commute dict a b))

(* Theorem 6.5 over random ECL specifications, optimized and raw. *)
let repr_matches_spec_random ~optimize name =
  let gen =
    let open Gen in
    let* spec = Generators.spec in
    let* a = Generators.action_for_spec ~obj spec in
    let* b = Generators.action_for_spec ~obj spec in
    return (spec, a, b)
  in
  qcheck ~count:300 name gen (fun (spec, a, b) ->
      match Repr.of_spec ~optimize spec with
      | Error e -> QCheck2.Test.fail_reportf "translation failed: %s" e
      | Ok repr ->
          let conflicting =
            List.exists
              (fun p1 ->
                List.exists (fun p2 -> Repr.conflict repr p1 p2) (Repr.eta repr b))
              (Repr.eta repr a)
          in
          conflicting = not (Spec.commute spec a b))

(* The optimization passes preserve the conflict semantics. *)
let optimize_preserves =
  let gen =
    let open Gen in
    let* spec = Generators.spec in
    let* a = Generators.action_for_spec ~obj spec in
    let* b = Generators.action_for_spec ~obj spec in
    return (spec, a, b)
  in
  qcheck ~count:200 "optimization passes preserve conflicts" gen
    (fun (spec, a, b) ->
      let conflicting repr =
        List.exists
          (fun p1 ->
            List.exists (fun p2 -> Repr.conflict repr p1 p2) (Repr.eta repr b))
          (Repr.eta repr a)
      in
      match (Repr.of_spec ~optimize:true spec, Repr.of_spec ~optimize:false spec) with
      | Ok opt, Ok raw -> conflicting opt = conflicting raw
      | _ -> false)

(* Theorem 6.6: Co pt is computed by bounded enumeration, and the bound
   never exceeds the (static) number of shapes. *)
let bounded_conflicts =
  qcheck ~count:150 "conflict sets are bounded (Theorem 6.6)" Generators.spec
    (fun spec ->
      match Repr.of_spec spec with
      | Error _ -> false
      | Ok repr -> Repr.max_conflicts repr <= Repr.num_shapes repr)

(* conflicts and conflict must agree. *)
let conflicts_vs_conflict =
  let gen =
    let open Gen in
    let* spec = Generators.spec in
    let* a = Generators.action_for_spec ~obj spec in
    let* b = Generators.action_for_spec ~obj spec in
    return (spec, a, b)
  in
  qcheck ~count:200 "Co enumeration agrees with the pairwise test" gen
    (fun (spec, a, b) ->
      match Repr.of_spec spec with
      | Error _ -> false
      | Ok repr ->
          List.for_all
            (fun p1 ->
              List.for_all
                (fun p2 ->
                  Repr.conflict repr p1 p2
                  = List.exists (Point.equal p2) (Repr.conflicts repr p1))
                (Repr.eta repr b))
            (Repr.eta repr a))

(* Optimization shrinks (or preserves) the shape count; on the dictionary
   the reduction is dramatic. *)
let optimization_shrinks () =
  let raw = Result.get_ok (Repr.of_spec ~optimize:false dict) in
  Alcotest.(check bool) "fewer shapes" true
    (Repr.num_shapes dict_repr < Repr.num_shapes raw);
  Alcotest.(check bool) "smaller bound" true
    (Repr.max_conflicts dict_repr <= Repr.max_conflicts raw)

let non_ecl_rejected () =
  (* write(v1) <> read()/v2 commute iff v1 == v2 is not ECL. *)
  let w = Signature.make ~meth:"write" ~args:[ "v" ] () in
  let r = Signature.make ~meth:"read" ~rets:[ "v" ] () in
  let phi =
    Formula.Atom
      {
        Atom.pred = Atom.Eq;
        lhs = Atom.Var { Atom.side = Atom.Side.Fst; slot = 0; name = "v1" };
        rhs = Atom.Var { Atom.side = Atom.Side.Snd; slot = 0; name = "v2" };
      }
  in
  let spec =
    Result.get_ok
      (Spec.make ~name:"reg" ~methods:[ w; r ] [ ("write", "read", phi) ])
  in
  match Repr.of_spec spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected non-ECL translation failure"

(* The messages reach clients verbatim as a session's [ERR] reply. *)
let eta_validates_actions () =
  (match Repr.eta dict_repr (act "pop" [] []) with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "unknown method"
        "Repr.eta: method pop not in spec dictionary" msg
  | _ -> Alcotest.fail "expected Invalid_argument for unknown method");
  match Repr.eta dict_repr (act "put" [ i 1 ] []) with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "bad arity"
        "Repr.eta: action o.put(1) has arity 1, expected 3" msg
  | _ -> Alcotest.fail "expected Invalid_argument for bad arity"

(* The compiled beta reads the slots off [args] and [rets]; it must
   agree with evaluating every atom on the [args @ rets] tuple. *)
let compiled_beta =
  let gen =
    let open Gen in
    let* spec = Generators.spec in
    let* a = Generators.action_for_spec ~obj spec in
    return (spec, a)
  in
  qcheck ~count:200 "compiled beta = atoms evaluated on args @ rets" gen
    (fun (spec, (a : Action.t)) ->
      match Translate.of_spec spec with
      | Error _ -> QCheck2.assume_fail ()
      | Ok raw ->
          let m = Translate.method_index raw a.Action.meth in
          let slots = Array.of_list (Action.slots a) in
          let want = ref 0 in
          Array.iteri
            (fun k atom ->
              if Atom.eval atom (fun (v : Atom.var) -> slots.(v.slot)) then
                want := !want lor (1 lsl k))
            raw.Translate.atoms.(m);
          Translate.beta_of raw m a.Action.args a.Action.rets = !want)

(* eta never repeats a point, even when two slots share a shape and a
   value; [eta_into] writes the same points in the same order. *)
let eta_deduplicates =
  let pair_spec =
    Result.get_ok
      (Spec_parser.parse_one
         "object pair { method link(a, b); \
          commutes link(a1, b1) <> link(a2, b2) \
          when a1 != a2 && a1 != b2 && b1 != a2 && b1 != b2; }")
  in
  let pair_repr = Result.get_ok (Repr.of_spec pair_spec) in
  let gen =
    let open Gen in
    let* spec = oneof [ return pair_spec; Generators.spec ] in
    let* a = Generators.action_for_spec ~obj spec in
    return (spec, a)
  in
  let link x y = List.length (Repr.eta pair_repr (act "link" [ x; y ] [])) in
  [
    Alcotest.test_case "eta dedups slots of one shape" `Quick (fun () ->
        Alcotest.(check int) "link(1, 2)" 2 (link (i 1) (i 2));
        Alcotest.(check int) "link(1, 1)" 1 (link (i 1) (i 1)));
    qcheck ~count:200 "eta has no duplicates and matches eta_into" gen
      (fun (spec, a) ->
        match Repr.of_spec spec with
        | Error _ -> QCheck2.assume_fail ()
        | Ok repr ->
            let pts = Repr.eta repr a in
            let shapes = Array.make (Repr.max_points repr) (-1) in
            let values = Array.make (Repr.max_points repr) Value.Nil in
            let n = Repr.eta_into repr a ~shapes ~values in
            List.length (List.sort_uniq Point.compare pts) = List.length pts
            && n = List.length pts
            && List.for_all2
                 (fun pt i ->
                   Point.shape pt = shapes.(i)
                   &&
                   match pt with
                   | Point.Keyed (_, v) -> Value.equal v values.(i)
                   | Point.Ds _ -> true)
                 pts (List.init n Fun.id));
  ]

let suite =
  ( "translate",
    [
      Alcotest.test_case "Fig 7 shape count" `Quick fig7_shapes;
      Alcotest.test_case "Fig 7 eta" `Quick fig7_eta;
      Alcotest.test_case "Fig 7 conflicts" `Quick fig7_conflicts;
      Alcotest.test_case "optimization shrinks" `Quick optimization_shrinks;
      Alcotest.test_case "non-ECL rejected" `Quick non_ecl_rejected;
      Alcotest.test_case "eta validates actions" `Quick eta_validates_actions;
      repr_matches_spec_dict;
      repr_matches_spec_random ~optimize:true
        "Definition 4.5 on random ECL specs (optimized)";
      repr_matches_spec_random ~optimize:false
        "Definition 4.5 on random ECL specs (raw Section 6.2)";
      optimize_preserves;
      bounded_conflicts;
      conflicts_vs_conflict;
      compiled_beta;
    ]
    @ eta_deduplicates )
