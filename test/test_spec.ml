open Crd
module Gen = QCheck2.Gen

let qcheck ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let v side slot name = Atom.Var { Atom.side; slot; name }
let atom pred lhs rhs = Formula.Atom { Atom.pred; lhs; rhs }

let dict = Stdspecs.dictionary ()
let obj = Obj_id.make ~name:"o" 0

let act meth args rets = Action.make ~obj ~meth ~args ~rets ()
let put k vv p = act "put" [ k; vv ] [ p ]
let get k vv = act "get" [ k ] [ vv ]
let size r = act "size" [] [ Value.Int r ]

(* Fig 6 evaluated on concrete actions. *)
let dict_commute () =
  let i = fun n -> Value.Int n in
  let checks =
    [
      (* different keys commute *)
      (put (i 1) (i 5) Value.Nil, put (i 2) (i 6) Value.Nil, true);
      (* same key, both no-op writes commute *)
      (put (i 1) (i 5) (i 5), put (i 1) (i 5) (i 5), true);
      (* same key, real write: no *)
      (put (i 1) (i 5) Value.Nil, put (i 1) (i 6) (i 5), false);
      (* put/get same key, put is a no-op: yes *)
      (put (i 1) (i 5) (i 5), get (i 1) (i 5), true);
      (* put/get same key, put changes value: no *)
      (put (i 1) (i 6) (i 5), get (i 1) (i 6), false);
      (* put/get different keys: yes *)
      (put (i 1) (i 6) (i 5), get (i 2) Value.Nil, true);
      (* put that inserts vs size: no *)
      (put (i 1) (i 5) Value.Nil, size 1, false);
      (* put that overwrites vs size: yes *)
      (put (i 1) (i 6) (i 5), size 1, true);
      (* put that removes vs size: no *)
      (put (i 1) Value.Nil (i 5), size 1, false);
      (* gets and sizes always commute *)
      (get (i 1) (i 5), get (i 1) (i 5), true);
      (get (i 1) (i 5), size 0, true);
      (size 0, size 3, true);
    ]
  in
  List.iter
    (fun (a, b, expected) ->
      Alcotest.(check bool)
        (Fmt.str "%a <> %a" Action.pp a Action.pp b)
        expected (Spec.commute dict a b);
      (* Specifications are symmetric predicates on actions. *)
      Alcotest.(check bool)
        (Fmt.str "%a <> %a (sym)" Action.pp b Action.pp a)
        expected (Spec.commute dict b a))
    checks

let unknown_method () =
  Alcotest.check_raises "unknown method"
    (Invalid_argument "Spec.commute: method pop not declared in spec dictionary")
    (fun () -> ignore (Spec.commute dict (act "pop" [] []) (size 0)))

let arity_mismatch () =
  match Spec.commute dict (act "put" [ Value.Int 1 ] []) (size 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let make_rejects_undeclared () =
  let m = Signature.make ~meth:"m" ~args:[ "x" ] () in
  match Spec.make ~name:"s" ~methods:[ m ] [ ("m", "nope", Formula.True) ] with
  | Error e ->
      Alcotest.(check bool) "mentions method" true (Sessions.contains e "nope")
  | Ok _ -> Alcotest.fail "expected error"

let make_rejects_out_of_range () =
  let m = Signature.make ~meth:"m" ~args:[ "x" ] () in
  let phi = atom Atom.Ne (v Atom.Side.Fst 3 "x1") (v Atom.Side.Snd 0 "x2") in
  match Spec.make ~name:"s" ~methods:[ m ] [ ("m", "m", phi) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected slot-range error"

let make_rejects_asymmetric () =
  (* phi(m; m) = (x1 == 0), not symmetric. *)
  let m = Signature.make ~meth:"m" ~args:[ "x" ] () in
  let phi = atom Atom.Eq (v Atom.Side.Fst 0 "x1") (Atom.Const (Value.Int 0)) in
  match Spec.make ~name:"s" ~methods:[ m ] [ ("m", "m", phi) ] with
  | Error e ->
      Alcotest.(check bool) "mentions symmetry" true
        (Sessions.contains e "symmetric")
  | Ok _ -> Alcotest.fail "expected symmetry error"

let make_rejects_duplicates () =
  let m = Signature.make ~meth:"m" () in
  match
    Spec.make ~name:"s" ~methods:[ m ]
      [ ("m", "m", Formula.True); ("m", "m", Formula.False) ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected duplicate error"

let default_is_conservative () =
  let m1 = Signature.make ~meth:"a" () and m2 = Signature.make ~meth:"b" () in
  let spec = Result.get_ok (Spec.make ~name:"s" ~methods:[ m1; m2 ] []) in
  Alcotest.(check bool) "unspecified pair does not commute" false
    (Spec.commute spec (act "a" [] []) (act "b" [] []))

let formula_orientation () =
  (* formula t m1 m2 must orient Fst to m1 regardless of storage order. *)
  let k1 = v Atom.Side.Fst 0 "k1" and k2 = v Atom.Side.Snd 0 "k2" in
  ignore k1;
  ignore k2;
  let phi_pg = Spec.formula dict "put" "get" in
  let phi_gp = Spec.formula dict "get" "put" in
  Alcotest.(check bool) "flip relation" true
    (Formula.equal phi_pg (Formula.flip_sides phi_gp))

let flip_involution =
  qcheck "flip_sides is an involution"
    (Gen.bind (Gen.return ()) (fun () -> Generators.ecl ~arity1:3 ~arity2:2 2))
    (fun f -> Formula.equal f (Formula.flip_sides (Formula.flip_sides f)))

let flip_semantics =
  qcheck "flip_sides swaps the argument tuples"
    (Gen.triple
       (Generators.ecl ~arity1:2 ~arity2:2 2)
       (Gen.array_size (Gen.return 2) Generators.small_value)
       (Gen.array_size (Gen.return 2) Generators.small_value))
    (fun (f, w1, w2) ->
      Formula.eval_pair f w1 w2
      = Formula.eval_pair (Formula.flip_sides f) w2 w1)

let pp_parseable =
  qcheck ~count:60 "Spec.pp output reparses to an equivalent spec"
    Generators.spec (fun spec ->
      let printed = Fmt.str "%a" Spec.pp spec in
      match Spec_parser.parse_one printed with
      | Error e -> QCheck2.Test.fail_reportf "reparse failed: %s@.%s" e printed
      | Ok spec' ->
          List.for_all2
            (fun (m1, m2, phi) (m1', m2', phi') ->
              String.equal m1 m1' && String.equal m2 m2'
              && Formula.equal phi phi')
            (Spec.pairs spec) (Spec.pairs spec'))

let suite =
  ( "spec",
    [
      Alcotest.test_case "dictionary commute (Fig 6)" `Quick dict_commute;
      Alcotest.test_case "unknown method" `Quick unknown_method;
      Alcotest.test_case "arity mismatch" `Quick arity_mismatch;
      Alcotest.test_case "make rejects undeclared" `Quick make_rejects_undeclared;
      Alcotest.test_case "make rejects bad slots" `Quick make_rejects_out_of_range;
      Alcotest.test_case "make rejects asymmetric self-pair" `Quick
        make_rejects_asymmetric;
      Alcotest.test_case "make rejects duplicate pairs" `Quick
        make_rejects_duplicates;
      Alcotest.test_case "default is conservative" `Quick default_is_conservative;
      Alcotest.test_case "formula orientation" `Quick formula_orientation;
      flip_involution;
      flip_semantics;
      pp_parseable;
    ] )
