open Crd

let parse_ok src =
  match Spec_parser.parse_one src with
  | Ok s -> s
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let parse_err src =
  match Spec_parser.parse_one src with
  | Ok _ -> Alcotest.failf "expected a parse error on:\n%s" src
  | Error e -> e

let builtins_parse () =
  List.iter
    (fun src ->
      match Spec_parser.parse_one src with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "builtin failed to parse: %s" e)
    [
      Stdspecs.dictionary_src;
      Stdspecs.set_src;
      Stdspecs.counter_src;
      Stdspecs.register_src;
      Stdspecs.fifo_src;
    ]

let dictionary_structure () =
  let spec = parse_ok Stdspecs.dictionary_src in
  Alcotest.(check string) "name" "dictionary" (Spec.name spec);
  Alcotest.(check int) "methods" 3 (List.length (Spec.methods spec));
  Alcotest.(check int) "pairs" 6 (List.length (Spec.pairs spec));
  let put = Option.get (Spec.signature spec "put") in
  Alcotest.(check (list string)) "put slots" [ "k"; "v"; "p" ]
    (Signature.slot_names put)

let multiple_objects () =
  match Spec_parser.parse (Stdspecs.dictionary_src ^ "\n" ^ Stdspecs.set_src) with
  | Ok [ d; s ] ->
      Alcotest.(check string) "first" "dictionary" (Spec.name d);
      Alcotest.(check string) "second" "set" (Spec.name s)
  | Ok l -> Alcotest.failf "expected 2 objects, got %d" (List.length l)
  | Error e -> Alcotest.failf "parse error: %s" e

let comments_and_whitespace () =
  let src =
    "// leading comment\n\
     object o { # hash comment\n\
     \  method m(x);\n\
     \  commutes m(x1) <> m(x2) when x1 != x2; // trailing\n\
     }"
  in
  ignore (parse_ok src)

let literal_kinds () =
  let src =
    {|object o {
        method m(x) / r;
        commutes m(x1) / r1 <> m(x2) / r2
          when x1 != x2 || (r1 == nil && r2 == "str" || r1 == @7 && r2 == -0 || r1 == true && r2 == false);
      }|}
  in
  ignore (parse_ok src)

let precedence () =
  (* && binds tighter than ||; ! tighter than &&. *)
  let spec =
    parse_ok
      {|object o {
          method m(x) / r;
          commutes m(x1) / r1 <> m(x2) / r2
            when x1 != x2 || r1 == 1 && r2 == 1;
        }|}
  in
  match Spec.pairs spec with
  | [ (_, _, Formula.Or (Formula.Atom _, Formula.And (_, _))) ] -> ()
  | [ (_, _, f) ] -> Alcotest.failf "wrong shape: %a" Formula.pp f
  | _ -> Alcotest.fail "wrong number of pairs"

let error_cases () =
  let cases =
    [
      (* unbound variable *)
      ( {|object o { method m(x); commutes m(x1) <> m(x2) when z != x2; }|},
        "unbound" );
      (* header mismatch *)
      ( {|object o { method m(x); commutes m(x1, y1) <> m(x2) when true; }|},
        "signature" );
      (* undeclared method *)
      ( {|object o { method m(x); commutes q(x1) <> m(x2) when true; }|},
        "not declared" );
      (* variable bound by both headers *)
      ( {|object o { method m(x); commutes m(x1) <> m(x1) when true; }|},
        "both headers" );
      (* missing when *)
      ({|object o { method m(x); commutes m(x1) <> m(x2); }|}, "when");
      (* junk *)
      ({|object o { banana; }|}, "expected");
      (* unterminated string *)
      ({|object o { method m(x); commutes m(x1) <> m(x2) when x1 == "oops; }|},
        "string");
      (* duplicate default *)
      ( {|object o { method m(x); default true; default false; }|},
        "duplicate" );
    ]
  in
  List.iter
    (fun (src, expect) ->
      let e = parse_err src in
      if not (Sessions.contains e expect) then
        Alcotest.failf "error %S does not mention %S" e expect)
    cases

let error_positions () =
  let e =
    parse_err "object o {\n  method m(x);\n  commutes m(x1) <> m(x2) when ?;\n}"
  in
  Alcotest.(check bool) "mentions line 3" true (Sessions.contains e "3:")

let default_clause () =
  let spec =
    parse_ok
      {|object o {
          method a();
          method b();
          default true;
        }|}
  in
  let obj = Obj_id.make ~name:"o" 0 in
  Alcotest.(check bool) "default true applies" true
    (Spec.commute spec
       (Action.make ~obj ~meth:"a" ())
       (Action.make ~obj ~meth:"b" ()))

let tuple_returns () =
  let spec =
    parse_ok
      {|object o {
          method m(x) / (r, s);
          commutes m(x1) / (r1, s1) <> m(x2) / (r2, s2)
            when x1 != x2 || (r1 == s1 && r2 == s2);
        }|}
  in
  let m = Option.get (Spec.signature spec "m") in
  Alcotest.(check int) "arity 3" 3 (Signature.arity m)

(* --- the shipped .crd files ---------------------------------------- *)

let spec_file name = Filename.concat "../specs" name

let parse_file_ok name =
  match Spec_parser.parse_file (spec_file name) with
  | Ok [ s ] -> s
  | Ok l -> Alcotest.failf "%s: expected 1 object, got %d" name (List.length l)
  | Error e -> Alcotest.failf "%s: %s" name e

let shipped_specs_parse () =
  List.iter
    (fun name ->
      let spec = parse_file_ok name in
      match Repr.of_spec spec with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s: translation failed: %s" name e)
    [ "dictionary.crd"; "set.crd"; "queue.crd"; "counter.crd" ]

let queue_spec_semantics () =
  let spec = parse_file_ok "queue.crd" in
  Alcotest.(check string) "name" "queue" (Spec.name spec);
  Alcotest.(check int) "methods" 3 (List.length (Spec.methods spec));
  Alcotest.(check int) "pairs" 6 (List.length (Spec.pairs spec));
  let obj = Obj_id.make ~name:"queue:q" 0 in
  let act meth args rets = Action.make ~obj ~meth ~args ~rets () in
  let i n = Value.Int n in
  let enq x = act "enq" [ i x ] [] in
  let deq x = act "deq" [] [ x ] in
  let len n = act "len" [] [ i n ] in
  List.iter
    (fun (a, b, expected) ->
      Alcotest.(check bool)
        (Fmt.str "%a <> %a" Action.pp a Action.pp b)
        expected (Spec.commute spec a b);
      Alcotest.(check bool)
        (Fmt.str "%a <> %a (sym)" Action.pp b Action.pp a)
        expected (Spec.commute spec b a))
    [
      (* enqueue order is observable *)
      (enq 1, enq 2, false);
      (* deq hit a non-empty queue and took a different element *)
      (enq 1, deq (i 2), true);
      (* deq drained the queue down to the enqueued element itself *)
      (enq 1, deq (i 1), false);
      (* deq saw empty: reordering the enq changes its result *)
      (enq 1, deq Value.Nil, false);
      (enq 1, len 0, false);
      (* both deqs observed empty *)
      (deq Value.Nil, deq Value.Nil, true);
      (deq (i 1), deq Value.Nil, false);
      (deq (i 1), deq (i 2), false);
      (deq Value.Nil, len 0, true);
      (deq (i 1), len 1, false);
      (len 0, len 3, true);
    ]

let counter_spec_semantics () =
  let spec = parse_file_ok "counter.crd" in
  Alcotest.(check string) "name" "counter" (Spec.name spec);
  Alcotest.(check int) "methods" 3 (List.length (Spec.methods spec));
  Alcotest.(check int) "pairs" 6 (List.length (Spec.pairs spec));
  let obj = Obj_id.make ~name:"counter:c" 0 in
  let act meth args rets = Action.make ~obj ~meth ~args ~rets () in
  let i n = Value.Int n in
  let add n = act "add" [ i n ] [] in
  let sub n = act "sub" [ i n ] [] in
  let read v = act "read" [] [ i v ] in
  List.iter
    (fun (a, b, expected) ->
      Alcotest.(check bool)
        (Fmt.str "%a <> %a" Action.pp a Action.pp b)
        expected (Spec.commute spec a b);
      Alcotest.(check bool)
        (Fmt.str "%a <> %a (sym)" Action.pp b Action.pp a)
        expected (Spec.commute spec b a))
    [
      (add 1, add 2, true);
      (add 1, sub 2, true);
      (sub 1, sub 2, true);
      (add 1, read 5, false);
      (sub 1, read 5, false);
      (read 5, read 7, true);
    ]

let suite =
  ( "spec-parser",
    [
      Alcotest.test_case "builtins parse" `Quick builtins_parse;
      Alcotest.test_case "dictionary structure" `Quick dictionary_structure;
      Alcotest.test_case "multiple objects" `Quick multiple_objects;
      Alcotest.test_case "comments" `Quick comments_and_whitespace;
      Alcotest.test_case "literal kinds" `Quick literal_kinds;
      Alcotest.test_case "precedence" `Quick precedence;
      Alcotest.test_case "error cases" `Quick error_cases;
      Alcotest.test_case "error positions" `Quick error_positions;
      Alcotest.test_case "default clause" `Quick default_clause;
      Alcotest.test_case "tuple returns" `Quick tuple_returns;
      Alcotest.test_case "shipped spec files parse" `Quick shipped_specs_parse;
      Alcotest.test_case "queue.crd semantics" `Quick queue_spec_semantics;
      Alcotest.test_case "counter.crd semantics" `Quick counter_spec_semantics;
    ] )
