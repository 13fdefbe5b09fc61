open Crd
module Gen = QCheck2.Gen

let qcheck ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* The Format-based printer the direct writer replaced, kept as the
   oracle the writer must match byte for byte. *)
let oracle_pp ppf = function
  | Value.Nil -> Fmt.string ppf "nil"
  | Value.Bool b -> Fmt.bool ppf b
  | Value.Int i -> Fmt.int ppf i
  | Value.Str s -> Fmt.pf ppf "%S" s
  | Value.Ref r -> Fmt.pf ppf "@@%d" r

let buffered to_buffer x =
  let buf = Buffer.create 16 in
  Buffer.add_string buf "<";
  to_buffer buf x;
  Buffer.contents buf

let matches_oracle v =
  let want = Fmt.str "%a" oracle_pp v in
  String.equal (Value.to_string v) want
  && String.equal (Fmt.str "%a" Value.pp v) want
  && String.equal (buffered Value.to_buffer v) ("<" ^ want)

(* The fixed edge integers, each written by [add_int] and as an [Int]
   and a [Ref] value, against [Int.to_string] and the Format oracle. *)
let check_edge_ints () =
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "add_int %d" i)
        ("<" ^ Int.to_string i)
        (buffered Value.add_int i))
    Generators.edge_ints;
  List.iter
    (fun v ->
      if not (matches_oracle v) then
        Alcotest.failf "%s does not match the Format oracle" (Value.to_string v))
    Generators.edge_values

let check_roundtrip () =
  List.iter
    (fun v ->
      match Value.parse (Value.to_string v) with
      | Ok v' ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip %s" (Value.to_string v))
            true (Value.equal v v')
      | Error e -> Alcotest.failf "parse failed on %s: %s" (Value.to_string v) e)
    [
      Value.Nil;
      Value.Bool true;
      Value.Bool false;
      Value.Int 0;
      Value.Int (-42);
      Value.Int max_int;
      Value.Str "";
      Value.Str "a.com";
      Value.Str "with \"quotes\" and \\ backslash";
      Value.Str "tab\tnewline\n";
      Value.Ref 0;
      Value.Ref 991;
    ]

let check_parse_errors () =
  List.iter
    (fun s ->
      match Value.parse s with
      | Ok v -> Alcotest.failf "expected error on %S, got %s" s (Value.to_string v)
      | Error _ -> ())
    [ ""; "\"unterminated"; "@x"; "zzz"; "12a"; "@" ]

let check_nil () =
  Alcotest.(check bool) "nil is nil" true (Value.is_nil Value.Nil);
  Alcotest.(check bool) "0 is not nil" false (Value.is_nil (Value.Int 0));
  Alcotest.(check bool) "nil < 0" true (Value.lt Value.Nil (Value.Int 0))

let suite =
  ( "value",
    [
      Alcotest.test_case "roundtrip" `Quick check_roundtrip;
      Alcotest.test_case "parse errors" `Quick check_parse_errors;
      Alcotest.test_case "nil" `Quick check_nil;
      qcheck "compare is a total order (antisym + trans spot)"
        (Gen.triple Generators.value Generators.value Generators.value)
        (fun (a, b, c) ->
          let ab = Value.compare a b and ba = Value.compare b a in
          (ab = -ba || (ab = 0 && ba = 0))
          && (not (Value.compare a b <= 0 && Value.compare b c <= 0))
             || Value.compare a c <= 0);
      qcheck "equal agrees with compare" (Gen.pair Generators.value Generators.value)
        (fun (a, b) -> Value.equal a b = (Value.compare a b = 0));
      qcheck "equal values hash equally"
        (Gen.pair Generators.value Generators.value) (fun (a, b) ->
          (not (Value.equal a b)) || Value.hash a = Value.hash b);
      Alcotest.test_case "integer edge cases match the Format oracle" `Quick
        check_edge_ints;
      qcheck "to_string, pp and to_buffer match the Format oracle"
        Generators.any_value_edges matches_oracle;
      qcheck "print/parse roundtrip over the whole domain" Generators.any_value
        (fun v ->
          match Value.parse (Value.to_string v) with
          | Ok v' -> Value.equal v v'
          | Error _ -> false);
      qcheck "print/parse roundtrip" Generators.value (fun v ->
          match Value.parse (Value.to_string v) with
          | Ok v' -> Value.equal v v'
          | Error _ -> false);
    ] )
