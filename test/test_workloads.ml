open Crd
module W = Crd_workloads

(* ------------------------------------------------------------------ *)
(* SQL-mini parser                                                     *)
(* ------------------------------------------------------------------ *)

let parse_ok src =
  match W.Sqlmini.parse src with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse %S: %s" src e

let sql_statements () =
  List.iter
    (fun src -> ignore (parse_ok src))
    [
      "CREATE TABLE t (a, b, c)";
      "INSERT INTO t VALUES (1, \"x\", -2)";
      "insert into t values (NULL)";
      "SELECT a, b FROM t";
      "SELECT * FROM t WHERE a = 1";
      "SELECT a FROM t WHERE a >= 1 AND b <> 'y' AND c < 5";
      "SELECT SUM(a) FROM t";
      "SELECT AVG(a) FROM t WHERE b = 1";
      "SELECT a FROM t ORDER BY b DESC LIMIT 10";
      "SELECT a, b FROM t JOIN u ON t.a = u.x WHERE b > 2";
      "SELECT COUNT(*) FROM t";
      "SELECT COUNT(*) FROM t WHERE a = 2";
      "UPDATE t SET b = 'z' WHERE a = 1";
      "DELETE FROM t WHERE a = 2";
    ]

let sql_roundtrip () =
  List.iter
    (fun src ->
      let stmt = parse_ok src in
      let printed = Fmt.str "%a" W.Sqlmini.pp_stmt stmt in
      let stmt' = parse_ok printed in
      Alcotest.(check string) (Printf.sprintf "roundtrip %s" src) printed
        (Fmt.str "%a" W.Sqlmini.pp_stmt stmt'))
    [
      "CREATE TABLE t (a, b)";
      "INSERT INTO t VALUES (1, 'x')";
      "SELECT a FROM t WHERE a <= 3 AND b <> 'y'";
      "SELECT SUM(a) FROM t WHERE b > 0";
      "SELECT a FROM t ORDER BY b DESC LIMIT 4";
      "SELECT a, b FROM t JOIN u ON t.a = u.x WHERE c > 2";
      "SELECT COUNT(*) FROM t WHERE a > 0";
      "UPDATE t SET a = 9 WHERE b = 'x'";
      "DELETE FROM t WHERE a >= 1";
    ]

let sql_errors () =
  List.iter
    (fun src ->
      match W.Sqlmini.parse src with
      | Ok _ -> Alcotest.failf "expected error on %S" src
      | Error _ -> ())
    [
      "";
      "DROP TABLE t";
      "SELECT FROM t";
      "INSERT INTO t VALUES 1, 2";
      "SELECT a FROM";
      "UPDATE t SET a 1";
      "SELECT a FROM t WHERE a ! 1";
      "INSERT INTO t VALUES (1) trailing";
    ]

(* ------------------------------------------------------------------ *)
(* MVStore                                                             *)
(* ------------------------------------------------------------------ *)

let exec store src =
  match W.Mvstore.exec_sql store src with
  | Ok r -> r
  | Error e -> Alcotest.failf "exec %S: %s" src e

let rows = function
  | W.Mvstore.Rows r -> r
  | _ -> Alcotest.fail "expected rows"

let count = function
  | W.Mvstore.Count n -> n
  | _ -> Alcotest.fail "expected count"

let affected = function
  | W.Mvstore.Affected n -> n
  | _ -> Alcotest.fail "expected affected"

let mvstore_crud () =
  Sched.run (fun () ->
      let s = W.Mvstore.create () in
      ignore (exec s "CREATE TABLE t (id, name, tier)");
      for i = 0 to 9 do
        Alcotest.(check int) "insert" 1
          (affected (exec s (Printf.sprintf "INSERT INTO t VALUES (%d, 'n%d', %d)" i i (i mod 2))))
      done;
      Alcotest.(check int) "count all" 10 (count (exec s "SELECT COUNT(*) FROM t"));
      Alcotest.(check int) "count filtered" 5
        (count (exec s "SELECT COUNT(*) FROM t WHERE tier = 1"));
      (* Point select through the primary index. *)
      (match rows (exec s "SELECT name FROM t WHERE id = 3") with
      | [ [| Value.Str "n3" |] ] -> ()
      | r -> Alcotest.failf "wrong point select: %d rows" (List.length r));
      (* Update then re-read. *)
      Alcotest.(check int) "update one" 1
        (affected (exec s "UPDATE t SET name = 'renamed' WHERE id = 3"));
      (match rows (exec s "SELECT name FROM t WHERE id = 3") with
      | [ [| Value.Str "renamed" |] ] -> ()
      | _ -> Alcotest.fail "update not visible");
      (* Range select via scan. *)
      Alcotest.(check int) "scan" 5
        (List.length (rows (exec s "SELECT id FROM t WHERE tier = 0")));
      (* Delete. *)
      Alcotest.(check int) "delete" 5
        (affected (exec s "DELETE FROM t WHERE tier = 0"));
      Alcotest.(check int) "count after delete" 5
        (count (exec s "SELECT COUNT(*) FROM t"));
      (* Deleted rows are gone from point lookups too. *)
      Alcotest.(check int) "deleted point select" 0
        (List.length (rows (exec s "SELECT name FROM t WHERE id = 0"))))

let mvstore_aggregates_and_joins () =
  Sched.run (fun () ->
      let s = W.Mvstore.create () in
      ignore (exec s "CREATE TABLE c (id, name)");
      ignore (exec s "CREATE TABLE o (oid, cust, amount)");
      List.iter
        (fun src -> ignore (exec s src))
        [
          "INSERT INTO c VALUES (1, 'ann')";
          "INSERT INTO c VALUES (2, 'bob')";
          "INSERT INTO o VALUES (10, 1, 30)";
          "INSERT INTO o VALUES (11, 1, 70)";
          "INSERT INTO o VALUES (12, 2, 50)";
        ];
      (* Aggregates. *)
      Alcotest.(check int) "sum" 150 (count (exec s "SELECT SUM(amount) FROM o"));
      Alcotest.(check int) "sum filtered" 100
        (count (exec s "SELECT SUM(amount) FROM o WHERE cust = 1"));
      Alcotest.(check int) "min" 30 (count (exec s "SELECT MIN(amount) FROM o"));
      Alcotest.(check int) "max" 70 (count (exec s "SELECT MAX(amount) FROM o"));
      Alcotest.(check int) "avg" 50 (count (exec s "SELECT AVG(amount) FROM o"));
      Alcotest.(check int) "empty sum" 0
        (count (exec s "SELECT SUM(amount) FROM o WHERE cust = 9"));
      (* ORDER BY / LIMIT. *)
      (match rows (exec s "SELECT amount FROM o ORDER BY amount DESC LIMIT 2") with
      | [ [| Value.Int 70 |] ; [| Value.Int 50 |] ] -> ()
      | r -> Alcotest.failf "order/limit wrong (%d rows)" (List.length r));
      (match rows (exec s "SELECT oid FROM o ORDER BY amount") with
      | [ [| Value.Int 10 |]; [| Value.Int 12 |]; [| Value.Int 11 |] ] -> ()
      | _ -> Alcotest.fail "ascending order wrong");
      (* JOIN (index-assisted: join key is c's primary column). *)
      (match
         rows
           (exec s
              "SELECT name, amount FROM o JOIN c ON o.cust = c.id WHERE amount > 40")
       with
      | rows ->
          let sorted = List.sort compare (List.map Array.to_list rows) in
          Alcotest.(check int) "join rows" 2 (List.length sorted);
          (match sorted with
          | [ [ Value.Str "ann"; Value.Int 70 ]; [ Value.Str "bob"; Value.Int 50 ] ]
            -> ()
          | _ -> Alcotest.fail "join contents wrong"));
      (* Qualified projection. *)
      match
        rows
          (exec s
             "SELECT c.name, o.amount FROM c JOIN o ON c.id = o.cust WHERE o.cust = 2")
      with
      | [ [| Value.Str "bob"; Value.Int 50 |] ] -> ()
      | _ -> Alcotest.fail "qualified join wrong")

let mvstore_errors () =
  Sched.run (fun () ->
      let s = W.Mvstore.create () in
      (match W.Mvstore.exec_sql s "SELECT * FROM missing" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected missing-table error");
      ignore (exec s "CREATE TABLE t (a)");
      (match W.Mvstore.exec_sql s "CREATE TABLE t (a)" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected duplicate-table error");
      (match W.Mvstore.exec_sql s "INSERT INTO t VALUES (1, 2)" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected arity error");
      match W.Mvstore.exec_sql s "UPDATE t SET b = 1 WHERE a = 1" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected column error")

let mvstore_commit_bookkeeping () =
  Sched.run (fun () ->
      let s = W.Mvstore.create () in
      W.Mvstore.commit s;
      W.Mvstore.commit s;
      W.Mvstore.maintenance_step s;
      Alcotest.(check bool) "chunks populated" true
        (Monitored.Dict.raw_size (W.Mvstore.chunks s) >= 2);
      Alcotest.(check bool) "freed space accounted" true
        (Monitored.Dict.raw_size (W.Mvstore.freed_page_space s) >= 1))

(* ------------------------------------------------------------------ *)
(* Circuits: determinism and Table 2 qualitative shape                 *)
(* ------------------------------------------------------------------ *)

let rd2_counts bench = Option.get (W.Table2.rd2_race_counts ~seed:1L bench)
let counts = Alcotest.(triple int int int)

let circuits_deterministic () =
  List.iter
    (fun bench ->
      let a = rd2_counts bench and b = rd2_counts bench in
      Alcotest.check counts (bench ^ " deterministic") a b)
    [ "ComplexConcurrency"; "InsertCentricConcurrency"; "DynamicEndpointSnitch" ]

(* The qualitative Table 2 shape, independent of timing:
   - the concurrency circuits race on a handful of objects,
   - the query-centric and sequential circuits have no commutativity
     races at all.
   Both distinct counts are pinned at seed 1: the fingerprint identity
   (per race pattern, key-sensitive) and the coarser object identity. *)
let table2_shape () =
  let check_zero bench =
    Alcotest.check counts (bench ^ " race-free") (0, 0, 0) (rd2_counts bench)
  in
  check_zero "QueryCentricConcurrency";
  check_zero "Complex";
  check_zero "NestedLists";
  let total, fp, objs = rd2_counts "ComplexConcurrency" in
  Alcotest.(check bool) "ComplexConcurrency races" true (total > 0);
  Alcotest.(check int) "ComplexConcurrency distinct fingerprints" 36 fp;
  Alcotest.(check bool) "ComplexConcurrency few objects" true
    (objs >= 2 && objs <= 4);
  let total, fp, objs = rd2_counts "InsertCentricConcurrency" in
  Alcotest.(check bool) "InsertCentric races" true (total > 0);
  Alcotest.(check int) "InsertCentric distinct fingerprints" 37 fp;
  Alcotest.(check int) "InsertCentric objects = {chunks, freedPageSpace}" 2 objs;
  let total, fp, objs = rd2_counts "DynamicEndpointSnitch" in
  Alcotest.(check bool) "Snitch races" true (total > 0);
  Alcotest.(check int) "Snitch distinct fingerprints" 17 fp;
  Alcotest.(check int) "Snitch objects = {samples, scores}" 2 objs

(* The two harmful H2 races are found on the right objects. *)
let h2_objects () =
  let an =
    Analyzer.with_stdspecs
      ~config:{ Analyzer.rd2 = `Constant; direct = false; fasttrack = false; djit = false; atomicity = false }
      ()
  in
  ignore
    (W.Polepos.run W.Polepos.Insert_centric ~seed:1L ~scale:1
       ~sink:(Analyzer.step an) ());
  let names =
    List.sort_uniq String.compare
      (List.map (fun (r : Report.t) -> Obj_id.name r.obj) (Analyzer.rd2_races an))
  in
  Alcotest.(check (list string)) "racing objects"
    [ "dictionary:chunks"; "dictionary:freedPageSpace" ]
    names

(* Seed-independence of the zero results: query-centric stays race-free
   under many schedules (Theorem 5.2 in spirit: reads commute). *)
let query_centric_race_free_many_seeds () =
  for seed = 1 to 5 do
    let an =
      Analyzer.with_stdspecs
        ~config:{ Analyzer.rd2 = `Constant; direct = false; fasttrack = false; djit = false; atomicity = false }
        ()
    in
    ignore
      (W.Polepos.run W.Polepos.Query_centric ~seed:(Int64.of_int seed) ~scale:1
         ~sink:(Analyzer.step an) ());
    Alcotest.(check int)
      (Printf.sprintf "seed %d" seed)
      0
      (List.length (Analyzer.rd2_races an))
  done

let snitch_runs () =
  let processed = W.Snitch.run ~seed:2L ~sink:(fun _ -> ()) () in
  Alcotest.(check bool) "samples processed" true (processed > 0)

let suite =
  ( "workloads",
    [
      Alcotest.test_case "sqlmini statements" `Quick sql_statements;
      Alcotest.test_case "sqlmini roundtrip" `Quick sql_roundtrip;
      Alcotest.test_case "sqlmini errors" `Quick sql_errors;
      Alcotest.test_case "mvstore CRUD" `Quick mvstore_crud;
      Alcotest.test_case "mvstore aggregates and joins" `Quick
        mvstore_aggregates_and_joins;
      Alcotest.test_case "mvstore errors" `Quick mvstore_errors;
      Alcotest.test_case "mvstore commit bookkeeping" `Quick
        mvstore_commit_bookkeeping;
      Alcotest.test_case "circuits deterministic" `Slow circuits_deterministic;
      Alcotest.test_case "Table 2 qualitative shape" `Slow table2_shape;
      Alcotest.test_case "H2 racing objects" `Slow h2_objects;
      Alcotest.test_case "query-centric race-free across seeds" `Slow
        query_centric_race_free_many_seeds;
      Alcotest.test_case "snitch runs" `Quick snitch_runs;
    ] )
