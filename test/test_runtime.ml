open Crd

let record ?(seed = 1L) body =
  let trace = Trace.create () in
  Sched.run ~seed ~sink:(Trace.append trace) body;
  trace

let determinism () =
  let body () =
    let d = Monitored.Dict.create ~name:"dictionary:d" () in
    for w = 0 to 3 do
      ignore
        (Sched.fork (fun () ->
             for k = 0 to 5 do
               ignore (Monitored.Dict.put d (Value.Int k) (Value.Int w))
             done))
    done;
    Sched.join_all ()
  in
  let t1 = record ~seed:99L body and t2 = record ~seed:99L body in
  Alcotest.(check string) "identical traces for identical seeds"
    (Trace_text.to_string t1) (Trace_text.to_string t2)

let seeds_differ () =
  let body () =
    let d = Monitored.Dict.create ~name:"dictionary:d" () in
    for w = 0 to 3 do
      ignore
        (Sched.fork (fun () ->
             for k = 0 to 5 do
               ignore (Monitored.Dict.put d (Value.Int k) (Value.Int w))
             done))
    done;
    Sched.join_all ()
  in
  let distinct = Hashtbl.create 8 in
  for seed = 1 to 8 do
    let t = record ~seed:(Int64.of_int seed) body in
    Hashtbl.replace distinct (Trace_text.to_string t) ()
  done;
  Alcotest.(check bool) "different seeds explore different interleavings"
    true
    (Hashtbl.length distinct > 1)

let join_waits () =
  let done_first = ref false in
  Sched.run (fun () ->
      let child =
        Sched.fork (fun () ->
            for _ = 1 to 10 do
              Sched.yield ()
            done;
            done_first := true)
      in
      Sched.join child;
      Alcotest.(check bool) "child finished before join returns" true !done_first)

let join_all_waits () =
  let finished = ref 0 in
  Sched.run (fun () ->
      for _ = 1 to 5 do
        ignore
          (Sched.fork (fun () ->
               Sched.yield ();
               incr finished))
      done;
      Sched.join_all ();
      Alcotest.(check int) "all children done" 5 !finished)

let mutual_exclusion () =
  Sched.run (fun () ->
      let l = Sched.new_lock () in
      let inside = ref 0 in
      let max_inside = ref 0 in
      for _ = 1 to 4 do
        ignore
          (Sched.fork (fun () ->
               for _ = 1 to 5 do
                 Sched.with_lock l (fun () ->
                     incr inside;
                     if !inside > !max_inside then max_inside := !inside;
                     Sched.yield ();
                     decr inside)
               done))
      done;
      Sched.join_all ();
      Alcotest.(check int) "never two inside" 1 !max_inside)

let unlock_not_held () =
  match
    Sched.run (fun () ->
        let l = Sched.new_lock () in
        Sched.unlock l)
  with
  | exception Sched.Thread_failure (_, Failure _) -> ()
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected a failure"

let deadlock_detected () =
  match
    Sched.run ~seed:5L (fun () ->
        let l1 = Sched.new_lock () and l2 = Sched.new_lock () in
        (* Force the classic ABBA deadlock deterministically with yields:
           both threads take their first lock before either takes its
           second. *)
        let t1 =
          Sched.fork (fun () ->
              Sched.lock l1;
              for _ = 1 to 10 do
                Sched.yield ()
              done;
              Sched.lock l2;
              Sched.unlock l2;
              Sched.unlock l1)
        in
        let t2 =
          Sched.fork (fun () ->
              Sched.lock l2;
              for _ = 1 to 10 do
                Sched.yield ()
              done;
              Sched.lock l1;
              Sched.unlock l1;
              Sched.unlock l2)
        in
        Sched.join t1;
        Sched.join t2)
  with
  | exception Sched.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected Deadlock"

let thread_failure_propagates () =
  match Sched.run (fun () -> ignore (Sched.fork (fun () -> failwith "boom"))) with
  | exception Sched.Thread_failure (tid, Failure msg) ->
      Alcotest.(check string) "message" "boom" msg;
      Alcotest.(check int) "failing tid" 1 (Tid.to_int tid)
  | _ -> Alcotest.fail "expected Thread_failure"

let ops_outside_run_rejected () =
  match Sched.fork (fun () -> ()) with
  | exception Effect.Unhandled _ -> ()
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure outside run"

let nested_run_rejected () =
  match Sched.run (fun () -> Sched.run (fun () -> ())) with
  | exception Sched.Thread_failure (_, Failure _) -> ()
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected nested-run rejection"

let events_flow () =
  let trace = record (fun () ->
      let d = Monitored.Dict.create ~name:"dictionary:d" () in
      let t = Sched.fork (fun () -> ignore (Monitored.Dict.put d (Value.Int 1) (Value.Int 2))) in
      Sched.join t;
      ignore (Monitored.Dict.get d (Value.Int 1)))
  in
  let ops = List.map (fun (e : Event.t) -> e.op) (Trace.to_list trace) in
  match ops with
  | [ Event.Fork _; Event.Call put; Event.Join _; Event.Call get ] ->
      Alcotest.(check string) "put recorded" "put" put.Action.meth;
      Alcotest.(check string) "get recorded" "get" get.Action.meth;
      Alcotest.(check bool) "get sees the put" true
        (List.for_all2 Value.equal get.Action.rets [ Value.Int 2 ])
  | _ -> Alcotest.failf "unexpected trace:@.%s" (Trace_text.to_string trace)

let monitored_dict_semantics () =
  Sched.run (fun () ->
      let d = Monitored.Dict.create () in
      Alcotest.(check bool) "empty get" true
        (Value.is_nil (Monitored.Dict.get d (Value.Int 1)));
      Alcotest.(check bool) "first put returns nil" true
        (Value.is_nil (Monitored.Dict.put d (Value.Int 1) (Value.Str "a")));
      Alcotest.(check bool) "second put returns previous" true
        (Value.equal (Value.Str "a")
           (Monitored.Dict.put d (Value.Int 1) (Value.Str "b")));
      Alcotest.(check int) "size" 1 (Monitored.Dict.size d);
      Alcotest.(check bool) "remove via nil" true
        (Value.equal (Value.Str "b") (Monitored.Dict.put d (Value.Int 1) Value.Nil));
      Alcotest.(check int) "size after remove" 0 (Monitored.Dict.size d))

let monitored_fifo_semantics () =
  Sched.run (fun () ->
      let q = Monitored.Fifo.create () in
      Alcotest.(check bool) "empty deq" true (Value.is_nil (Monitored.Fifo.deq q));
      Monitored.Fifo.enq q (Value.Int 1);
      Monitored.Fifo.enq q (Value.Int 2);
      Alcotest.(check bool) "peek" true
        (Value.equal (Value.Int 1) (Monitored.Fifo.peek q));
      Alcotest.(check bool) "fifo order" true
        (Value.equal (Value.Int 1) (Monitored.Fifo.deq q));
      Alcotest.(check bool) "fifo order 2" true
        (Value.equal (Value.Int 2) (Monitored.Fifo.deq q)))

let shared_cells () =
  let trace = record (fun () ->
      let c = Monitored.Shared.create ~name:"cell" 0 in
      Monitored.Shared.set c 41;
      Monitored.Shared.update c succ;
      Alcotest.(check int) "value" 42 (Monitored.Shared.get c))
  in
  let reads, writes =
    Trace.fold trace ~init:(0, 0) ~f:(fun (r, w) _ (e : Event.t) ->
        match e.op with
        | Event.Read _ -> (r + 1, w)
        | Event.Write _ -> (r, w + 1)
        | _ -> (r, w))
  in
  Alcotest.(check (pair int int)) "reads/writes" (2, 2) (reads, writes)

let monitored_set_semantics () =
  Sched.run (fun () ->
      let s = Monitored.Set_obj.create () in
      Alcotest.(check bool) "add new" false (Monitored.Set_obj.add s (Value.Int 1));
      Alcotest.(check bool) "add again" true (Monitored.Set_obj.add s (Value.Int 1));
      Alcotest.(check bool) "contains" true
        (Monitored.Set_obj.contains s (Value.Int 1));
      Alcotest.(check int) "size" 1 (Monitored.Set_obj.size s);
      Alcotest.(check bool) "remove" true
        (Monitored.Set_obj.remove s (Value.Int 1));
      Alcotest.(check bool) "remove absent" false
        (Monitored.Set_obj.remove s (Value.Int 1));
      Alcotest.(check int) "size after" 0 (Monitored.Set_obj.size s))

let monitored_counter_register () =
  Sched.run (fun () ->
      let c = Monitored.Counter.create () in
      Monitored.Counter.add c 5;
      Monitored.Counter.add c (-2);
      Alcotest.(check int) "counter" 3 (Monitored.Counter.read c);
      let r = Monitored.Register.create () in
      Alcotest.(check bool) "initial nil" true
        (Value.is_nil (Monitored.Register.read r));
      Monitored.Register.write r (Value.Str "v");
      Alcotest.(check bool) "written" true
        (Value.equal (Value.Str "v") (Monitored.Register.read r)))

let monitored_bag_semantics () =
  Sched.run (fun () ->
      let b = Monitored.Bag.create () in
      Monitored.Bag.add b (Value.Int 1);
      Monitored.Bag.add b (Value.Int 1);
      Monitored.Bag.add b (Value.Int 2);
      Alcotest.(check int) "count" 2 (Monitored.Bag.count b (Value.Int 1));
      Alcotest.(check int) "size" 3 (Monitored.Bag.size b);
      Alcotest.(check bool) "remove present" true
        (Monitored.Bag.remove b (Value.Int 1));
      Alcotest.(check int) "count after" 1 (Monitored.Bag.count b (Value.Int 1));
      Alcotest.(check bool) "remove absent" false
        (Monitored.Bag.remove b (Value.Int 9));
      Alcotest.(check int) "size after" 2 (Monitored.Bag.size b))

(* Concurrent bag insertions commute — no commutativity races — while the
   same pattern on a set (membership-reporting add) races. *)
let bag_adds_commute_set_adds_race () =
  let run_with ~use_bag =
    let an = Analyzer.with_stdspecs () in
    Sched.run ~seed:9L ~sink:(Analyzer.step an) (fun () ->
        if use_bag then begin
          let b = Monitored.Bag.create ~name:"bag:b" () in
          for _ = 1 to 4 do
            ignore (Sched.fork (fun () -> Monitored.Bag.add b (Value.Int 1)))
          done
        end
        else begin
          let s = Monitored.Set_obj.create ~name:"set:s" () in
          for _ = 1 to 4 do
            ignore (Sched.fork (fun () -> ignore (Monitored.Set_obj.add s (Value.Int 1))))
          done
        end;
        Sched.join_all ());
    List.length (Analyzer.rd2_races an)
  in
  Alcotest.(check int) "bag adds race-free" 0 (run_with ~use_bag:true);
  Alcotest.(check bool) "set adds race" true (run_with ~use_bag:false > 0)

let with_lock_releases_on_exception () =
  Sched.run (fun () ->
      let l = Sched.new_lock () in
      (try Sched.with_lock l (fun () -> failwith "inner") with Failure _ -> ());
      (* The lock must be free again. *)
      Sched.with_lock l (fun () -> ()))

let failure_mid_workload_is_reported () =
  let events = ref 0 in
  match
    Sched.run ~seed:3L ~sink:(fun _ -> incr events) (fun () ->
        let d = Monitored.Dict.create ~name:"dictionary:d" () in
        for w = 0 to 3 do
          ignore
            (Sched.fork (fun () ->
                 for k = 0 to 5 do
                   ignore (Monitored.Dict.put d (Value.Int k) (Value.Int w));
                   if w = 2 && k = 3 then failwith "injected"
                 done))
        done;
        Sched.join_all ())
  with
  | exception Sched.Thread_failure (_, Failure msg) ->
      Alcotest.(check string) "injected failure surfaces" "injected" msg;
      Alcotest.(check bool) "events flowed before the crash" true (!events > 0)
  | () -> Alcotest.fail "expected the injected failure to surface"

let many_threads () =
  (* A few hundred threads exercise the scheduler's queue growth. *)
  let sum = ref 0 in
  Sched.run ~seed:13L (fun () ->
      for i = 1 to 300 do
        ignore (Sched.fork (fun () -> sum := !sum + i))
      done;
      Sched.join_all ());
  Alcotest.(check int) "all ran" (300 * 301 / 2) !sum

let suite =
  ( "runtime",
    [
      Alcotest.test_case "monitored set semantics" `Quick monitored_set_semantics;
      Alcotest.test_case "monitored counter/register" `Quick
        monitored_counter_register;
      Alcotest.test_case "monitored bag semantics" `Quick monitored_bag_semantics;
      Alcotest.test_case "bag adds commute, set adds race" `Quick
        bag_adds_commute_set_adds_race;
      Alcotest.test_case "with_lock releases on exception" `Quick
        with_lock_releases_on_exception;
      Alcotest.test_case "failure mid-workload" `Quick
        failure_mid_workload_is_reported;
      Alcotest.test_case "many threads" `Quick many_threads;
      Alcotest.test_case "determinism" `Quick determinism;
      Alcotest.test_case "seeds differ" `Quick seeds_differ;
      Alcotest.test_case "join waits" `Quick join_waits;
      Alcotest.test_case "join_all waits" `Quick join_all_waits;
      Alcotest.test_case "mutual exclusion" `Quick mutual_exclusion;
      Alcotest.test_case "unlock not held" `Quick unlock_not_held;
      Alcotest.test_case "deadlock detected" `Quick deadlock_detected;
      Alcotest.test_case "thread failure propagates" `Quick
        thread_failure_propagates;
      Alcotest.test_case "ops outside run rejected" `Quick
        ops_outside_run_rejected;
      Alcotest.test_case "nested run rejected" `Quick nested_run_rejected;
      Alcotest.test_case "events flow" `Quick events_flow;
      Alcotest.test_case "monitored dict semantics" `Quick
        monitored_dict_semantics;
      Alcotest.test_case "monitored fifo semantics" `Quick
        monitored_fifo_semantics;
      Alcotest.test_case "shared cells" `Quick shared_cells;
    ] )
