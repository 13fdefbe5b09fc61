(* Unit tests for the bounded blocking queue the analyzer hands shard
   chunks through, and the server connections, racedb batches and spill
   segments: FIFO order, the capacity bound actually blocking
   producers, and close waking everyone with the documented returns. *)

module Bqueue = Crd_base.Bqueue

let fifo_order () =
  let q = Bqueue.create ~capacity:8 () in
  List.iter (fun i -> assert (Bqueue.push q i)) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Bqueue.length q);
  let popped = List.init 4 (fun _ -> Option.get (Bqueue.pop q)) in
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3; 4 ] popped;
  Alcotest.(check int) "drained" 0 (Bqueue.length q)

let capacity_rejected () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Bqueue.create: capacity must be >= 1") (fun () ->
      ignore (Bqueue.create ~capacity:0 ()))

let close_semantics () =
  let q = Bqueue.create ~capacity:4 () in
  assert (Bqueue.push q "a");
  assert (Bqueue.push q "b");
  Bqueue.close q;
  Bqueue.close q (* idempotent *);
  Alcotest.(check bool) "push after close" false (Bqueue.push q "c");
  Alcotest.(check (option string)) "drain survives close" (Some "a")
    (Bqueue.pop q);
  Alcotest.(check (option string)) "drain survives close" (Some "b")
    (Bqueue.pop q);
  Alcotest.(check (option string)) "closed and drained" None (Bqueue.pop q)

(* A producer pushing past capacity must block until the consumer makes
   room; every element still arrives exactly once, in order. *)
let producer_blocks_at_capacity () =
  let n = 1000 in
  let q = Bqueue.create ~capacity:4 () in
  let producer =
    Thread.create
      (fun () ->
        for i = 1 to n do
          assert (Bqueue.push q i)
        done;
        Bqueue.close q)
      ()
  in
  let got = ref [] in
  let rec drain () =
    match Bqueue.pop q with
    | None -> ()
    | Some v ->
        Alcotest.(check bool)
          "capacity bound holds" true
          (Bqueue.length q <= 4);
        got := v :: !got;
        drain ()
  in
  drain ();
  Thread.join producer;
  Alcotest.(check (list int)) "all elements, in order"
    (List.init n (fun i -> i + 1))
    (List.rev !got)

(* close must wake a producer blocked on a full queue (push -> false)
   and a consumer blocked on an empty one (pop -> None) — this is how a
   dying session releases its reader thread. *)
let close_wakes_blocked () =
  let q = Bqueue.create ~capacity:1 () in
  assert (Bqueue.push q 0);
  let blocked_push = ref None in
  let producer = Thread.create (fun () -> blocked_push := Some (Bqueue.push q 1)) () in
  Thread.delay 0.05;
  Alcotest.(check (option bool)) "producer is blocked" None !blocked_push;
  Bqueue.close q;
  Thread.join producer;
  Alcotest.(check (option bool)) "blocked push returns false" (Some false)
    !blocked_push;
  let q2 = Bqueue.create ~capacity:1 () in
  let blocked_pop = ref (Some 42) in
  let consumer = Thread.create (fun () -> blocked_pop := Bqueue.pop q2) () in
  Thread.delay 0.05;
  Bqueue.close q2;
  Thread.join consumer;
  Alcotest.(check (option int)) "blocked pop returns None" None !blocked_pop

let suite =
  ( "bqueue",
    [
      Alcotest.test_case "FIFO order" `Quick fifo_order;
      Alcotest.test_case "capacity < 1 rejected" `Quick capacity_rejected;
      Alcotest.test_case "close semantics" `Quick close_semantics;
      Alcotest.test_case "producer blocks at capacity" `Quick
        producer_blocks_at_capacity;
      Alcotest.test_case "close wakes blocked threads" `Quick
        close_wakes_blocked;
    ] )
