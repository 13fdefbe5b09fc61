open Crd

let run trace =
  let d = Lockset.create () in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      match e.op with
      | Event.Acquire l -> Lockset.on_acquire d e.tid l
      | Event.Release l -> Lockset.on_release d e.tid l
      | Event.Read loc -> ignore (Lockset.on_read d ~index e.tid loc)
      | Event.Write loc -> ignore (Lockset.on_write d ~index e.tid loc)
      | _ -> ());
  d

let parse src = Result.get_ok (Trace_text.parse src)
let x = Mem_loc.Global "x"

let unprotected_writes_alarm () =
  let d =
    run (parse "T0 fork T1\nT1 write global:x\nT0 write global:x\n")
  in
  Alcotest.(check int) "alarm" 1 (List.length (Lockset.races d))

let consistent_discipline_ok () =
  let d =
    run
      (parse
         "T0 fork T1\n\
          T1 acquire l\n\
          T1 write global:x\n\
          T1 release l\n\
          T0 acquire l\n\
          T0 write global:x\n\
          T0 read global:x\n\
          T0 release l\n")
  in
  Alcotest.(check int) "no alarm" 0 (List.length (Lockset.races d))

let inconsistent_locks_alarm () =
  (* Each access holds *some* lock, but never the same one. The first
     accessor is exempt (its locks are not recorded), so the candidate
     set only drains to empty at the third access: {l2} inter {l1}. *)
  let d =
    run
      (parse
         "T0 fork T1\n\
          T1 acquire l1\n\
          T1 write global:x\n\
          T1 release l1\n\
          T0 acquire l2\n\
          T0 write global:x\n\
          T0 release l2\n\
          T1 acquire l1\n\
          T1 write global:x\n\
          T1 release l1\n")
  in
  Alcotest.(check int) "alarm" 1 (List.length (Lockset.races d))

(* Eraser's classic false positive: fork/join-ordered unlocked accesses
   are flagged by the lockset discipline although FastTrack (correctly)
   stays silent. *)
let fork_join_false_positive () =
  let src =
    "T0 write global:x\nT0 fork T1\nT1 write global:x\nT0 join T1\nT0 write global:x\n"
  in
  let trace = parse src in
  let d = run trace in
  Alcotest.(check int) "lockset alarms" 1 (List.length (Lockset.races d));
  (* FastTrack on the same trace: ordered, no race. *)
  let hb = Hb.create () in
  let ft = Fasttrack.create () in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb.step hb e in
      match e.op with
      | Event.Read loc -> ignore (Fasttrack.on_read ft ~index e.tid loc vc)
      | Event.Write loc -> ignore (Fasttrack.on_write ft ~index e.tid loc vc)
      | _ -> ());
  Alcotest.(check int) "fasttrack silent" 0 (List.length (Fasttrack.races ft))

(* Eraser's classic false negative: the first thread's accesses are
   exempt, so a race against a later consistently-locked thread hides. *)
let first_thread_exemption () =
  let d =
    run
      (parse
         "T0 fork T1\n\
          T0 write global:x\n\
          T1 acquire l\n\
          T1 write global:x\n\
          T1 release l\n")
  in
  Alcotest.(check int) "no alarm despite the race" 0
    (List.length (Lockset.races d))

let single_thread_never_alarms () =
  let d =
    run
      (parse
         "T0 write global:x\nT0 read global:x\nT0 write global:x\nT0 read global:x\n")
  in
  Alcotest.(check int) "no alarm" 0 (List.length (Lockset.races d));
  Alcotest.(check bool) "still exclusive" true
    (match Lockset.state_of d x with Lockset.Exclusive _ -> true | _ -> false)

let read_sharing_tolerated () =
  (* Concurrent unlocked readers are fine until somebody writes. *)
  let d =
    run
      (parse
         "T0 write global:x\n\
          T0 fork T1\n\
          T0 fork T2\n\
          T1 read global:x\n\
          T2 read global:x\n")
  in
  Alcotest.(check int) "no alarm for read sharing" 0
    (List.length (Lockset.races d));
  Alcotest.(check bool) "shared state" true (Lockset.state_of d x = Lockset.Shared)

let one_alarm_per_location () =
  let d =
    run
      (parse
         "T0 fork T1\n\
          T1 write global:x\n\
          T0 write global:x\n\
          T1 write global:x\n\
          T0 write global:x\n")
  in
  Alcotest.(check int) "single alarm" 1 (List.length (Lockset.races d));
  Alcotest.(check bool) "alarmed state" true
    (Lockset.state_of d x = Lockset.Alarmed)

let suite =
  ( "lockset",
    [
      Alcotest.test_case "unprotected writes alarm" `Quick
        unprotected_writes_alarm;
      Alcotest.test_case "consistent discipline ok" `Quick
        consistent_discipline_ok;
      Alcotest.test_case "inconsistent locks alarm" `Quick
        inconsistent_locks_alarm;
      Alcotest.test_case "fork/join false positive" `Quick
        fork_join_false_positive;
      Alcotest.test_case "first-thread exemption" `Quick first_thread_exemption;
      Alcotest.test_case "single thread silent" `Quick
        single_thread_never_alarms;
      Alcotest.test_case "read sharing tolerated" `Quick read_sharing_tolerated;
      Alcotest.test_case "one alarm per location" `Quick one_alarm_per_location;
    ] )
