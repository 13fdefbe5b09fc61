(* The predictive pass: the closure-based race test checked
   differentially against brute-force enumeration of every
   sync-preserving reordering on small random traces, fixed witnesses
   for the lock/fork/join rules, jobs-independence, and the racedb
   provenance plumbing (v2 -> v3 store migration, merge laws). *)

open Crd
module Gen = QCheck2.Gen
module Db = Crd_racedb.Db
module Record = Crd_racedb.Record
module Entry = Crd_racedb.Entry
module Provenance = Crd_racedb.Provenance

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let spec_for o =
  let name = Obj_id.name o in
  let base =
    match String.index_opt name ':' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  Stdspecs.find base

(* --- random well-formed traces ------------------------------------- *)

(* Per-thread programs over a counter, a register and two locks,
   interleaved by a seeded scheduler that respects lock availability
   and fork/join — so every generated trace is a real execution. *)

type icall = Cadd | Cread | Rwrite

type instr =
  | ICall of icall
  | IAcq of int
  | IRel of int
  | IFork of int
  | IJoin of int

let counter_obj = Obj_id.make ~name:"counter:a" 0
let register_obj = Obj_id.make ~name:"register:b" 1
let locks = [| Lock_id.make ~name:"l0" 0; Lock_id.make ~name:"l1" 1 |]

let action_of_icall = function
  | Cadd -> Action.make ~obj:counter_obj ~meth:"add" ~args:[ Value.Int 1 ] ()
  | Cread -> Action.make ~obj:counter_obj ~meth:"read" ~rets:[ Value.Int 0 ] ()
  | Rwrite ->
      Action.make ~obj:register_obj ~meth:"write" ~args:[ Value.Int 7 ] ()

let icall_gen = Gen.oneofl [ Cadd; Cread; Rwrite ]

type item = Plain of icall | Cs of int * icall list

let item_gen =
  Gen.oneof
    [
      Gen.map (fun c -> Plain c) icall_gen;
      (let open Gen in
       let* l = Gen.int_bound 1 in
       let* inner = Gen.list_size (Gen.int_bound 1) icall_gen in
       Gen.return (Cs (l, inner)));
    ]

let flatten_items items =
  List.concat_map
    (function
      | Plain c -> [ ICall c ]
      | Cs (l, inner) -> (IAcq l :: List.map (fun c -> ICall c) inner) @ [ IRel l ])
    items

(* Insert fork/join pseudo-items for thread [u] into thread 0's item
   list at item granularity (never inside a critical section). *)
let progs_gen =
  let open Gen in
  let* nthreads = Gen.oneofl [ 2; 3 ] in
  let* worker_items =
    Gen.list_repeat (nthreads - 1) (Gen.list_size (Gen.int_bound 3) item_gen)
  in
  let* root_items = Gen.list_size (Gen.int_bound 2) item_gen in
  let root = ref (List.map (fun it -> `Item it) root_items) in
  let* forked =
    Gen.list_repeat (nthreads - 1) (Gen.pair Gen.bool (Gen.pair Gen.nat Gen.bool))
  in
  List.iteri
    (fun i (fork, (at, join)) ->
      let u = i + 1 in
      if fork then begin
        let l = !root in
        let at = at mod (List.length l + 1) in
        let rec ins k = function
          | rest when k = 0 ->
              (`Fork u :: rest) @ if join then [ `Join u ] else []
          | x :: rest -> x :: ins (k - 1) rest
          | [] -> [ `Fork u ] @ if join then [ `Join u ] else []
        in
        root := ins at l
      end)
    forked;
  let prog_of l =
    Array.of_list
      (List.concat_map
         (function
           | `Item it -> flatten_items [ it ]
           | `Fork u -> [ IFork u ]
           | `Join u -> [ IJoin u ])
         l)
  in
  let progs =
    Array.of_list
      (prog_of !root :: List.map (fun items -> prog_of (List.map (fun it -> `Item it) items)) worker_items)
  in
  let* seed = Gen.nat in
  Gen.return (progs, forked, seed)

let schedule (progs, forked, seed) =
  let nt = Array.length progs in
  let rng = Random.State.make [| seed; 0x9e3779b9 |] in
  let trace = Trace.create () in
  let pc = Array.make nt 0 in
  let started =
    Array.init nt (fun t ->
        t = 0 || not (fst (List.nth forked (t - 1))))
  in
  let lock_held = Array.make (Array.length locks) (-1) in
  let running = ref true in
  while !running do
    let enabled =
      List.filter
        (fun t ->
          started.(t)
          && pc.(t) < Array.length progs.(t)
          &&
          match progs.(t).(pc.(t)) with
          | IAcq l -> lock_held.(l) < 0
          | IJoin u -> u < nt && pc.(u) >= Array.length progs.(u)
          | _ -> true)
        (List.init nt Fun.id)
    in
    match enabled with
    | [] -> running := false
    | ts ->
        let t = List.nth ts (Random.State.int rng (List.length ts)) in
        let tid = Tid.of_int t in
        (match progs.(t).(pc.(t)) with
        | ICall c -> Trace.append trace (Event.call tid (action_of_icall c))
        | IAcq l ->
            lock_held.(l) <- t;
            Trace.append trace (Event.acquire tid locks.(l))
        | IRel l ->
            lock_held.(l) <- -1;
            Trace.append trace (Event.release tid locks.(l))
        | IFork u ->
            started.(u) <- true;
            Trace.append trace (Event.fork tid (Tid.of_int u))
        | IJoin u -> Trace.append trace (Event.join tid (Tid.of_int u)));
        pc.(t) <- pc.(t) + 1
  done;
  trace

let trace_gen = Gen.map schedule progs_gen

(* --- brute force over all sync-preserving reorderings --------------- *)

(* Explore every reachable frontier (one program-order position per
   thread) of the reordering space, executing a call only when its
   HB-ordered conflicting predecessors ran, an acquire only when the
   lock is free and no later-observed-rank acquire of that lock ran,
   and a join only when the joined thread is finished. A conflicting
   cross-thread call pair races iff some reachable frontier has both
   as the immediate next instruction of their (started) threads. *)
let brute_pairs trace =
  let n = Trace.length trace in
  let nt = max 1 (Trace.num_threads trace) in
  let hb = Hb.create () in
  let tid = Array.make n 0 in
  let pos = Array.make n 0 in
  let nth_count = Array.make nt 0 in
  let thread_events = Array.make nt [] in
  let fork_of = Array.make nt (-1) in
  let vc = Array.make n None in
  let pts = Array.make n [] in
  let objn = Array.make n (-1) in
  let repr_of = Array.make n None in
  let reprs : (string, Repr.t) Hashtbl.t = Hashtbl.create 4 in
  let lock_rank = Array.make n (-1) in
  let lock_idx = Array.make n (-1) in
  let release_of = Array.make n (-1) in
  let nlocks = Array.length locks in
  let lock_count = Array.make nlocks 0 in
  let lock_open = Array.make nlocks (-1) in
  Trace.iter trace ~f:(fun i (e : Event.t) ->
      let t = Tid.to_int e.Event.tid in
      let c = Hb.step hb e in
      tid.(i) <- t;
      pos.(i) <- nth_count.(t);
      nth_count.(t) <- nth_count.(t) + 1;
      thread_events.(t) <- i :: thread_events.(t);
      match e.Event.op with
      | Event.Call a -> (
          match spec_for a.Action.obj with
          | None -> ()
          | Some s ->
              let repr =
                match Hashtbl.find_opt reprs (Spec.name s) with
                | Some r -> r
                | None ->
                    let r = Result.get_ok (Repr.of_spec s) in
                    Hashtbl.add reprs (Spec.name s) r;
                    r
              in
              vc.(i) <- Some (Vclock.copy c);
              pts.(i) <- Repr.eta repr a;
              objn.(i) <- Obj_id.id a.Action.obj;
              repr_of.(i) <- Some repr)
      | Event.Acquire l ->
          let li = Lock_id.id l in
          lock_idx.(i) <- li;
          lock_rank.(i) <- lock_count.(li);
          lock_count.(li) <- lock_count.(li) + 1;
          lock_open.(li) <- i
      | Event.Release l ->
          let li = Lock_id.id l in
          if lock_open.(li) >= 0 then begin
            release_of.(lock_open.(li)) <- i;
            lock_open.(li) <- -1
          end
      | Event.Fork u ->
          let u = Tid.to_int u in
          if u < nt && fork_of.(u) < 0 then fork_of.(u) <- i
      | _ -> ());
  let thread_events = Array.map (fun l -> Array.of_list (List.rev l)) thread_events in
  let conflict d f =
    objn.(d) >= 0
    && objn.(d) = objn.(f)
    &&
    let repr = Option.get (repr_of.(d)) in
    List.exists
      (fun p -> List.exists (fun q -> Repr.conflict repr p q) pts.(f))
      pts.(d)
  in
  let hb_ordered d f =
    (* d < f in observed order *)
    tid.(d) = tid.(f)
    ||
    let own = Vclock.get (Option.get vc.(d)) (Tid.of_int tid.(d)) in
    own <= Vclock.get (Option.get vc.(f)) (Tid.of_int tid.(d))
  in
  let executed frontier x = pos.(x) < frontier.(tid.(x)) in
  let started frontier t = fork_of.(t) < 0 || executed frontier fork_of.(t) in
  let lock_free frontier li =
    not
      (Array.exists
         (fun a ->
           lock_idx.(a) = li
           && executed frontier a
           && (release_of.(a) < 0 || not (executed frontier release_of.(a))))
         (Array.init n Fun.id))
  in
  let exec_enabled frontier x =
    let t = tid.(x) in
    started frontier t
    &&
    match (Trace.get trace x).Event.op with
    | Event.Call _ ->
        (* behavior preservation: HB-ordered conflicting preds ran *)
        let ok = ref true in
        for d = 0 to x - 1 do
          if
            !ok && tid.(d) <> t && conflict d x && hb_ordered d x
            && not (executed frontier d)
          then ok := false
        done;
        !ok
    | Event.Acquire _ ->
        let li = lock_idx.(x) in
        lock_free frontier li
        && not
             (Array.exists
                (fun a ->
                  lock_idx.(a) = li
                  && executed frontier a
                  && lock_rank.(a) > lock_rank.(x))
                (Array.init n Fun.id))
    | Event.Join u ->
        let u = Tid.to_int u in
        u >= nt || frontier.(u) >= nth_count.(u)
    | _ -> true
  in
  let races : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let key frontier = String.concat "," (List.map string_of_int (Array.to_list frontier)) in
  let rec explore frontier =
    let k = key frontier in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      (* race endpoints only need their thread prefix and fork *)
      for t1 = 0 to nt - 1 do
        for t2 = t1 + 1 to nt - 1 do
          if
            frontier.(t1) < nth_count.(t1)
            && frontier.(t2) < nth_count.(t2)
            && started frontier t1 && started frontier t2
          then begin
            let d = thread_events.(t1).(frontier.(t1)) in
            let f = thread_events.(t2).(frontier.(t2)) in
            if objn.(d) >= 0 && objn.(f) >= 0 && conflict d f then
              Hashtbl.replace races ((min d f, max d f)) ()
          end
        done
      done;
      for t = 0 to nt - 1 do
        if frontier.(t) < nth_count.(t) then begin
          let x = thread_events.(t).(frontier.(t)) in
          if exec_enabled frontier x then begin
            let frontier' = Array.copy frontier in
            frontier'.(t) <- frontier.(t) + 1;
            explore frontier'
          end
        end
      done
    end
  in
  explore (Array.make nt 0);
  List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) races [])

(* --- the differential properties ----------------------------------- *)

let differential =
  qcheck ~count:300 "racing_pairs = brute force on random small traces"
    trace_gen (fun trace ->
      let got = Result.get_ok (Predict.racing_pairs ~spec_for trace) in
      let want = brute_pairs trace in
      if got <> want then
        QCheck2.Test.fail_reportf
          "trace:@.%a@.predict: %s@.brute:   %s"
          Trace_text.print trace
          (String.concat " "
             (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) got))
          (String.concat " "
             (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) want))
      else true)

let witnessed_survive =
  qcheck ~count:300 "witnessed pairs always pass the closure" trace_gen
    (fun trace ->
      (* every VC-concurrent conflicting pair must be in racing_pairs *)
      let pairs = Result.get_ok (Predict.racing_pairs ~spec_for trace) in
      let res = Result.get_ok (Predict.analyze ~spec_for trace) in
      let witnessed_fps =
        List.map Report.fingerprint res.Predict.witnessed
      in
      let predicted_fps =
        List.map Report.fingerprint res.Predict.predicted
      in
      List.for_all
        (fun fp -> not (List.mem fp witnessed_fps))
        predicted_fps
      && (res.Predict.witnessed = [] || pairs <> []))

let jobs_deterministic =
  qcheck ~count:100 "analyze output is independent of --jobs" trace_gen
    (fun trace ->
      let run jobs =
        let r = Result.get_ok (Predict.analyze ~jobs ~spec_for trace) in
        ( List.map Report.fingerprint r.Predict.witnessed,
          List.map Report.fingerprint r.Predict.predicted )
      in
      run 1 = run 3)

(* --- fixed witnesses for each closure rule -------------------------- *)

let parse s = Result.get_ok (Trace_text.parse s)

let analyze_counts s =
  let r = Result.get_ok (Predict.analyze_stdspecs (parse s)) in
  (List.length r.Predict.witnessed, List.length r.Predict.predicted)

let lock_shadow_predicted () =
  (* conflicting puts HB-ordered only through an unrelated critical
     section: invisible to RD2, predicted by the closure *)
  let t =
    "T0 fork T1\n\
     T0 call \"dictionary:o\".put(\"k\", @1) / nil\n\
     T0 acquire l0\n\
     T0 release l0\n\
     T1 acquire l0\n\
     T1 release l0\n\
     T1 call \"dictionary:o\".put(\"k\", @2) / @1\n\
     T0 join T1\n"
  in
  Alcotest.(check (pair int int)) "witnessed 0, predicted 1" (0, 1)
    (analyze_counts t)

let lock_protected_not_predicted () =
  (* the same conflicting puts, but actually inside the critical
     sections: mutual exclusion really orders them *)
  let t =
    "T0 fork T1\n\
     T0 acquire l0\n\
     T0 call \"dictionary:o\".put(\"k\", @1) / nil\n\
     T0 release l0\n\
     T1 acquire l0\n\
     T1 call \"dictionary:o\".put(\"k\", @2) / @1\n\
     T1 release l0\n\
     T0 join T1\n"
  in
  Alcotest.(check (pair int int)) "no race" (0, 0) (analyze_counts t)

let join_ordered_not_predicted () =
  let t =
    "T0 fork T1\n\
     T1 call \"dictionary:o\".put(\"k\", @1) / nil\n\
     T0 join T1\n\
     T0 call \"dictionary:o\".put(\"k\", @2) / @1\n"
  in
  Alcotest.(check (pair int int)) "no race" (0, 0) (analyze_counts t)

let fork_ordered_not_predicted () =
  let t =
    "T0 call \"dictionary:o\".put(\"k\", @1) / nil\n\
     T0 fork T1\n\
     T1 call \"dictionary:o\".put(\"k\", @2) / @1\n\
     T0 join T1\n"
  in
  Alcotest.(check (pair int int)) "no race" (0, 0) (analyze_counts t)

let witnessed_still_reported () =
  let t =
    "T0 fork T1\n\
     T0 call \"dictionary:o\".put(\"k\", @1) / nil\n\
     T1 call \"dictionary:o\".put(\"k\", @2) / @1\n\
     T0 join T1\n"
  in
  Alcotest.(check (pair int int)) "witnessed only" (1, 0) (analyze_counts t)

let predict_superset_of_check () =
  (* acceptance: on at least one input, predict reports a strict
     superset of check (same witnessed set plus predicted races) *)
  let t =
    parse
      "T0 fork T1\n\
       T0 call \"dictionary:o\".put(\"k\", @1) / nil\n\
       T0 acquire l0\n\
       T0 release l0\n\
       T1 acquire l0\n\
       T1 release l0\n\
       T1 call \"dictionary:o\".put(\"k\", @2) / @1\n\
       T1 call \"dictionary:o\".put(\"j\", @3) / nil\n\
       T0 join T1\n\
       T0 call \"dictionary:o\".size() / 2\n"
  in
  let r = Result.get_ok (Predict.analyze_stdspecs t) in
  Alcotest.(check bool) "predicted nonempty" true (r.Predict.predicted <> []);
  let an = Analyzer.with_stdspecs () in
  Analyzer.run_trace an t;
  let check_fps =
    List.sort_uniq Int64.compare
      (List.map Report.fingerprint (Analyzer.rd2_races an))
  in
  let predict_fps =
    List.sort_uniq Int64.compare
      (List.map Report.fingerprint (r.Predict.witnessed @ r.Predict.predicted))
  in
  Alcotest.(check bool) "strict superset" true
    (List.length predict_fps > List.length check_fps
    && List.for_all (fun fp -> List.mem fp predict_fps) check_fps)

let fault_point_fails_cleanly () =
  Crd_fault.reset ();
  (match Crd_fault.configure "seed=7,predict_pass=once" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Predict.analyze_stdspecs (parse "T0 call \"counter:a\".add(@1)\n") with
  | Error e ->
      Alcotest.(check bool) "mentions the fault" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected the injected fault to surface");
  Crd_fault.reset ()

(* --- racedb provenance: merge laws ----------------------------------- *)

let mk_report key =
  let obj = Obj_id.make ~name:"dictionary:o" 0 in
  let action =
    Action.make ~obj ~meth:"put" ~args:[ Value.Str key; Value.Int 1 ] ()
  in
  {
    Report.index = 0;
    obj;
    tid = Tid.of_int 1;
    action;
    point = "k[\"" ^ key ^ "\"]";
    conflicting = "k[\"" ^ key ^ "\"]";
    prior = None;
  }

let provenance_join_laws () =
  let all = [ Provenance.Predicted; Provenance.Witnessed ] in
  List.iter
    (fun a ->
      Alcotest.(check bool) "idempotent" true
        (Provenance.equal (Provenance.join a a) a);
      List.iter
        (fun b ->
          Alcotest.(check bool) "commutative" true
            (Provenance.equal (Provenance.join a b) (Provenance.join b a));
          Alcotest.(check bool) "witnessed absorbs" true
            (Provenance.equal
               (Provenance.join a b)
               (if
                  Provenance.equal a Provenance.Witnessed
                  || Provenance.equal b Provenance.Witnessed
                then Provenance.Witnessed
                else Provenance.Predicted)))
        all)
    all

let witnessed_promotes_predicted () =
  (* folding a witnessed record over a predicted entry promotes it, and
     the promotion survives re-merge in either order *)
  let r = mk_report "p" in
  let predicted = Record.make ~ts:10. ~provenance:Provenance.Predicted ~spec:"std" r in
  let witnessed = Record.make ~ts:20. ~spec:"std" r in
  let dir = Sessions.fresh_dir "crd-predict" in
  let db = Result.get_ok (Db.open_db dir) in
  Db.append db predicted;
  Alcotest.(check int) "predicted first" 1 (Db.stats db).Db.predicted;
  Db.append db witnessed;
  Alcotest.(check int) "promoted" 0 (Db.stats db).Db.predicted;
  Alcotest.(check int) "distinct counts it" 1 (Db.stats db).Db.distinct;
  Db.close db;
  (* and never demotes: a later predicted sighting keeps witnessed *)
  let db = Result.get_ok (Db.open_db dir) in
  Db.append db (Record.make ~ts:30. ~provenance:Provenance.Predicted ~spec:"std" r);
  Alcotest.(check int) "still witnessed" 0 (Db.stats db).Db.predicted;
  Db.close db

let record_roundtrip_provenance =
  qcheck ~count:200 "record codec round-trips provenance"
    (Gen.pair (Gen.oneofl [ Provenance.Predicted; Provenance.Witnessed ])
       (Gen.string_size ~gen:Gen.printable (Gen.int_range 1 8)))
    (fun (provenance, key) ->
      let r = Record.make ~ts:1. ~provenance ~spec:"std" (mk_report key) in
      match Record.decode (Record.encode r) with
      | Ok r' -> Record.equal r r'
      | Error e -> QCheck2.Test.fail_reportf "decode: %s" e)


let probe_stats () =
  let nonempty = ref 0 and total_pairs = ref 0 and with_locks = ref 0 and with_forks = ref 0 in
  let rand = Random.State.make [| 42 |] in
  for _ = 1 to 300 do
    let trace = Gen.generate1 ~rand trace_gen in
    let pairs = brute_pairs trace in
    if pairs <> [] then incr nonempty;
    total_pairs := !total_pairs + List.length pairs;
    let locks = ref false and forks = ref false in
    Trace.iter trace ~f:(fun _ e -> match e.Event.op with
      | Event.Acquire _ -> locks := true | Event.Fork _ -> forks := true | _ -> ());
    if !locks then incr with_locks;
    if !forks then incr with_forks
  done;
  Printf.printf "nonempty-race traces: %d/300, total pairs %d, with locks %d, with forks %d\n%!"
    !nonempty !total_pairs !with_locks !with_forks;
  Alcotest.(check bool) "generator not vacuous" true (!nonempty > 50)

let suite =
  ( "predict",
    [
      Alcotest.test_case "generator coverage" `Quick probe_stats;
      differential;
      witnessed_survive;
      jobs_deterministic;
      Alcotest.test_case "lock shadow is predicted" `Quick
        lock_shadow_predicted;
      Alcotest.test_case "lock-protected pair is not" `Quick
        lock_protected_not_predicted;
      Alcotest.test_case "join-ordered pair is not" `Quick
        join_ordered_not_predicted;
      Alcotest.test_case "fork-ordered pair is not" `Quick
        fork_ordered_not_predicted;
      Alcotest.test_case "witnessed races still reported" `Quick
        witnessed_still_reported;
      Alcotest.test_case "predict is a strict superset of check" `Quick
        predict_superset_of_check;
      Alcotest.test_case "predict_pass fault fails cleanly" `Quick
        fault_point_fails_cleanly;
      Alcotest.test_case "provenance join laws" `Quick provenance_join_laws;
      Alcotest.test_case "witnessed promotes predicted" `Quick
        witnessed_promotes_predicted;
      record_roundtrip_provenance;
    ] )
