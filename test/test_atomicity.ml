open Crd
module Gen = QCheck2.Gen

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let dict_repr = Result.get_ok (Repr.of_spec (Stdspecs.dictionary ()))
let repr_for _ = Some dict_repr

let run trace =
  let a = Atomicity.create ~repr_for () in
  Trace.iter trace ~f:(fun index e -> ignore (Atomicity.step a ~index e));
  a

let parse src = Result.get_ok (Trace_text.parse src)

(* Two interleaved get-then-put transactions on the same key: the classic
   non-serializable pattern (lost update). *)
let lost_update_interleaved () =
  let a =
    run
      (parse
         "T0 fork T1\n\
          T0 fork T2\n\
          T1 begin\n\
          T2 begin\n\
          T1 call d.get(1) / 0\n\
          T2 call d.get(1) / 0\n\
          T1 call d.put(1, 1) / 0\n\
          T2 call d.put(1, 1) / 0\n\
          T1 end\n\
          T2 end\n")
  in
  Alcotest.(check int) "one violation" 1 (List.length (Atomicity.violations a))

(* The same two transactions run back to back: serializable, even though
   they are unordered by happens-before (a commutativity RACE exists, but
   no atomicity violation — the executions differ only in which
   serialization happened). *)
let lost_update_serial () =
  let a =
    run
      (parse
         "T0 fork T1\n\
          T0 fork T2\n\
          T1 begin\n\
          T1 call d.get(1) / 0\n\
          T1 call d.put(1, 1) / 0\n\
          T1 end\n\
          T2 begin\n\
          T2 call d.get(1) / 1\n\
          T2 call d.put(1, 2) / 1\n\
          T2 end\n")
  in
  Alcotest.(check int) "no violation" 0 (List.length (Atomicity.violations a))

(* Commuting operations inside overlapping transactions are fine: the
   puts hit different keys. *)
let commuting_overlap () =
  let a =
    run
      (parse
         "T0 fork T1\n\
          T0 fork T2\n\
          T1 begin\n\
          T2 begin\n\
          T1 call d.get(1) / 0\n\
          T2 call d.get(2) / 0\n\
          T1 call d.put(1, 1) / 0\n\
          T2 call d.put(2, 1) / 0\n\
          T1 end\n\
          T2 end\n")
  in
  Alcotest.(check int) "no violation" 0 (List.length (Atomicity.violations a))

(* Size is invisible to overwriting puts (the Fig 7 conflict structure
   carries over to atomicity checking). *)
let size_vs_overwrite () =
  let a =
    run
      (parse
         "T0 fork T1\n\
          T1 begin\n\
          T1 call d.size() / 1\n\
          T0 call d.put(1, 5) / 2\n\
          T1 call d.size() / 1\n\
          T1 end\n")
  in
  Alcotest.(check int) "overwriting put does not break size txn" 0
    (List.length (Atomicity.violations a));
  (* An inserting put between the two sizes does. *)
  let a =
    run
      (parse
         "T0 fork T1\n\
          T1 begin\n\
          T1 call d.size() / 1\n\
          T0 call d.put(9, 5) / nil\n\
          T1 call d.size() / 2\n\
          T1 end\n")
  in
  Alcotest.(check int) "resizing put breaks the size txn" 1
    (List.length (Atomicity.violations a))

(* Velodrome-style low-level check on reads/writes. *)
let rw_violation () =
  let a =
    run
      (parse
         "T0 fork T1\n\
          T1 begin\n\
          T1 read global:x\n\
          T0 write global:x\n\
          T1 write global:x\n\
          T1 end\n")
  in
  Alcotest.(check int) "stale read-modify-write" 1
    (List.length (Atomicity.violations a))

let rw_serial_ok () =
  let a =
    run
      (parse
         "T0 fork T1\n\
          T0 write global:x\n\
          T1 begin\n\
          T1 read global:x\n\
          T1 write global:x\n\
          T1 end\n\
          T0 read global:x\n")
  in
  Alcotest.(check int) "serial rw ok" 0 (List.length (Atomicity.violations a))

(* Without atomic blocks every action is a unary transaction; edges only
   ever point forward in trace order, so no cycle can form. *)
let unary_never_violates =
  qcheck ~count:300 "unary transactions never violate atomicity"
    (Generators.dict_trace ~threads:4 ~objects:2 ~len:60) (fun trace ->
      Atomicity.violations (run trace) = [])

let sched_atomic_markers () =
  let trace = Trace.create () in
  Sched.run ~sink:(Trace.append trace) (fun () ->
      Sched.atomic (fun () ->
          Sched.atomic (fun () -> ());
          Sched.emit Event.(Read (Mem_loc.Global "x"))));
  let ops = List.map (fun (e : Event.t) -> e.op) (Trace.to_list trace) in
  match ops with
  | [ Event.Begin; Event.Read _; Event.End ] -> ()
  | _ -> Alcotest.failf "nesting not flattened:@.%s" (Trace_text.to_string trace)

let begin_end_text_roundtrip () =
  let src = "T0 begin\nT0 call d.get(1) / nil\nT0 end\n" in
  match Trace_text.parse src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok t -> Alcotest.(check string) "roundtrip" src (Trace_text.to_string t)

let analyzer_integration () =
  let an =
    Analyzer.with_stdspecs
      ~config:
        { Analyzer.rd2 = `Off; direct = false; fasttrack = false; djit = false; atomicity = true }
      ()
  in
  Sched.run ~seed:3L ~sink:(Analyzer.step an) (fun () ->
      let d = Monitored.Dict.create ~name:"dictionary:d" () in
      let bump () =
        Sched.atomic (fun () ->
            let v = Monitored.Dict.get d (Value.Int 1) in
            let n = match v with Value.Int n -> n | _ -> 0 in
            ignore (Monitored.Dict.put d (Value.Int 1) (Value.Int (n + 1))))
      in
      (* Many concurrent bumpers: some interleaving will tangle. *)
      for _ = 1 to 6 do
        ignore (Sched.fork bump)
      done;
      Sched.join_all ());
  Alcotest.(check bool) "analyzer surfaces violations" true
    (Analyzer.atomicity_violations an <> [])

(* Acceptance soundness against a brute-force oracle: when the checker
   reports no violation on a trace of whole transactions, some serial
   order of those transactions replays successfully (every recorded
   return value stays valid) on the executable dictionary model. *)

let model =
  Models.dictionary
    ~keys:[ Value.Int 0; Value.Int 1 ]
    ~values:[ Value.Nil; Value.Int 1; Value.Int 2 ]
    ()

(* Generate: n threads, each one atomic transaction of a few dictionary
   operations; interleave them randomly; returns recorded against the
   evolving shared state (so the trace is a real execution). *)
let txn_trace_gen =
  let open Gen in
  let* seed = int_range 0 0xFFFFFF in
  return
    (let prng = Prng.make (Int64.of_int seed) in
     let obj = Obj_id.make ~name:"dictionary:d" 0 in
     let threads = 2 + Prng.int prng 2 in
     let ops_left = Array.init threads (fun _ -> 2 + Prng.int prng 2) in
     let started = Array.make threads false in
     let state = Hashtbl.create 4 in
     let keys = [| Value.Int 0; Value.Int 1 |] in
     let vals = [| Value.Nil; Value.Int 1; Value.Int 2 |] in
     let trace = Trace.create () in
     for t = 1 to threads do
       Trace.append trace (Event.fork Tid.main (Tid.of_int t))
     done;
     let live () =
       Array.to_list (Array.mapi (fun i n -> (i, n)) ops_left)
       |> List.filter_map (fun (i, n) -> if n > 0 then Some i else None)
     in
     let rec go () =
       match live () with
       | [] -> ()
       | alive ->
           let i = List.nth alive (Prng.int prng (List.length alive)) in
           let tid = Tid.of_int (i + 1) in
           if not started.(i) then begin
             started.(i) <- true;
             Trace.append trace (Event.begin_ tid)
           end;
           let k = keys.(Prng.int prng 2) in
           (match Prng.int prng 3 with
           | 0 ->
               let v = vals.(Prng.int prng 3) in
               let p =
                 Option.value ~default:Value.Nil (Hashtbl.find_opt state k)
               in
               if Value.is_nil v then Hashtbl.remove state k
               else Hashtbl.replace state k v;
               Trace.append trace
                 (Event.call tid
                    (Action.make ~obj ~meth:"put" ~args:[ k; v ] ~rets:[ p ] ()))
           | 1 ->
               let v =
                 Option.value ~default:Value.Nil (Hashtbl.find_opt state k)
               in
               Trace.append trace
                 (Event.call tid
                    (Action.make ~obj ~meth:"get" ~args:[ k ] ~rets:[ v ] ()))
           | _ ->
               Trace.append trace
                 (Event.call tid
                    (Action.make ~obj ~meth:"size"
                       ~rets:[ Value.Int (Hashtbl.length state) ]
                       ())));
           ops_left.(i) <- ops_left.(i) - 1;
           if ops_left.(i) = 0 then Trace.append trace (Event.end_ tid);
           go ()
     in
     go ();
     trace)

let transactions_of trace =
  let txns = Hashtbl.create 4 in
  Trace.iter_events trace ~f:(fun (e : Event.t) ->
      match e.op with
      | Event.Call a ->
          let key = Tid.to_int e.tid in
          let l = Option.value ~default:[] (Hashtbl.find_opt txns key) in
          Hashtbl.replace txns key (a :: l)
      | _ -> ());
  Hashtbl.fold (fun _ ops acc -> List.rev ops :: acc) txns []

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> y != x) l)))
        l

let replay_serial txns_in_order =
  List.fold_left
    (fun st (a : Action.t) ->
      match st with
      | None -> None
      | Some s ->
          model.Model.apply s
            { Model.meth = a.Action.meth; args = a.Action.args; rets = a.Action.rets })
    (Some model.Model.initial)
    (List.concat txns_in_order)

let acceptance_sound =
  qcheck ~count:500
    "no violation => a serial order replays (acceptance soundness)"
    txn_trace_gen
    (fun trace ->
      let a = run trace in
      if Atomicity.violations a <> [] then true (* only acceptance checked *)
      else
        List.exists
          (fun perm -> replay_serial perm <> None)
          (permutations (transactions_of trace)))

let suite =
  ( "atomicity",
    [
      acceptance_sound;
      Alcotest.test_case "lost update (interleaved)" `Quick
        lost_update_interleaved;
      Alcotest.test_case "lost update (serial) ok" `Quick lost_update_serial;
      Alcotest.test_case "commuting overlap ok" `Quick commuting_overlap;
      Alcotest.test_case "size vs overwrite" `Quick size_vs_overwrite;
      Alcotest.test_case "read-write violation" `Quick rw_violation;
      Alcotest.test_case "read-write serial ok" `Quick rw_serial_ok;
      Alcotest.test_case "Sched.atomic markers" `Quick sched_atomic_markers;
      Alcotest.test_case "begin/end trace text" `Quick begin_end_text_roundtrip;
      Alcotest.test_case "analyzer integration" `Quick analyzer_integration;
      unary_never_violates;
    ] )
