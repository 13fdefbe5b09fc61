open Crd

let obj = Obj_id.make ~name:"o" 0
let put k = Action.make ~obj ~meth:"put" ~args:[ Value.Str k ] ~rets:[] ()

(* Replay the Fig 3 execution and check the clock relationships the paper
   works through: a1 || a2, a1 < a3, a2 < a3. *)
let fig3 () =
  let hb = Hb.create () in
  let t0 = Tid.of_int 0 and t2 = Tid.of_int 2 and t3 = Tid.of_int 3 in
  ignore (Hb.step hb (Event.fork t0 t2));
  ignore (Hb.step hb (Event.fork t0 t3));
  let vc_a1 = Hb.step hb (Event.call t3 (put "a.com")) in
  let vc_a2 = Hb.step hb (Event.call t2 (put "a.com")) in
  ignore (Hb.step hb (Event.join t0 t2));
  ignore (Hb.step hb (Event.join t0 t3));
  let vc_a3 =
    Hb.step hb
      (Event.call t0 (Action.make ~obj ~meth:"size" ~rets:[ Value.Int 1 ] ()))
  in
  Alcotest.(check bool) "a1 || a2" true (Vclock.concurrent vc_a1 vc_a2);
  Alcotest.(check bool) "a1 < a3" true (Vclock.leq vc_a1 vc_a3);
  Alcotest.(check bool) "a2 < a3" true (Vclock.leq vc_a2 vc_a3);
  Alcotest.(check bool) "a3 not < a1" false (Vclock.leq vc_a3 vc_a1)

let program_order () =
  let hb = Hb.create () in
  let t = Tid.of_int 0 in
  let v1 = Hb.step hb (Event.call t (put "x")) in
  let v2 = Hb.step hb (Event.call t (put "y")) in
  Alcotest.(check bool) "same thread ordered" true (Vclock.leq v1 v2)

let unsynchronized_threads_concurrent () =
  let hb = Hb.create () in
  let v1 = Hb.step hb (Event.call (Tid.of_int 1) (put "x")) in
  let v2 = Hb.step hb (Event.call (Tid.of_int 2) (put "y")) in
  Alcotest.(check bool) "concurrent" true (Vclock.concurrent v1 v2)

let lock_edges () =
  let hb = Hb.create () in
  let t1 = Tid.of_int 1 and t2 = Tid.of_int 2 in
  let l = Lock_id.make 0 in
  ignore (Hb.step hb (Event.acquire t1 l));
  let v1 = Hb.step hb (Event.call t1 (put "x")) in
  ignore (Hb.step hb (Event.release t1 l));
  ignore (Hb.step hb (Event.acquire t2 l));
  let v2 = Hb.step hb (Event.call t2 (put "x")) in
  Alcotest.(check bool) "release-acquire orders" true (Vclock.leq v1 v2);
  Alcotest.(check bool) "not concurrent" false (Vclock.concurrent v1 v2)

let lock_no_edge_without_handoff () =
  let hb = Hb.create () in
  let t1 = Tid.of_int 1 and t2 = Tid.of_int 2 in
  let l1 = Lock_id.make 0 and l2 = Lock_id.make 1 in
  ignore (Hb.step hb (Event.acquire t1 l1));
  let v1 = Hb.step hb (Event.call t1 (put "x")) in
  ignore (Hb.step hb (Event.release t1 l1));
  (* Different lock: no ordering. *)
  ignore (Hb.step hb (Event.acquire t2 l2));
  let v2 = Hb.step hb (Event.call t2 (put "x")) in
  Alcotest.(check bool) "different locks stay concurrent" true
    (Vclock.concurrent v1 v2)

let fork_edge () =
  let hb = Hb.create () in
  let t0 = Tid.of_int 0 and t1 = Tid.of_int 1 in
  let v_before = Hb.step hb (Event.call t0 (put "x")) in
  ignore (Hb.step hb (Event.fork t0 t1));
  let v_child = Hb.step hb (Event.call t1 (put "y")) in
  let v_after = Hb.step hb (Event.call t0 (put "z")) in
  Alcotest.(check bool) "parent-before-fork < child" true
    (Vclock.leq v_before v_child);
  Alcotest.(check bool) "parent-after-fork || child" true
    (Vclock.concurrent v_after v_child)

let snapshot_stability () =
  let hb = Hb.create () in
  let t0 = Tid.of_int 0 in
  let v1 = Hb.step hb (Event.call t0 (put "x")) in
  let saved = Vclock.copy v1 in
  (* Sync events mutate T(t0); earlier snapshots must not change. *)
  ignore (Hb.step hb (Event.fork t0 (Tid.of_int 1)));
  ignore (Hb.step hb (Event.release t0 (Lock_id.make 7)));
  Alcotest.(check bool) "snapshot unchanged" true (Vclock.equal saved v1)

let snapshot_shared_within_segment () =
  let hb = Hb.create () in
  let t0 = Tid.of_int 0 in
  let v1 = Hb.step hb (Event.call t0 (put "x")) in
  let v2 = Hb.step hb (Event.call t0 (put "y")) in
  Alcotest.(check bool) "same segment, same clock" true (v1 == v2)

(* Reference happens-before: explicit edges (program order, fork, join,
   release->acquire) + transitive closure. The vector clocks of Table 1
   must represent exactly this partial order (restricted to the events
   that carry clocks). *)
let reference_reachability trace =
  let n = Trace.length trace in
  let succs = Array.make n [] in
  let add i j = if i >= 0 then succs.(i) <- j :: succs.(i) in
  let last_of_thread = Hashtbl.create 8 in
  let pending_fork = Hashtbl.create 8 in
  let last_release = Hashtbl.create 8 in
  Trace.iter trace ~f:(fun i (e : Event.t) ->
      let tid = Tid.to_int e.tid in
      (match Hashtbl.find_opt last_of_thread tid with
      | Some prev -> add prev i
      | None -> (
          match Hashtbl.find_opt pending_fork tid with
          | Some f -> add f i
          | None -> ()));
      Hashtbl.replace last_of_thread tid i;
      match e.op with
      | Event.Fork u -> Hashtbl.replace pending_fork (Tid.to_int u) i
      | Event.Join u -> (
          match Hashtbl.find_opt last_of_thread (Tid.to_int u) with
          | Some j -> add j i
          | None -> ())
      | Event.Acquire l -> (
          match Hashtbl.find_opt last_release (Lock_id.id l) with
          | Some j -> add j i
          | None -> ())
      | Event.Release l -> Hashtbl.replace last_release (Lock_id.id l) i
      | _ -> ());
  (* Reachability by reverse-order DP: events only reach later events. *)
  let reach = Array.init n (fun i -> Array.make (n - i) false) in
  let reachable i j = i <= j && (i = j || reach.(i).(j - i)) in
  for i = n - 1 downto 0 do
    List.iter
      (fun j ->
        reach.(i).(j - i) <- true;
        for k = j to n - 1 do
          if reachable j k then reach.(i).(k - i) <- true
        done)
      succs.(i)
  done;
  reachable

let clocks_match_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"vector clocks = explicit closure"
       (Generators.dict_trace ~threads:4 ~objects:1 ~len:50)
       (fun trace ->
         let reachable = reference_reachability trace in
         let hb = Hb.create () in
         let clocks = Array.make (Trace.length trace) None in
         Trace.iter trace ~f:(fun i e ->
             let vc = Hb.step hb e in
             match e.Event.op with
             | Event.Call _ | Event.Read _ | Event.Write _ ->
                 clocks.(i) <- Some (Vclock.copy vc)
             | _ -> ());
         let ok = ref true in
         Array.iteri
           (fun i ci ->
             Array.iteri
               (fun j cj ->
                 match (ci, cj) with
                 | Some ci, Some cj when i < j ->
                     if Vclock.leq ci cj <> reachable i j then ok := false
                 | _ -> ())
               clocks)
           clocks;
         !ok))

(* Random event streams over a few threads (plus one far tid) and
   sparse lock ids, with no well-formedness imposed: threads act without
   being forked and after being joined, locks are re-acquired, released
   by other threads or never released. Calls and locations are drawn
   from [call] and [loc]. *)
let gen_wild_stream ~call ~loc =
  let open QCheck2.Gen in
  let tid = map Tid.of_int (frequency [ (12, int_range 0 5); (1, pure 300) ]) in
  let lock =
    map
      (fun id -> Lock_id.make id)
      (oneofl [ 0; 1; 7; 4096; 1_000_003; -3; max_int ])
  in
  let op =
    frequency
      [
        (3, map (fun a -> Event.Call a) call);
        (2, map (fun l -> Event.Read l) loc);
        (2, map (fun l -> Event.Write l) loc);
        (2, map (fun u -> Event.Fork u) tid);
        (2, map (fun u -> Event.Join u) tid);
        (3, map (fun l -> Event.Acquire l) lock);
        (3, map (fun l -> Event.Release l) lock);
        (1, pure Event.Begin);
        (1, pure Event.End);
      ]
  in
  list_size (int_range 0 120) (map2 (fun tid op -> { Event.tid; op }) tid op)

let gen_wild_events =
  gen_wild_stream
    ~call:(QCheck2.Gen.map (fun k -> put (string_of_int k)) (QCheck2.Gen.int_range 0 3))
    ~loc:(QCheck2.Gen.pure (Mem_loc.Global "x"))

(* [Hb.step]'s snapshots and [Hb.advance]'s live clock both equal the
   oracle's clock on every [Call]/[Read]/[Write], and the snapshots stay
   equal to it after the rest of the stream has run. *)
let live_and_snapshot_match_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"step/advance = oracle Hb"
       ~print:(fun es ->
         String.concat "\n"
           (List.map (fun e -> Fmt.str "%a" Event.pp e) es))
       gen_wild_events
       (fun events ->
         let oracle = Hb_oracle.create () in
         let stepped = Hb.create () and live = Hb.create () in
         let kept = ref [] in
         List.for_all
           (fun (e : Event.t) ->
             let expected = Hb_oracle.step oracle e in
             let snap = Hb.step stepped e in
             let cur = Hb.advance live e in
             match e.op with
             | Event.Call _ | Event.Read _ | Event.Write _ ->
                 kept := (snap, Vclock.copy expected) :: !kept;
                 Vclock.equal snap expected && Vclock.equal cur expected
             | _ -> true)
           events
         && List.for_all (fun (snap, expected) -> Vclock.equal snap expected) !kept))

let synth_64t ~events =
  Crd_workloads.Synth.generate ~seed:7L
    {
      (Crd_workloads.Synth.default ~events) with
      threads = 64;
      sync_period = 2;
      skew = Crd_workloads.Synth.Uniform;
    }

(* Wild streams for the sharded engine: calls that fit the built-in
   dictionary specification on three objects, and reads and writes of
   four locations, so each shard of two or three gets its own subset. *)
let dict_objs =
  List.map
    (fun i -> Obj_id.make ~name:(Printf.sprintf "dictionary:d%d" i) i)
    [ 1; 2; 3 ]

let shard_locs =
  let o = List.hd dict_objs in
  Mem_loc.
    [ Global "x"; Global "y"; Field (o, "f"); Slot (o, "s", Value.Int 1) ]

let gen_sharded_events =
  let open QCheck2.Gen in
  let key = map (fun k -> Value.Str k) (oneofl [ "a"; "b" ]) in
  let value = oneofl [ Value.Nil; Value.Int 1; Value.Int 2 ] in
  let call =
    let* obj = oneofl dict_objs in
    oneof
      [
        map3
          (fun k v p -> Action.make ~obj ~meth:"put" ~args:[ k; v ] ~rets:[ p ] ())
          key value value;
        map2
          (fun k v -> Action.make ~obj ~meth:"get" ~args:[ k ] ~rets:[ v ] ())
          key value;
        map
          (fun r -> Action.make ~obj ~meth:"size" ~args:[] ~rets:[ Value.Int r ] ())
          (int_range 0 2);
      ]
  in
  gen_wild_stream ~call ~loc:(oneofl shard_locs)

let agree_config =
  { Analyzer.rd2 = `Constant; direct = false; fasttrack = true; djit = false; atomicity = false }

(* RD2's and FastTrack's races, in trace order, when fed by the oracle
   engine. *)
let oracle_races trace =
  let hb = Hb_oracle.create () in
  let rd2 =
    Rd2.create
      ~repr_for:(fun o ->
        Option.map (fun s -> Result.get_ok (Repr.of_spec s)) (Stdspecs.spec_for o))
      ~collect:false ()
  and ft = Fasttrack.create () in
  let races = ref [] in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb_oracle.step hb e in
      match e.op with
      | Event.Call a ->
          races := List.rev_append (Rd2.on_action rd2 ~index e.tid a vc) !races
      | Event.Read loc -> ignore (Fasttrack.on_read ft ~index e.tid loc vc)
      | Event.Write loc -> ignore (Fasttrack.on_write ft ~index e.tid loc vc)
      | _ -> ());
  (List.rev !races, Fasttrack.races ft)

let analyzer_races ~jobs trace =
  let an =
    Result.get_ok
      (Analyzer.create ~config:agree_config ~jobs ~spec_for:Stdspecs.spec_for ())
  in
  Analyzer.run_trace an trace;
  (Analyzer.rd2_races an, Analyzer.fasttrack_races an)

let jobs_agree trace =
  let expected = oracle_races trace in
  List.for_all (fun jobs -> analyzer_races ~jobs trace = expected) [ 1; 2; 3 ]

let jobs_agree_on_wild_streams =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"jobs 1/2/3 = oracle on wild streams"
       ~print:(fun es ->
         String.concat "\n" (List.map (fun e -> Fmt.str "%a" Event.pp e) es))
       gen_sharded_events
       (fun events -> jobs_agree (Trace.of_list events)))

(* Every shard runs its own clock pass over the broadcast synchronization
   events, and the inline engine runs the same per-event path: at [jobs]
   1, 2 and 3 the analysis reports exactly the races of detectors fed by
   the oracle engine, on a 64-thread trace where most events sit in one-
   or two-event segments and on wild streams whose sync events reach a
   shard after a thread's first routed event there. The wild streams'
   objects and locations spread over two and over three shards. *)
let jobs_agree_on_64_threads () =
  let spread n keys =
    List.length (List.sort_uniq compare (List.map (fun k -> abs (k mod n)) keys))
  in
  let obj_keys = List.map Obj_id.id dict_objs
  and loc_keys = List.map Mem_loc.hash shard_locs in
  List.iter
    (fun n ->
      Alcotest.(check bool) "objects spread" true (spread n obj_keys >= 2);
      Alcotest.(check bool) "locations spread" true (spread n loc_keys >= 2))
    [ 2; 3 ];
  let trace = synth_64t ~events:30_000 in
  let rd2, ft = oracle_races trace in
  Alcotest.(check bool) "some rd2 races" true (rd2 <> []);
  Alcotest.(check bool) "some fasttrack races" true (ft <> []);
  Alcotest.(check bool) "64 threads: jobs 1/2/3 = oracle" true (jobs_agree trace);
  let _, _, wild = jobs_agree_on_wild_streams in
  wild ()

(* Once every thread and lock has been seen and the clocks have reached
   their width, [Hb.advance] allocates nothing. *)
let advance_allocation_free () =
  let trace = synth_64t ~events:20_000 in
  let events = Array.init (Trace.length trace) (Trace.get trace) in
  let hb = Hb.create () in
  let run () =
    for i = 0 to Array.length events - 1 do
      ignore (Hb.advance hb (Array.unsafe_get events i))
    done
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int (Array.length events) in
  if per_event > 0. then
    Alcotest.failf "Hb.advance allocates %.3f minor words per event (%.0f total)"
      per_event words

let suite =
  ( "hb",
    [
      clocks_match_reference;
      Alcotest.test_case "fig3" `Quick fig3;
      Alcotest.test_case "program order" `Quick program_order;
      Alcotest.test_case "unsynchronized concurrent" `Quick
        unsynchronized_threads_concurrent;
      Alcotest.test_case "lock edges" `Quick lock_edges;
      Alcotest.test_case "different locks no edge" `Quick
        lock_no_edge_without_handoff;
      Alcotest.test_case "fork edge" `Quick fork_edge;
      Alcotest.test_case "snapshot stability" `Quick snapshot_stability;
      Alcotest.test_case "snapshot shared in segment" `Quick
        snapshot_shared_within_segment;
      live_and_snapshot_match_oracle;
      Alcotest.test_case "jobs 1/2 agree on 64 threads" `Quick
        jobs_agree_on_64_threads;
      Alcotest.test_case "advance allocation-free" `Quick advance_allocation_free;
    ] )
