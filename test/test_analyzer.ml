open Crd
module Gen = QCheck2.Gen
module Synth = Crd_workloads.Synth

let fig1 ~hosts sink =
  Sched.run ~seed:42L ~sink (fun () ->
      let o = Monitored.Dict.create ~name:"dictionary:o" () in
      List.iteri
        (fun i host ->
          ignore
            (Sched.fork (fun () ->
                 ignore (Monitored.Dict.put o (Value.Str host) (Value.Ref i)))))
        hosts;
      Sched.join_all ();
      ignore (Monitored.Dict.size o))

let end_to_end_fig1 () =
  let an = Analyzer.with_stdspecs () in
  fig1 ~hosts:[ "a.com"; "a.com"; "b.com" ] (Analyzer.step an);
  Alcotest.(check int) "one commutativity race" 1
    (List.length (Analyzer.rd2_races an));
  Alcotest.(check int) "one racing object" 1
    (Report.distinct_objects (Analyzer.rd2_races an))

let end_to_end_clean () =
  let an = Analyzer.with_stdspecs () in
  fig1 ~hosts:[ "a.com"; "b.com"; "c.com" ] (Analyzer.step an);
  Alcotest.(check int) "no races" 0 (List.length (Analyzer.rd2_races an))

let naming_convention () =
  let an = Analyzer.with_stdspecs () in
  (* An object with an unknown prefix is not monitored. *)
  Sched.run ~sink:(Analyzer.step an) (fun () ->
      let o = Monitored.Dict.create ~name:"unknown:thing" () in
      ignore (Sched.fork (fun () -> ignore (Monitored.Dict.put o (Value.Int 1) (Value.Int 2))));
      ignore (Monitored.Dict.put o (Value.Int 1) (Value.Int 3)));
  Alcotest.(check int) "not monitored" 0 (List.length (Analyzer.rd2_races an))

let config_off () =
  let an =
    Analyzer.with_stdspecs
      ~config:{ Analyzer.rd2 = `Off; direct = false; fasttrack = false; djit = false; atomicity = false }
      ()
  in
  fig1 ~hosts:[ "a.com"; "a.com" ] (Analyzer.step an);
  Alcotest.(check int) "rd2 off" 0 (List.length (Analyzer.rd2_races an));
  Alcotest.(check bool) "no stats" true (Analyzer.rd2_stats an = None)

let direct_and_linear_agree () =
  let run config =
    let an = Analyzer.with_stdspecs ~config () in
    fig1 ~hosts:[ "a.com"; "a.com"; "b.com"; "b.com" ] (Analyzer.step an);
    an
  in
  let base = { Analyzer.rd2 = `Constant; direct = true; fasttrack = false; djit = false; atomicity = false } in
  let an1 = run base in
  let an2 = run { base with Analyzer.rd2 = `Linear } in
  let indices races = List.sort_uniq compare (List.map (fun (r : Report.t) -> r.index) races) in
  Alcotest.(check (list int)) "constant = direct"
    (indices (Analyzer.rd2_races an1))
    (indices (Analyzer.direct_races an1));
  Alcotest.(check (list int)) "constant = linear"
    (indices (Analyzer.rd2_races an1))
    (indices (Analyzer.rd2_races an2))

let djit_mirrors_fasttrack () =
  let an =
    Analyzer.with_stdspecs
      ~config:{ Analyzer.rd2 = `Off; direct = false; fasttrack = true; djit = true; atomicity = false }
      ()
  in
  Sched.run ~sink:(Analyzer.step an) (fun () ->
      let c = Monitored.Shared.create ~name:"c" 0 in
      ignore (Sched.fork (fun () -> Monitored.Shared.update c succ));
      Monitored.Shared.update c succ;
      Sched.join_all ());
  Alcotest.(check bool) "fasttrack found the update race" true
    (Analyzer.fasttrack_races an <> []);
  Alcotest.(check bool) "djit agrees it exists" true (Analyzer.djit_races an <> [])

let run_trace_from_text () =
  let trace =
    Result.get_ok
      (Trace_text.parse
         "T0 fork T1\n\
          T1 call dictionary.put(1, 2) / nil\n\
          T0 call dictionary.put(1, 3) / nil\n")
  in
  let an = Analyzer.with_stdspecs () in
  Analyzer.run_trace an trace;
  Alcotest.(check int) "events" 3 (Analyzer.events an);
  Alcotest.(check int) "race found" 1 (List.length (Analyzer.rd2_races an))

let bad_spec_surfaces () =
  (* A non-ECL spec must fail loudly when RD2 needs it. *)
  let w = Signature.make ~meth:"write" ~args:[ "v" ] () in
  let r = Signature.make ~meth:"read" ~rets:[ "v" ] () in
  let phi =
    Formula.Atom
      {
        Atom.pred = Atom.Eq;
        lhs = Atom.Var { Atom.side = Atom.Side.Fst; slot = 0; name = "v1" };
        rhs = Atom.Var { Atom.side = Atom.Side.Snd; slot = 0; name = "v2" };
      }
  in
  let spec =
    Result.get_ok (Spec.make ~name:"reg" ~methods:[ w; r ] [ ("write", "read", phi) ])
  in
  let an =
    Result.get_ok
      (Analyzer.create
         ~config:{ Analyzer.rd2 = `Constant; direct = false; fasttrack = false; djit = false; atomicity = false }
         ~spec_for:(fun _ -> Some spec)
         ())
  in
  let obj = Obj_id.make ~name:"reg" 0 in
  let ev =
    Event.call Tid.main (Action.make ~obj ~meth:"write" ~args:[ Value.Int 1 ] ())
  in
  match Analyzer.step an ev with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected a translation failure"

let summary_prints () =
  let an = Analyzer.with_stdspecs () in
  fig1 ~hosts:[ "a.com"; "a.com" ] (Analyzer.step an);
  let s = Fmt.str "%a" Analyzer.pp_summary an in
  Alcotest.(check bool) "mentions rd2" true
    (String.length s > 0
    && String.split_on_char '\n' s
       |> List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "rd2:"))

(* Sharded offline analysis is exact: on recorded workload traces the
   merged per-shard reports equal the sequential shard run, which equals
   the live analyzer, report for report (same order, same contents). *)
let sharded_matches_sequential () =
  let module W = Crd_workloads in
  let record f =
    let trace = Trace.create () in
    f (Trace.append trace);
    trace
  in
  let traces =
    [
      ( "circuit",
        record (fun sink ->
            ignore (W.Polepos.run (List.hd W.Polepos.all) ~seed:1L ~scale:1 ~sink ())) );
      ("snitch", record (fun sink -> ignore (W.Snitch.run ~seed:1L ~sink ())));
    ]
  in
  let config =
    { Analyzer.rd2 = `Constant; direct = false; fasttrack = true; djit = false; atomicity = false }
  in
  List.iter
    (fun (name, trace) ->
      let an = Analyzer.with_stdspecs ~config () in
      Analyzer.run_trace an trace;
      let seq = Result.get_ok (Shard.analyze_stdspecs ~jobs:1 ~config trace) in
      let par =
        Result.get_ok (Shard.analyze_stdspecs ~jobs:4 ~config trace)
      in
      Alcotest.(check bool)
        (name ^ ": jobs=4 rd2 == jobs=1") true
        (par.Shard.rd2_reports = seq.Shard.rd2_reports);
      Alcotest.(check bool)
        (name ^ ": jobs=4 fasttrack == jobs=1") true
        (par.Shard.fasttrack_reports = seq.Shard.fasttrack_reports);
      Alcotest.(check bool)
        (name ^ ": sharded rd2 == live analyzer") true
        (seq.Shard.rd2_reports = Analyzer.rd2_races an);
      Alcotest.(check bool)
        (name ^ ": sharded fasttrack == live analyzer") true
        (seq.Shard.fasttrack_reports = Analyzer.fasttrack_races an);
      let races st = Option.map (fun (s : Rd2.stats) -> s.Rd2.races) st in
      Alcotest.(check (option int))
        (name ^ ": summed race stat matches") (races (Analyzer.rd2_stats an))
        (races par.Shard.rd2_stats))
    traces

let rd2_only =
  { Analyzer.rd2 = `Constant; direct = false; fasttrack = false; djit = false; atomicity = false }

let rd2_fasttrack = { rd2_only with fasttrack = true }

(* A synthetic trace streamed through a fresh analyzer, not finished. *)
let stream_synth ?(config = rd2_only) ?jobs ~collect (seed, cfg) =
  let an =
    Result.get_ok
      (Analyzer.create ~config ?jobs ~collect ~spec_for:Stdspecs.spec_for ())
  in
  Synth.iter ~seed cfg ~f:(Analyzer.step an);
  an

let synth_case =
  Gen.(
    let* threads = int_range 2 16
    and* objects = int_range 4 256
    and* events = int_range 500 5_000
    and* skew = oneofl [ Synth.Uniform; Synth.Zipf 0.9 ]
    and* sync_period = int_range 2 64
    and* seed = int_range 0 10_000 in
    return
      ( Int64.of_int seed,
        { (Synth.default ~events) with threads; objects; skew; sync_period } ))

(* Without [collect] the engine keeps no report but folds every race:
   RD2's count and distinct fingerprints and FastTrack's count and
   distinct locations (and so the printed summary) are those of the
   collected lists, inline and sharded. RD2 alone runs too:
   the traces' reads and writes are then routed to no shard. *)
let fold_equals_collect =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"fold-only == collecting (count, distinct)"
       Gen.(
         triple synth_case (oneofl [ 1; 2; 4 ])
           (oneofl [ rd2_fasttrack; rd2_only ]))
       (fun (case, jobs, config) ->
         let stream = stream_synth ~config ~jobs in
         let fold = Analyzer.finish (stream ~collect:false case)
         and coll = Analyzer.finish (stream ~collect:true case) in
         let races (r : Analyzer.result) =
           Option.map (fun (s : Rd2.stats) -> s.Rd2.races) r.rd2_stats
         and ft_races (r : Analyzer.result) =
           Option.map (fun (s : Fasttrack.stats) -> s.Fasttrack.races)
             r.fasttrack_stats
         in
         let summary = Fmt.str "%a" Analyzer.pp_result in
         fold.rd2_reports = []
         && races fold = Some (List.length coll.rd2_reports)
         && fold.rd2_distinct = Report.distinct_fingerprints coll.rd2_reports
         && coll.rd2_distinct = fold.rd2_distinct
         && fold.fasttrack_reports = []
         && ft_races fold
            = (if config.fasttrack then Some (List.length coll.fasttrack_reports)
               else None)
         && fold.fasttrack_distinct
            = Rw_report.distinct_locations coll.fasttrack_reports
         && coll.fasttrack_distinct = fold.fasttrack_distinct
         && summary fold = summary coll))

(* The fold retains no [Report.t]: after a 100k-event zipf trace the
   fold-only analyzer reaches under half the words of a collecting one,
   both while its detectors are live (the collecting bundle holds every
   race beside RD2's per-point state) and once finished. *)
let fold_retains_no_reports () =
  let case = (7L, Synth.default ~events:100_000) in
  let fold = stream_synth ~collect:false case
  and coll = stream_synth ~collect:true case in
  let under_half what =
    let wf = Obj.reachable_words (Obj.repr fold)
    and wc = Obj.reachable_words (Obj.repr coll) in
    if 2 * wf >= wc then
      Alcotest.failf "%s: fold-only reaches %d words, collecting %d" what wf wc
  in
  under_half "streamed";
  let rf = Analyzer.finish fold and rc = Analyzer.finish coll in
  Alcotest.(check bool) "races found" true (List.length rc.rd2_reports > 10_000);
  Alcotest.(check bool) "same distinct" true (rf.rd2_distinct = rc.rd2_distinct);
  under_half "finished"

(* Object id [min_int] routes to a shard like any other ([abs min_int]
   is negative, so [abs id mod n] is no shard index): sharded three ways
   from the first event, RD2 reports exactly the sequential races. *)
let min_int_object_routes () =
  let obj = Obj_id.make ~name:"dictionary:far" min_int in
  let put tid k v =
    Event.call tid
      (Action.make ~obj ~meth:"put"
         ~args:[ Value.Int k; Value.Int v ]
         ~rets:[ Value.Nil ] ())
  in
  let t1 = Tid.of_int 1 and t2 = Tid.of_int 2 in
  let events =
    [ Event.fork Tid.main t1; Event.fork Tid.main t2 ]
    @ List.concat_map
        (fun k -> [ put t1 (k mod 3) k; put t2 (k mod 3) (k + 1) ])
        (List.init 200 Fun.id)
  in
  let run jobs =
    let an =
      Result.get_ok
        (Analyzer.create ~config:rd2_only ~jobs ~spec_for:Stdspecs.spec_for ())
    in
    List.iter (Analyzer.step an) events;
    Analyzer.rd2_races an
  in
  let seq = run 1 in
  Alcotest.(check bool) "races found" true (List.length seq > 100);
  Alcotest.(check bool) "jobs=3 == jobs=1" true (run 3 = seq)

(* A synthetic trace as a server session gets it: its CRDW bytes. *)
let crdw_session ~events seed =
  Bytes.of_string
    (Wire.encode_trace (Synth.generate ~seed (Synth.default ~events)))

(* Decoded calls die young: streaming CRDW bytes through a fold-only
   analyzer (RD2 + FastTrack), inline and sharded from the first event,
   no decoded action outlives its step. Every call's action goes into a
   weak array; a full major collection halfway through the stream,
   before [finish], must clear them all: RD2's entries keep their last
   toucher by value and the shard chunks carry calls by value. *)
let decoded_calls_die_young () =
  let bytes = crdw_session ~events:40_000 7L in
  let half = Bytes.length bytes / 2 in
  List.iter
    (fun jobs ->
      let an =
        Result.get_ok
          (Analyzer.create ~jobs ~collect:false ~spec_for:Stdspecs.spec_for ())
      in
      let calls = Weak.create 40_000 and n = ref 0 in
      let f (e : Event.t) =
        (match e.op with
        | Event.Call a ->
            Weak.set calls !n (Some a);
            incr n
        | _ -> ());
        Analyzer.step an e
      in
      let d = Bigwire.Decoder.create () in
      let feed off len =
        match Bigwire.Decoder.feed_bytes_iter d ~off ~len bytes ~f with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Wire.error_to_string e)
      in
      feed 0 half;
      Gc.full_major ();
      let live = ref 0 in
      for i = 0 to !n - 1 do
        if Weak.check calls i then incr live
      done;
      let what = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check bool) (what ^ ": calls decoded") true (!n > 10_000);
      Alcotest.(check int) (what ^ ": decoded actions alive") 0 !live;
      feed half (Bytes.length bytes - half);
      Alcotest.(check bool) (what ^ ": stream complete") true
        (Bigwire.Decoder.finish d = Ok ());
      Bigwire.Decoder.release d;
      ignore (Analyzer.finish an))
    [ 1; 2 ]

(* Collected reports still share their actions: a report's prior is the
   action of an earlier report when that call raced too, and a prior
   rebuilt from an entry's values is memoized for every later race
   against the entry. Measured on the seed-7 20k-event session: 28.8
   words reachable per race; an un-memoized prior costs more. *)
let collected_reports_share_actions () =
  let bytes = crdw_session ~events:20_000 7L in
  let an =
    Result.get_ok (Analyzer.create ~spec_for:Stdspecs.spec_for ())
  in
  (match
     Bigwire.Decoder.feed_bytes_iter (Bigwire.Decoder.create ()) bytes
       ~f:(Analyzer.step an)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Wire.error_to_string e));
  let reports = Analyzer.rd2_races an in
  let races = List.length reports in
  let per_race =
    float_of_int (Obj.reachable_words (Obj.repr reports)) /. float_of_int races
  in
  Alcotest.(check bool) "races found" true (races > 1_000);
  if per_race > 29. then
    Alcotest.failf "collected reports reach %.1f words per race" per_race

(* A shard spawn that fails is an [Error] and leaks no domain. OCaml 5.1
   runs at most 128 domains at once, so 200 shards cannot start; the
   workers spawned before the failure are joined, so a 2-shard engine
   still starts afterwards and reports the sequential races. *)
let failed_spawn_is_an_error () =
  (match Analyzer.create ~jobs:200 ~spec_for:Stdspecs.spec_for () with
  | Ok an ->
      ignore (Analyzer.finish an);
      Alcotest.fail "200 shards started"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "names the shard count (%s)" e)
        true (Sessions.contains e "200 shards"));
  let case = (7L, Synth.default ~events:5_000) in
  let races jobs = Analyzer.rd2_races (stream_synth ~jobs ~collect:true case) in
  let seq = races 1 in
  Alcotest.(check bool) "races found" true (seq <> []);
  Alcotest.(check bool) "jobs=2 == jobs=1" true (races 2 = seq)

let suite =
  ( "analyzer",
    [
      Alcotest.test_case "fig1 end-to-end" `Quick end_to_end_fig1;
      Alcotest.test_case "clean run" `Quick end_to_end_clean;
      Alcotest.test_case "naming convention" `Quick naming_convention;
      Alcotest.test_case "rd2 off" `Quick config_off;
      Alcotest.test_case "constant/linear/direct agree" `Quick
        direct_and_linear_agree;
      Alcotest.test_case "djit mirrors fasttrack" `Quick djit_mirrors_fasttrack;
      Alcotest.test_case "run_trace from text" `Quick run_trace_from_text;
      Alcotest.test_case "bad spec surfaces" `Quick bad_spec_surfaces;
      Alcotest.test_case "summary prints" `Quick summary_prints;
      Alcotest.test_case "sharded == sequential == live" `Quick
        sharded_matches_sequential;
      fold_equals_collect;
      Alcotest.test_case "fold retains no reports" `Quick fold_retains_no_reports;
      Alcotest.test_case "object id min_int shards" `Quick min_int_object_routes;
      Alcotest.test_case "decoded calls die young" `Quick decoded_calls_die_young;
      Alcotest.test_case "collected reports share actions" `Quick
        collected_reports_share_actions;
      Alcotest.test_case "failed shard spawn is an Error" `Quick
        failed_spawn_is_an_error;
    ] )
