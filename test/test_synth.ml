(* The synthetic workload generator and the chunked parallel analysis:
   determinism of generation, bit-identical reports across shard counts
   and against the live analyzer, sharding from the first event, and
   the vector-clock pool arena. *)

open Crd
module Synth = Crd_workloads.Synth

let gen ?(seed = 5L) ?(threads = 4) ?(objects = 64) ?skew ?mix
    ?(sync_period = 16) events =
  let c = Synth.default ~events in
  let c =
    {
      c with
      Synth.threads;
      objects;
      sync_period;
      skew = Option.value skew ~default:c.Synth.skew;
      mix = Option.value mix ~default:c.Synth.mix;
    }
  in
  Synth.generate ~seed c

let all_specs_mix = List.map (fun s -> (s, 1)) Synth.known_specs

let deterministic () =
  let a = gen 5_000 and b = gen 5_000 in
  Alcotest.(check int) "exact count" 5_000 (Trace.length a);
  Alcotest.(check bool) "same seed, same trace" true
    (List.for_all2 Event.equal (Trace.to_list a) (Trace.to_list b));
  let c = gen ~seed:6L 5_000 in
  Alcotest.(check bool) "different seed, different trace" false
    (List.for_all2 Event.equal (Trace.to_list a) (Trace.to_list c))

let exact_counts () =
  (* Structural events clamp so tiny requests still come out exact. *)
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "events=%d" n)
        n
        (Trace.length (gen ~threads:8 n)))
    [ 1; 2; 3; 7; 100; 8_192; 8_193 ]

let parsers () =
  (match Synth.skew_of_string "zipf:1.25" with
  | Ok (Synth.Zipf t) -> Alcotest.(check (float 1e-9)) "theta" 1.25 t
  | _ -> Alcotest.fail "zipf:1.25 should parse");
  (match Synth.skew_of_string "uniform" with
  | Ok Synth.Uniform -> ()
  | _ -> Alcotest.fail "uniform should parse");
  Alcotest.(check bool) "bad skew rejected" true
    (Result.is_error (Synth.skew_of_string "pareto"));
  Alcotest.(check bool) "bad zipf rejected" true
    (Result.is_error (Synth.skew_of_string "zipf:-1"));
  (match Synth.mix_of_string "dictionary=2, set=1" with
  | Ok m -> Alcotest.(check bool) "mix" true (m = [ ("dictionary", 2); ("set", 1) ])
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unknown spec rejected" true
    (Result.is_error (Synth.mix_of_string "tree=1"));
  Alcotest.(check bool) "zero weight rejected" true
    (Result.is_error (Synth.mix_of_string "set=0"))

let analyze ?(jobs = 1) trace =
  let config =
    {
      Analyzer.rd2 = `Constant;
      direct = false;
      fasttrack = true;
      djit = false;
      atomicity = false;
    }
  in
  match Shard.analyze_stdspecs ~jobs ~config trace with
  | Ok res -> res
  | Error e -> Alcotest.fail e

(* The tentpole property: chunked streaming shards produce bit-identical
   reports at every shard count, and both match the live analyzer. The
   40k-event trace makes every shard cross the 8192-event chunk boundary
   at jobs=2, so full chunks, partial final chunks and the close path
   are all exercised. *)
let parallel_matches_sequential () =
  List.iter
    (fun (label, skew, mix) ->
      let trace = gen ~skew ~mix 40_000 in
      let seq = analyze ~jobs:1 trace in
      let live = Analyzer.with_stdspecs () in
      Analyzer.run_trace live trace;
      Alcotest.(check bool)
        (label ^ ": live rd2 == sharded jobs=1")
        true
        (Analyzer.rd2_races live = seq.Shard.rd2_reports);
      Alcotest.(check bool)
        (label ^ ": live fasttrack == sharded jobs=1")
        true
        (Analyzer.fasttrack_races live = seq.Shard.fasttrack_reports);
      List.iter
        (fun jobs ->
          let par = analyze ~jobs trace in
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d rd2 bit-identical" label jobs)
            true
            (par.Shard.rd2_reports = seq.Shard.rd2_reports);
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d fasttrack bit-identical" label jobs)
            true
            (par.Shard.fasttrack_reports = seq.Shard.fasttrack_reports);
          Alcotest.(check (list string))
            (Printf.sprintf "%s: jobs=%d fingerprints" label jobs)
            (List.map Report.fingerprint_hex seq.Shard.rd2_reports)
            (List.map Report.fingerprint_hex par.Shard.rd2_reports);
          Alcotest.(check int)
            (Printf.sprintf "%s: jobs=%d shards" label jobs)
            jobs par.Shard.shards;
          match (seq.Shard.rd2_stats, par.Shard.rd2_stats) with
          | Some s, Some p ->
              Alcotest.(check int)
                (Printf.sprintf "%s: jobs=%d actions sum" label jobs)
                s.Rd2.actions p.Rd2.actions
          | _ -> Alcotest.fail "missing rd2 stats")
        [ 2; 4 ])
    [
      ("zipf", Synth.Zipf 0.9, Synth.default_mix);
      ("uniform/all-specs", Synth.Uniform, all_specs_mix);
    ]

(* Sharding starts at the first event: an empty stream, one event and
   one event more than a chunk holds (8192) all run on two shards and
   report exactly what the inline engine does. *)
let short_streams_shard () =
  List.iter
    (fun events ->
      let trace = if events = 0 then Trace.create () else gen events in
      let run jobs =
        let an =
          Result.get_ok (Analyzer.create ~jobs ~spec_for:Stdspecs.spec_for ())
        in
        Analyzer.run_trace an trace;
        Analyzer.finish an
      in
      let seq = run 1 and par = run 2 in
      let what = Printf.sprintf "%d events" events in
      Alcotest.(check int) (what ^ ": shards") 2 par.Analyzer.shards;
      Alcotest.(check int) (what ^ ": events") events par.Analyzer.events;
      Alcotest.(check bool) (what ^ ": rd2 reports") true
        (par.Analyzer.rd2_reports = seq.Analyzer.rd2_reports);
      Alcotest.(check bool) (what ^ ": fasttrack reports") true
        (par.Analyzer.fasttrack_reports = seq.Analyzer.fasttrack_reports);
      Alcotest.(check bool) (what ^ ": rd2 stats") true
        (par.Analyzer.rd2_stats = seq.Analyzer.rd2_stats);
      Alcotest.(check bool) (what ^ ": fasttrack stats") true
        (par.Analyzer.fasttrack_stats = seq.Analyzer.fasttrack_stats);
      Alcotest.(check bool) (what ^ ": rd2 distinct") true
        (par.Analyzer.rd2_distinct = seq.Analyzer.rd2_distinct))
    [ 0; 1; 8_193 ]

(* Detectors fed from a deliberately undersized pool (capacity 1) must
   behave exactly like detectors without a pool: exhaustion grows the
   arena instead of changing results. *)
let pool_exhaustion () =
  let trace = gen ~mix:all_specs_mix 20_000 in
  let translate = Repr.memo () in
  let repr_for o =
    Option.map
      (fun spec -> Result.get_ok (translate spec))
      (Stdspecs.spec_for o)
  in
  let run pool =
    let hb = Hb.create () in
    let rd2 = Rd2.create ?pool ~collect:false ~repr_for () in
    let ft = Fasttrack.create ?pool () in
    let races = ref [] in
    Trace.iter trace ~f:(fun index (e : Event.t) ->
        let vc = Hb.step hb e in
        match e.op with
        | Event.Call a ->
            races := List.rev_append (Rd2.on_action rd2 ~index e.tid a vc) !races
        | Event.Read loc -> ignore (Fasttrack.on_read ft ~index e.tid loc vc)
        | Event.Write loc -> ignore (Fasttrack.on_write ft ~index e.tid loc vc)
        | _ -> ());
    (List.rev !races, Fasttrack.races ft)
  in
  let plain = run None in
  let pool = Vclock.Pool.create ~capacity:1 () in
  let pooled = run (Some pool) in
  Alcotest.(check bool) "rd2 races identical" true (fst plain = fst pooled);
  Alcotest.(check bool) "fasttrack races identical" true
    (snd plain = snd pooled);
  Alcotest.(check bool) "arena was forced to grow" true
    (Vclock.Pool.grown pool > 0);
  Alcotest.(check bool) "acquisitions happened" true
    (Vclock.Pool.acquired pool > Vclock.Pool.capacity pool)

module Gen = QCheck2.Gen

(* The streaming engine, fed one event at a time, against the whole-trace
   sequential run. *)
let engine_matches_sequential =
  let cases =
    Gen.(
      let* seed = int_range 1 1_000_000 in
      let* events = int_range 1 20_000 in
      let* uniform = bool in
      let* jobs = oneofl [ 1; 2; 4 ] in
      return (seed, events, uniform, jobs))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"engine == sequential at every jobs"
       ~print:(fun (seed, events, uniform, jobs) ->
         Printf.sprintf "seed=%d events=%d uniform=%b jobs=%d" seed events
           uniform jobs)
       cases
       (fun (seed, events, uniform, jobs) ->
         let trace =
           if uniform then
             gen ~seed:(Int64.of_int seed) ~skew:Synth.Uniform
               ~mix:all_specs_mix events
           else gen ~seed:(Int64.of_int seed) events
         in
         let seq = analyze ~jobs:1 trace in
         let an =
           Result.get_ok
             (Analyzer.create ~jobs ~spec_for:Stdspecs.spec_for ())
         in
         Trace.iter_events trace ~f:(Analyzer.step an);
         let r = Analyzer.finish an in
         r.Analyzer.rd2_reports = seq.Shard.rd2_reports
         && r.Analyzer.fasttrack_reports = seq.Shard.fasttrack_reports
         && r.Analyzer.rd2_stats = seq.Shard.rd2_stats
         && r.Analyzer.shards = jobs
         && Analyzer.finish an == r))

(* A call its specification cannot take, met by a shard worker: the
   worker dies, and the producer gets the error instead of waiting
   forever on the dead worker's full queue. Far more events follow the
   bad one than the bounded queues can hold. *)
let bad_call =
  Event.call Tid.main
    (Action.make
       ~obj:(Obj_id.make ~name:"dictionary:bad" 1_000_000)
       ~meth:"frobnicate" ~args:[ Value.Str "x" ] ())

let worker_failure_releases_producer () =
  let an =
    Result.get_ok (Analyzer.create ~jobs:2 ~spec_for:Stdspecs.spec_for ())
  in
  let outcome =
    try
      Trace.iter_events (gen 5_000) ~f:(Analyzer.step an);
      Analyzer.step an bad_call;
      Trace.iter_events (gen ~seed:9L 200_000) ~f:(Analyzer.step an);
      ignore (Analyzer.finish an);
      None
    with Invalid_argument e -> Some e
  in
  (match outcome with
  | Some e ->
      Alcotest.(check bool) (Printf.sprintf "worker error surfaced (%s)" e) true
        (String.length e >= 8 && String.sub e 0 8 = "Repr.eta")
  | None -> Alcotest.fail "malformed call accepted");
  match Analyzer.finish an with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "finish after a failure must re-raise it"

(* Shard chunks are charged to [mem_shard_bytes], the gauge the server's
   memory budget reads, while they are filled, queued or drained: above
   its start value mid-stream, back at it once the engine has finished,
   and once a worker has died on a bad call. *)
let shard_chunks_charged () =
  let gauge = Crd_obs.gauge "mem_shard_bytes" in
  let start = Crd_obs.Gauge.get gauge in
  let create config =
    Result.get_ok (Analyzer.create ~config ~jobs:2 ~spec_for:Stdspecs.spec_for ())
  in
  let an = create Analyzer.default_config in
  Trace.iter_events (gen 20_000) ~f:(Analyzer.step an);
  Alcotest.(check bool) "charged mid-stream" true
    (Crd_obs.Gauge.get gauge > start);
  ignore (Analyzer.finish an);
  Alcotest.(check int) "released after finish" start (Crd_obs.Gauge.get gauge);
  (* The direct detector makes the workers slower than the producer, so
     the bad call's worker dies with chunks queued behind it. *)
  let an = create { Analyzer.default_config with direct = true } in
  (match
     Trace.iter_events (gen ~objects:4096 20_000) ~f:(Analyzer.step an);
     Analyzer.step an bad_call;
     Trace.iter_events (gen ~objects:4096 ~seed:9L 100_000)
       ~f:(Analyzer.step an);
     Analyzer.finish an
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "malformed call accepted");
  Alcotest.(check int) "released after a worker failure" start
    (Crd_obs.Gauge.get gauge)

(* Key spaces below five: a counter [add]'s delta (1..4) can exceed the
   interned key values, and used to index past them. Generation and
   analysis must succeed, with every delta the integer it was drawn as. *)
let small_key_spaces =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"key spaces 1..6 generate and check"
       QCheck2.Gen.(pair (int_range 1 6) (map Int64.of_int nat))
       (fun (key_space, seed) ->
         let c = { (Synth.default ~events:2_000) with Synth.key_space; objects = 64 } in
         let trace = Synth.generate ~seed c in
         let deltas_ok = ref true in
         Trace.iter trace ~f:(fun _ (e : Event.t) ->
             match e.op with
             | Event.Call { Action.obj; meth = "add"; args; _ }
               when String.starts_with ~prefix:"counter" (Obj_id.name obj) -> (
                 match args with
                 | [ Value.Int d ] when d >= 1 && d <= 4 -> ()
                 | _ -> deltas_ok := false)
             | _ -> ());
         let res = analyze trace in
         !deltas_ok
         && match res.Shard.rd2_stats with Some s -> s.Rd2.actions > 0 | None -> false))

let suite =
  ( "synth",
    [
      Alcotest.test_case "deterministic generation" `Quick deterministic;
      Alcotest.test_case "exact event counts" `Quick exact_counts;
      Alcotest.test_case "skew and mix parsers" `Quick parsers;
      Alcotest.test_case "parallel == sequential == live" `Quick
        parallel_matches_sequential;
      Alcotest.test_case "short streams shard" `Quick short_streams_shard;
      Alcotest.test_case "pool exhaustion" `Quick pool_exhaustion;
      engine_matches_sequential;
      small_key_spaces;
      Alcotest.test_case "worker failure releases the producer" `Quick
        worker_failure_releases_producer;
      Alcotest.test_case "shard chunks charged to the memory gauge" `Quick
        shard_chunks_charged;
    ] )
