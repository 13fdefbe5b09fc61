(* Benchmark harness.

   Regenerates every empirical table/figure of the paper:

   - Table 2 (the only evaluation table): the six H2 Pole Position rows
     and the Cassandra DynamicEndpointSnitch row, under the three
     configurations (uninstrumented / FASTTRACK / RD2). Printed as a
     table (wall-clock qps) and measured as bechamel micro-benchmarks
     (analysis cost per recorded trace).
   - Fig 4 / Section 5.4: the access-point ablation. The same trace is
     analyzed with the O(1) constant-lookup detector, the linear-scan
     detector over active points, and the naive specification-level
     detector; the lookup counters make the Theta(1) vs Theta(|A|)
     claim measurable, and the scaling sweep shows per-action cost
     flat vs growing with trace length.
   - Fig 7 / Theorem 6.6: shape and conflict-bound statistics of the
     translated built-in specifications.

   Run with:  dune exec bench/main.exe
   Quick mode (skip bechamel timing):  dune exec bench/main.exe -- --tables-only
   Options:   --jobs N    shard count for the parallel-analysis benchmarks
              --out FILE  where to write the machine-readable results
                          (default BENCH_results.json)
              --quota S   bechamel time budget per benchmark in seconds
                          (default 0.25; raise for lower-noise numbers)
              --synth-only          only the synthetic parallel-speedup
                                    corpus (CI's bench-parallel-smoke)
              --synth-max-events N  drop synth rows above N events
              --compare FILE        print deltas against a previous JSON;
                                    fails if a synth parallel speedup fell
                                    below 70% of the previous run

   Alongside the printed tables the harness emits a JSON file recording
   ns-per-replay per benchmark, RD2 lookups/action and same-epoch hit
   rates per trace, and a sequential-vs-sharded report-identity check, so
   the perf trajectory is tracked across PRs. *)

open Bechamel
open Crd
module W = Crd_workloads

(* ------------------------------------------------------------------ *)
(* Recorded traces (built once, replayed by the benchmarks)            *)
(* ------------------------------------------------------------------ *)

let record_circuit circuit =
  let trace = Trace.create () in
  ignore (W.Polepos.run circuit ~seed:1L ~scale:1 ~sink:(Trace.append trace) ());
  trace

let record_snitch () =
  let trace = Trace.create () in
  ignore (W.Snitch.run ~seed:1L ~sink:(Trace.append trace) ());
  trace

(* All Table 2 traces, labeled with their benchmark path. *)
let table2_traces =
  lazy
    (List.map
       (fun circuit ->
         (Printf.sprintf "table2/h2/%s" (W.Polepos.name circuit),
          record_circuit circuit))
       W.Polepos.all
    @ [ ("table2/cassandra/snitch", record_snitch ()) ])

type mode = Uninstrumented | Fasttrack_mode | Rd2_mode

let mode_name = function
  | Uninstrumented -> "uninstrumented"
  | Fasttrack_mode -> "fasttrack"
  | Rd2_mode -> "rd2"

let rd2_config =
  { Analyzer.rd2 = `Constant; direct = false; fasttrack = true; djit = false; atomicity = false }

let replay mode trace () =
  match mode with
  | Uninstrumented ->
      (* Event dispatch without any analysis: the replay baseline. *)
      let n = ref 0 in
      Trace.iter_events trace ~f:(fun _ -> incr n);
      ignore !n
  | Fasttrack_mode ->
      let an =
        Analyzer.with_stdspecs
          ~config:{ Analyzer.rd2 = `Off; direct = false; fasttrack = true; djit = false; atomicity = false }
          ()
      in
      Analyzer.run_trace an trace
  | Rd2_mode ->
      let an = Analyzer.with_stdspecs ~config:rd2_config () in
      Analyzer.run_trace an trace

let table2_tests () =
  List.concat_map
    (fun (name, trace) ->
      List.map
        (fun mode ->
          Test.make
            ~name:(Printf.sprintf "%s/%s" name (mode_name mode))
            (Staged.stage (replay mode trace)))
        [ Uninstrumented; Fasttrack_mode; Rd2_mode ])
    (Lazy.force table2_traces)

(* ------------------------------------------------------------------ *)
(* The happens-before pass alone                                       *)
(* ------------------------------------------------------------------ *)

(* A lock-heavy 64-thread trace (sync period 2: most events sit in
   acquire/call/release triples, so segments are one or two events
   long), decoded once. [hb/step] is the snapshot-taking pass the sharded
   analysis uses, [hb/advance] the live-clock pass of the inline one. *)
let hb_events =
  lazy
    (let trace =
       W.Synth.generate ~seed:7L
         { (W.Synth.default ~events:20_000) with threads = 64; sync_period = 2 }
     in
     Array.init (Trace.length trace) (Trace.get trace))

let hb_pass pass () =
  let events = Lazy.force hb_events in
  let hb = Hb.create () in
  for i = 0 to Array.length events - 1 do
    ignore (pass hb (Array.unsafe_get events i))
  done

let hb_tests () =
  [
    Test.make ~name:"hb/step" (Staged.stage (hb_pass Hb.step));
    Test.make ~name:"hb/advance" (Staged.stage (hb_pass Hb.advance));
  ]

(* ------------------------------------------------------------------ *)
(* Fig 4 ablation: conflict checks per action                          *)
(* ------------------------------------------------------------------ *)

(* The Fig 4 scenario generalized: n successful puts (distinct keys)
   from worker threads followed by a size() — the invocation-level
   detector pays n checks for the size, the access-point detector one. *)
let fig4_trace n =
  let obj = Obj_id.make ~name:"dictionary:o" 0 in
  let trace = Trace.create () in
  let threads = 4 in
  for t = 1 to threads do
    Trace.append trace (Event.fork Tid.main (Tid.of_int t))
  done;
  for i = 0 to n - 1 do
    let tid = Tid.of_int (1 + (i mod threads)) in
    Trace.append trace
      (Event.call tid
         (Action.make ~obj ~meth:"put"
            ~args:[ Value.Int i; Value.Int 1 ]
            ~rets:[ Value.Nil ] ()))
  done;
  Trace.append trace
    (Event.call Tid.main
       (Action.make ~obj ~meth:"size" ~rets:[ Value.Int n ] ()));
  trace

let dict_spec = Stdspecs.dictionary ()
let dict_repr = Result.get_ok (Repr.of_spec dict_spec)
let dict_repr_raw = Result.get_ok (Repr.of_spec ~optimize:false dict_spec)

let run_rd2_on ?(repr = dict_repr) ?(mode = `Constant) trace =
  let hb = Hb.create () in
  let d = Rd2.create ~mode ~repr_for:(fun _ -> Some repr) () in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb.step hb e in
      match e.op with
      | Event.Call a -> ignore (Rd2.on_action d ~index e.tid a vc)
      | _ -> ());
  d

let run_direct_on trace =
  let hb = Hb.create () in
  let d = Direct.create ~spec_for:(fun _ -> Some dict_spec) () in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb.step hb e in
      match e.op with
      | Event.Call a -> ignore (Direct.on_action d ~index e.tid a vc)
      | _ -> ());
  d

let ablation_tests () =
  List.concat_map
    (fun n ->
      let trace = fig4_trace n in
      [
        Test.make
          ~name:(Printf.sprintf "fig4/apoint-constant/n=%d" n)
          (Staged.stage (fun () -> ignore (run_rd2_on ~mode:`Constant trace)));
        Test.make
          ~name:(Printf.sprintf "fig4/apoint-linear/n=%d" n)
          (Staged.stage (fun () -> ignore (run_rd2_on ~mode:`Linear trace)));
        Test.make
          ~name:(Printf.sprintf "fig4/direct/n=%d" n)
          (Staged.stage (fun () -> ignore (run_direct_on trace)));
        (* Appendix A.3 ablation: the same detector over the raw
           (unsimplified) Section 6.2 representation. *)
        Test.make
          ~name:(Printf.sprintf "a3/raw-repr/n=%d" n)
          (Staged.stage (fun () ->
               ignore (run_rd2_on ~repr:dict_repr_raw ~mode:`Constant trace)));
      ])
    [ 100; 400 ]

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                     *)
(* ------------------------------------------------------------------ *)

(* Prints each estimate as it completes and returns the (name, ns) pairs
   for the JSON emission. *)
let print_bench_results ~quota tests =
  Fmt.pr "## Bechamel micro-benchmarks (ns per replay)@.@.";
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) () in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      Hashtbl.fold
        (fun name ols acc ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Fmt.pr "%-56s %14.0f ns@." name est;
              (name, est) :: acc
          | _ ->
              Fmt.pr "%-56s (no estimate)@." name;
              acc)
        results [])
    tests

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_results.json)                       *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Per-trace RD2 hot-path statistics from one sequential sharded replay,
   plus the sequential-vs-parallel report-identity check. *)
type trace_record = {
  tr_name : string;
  tr_events : int;
  tr_actions : int;
  tr_lookups : int;
  tr_same_epoch : int;
  tr_rd2_races : int;
  tr_rd2_ns : float;  (** best-of-N wall clock, sequential RD2 replay *)
  tr_identical : bool;  (** jobs=1 and jobs=N reports structurally equal *)
}

(* Wall-clock best-of-N, shared by the trace, synth, codec, server and
   racedb sections. *)
let best_of_ns n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
    if dt < !best then best := dt
  done;
  !best

let trace_records ~jobs =
  List.map
    (fun (name, trace) ->
      let analyze jobs =
        match Shard.analyze_stdspecs ~jobs ~config:rd2_config trace with
        | Ok res -> res
        | Error e -> failwith e
      in
      let seq = analyze 1 in
      let par = analyze jobs in
      let identical =
        seq.Shard.rd2_reports = par.Shard.rd2_reports
        && seq.Shard.fasttrack_reports = par.Shard.fasttrack_reports
      in
      let s =
        match seq.Shard.rd2_stats with
        | Some s -> s
        | None ->
            {
              Rd2.actions = 0;
              lookups = 0;
              races = 0;
              same_epoch = 0;
              promotions = 0;
              deflations = 0;
            }
      in
      {
        tr_name = name;
        tr_events = seq.Shard.events;
        tr_actions = s.Rd2.actions;
        tr_lookups = s.Rd2.lookups;
        tr_same_epoch = s.Rd2.same_epoch;
        tr_rd2_races = List.length seq.Shard.rd2_reports;
        tr_rd2_ns = best_of_ns 3 (fun () -> ignore (analyze 1));
        tr_identical = identical;
      })
    (Lazy.force table2_traces)

(* ------------------------------------------------------------------ *)
(* Synthetic traces — where parallel analysis has to win               *)
(* ------------------------------------------------------------------ *)

(* The Table 2 traces top out at ~100k events, too small for domain
   fan-out to beat its setup cost. The synth corpus measures sharded
   analysis on traces big enough to matter, at two contention skews.
   Best-of-N wall clock (not bechamel): one replay of the 2M-event row
   is seconds, so OLS over many runs is unaffordable. *)
let synth_corpus =
  [
    ("synth/uniform/200k", W.Synth.Uniform, 200_000);
    ("synth/zipf/200k", W.Synth.Zipf 0.9, 200_000);
    ("synth/zipf/2m", W.Synth.Zipf 0.9, 2_000_000);
  ]

let synth_jobs = [ 2; 4 ]

type synth_record = {
  sy_name : string;
  sy_events : int;
  sy_rd2_races : int;
  sy_seq_ns : float;
  sy_jobs_ns : (int * float) list;  (** jobs -> best-of-N wall clock *)
  sy_identical : bool;  (** parallel reports == sequential reports *)
  sy_promoted : (int * float) list;
      (** jobs -> words promoted per event, streaming fold-only *)
}

let synth_speedup sy jobs =
  match List.assoc_opt jobs sy.sy_jobs_ns with
  | Some ns when ns > 0. -> Some (sy.sy_seq_ns /. ns)
  | _ -> None

(* The headline number: the best speedup any shard count achieves. *)
let synth_parallel_speedup sy =
  List.fold_left
    (fun acc jobs ->
      match synth_speedup sy jobs with
      | Some s -> Float.max acc s
      | None -> acc)
    0. synth_jobs

(* Jobs whose retention the table prints: inline, and two shards. *)
let promoted_jobs = [ 1; 2 ]

(* Words promoted to the major heap per event while the trace's events
   stream, freshly built, through a fold-only analyzer (as [rd2 check]
   runs), sharded from the first event when [jobs > 1]. A decoded event
   that something keeps past its step is promoted, so this is where a
   retention regression shows. The counter sums every domain's. *)
let promoted_per_event ~seed config ~jobs =
  let an =
    match
      Analyzer.create ~config:rd2_config ~jobs ~collect:false
        ~spec_for:Stdspecs.spec_for ()
    with
    | Ok an -> an
    | Error e -> failwith e
  in
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  W.Synth.iter ~seed config ~f:(Analyzer.step an);
  ignore (Analyzer.finish an);
  ((Gc.quick_stat ()).Gc.promoted_words -. before)
  /. float_of_int config.W.Synth.events

let synth_records ?(max_events = max_int) () =
  let corpus =
    List.filter (fun (_, _, events) -> events <= max_events) synth_corpus
  in
  List.map
    (fun (name, skew, events) ->
      let config = { (W.Synth.default ~events) with W.Synth.skew } in
      let trace = W.Synth.generate ~seed:7L config in
      let analyze jobs =
        match Shard.analyze_stdspecs ~jobs ~config:rd2_config trace with
        | Ok res -> res
        | Error e -> failwith (name ^ ": " ^ e)
      in
      let repeats = if events > 500_000 then 2 else 3 in
      let seq = analyze 1 in
      let par = analyze 2 in
      let identical =
        seq.Shard.rd2_reports = par.Shard.rd2_reports
        && seq.Shard.fasttrack_reports = par.Shard.fasttrack_reports
      in
      let sy_seq_ns = best_of_ns repeats (fun () -> ignore (analyze 1)) in
      let sy_jobs_ns =
        List.map
          (fun jobs ->
            (jobs, best_of_ns repeats (fun () -> ignore (analyze jobs))))
          synth_jobs
      in
      {
        sy_name = name;
        sy_events = events;
        sy_rd2_races = List.length seq.Shard.rd2_reports;
        sy_seq_ns;
        sy_jobs_ns;
        sy_identical = identical;
        sy_promoted =
          List.map
            (fun jobs -> (jobs, promoted_per_event ~seed:7L config ~jobs))
            promoted_jobs;
      })
    corpus

let print_synth_table synth =
  Fmt.pr "@.## Synthetic traces — parallel speedup (best-of-N wall clock)@.@.";
  Fmt.pr "%-24s %9s %10s %12s" "trace" "events" "seq ms" "seq ev/s";
  List.iter (fun j -> Fmt.pr " %9s" (Printf.sprintf "jobs%d x" j)) synth_jobs;
  List.iter (fun j -> Fmt.pr " %11s" (Printf.sprintf "prom/ev j%d" j)) promoted_jobs;
  Fmt.pr " %8s@." "jobs-ok";
  List.iter
    (fun sy ->
      Fmt.pr "%-24s %9d %10.1f %12.0f" sy.sy_name sy.sy_events
        (sy.sy_seq_ns /. 1e6)
        (float_of_int sy.sy_events /. sy.sy_seq_ns *. 1e9);
      List.iter
        (fun j ->
          match synth_speedup sy j with
          | Some s -> Fmt.pr " %8.2fx" s
          | None -> Fmt.pr " %9s" "-")
        synth_jobs;
      List.iter (fun (_, w) -> Fmt.pr " %11.2f" w) sy.sy_promoted;
      Fmt.pr " %8b@." sy.sy_identical)
    synth

(* ------------------------------------------------------------------ *)
(* Wire codec throughput (wall clock, best-of-N)                       *)
(* ------------------------------------------------------------------ *)

(* Deliberately independent of bechamel so the codec numbers appear in
   the JSON on every run, including --tables-only / @bench-smoke. *)
type codec_record = {
  co_name : string;
  co_events : int;
  co_text_bytes : int;
  co_bin_bytes : int;
  co_encode_ns : float;
  co_big_ns : float;  (** whole decode into a trace ([decode_string]) *)
  co_stream_big_ns : float;  (** streaming decode in 64 KiB feeds *)
}

let mb_per_s bytes ns = float_of_int bytes /. ns *. 1e9 /. 1e6
let per_s count ns = float_of_int count /. ns *. 1e9

(* The codec corpus: the Table 2 traces (tens of KB — fixed decoder
   overheads dominate) plus one synthetic trace at ingest scale. *)
let codec_records ?(repeats = 5) ?(synth_events = 200_000) () =
  let corpus =
    Lazy.force table2_traces
    @ [
        ( Printf.sprintf "synth/uniform/%dk" (synth_events / 1000),
          W.Synth.generate ~seed:7L (W.Synth.default ~events:synth_events) );
      ]
  in
  List.map
    (fun (name, trace) ->
      let text = Trace_text.to_string trace in
      let bin = Wire.encode_trace trace in
      (* Round-trip guard: timing a decoder that produces different
         events would be meaningless. *)
      (match Bigwire.decode_string bin with
      | Ok t when Trace.to_list t = Trace.to_list trace -> ()
      | Ok _ -> failwith (name ^ ": codec round trip changed the events")
      | Error e -> failwith (name ^ ": " ^ Wire.error_to_string e));
      (* Streaming decode, the shape [iter_file] and server ingest run:
         64 KiB feeds of one buffer, events handed to a consumer and
         dropped, not accumulated into a trace. *)
      let src = Bytes.of_string bin in
      let stream_big () =
        let dec = Bigwire.Decoder.create () in
        let rec go off =
          if off >= Bytes.length src then Bigwire.Decoder.finish dec
          else
            let len = min 65536 (Bytes.length src - off) in
            match
              Bigwire.Decoder.feed_bytes_iter dec ~off ~len src ~f:ignore
            with
            | Error e -> Error e
            | Ok () -> go (off + len)
        in
        let r = go 0 in
        Bigwire.Decoder.release dec;
        match r with
        | Ok () -> ()
        | Error e -> failwith (name ^ ": " ^ Wire.error_to_string e)
      in
      {
        co_name = name;
        co_events = Trace.length trace;
        co_text_bytes = String.length text;
        co_bin_bytes = String.length bin;
        co_encode_ns =
          best_of_ns repeats (fun () -> ignore (Wire.encode_trace trace));
        co_big_ns =
          best_of_ns repeats (fun () -> ignore (Bigwire.decode_string bin));
        co_stream_big_ns = best_of_ns repeats stream_big;
      })
    corpus

let print_codec_table codec =
  Fmt.pr "@.## Wire codec throughput (best-of-N wall clock)@.@.";
  Fmt.pr "%-44s %8s %9s %10s %10s %10s@." "trace" "events" "bytes" "enc MB/s"
    "dec MB/s" "strm MB/s";
  List.iter
    (fun c ->
      Fmt.pr "%-44s %8d %9d %10.1f %10.1f %10.1f@." c.co_name c.co_events
        c.co_bin_bytes
        (mb_per_s c.co_bin_bytes c.co_encode_ns)
        (mb_per_s c.co_bin_bytes c.co_big_ns)
        (mb_per_s c.co_bin_bytes c.co_stream_big_ns))
    codec

(* ------------------------------------------------------------------ *)
(* Server round trip (in-process, Unix socket)                         *)
(* ------------------------------------------------------------------ *)

(* Wall-clock ns for a full session: connect, handshake, stream the
   snitch trace through the codec, online RD2 analysis server-side,
   race report back. With [journal] set the same session also appends
   every chunk to a session journal and fsyncs a commit marker — the
   cost of crash safety, reported as a separate row. *)
let server_roundtrip ?journal ?(repeats = 3) ?(tag = "") ?trace () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crd-bench-%d%s%s.sock" (Unix.getpid ())
         (match journal with Some _ -> "-j" | None -> "")
         tag)
  in
  let addr = Crd_server.Server.Unix_sock path in
  let config = { (Crd_server.Server.default_config ~addr) with journal } in
  match Crd_server.Server.start config with
  | Error e -> failwith ("server benchmark: " ^ e)
  | Ok server ->
      let trace = match trace with Some t -> t | None -> record_snitch () in
      let run () =
        match Crd_server.Client.send_trace ~addr trace with
        | Ok _ -> ()
        | Error e -> failwith ("server benchmark: " ^ e)
      in
      run () (* warm-up: first session pays domain/socket setup *);
      let ns = best_of_ns repeats run in
      ignore (Crd_server.Server.stop server);
      (ns, Trace.length trace)

(* ------------------------------------------------------------------ *)
(* Sustained overload (spill-tier acceptance rate)                     *)
(* ------------------------------------------------------------------ *)

type overload_record = {
  ov_clients : int;
  ov_events : int;  (** per client *)
  ov_burst_ns : float;  (** wall clock until every concurrent session is acked *)
  ov_spilled : int;
  ov_caught_up : int;
}

let overload_accepted_events_s ov =
  per_s (ov.ov_clients * ov.ov_events) ov.ov_burst_ns

(* [clients] concurrent sessions against one worker with the smallest
   spill watermark: all but the first are acked through the spill tier
   at decoder-plus-journal speed, so the acceptance rate measures the
   degradation ladder's ingest path, not the analyzer. The catch-up
   drain runs after the timed window (stop waits for it) — spilled
   evidence is analyzed, just not on the clients' clock. *)
let sustained_overload ?(clients = 4) ~events () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crd-bench-%d-ov.sock" (Unix.getpid ()))
  in
  let jdir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crd-bench-ov-journal-%d" (Unix.getpid ()))
  in
  let addr = Crd_server.Server.Unix_sock path in
  let config =
    {
      (Crd_server.Server.default_config ~addr) with
      workers = 1;
      spill_watermark = 1;
      journal = Some jdir;
    }
  in
  match Crd_server.Server.start config with
  | Error e -> failwith ("overload benchmark: " ^ e)
  | Ok server ->
      let trace = W.Synth.generate ~seed:7L (W.Synth.default ~events) in
      let send i =
        match
          Crd_server.Client.send_trace ~addr
            ~nonce:(Printf.sprintf "bench-ov-%d" i)
            trace
        with
        | Ok _ -> ()
        | Error e -> failwith ("overload benchmark: " ^ e)
      in
      send 0 (* warm-up: first session pays domain/socket setup *);
      let t0 = Unix.gettimeofday () in
      let threads =
        List.init clients (fun i -> Thread.create (fun () -> send (i + 1)) ())
      in
      List.iter Thread.join threads;
      let burst_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
      let st = Crd_server.Server.stop server in
      {
        ov_clients = clients;
        ov_events = Trace.length trace;
        ov_burst_ns = burst_ns;
        ov_spilled = st.Crd_server.Server.spilled;
        ov_caught_up = st.Crd_server.Server.caught_up;
      }

(* ------------------------------------------------------------------ *)
(* Race database: publish throughput and query latency                 *)
(* ------------------------------------------------------------------ *)

type racedb_record = {
  rb_sessions : int;
  rb_reports : int;  (** records over all sessions *)
  rb_distinct_per_session : float;  (** mean distinct fingerprints *)
  rb_publish_ns : float;  (** full lifecycle: open, publish all, close *)
  rb_query_ns : float;  (** cold [Db.load] + [select ~top:10] *)
  rb_distinct : int;
}

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Times what the server's publisher does: one [Db.publish] per session
   batch. A batch holds the races of one synthetic 20k-event session
   (the crdbench serve-small-sessions input shape: thousands of races,
   a fifth as many distinct fingerprints), all stamped with the
   session's one ts. *)
let racedb_bench ?(sessions = 4) ?(events = 20_000) ?(repeats = 3) () =
  let batches =
    List.init sessions (fun i ->
        let an = Analyzer.with_stdspecs () in
        Trace.iter_events
          (W.Synth.generate ~seed:(Int64.of_int (7 + i)) (W.Synth.default ~events))
          ~f:(Analyzer.step an);
        let ts = 1.7e9 +. float_of_int i in
        ( Printf.sprintf "session-%d" i,
          List.map
            (fun r -> Crd_racedb.Record.make ~ts ~spec:"std" r)
            (Analyzer.rd2_races an) ))
  in
  let reports = List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 batches in
  if reports = 0 then failwith "racedb benchmark: the sessions found no races";
  let distinct =
    List.fold_left
      (fun acc (_, rs) ->
        acc
        + List.length
            (List.sort_uniq Int64.compare (List.map Crd_racedb.Record.fingerprint rs)))
      0 batches
  in
  let dir_counter = ref 0 in
  let fresh_dir () =
    incr dir_counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crd-bench-racedb-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  (* every timed run publishes into a brand-new store; the previous one
     is removed first so only the last survives for the query phase *)
  let last = ref None in
  let rb_publish_ns =
    best_of_ns repeats (fun () ->
        Option.iter rm_rf !last;
        let dir = fresh_dir () in
        last := Some dir;
        match Crd_racedb.Db.open_db dir with
        | Error e -> failwith ("racedb benchmark: " ^ e)
        | Ok db ->
            List.iter
              (fun (nonce, rs) -> ignore (Crd_racedb.Db.publish db ~nonce rs : bool))
              batches;
            Crd_racedb.Db.close db)
  in
  let dir = Option.get !last in
  let rb_distinct = ref 0 in
  let rb_query_ns =
    best_of_ns repeats (fun () ->
        match Crd_racedb.Db.load dir with
        | Error e -> failwith ("racedb benchmark: " ^ e)
        | Ok view ->
            rb_distinct :=
              List.length
                (Crd_racedb.Db.select ~top:10 view.Crd_racedb.Db.v_entries))
  in
  rm_rf dir;
  {
    rb_sessions = sessions;
    rb_reports = reports;
    rb_distinct_per_session = float_of_int distinct /. float_of_int sessions;
    rb_publish_ns;
    rb_query_ns;
    rb_distinct = !rb_distinct;
  }

(* ------------------------------------------------------------------ *)
(* Predictive pass — predicted-race uplift over the witnessed set      *)
(* ------------------------------------------------------------------ *)

type predict_record = {
  pu_name : string;
  pu_events : int;
  pu_witnessed : int;  (* distinct witnessed fingerprints *)
  pu_predicted : int;  (* predicted-only fingerprints on top of those *)
  pu_candidates : int;
  pu_capped : int;
  pu_ns : float;
}

(* The Table 2 corpus plus one contended synthetic trace (every 16th
   operation under a lock — the regime where sound reorderings actually
   unshadow races). Counts are deterministic; only [pu_ns] is timing. *)
let predict_records ~max_events () =
  let distinct reports =
    List.length
      (List.sort_uniq String.compare
         (List.map Report.fingerprint_hex reports))
  in
  let contended =
    let events = min 50_000 (max 10_000 max_events) in
    W.Synth.generate ~seed:7L
      { (W.Synth.default ~events) with W.Synth.sync_period = 16 }
  in
  List.map
    (fun (name, trace) ->
      let run () =
        match Predict.analyze_stdspecs trace with
        | Ok r -> r
        | Error e -> failwith ("predict benchmark: " ^ e)
      in
      let r = run () in
      {
        pu_name = name;
        pu_events = r.Predict.stats.Predict.events;
        pu_witnessed = distinct r.Predict.witnessed;
        pu_predicted = List.length r.Predict.predicted;
        pu_candidates = r.Predict.stats.Predict.candidates;
        pu_capped = r.Predict.stats.Predict.capped;
        pu_ns = best_of_ns 3 (fun () -> ignore (run ()));
      })
    (Lazy.force table2_traces @ [ ("synth/contended", contended) ])

let print_predict_table predict =
  Fmt.pr "@.## Predictive pass (rd2 predict) — predicted-race uplift@.@.";
  Fmt.pr "%-44s %10s %10s %10s %10s %12s@." "trace" "events" "witnessed"
    "predicted" "capped" "events/s";
  List.iter
    (fun p ->
      Fmt.pr "%-44s %10d %10d %10d %10d %12.0f@." p.pu_name p.pu_events
        p.pu_witnessed p.pu_predicted p.pu_capped
        (per_s p.pu_events p.pu_ns))
    predict

(* ------------------------------------------------------------------ *)
(* Comparing runs                                                      *)
(* ------------------------------------------------------------------ *)

(* 5: codec rows gained big_decode_* / streaming-decode fields, new flat
   codec_big_speedup section, server section gained the synth ingest
   row, traces rows are marked forced_parallel.
   6: new flat overload section (sustained_overload acceptance rate,
   gated by --compare).
   7: new predict section (per-trace predictive-pass rows) and flat
   predict_uplift section (predicted-only race counts, gated by
   --compare).
   The codec_big_speedup section and the codec rows' string-decoder
   fields went away without a bump: the reader skips the section in an
   older file, and nothing gates the codec rows. *)
let schema_version = 7

(* Minimal reader for our own BENCH_results.json — just enough for
   --compare, not a general JSON parser. Returns the file's
   schema_version, its benchmarks_ns pairs, and its synth_speedup,
   overload and predict_uplift pairs (flat key: number sections). *)
let load_results path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines ->
      let schema = ref None in
      let section = ref "" in
      let bench = ref [] in
      let speedups = ref [] in
      let overload = ref [] in
      let uplift = ref [] in
      List.iter
        (fun line ->
          let line = String.trim line in
          let line =
            if String.length line > 0 && line.[String.length line - 1] = ','
            then String.sub line 0 (String.length line - 1)
            else line
          in
          if String.length line > 0 && line.[0] = '}' then section := ""
          else
            match String.index_opt line ':' with
            | Some i when String.length line > 2 && line.[0] = '"' ->
                let key = String.sub line 1 (String.rindex_from line i '"' - 1) in
                let value =
                  String.trim (String.sub line (i + 1) (String.length line - i - 1))
                in
                if String.equal value "{" then section := key
                else if String.equal key "schema_version" then
                  schema := int_of_string_opt value
                else if String.equal !section "benchmarks_ns" then
                  Option.iter
                    (fun v -> bench := (key, v) :: !bench)
                    (float_of_string_opt value)
                else if String.equal !section "synth_speedup" then
                  Option.iter
                    (fun v -> speedups := (key, v) :: !speedups)
                    (float_of_string_opt value)
                else if String.equal !section "overload" then
                  Option.iter
                    (fun v -> overload := (key, v) :: !overload)
                    (float_of_string_opt value)
                else if String.equal !section "predict_uplift" then
                  Option.iter
                    (fun v -> uplift := (key, v) :: !uplift)
                    (float_of_string_opt value)
            | _ -> ())
        lines;
      match !schema with
      | None -> Error (path ^ ": no schema_version field (pre-versioning run?)")
      | Some v ->
          Ok
            ( v,
              List.rev !bench,
              List.rev !speedups,
              List.rev !overload,
              List.rev !uplift )

(* The flat synth_speedup keys this run produces (mirrored in the JSON
   emission below, and matched by key against the previous file). *)
let synth_speedup_pairs synth =
  List.concat_map
    (fun sy ->
      List.filter_map
        (fun jobs ->
          Option.map
            (fun s -> (Printf.sprintf "%s/speedup_jobs%d" sy.sy_name jobs, s))
            (synth_speedup sy jobs))
        synth_jobs
      @ [ (sy.sy_name ^ "/parallel_speedup", synth_parallel_speedup sy) ])
    synth

(* The flat overload keys: the spill-tier acceptance rate from the
   sustained_overload burst. Gated by --compare — a ladder change that
   drags spill ingest below decoder speed (e.g. analysis sneaking back
   onto the admission path) regresses this rate far beyond tolerance. *)
let overload_pairs ov =
  match ov with
  | None -> []
  | Some ov ->
      [
        ( "sustained_overload/accepted_events_s",
          overload_accepted_events_s ov );
      ]

(* The flat predict_uplift keys: distinct predicted-only races per
   trace. Deterministic counts (same seed, same closure), so the 70%
   gate only fires when a closure-construction change actually loses
   predicted races — never from host noise. *)
let predict_uplift_pairs predict =
  List.map
    (fun p -> (p.pu_name ^ "/predicted", float_of_int p.pu_predicted))
    predict

(* A parallel-speedup regression below this fraction of the previous run
   fails --compare. Generous on purpose: wall-clock speedups on shared
   CI hardware are noisy, and a 1-core box caps every speedup near 1.0 —
   the gate exists to catch the sharding path collapsing (e.g. a
   serializing bug), not 10% jitter. *)
let speedup_regression_tolerance = 0.7

(* Refuses to compare across schema versions; otherwise prints the
   per-benchmark delta of this run against the previous file, and fails
   when a synth parallel speedup, the overload acceptance rate or the
   predicted-race uplift regressed below tolerance. Only [synth/*] keys
   feed the parallel gate. *)
let compare_results ~prev_path ~benchmarks ~synth ~overload ~predict =
  match load_results prev_path with
  | Error e -> Error ("--compare: " ^ e)
  | Ok (prev_schema, _, _, _, _) when prev_schema <> schema_version ->
      Error
        (Printf.sprintf
           "--compare: %s has schema_version %d but this harness writes %d; \
            regenerate the baseline before comparing"
           prev_path prev_schema schema_version)
  | Ok (_, prev_bench, prev_speedups, prev_overload, prev_uplift) ->
      Fmt.pr "@.## Comparison against %s@.@." prev_path;
      if benchmarks = [] then
        Fmt.pr "(no bechamel benchmarks in this run — --tables-only?)@."
      else begin
        Fmt.pr "%-56s %14s %14s %8s@." "benchmark" "prev ns" "now ns" "ratio";
        List.iter
          (fun (name, now) ->
            match List.assoc_opt name prev_bench with
            | None -> Fmt.pr "%-56s %14s %14.0f %8s@." name "-" now "new"
            | Some prev ->
                Fmt.pr "%-56s %14.0f %14.0f %7.2fx@." name prev now (now /. prev))
          benchmarks
      end;
      let gate ~label ~prev pairs regressions =
        if pairs <> [] then begin
          Fmt.pr "@.%-44s %10s %10s %8s@." label "prev" "now" "ok";
          List.iter
            (fun (key, now) ->
              match List.assoc_opt key prev with
              | None -> Fmt.pr "%-44s %10s %10.2f %8s@." key "-" now "new"
              | Some p ->
                  let ok = p <= 0. || now >= p *. speedup_regression_tolerance in
                  if not ok then regressions := key :: !regressions;
                  Fmt.pr "%-44s %10.2f %10.2f %8b@." key p now ok)
            pairs
        end
      in
      let synth_regr = ref []
      and ov_regr = ref []
      and up_regr = ref [] in
      gate ~label:"synth speedup" ~prev:prev_speedups
        (List.filter
           (fun (k, _) -> String.length k >= 6 && String.sub k 0 6 = "synth/")
           (synth_speedup_pairs synth))
        synth_regr;
      gate ~label:"overload acceptance (events/s)" ~prev:prev_overload
        (overload_pairs overload) ov_regr;
      gate ~label:"predicted-race uplift" ~prev:prev_uplift
        (predict_uplift_pairs predict) up_regr;
      let synth_regr =
        if !synth_regr <> [] && Domain.recommended_domain_count () < 2 then begin
          (* A 1-core box caps every parallel speedup near 1.0 — any
             baseline recorded on real hardware would "regress". Report,
             but do not gate. *)
          Fmt.pr
            "@.(parallel speedup gate skipped: this host recommends %d \
             domain(s), parallel speedups are meaningless here)@."
            (Domain.recommended_domain_count ());
          []
        end
        else List.rev !synth_regr
      in
      match
        synth_regr @ List.rev !ov_regr @ List.rev !up_regr
      with
      | [] -> Ok ()
      | regressions ->
          Error
            (Printf.sprintf
               "--compare: speedup regressed below %.0f%% of the previous \
                run: %s"
               (100. *. speedup_regression_tolerance)
               (String.concat ", " regressions))

let write_json ~path ~jobs ~benchmarks ~traces ~synth ~codec ~server
    ~server_journal ~server_ingest ~overload ~predict ~racedb =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  let rate a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  pr "{\n";
  pr "  \"schema_version\": %d,\n" schema_version;
  pr "  \"jobs\": %d,\n" jobs;
  pr "  \"host_domains\": %d,\n" (Domain.recommended_domain_count ());
  pr "  \"benchmarks_ns\": {";
  List.iteri
    (fun i (name, ns) ->
      pr "%s\n    \"%s\": %.1f" (if i = 0 then "" else ",") (json_escape name) ns)
    benchmarks;
  pr "%s  },\n" (if benchmarks = [] then "" else "\n");
  pr "  \"traces\": {";
  List.iteri
    (fun i t ->
      pr "%s\n    \"%s\": {\n" (if i = 0 then "" else ",") (json_escape t.tr_name);
      pr "      \"events\": %d,\n" t.tr_events;
      pr "      \"rd2_actions\": %d,\n" t.tr_actions;
      pr "      \"rd2_lookups\": %d,\n" t.tr_lookups;
      pr "      \"rd2_lookups_per_action\": %.4f,\n" (rate t.tr_lookups t.tr_actions);
      pr "      \"rd2_same_epoch\": %d,\n" t.tr_same_epoch;
      pr "      \"rd2_same_epoch_rate\": %.4f,\n" (rate t.tr_same_epoch t.tr_actions);
      pr "      \"rd2_races\": %d,\n" t.tr_rd2_races;
      pr "      \"rd2_ns\": %.0f,\n" t.tr_rd2_ns;
      pr "      \"events_per_sec\": %.0f,\n" (per_s t.tr_events t.tr_rd2_ns);
      (* The jobs2 identity check shards these short traces from their
         first event: correctness signal, not a speedup claim. *)
      pr "      \"forced_parallel\": true,\n";
      pr "      \"sharded_reports_identical\": %b\n" t.tr_identical;
      pr "    }")
    traces;
  pr "\n  },\n";
  (* Flat by design: the --compare reader tracks exactly one level of
     section nesting, so speedups live in their own key:number map. *)
  pr "  \"synth_speedup\": {";
  List.iteri
    (fun i (key, s) ->
      pr "%s\n    \"%s\": %.3f" (if i = 0 then "" else ",") (json_escape key) s)
    (synth_speedup_pairs synth);
  pr "%s  },\n" (if synth = [] then "" else "\n");
  pr "  \"synth\": {";
  List.iteri
    (fun i sy ->
      pr "%s\n    \"%s\": {\n" (if i = 0 then "" else ",") (json_escape sy.sy_name);
      pr "      \"events\": %d,\n" sy.sy_events;
      pr "      \"rd2_races\": %d,\n" sy.sy_rd2_races;
      pr "      \"seq_ns\": %.0f,\n" sy.sy_seq_ns;
      pr "      \"events_per_sec\": %.0f,\n" (per_s sy.sy_events sy.sy_seq_ns);
      List.iter
        (fun (j, ns) ->
          pr "      \"jobs%d_ns\": %.0f,\n" j ns;
          pr "      \"jobs%d_events_per_sec\": %.0f,\n" j
            (per_s sy.sy_events ns))
        sy.sy_jobs_ns;
      pr "      \"parallel_speedup\": %.3f,\n" (synth_parallel_speedup sy);
      pr "      \"sharded_reports_identical\": %b\n" sy.sy_identical;
      pr "    }")
    synth;
  pr "%s  },\n" (if synth = [] then "" else "\n");
  pr "  \"codec\": {";
  List.iteri
    (fun i c ->
      pr "%s\n    \"%s\": {\n" (if i = 0 then "" else ",") (json_escape c.co_name);
      pr "      \"events\": %d,\n" c.co_events;
      pr "      \"text_bytes\": %d,\n" c.co_text_bytes;
      pr "      \"bin_bytes\": %d,\n" c.co_bin_bytes;
      pr "      \"bytes_per_event\": %.2f,\n"
        (rate c.co_bin_bytes (max 1 c.co_events));
      pr "      \"encode_ns\": %.0f,\n" c.co_encode_ns;
      pr "      \"big_decode_ns\": %.0f,\n" c.co_big_ns;
      pr "      \"encode_mb_s\": %.2f,\n" (mb_per_s c.co_bin_bytes c.co_encode_ns);
      pr "      \"big_decode_mb_s\": %.2f,\n" (mb_per_s c.co_bin_bytes c.co_big_ns);
      pr "      \"big_stream_decode_ns\": %.0f,\n" c.co_stream_big_ns;
      pr "      \"big_stream_decode_mb_s\": %.2f,\n"
        (mb_per_s c.co_bin_bytes c.co_stream_big_ns);
      pr "      \"encode_events_s\": %.0f,\n" (per_s c.co_events c.co_encode_ns);
      pr "      \"big_decode_events_s\": %.0f,\n" (per_s c.co_events c.co_big_ns);
      pr "      \"big_stream_events_s\": %.0f\n"
        (per_s c.co_events c.co_stream_big_ns);
      pr "    }")
    codec;
  pr "\n  },\n";
  let server_ns, server_events = server in
  let journal_ns, _ = server_journal in
  let ingest_ns, ingest_events = server_ingest in
  pr "  \"server\": {\n";
  pr "    \"roundtrip_ns\": %.0f,\n" server_ns;
  pr "    \"roundtrip_events\": %d,\n" server_events;
  pr "    \"roundtrip_events_s\": %.0f,\n" (per_s server_events server_ns);
  pr "    \"journal_roundtrip_ns\": %.0f,\n" journal_ns;
  pr "    \"journal_roundtrip_events_s\": %.0f,\n" (per_s server_events journal_ns);
  pr "    \"journal_overhead\": %.3f,\n" (journal_ns /. server_ns);
  pr "    \"ingest_ns\": %.0f,\n" ingest_ns;
  pr "    \"ingest_events\": %d,\n" ingest_events;
  pr "    \"ingest_events_s\": %.0f\n" (per_s ingest_events ingest_ns);
  pr "  },\n";
  (* Flat like synth_speedup: the --compare reader gates the spill-tier
     acceptance rate against the previous baseline. *)
  pr "  \"overload\": {";
  List.iteri
    (fun i (key, v) ->
      pr "%s\n    \"%s\": %.0f" (if i = 0 then "" else ",") (json_escape key) v)
    (overload_pairs overload);
  pr "%s  },\n" (match overload with None -> "" | Some _ -> "\n");
  (match overload with
  | None -> ()
  | Some ov ->
      pr "  \"sustained_overload\": {\n";
      pr "    \"clients\": %d,\n" ov.ov_clients;
      pr "    \"events_per_client\": %d,\n" ov.ov_events;
      pr "    \"burst_ns\": %.0f,\n" ov.ov_burst_ns;
      pr "    \"accepted_events_s\": %.0f,\n" (overload_accepted_events_s ov);
      pr "    \"spilled_sessions\": %d,\n" ov.ov_spilled;
      pr "    \"caught_up\": %d\n" ov.ov_caught_up;
      pr "  },\n");
  (* Flat like synth_speedup: the --compare reader gates the predicted
     race counts against the previous baseline. *)
  pr "  \"predict_uplift\": {";
  List.iteri
    (fun i (key, v) ->
      pr "%s\n    \"%s\": %.0f" (if i = 0 then "" else ",") (json_escape key) v)
    (predict_uplift_pairs predict);
  pr "%s  },\n" (if predict = [] then "" else "\n");
  pr "  \"predict\": {";
  List.iteri
    (fun i p ->
      pr "%s\n    \"%s\": {\n" (if i = 0 then "" else ",")
        (json_escape p.pu_name);
      pr "      \"events\": %d,\n" p.pu_events;
      pr "      \"witnessed_distinct\": %d,\n" p.pu_witnessed;
      pr "      \"predicted\": %d,\n" p.pu_predicted;
      pr "      \"candidates\": %d,\n" p.pu_candidates;
      pr "      \"capped\": %d,\n" p.pu_capped;
      pr "      \"analyze_ns\": %.0f,\n" p.pu_ns;
      pr "      \"events_per_sec\": %.0f\n" (per_s p.pu_events p.pu_ns);
      pr "    }")
    predict;
  pr "%s  },\n" (if predict = [] then "" else "\n");
  pr "  \"racedb\": {\n";
  pr "    \"sessions\": %d,\n" racedb.rb_sessions;
  pr "    \"reports\": %d,\n" racedb.rb_reports;
  pr "    \"distinct_per_session\": %.0f,\n" racedb.rb_distinct_per_session;
  pr "    \"publish_ns\": %.0f,\n" racedb.rb_publish_ns;
  pr "    \"publish_ms_per_session\": %.2f,\n"
    (racedb.rb_publish_ns /. 1e6 /. float_of_int racedb.rb_sessions);
  pr "    \"publish_reports_s\": %.0f,\n" (per_s racedb.rb_reports racedb.rb_publish_ns);
  pr "    \"query_top_ns\": %.0f,\n" racedb.rb_query_ns;
  pr "    \"query_top_entries\": %d\n" racedb.rb_distinct;
  pr "  }\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Printed tables                                                      *)
(* ------------------------------------------------------------------ *)

let print_fig4_table () =
  Fmt.pr "@.## Fig 4 / Section 5.4 — conflict checks per action@.@.";
  Fmt.pr "%8s %20s %16s %20s %16s@." "|A|" "apoint-constant" "raw (no A.3)"
    "apoint-linear" "direct";
  List.iter
    (fun n ->
      let trace = fig4_trace n in
      let per_action lookups actions =
        float_of_int lookups /. float_of_int (max 1 actions)
      in
      let sc = Rd2.stats (run_rd2_on ~mode:`Constant trace) in
      let sr = Rd2.stats (run_rd2_on ~repr:dict_repr_raw ~mode:`Constant trace) in
      let sl = Rd2.stats (run_rd2_on ~mode:`Linear trace) in
      let sd = Direct.stats (run_direct_on trace) in
      Fmt.pr "%8d %16.2f/act %12.2f/act %16.2f/act %12.2f/act@." n
        (per_action sc.Rd2.lookups sc.Rd2.actions)
        (per_action sr.Rd2.lookups sr.Rd2.actions)
        (per_action sl.Rd2.lookups sl.Rd2.actions)
        (per_action sd.Direct.lookups sd.Direct.actions))
    [ 50; 100; 200; 400; 800; 1600 ];
  Fmt.pr
    "@.(the access-point detector's checks per action stay constant as the \
     trace grows;@. the linear/active-scan and direct detectors grow with \
     |A| — Section 5.4)@."

let print_fig7_table () =
  Fmt.pr "@.## Fig 7 / Theorem 6.6 — translated representations@.@.";
  Fmt.pr "%-12s %14s %14s %16s %16s@." "spec" "raw shapes" "opt shapes"
    "raw max-confl" "opt max-confl";
  List.iter
    (fun spec ->
      match (Repr.of_spec ~optimize:false spec, Repr.of_spec spec) with
      | Ok raw, Ok opt ->
          Fmt.pr "%-12s %14d %14d %16d %16d@." (Spec.name spec)
            (Repr.num_shapes raw) (Repr.num_shapes opt)
            (Repr.max_conflicts raw) (Repr.max_conflicts opt)
      | _ -> Fmt.pr "%-12s (translation failed)@." (Spec.name spec))
    (Stdspecs.all ())

let arg_value flag ~default parse =
  let v = ref default in
  Array.iteri
    (fun i a ->
      if String.equal a flag && i + 1 < Array.length Sys.argv then
        v := parse Sys.argv.(i + 1))
    Sys.argv;
  !v

let int_arg flag s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> Fmt.failwith "%s: expected an integer, got %S" flag s

let float_arg flag s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> Fmt.failwith "%s: expected a number, got %S" flag s

let () =
  let tables_only = Array.exists (String.equal "--tables-only") Sys.argv in
  let jobs =
    arg_value "--jobs" ~default:(Analyzer.recommended_jobs ()) (int_arg "--jobs")
  in
  (* The identity checks need actual sharding. *)
  let jobs = max 2 jobs in
  let out = arg_value "--out" ~default:"BENCH_results.json" Fun.id in
  let quota = arg_value "--quota" ~default:0.25 (float_arg "--quota") in
  let synth_only = Array.exists (String.equal "--synth-only") Sys.argv in
  let synth_max_events =
    arg_value "--synth-max-events" ~default:max_int
      (int_arg "--synth-max-events")
  in
  let compare_path =
    arg_value "--compare" ~default:"" Fun.id |> function "" -> None | p -> Some p
  in
  Fmt.pr "# Commutativity Race Detection — benchmark harness@.@.";
  if synth_only then begin
    (* CI's bench-parallel-smoke path: only the synth corpus (capped by
       --synth-max-events) and the speedup regression gate; the JSON
       baseline is left untouched. *)
    let synth = synth_records ~max_events:synth_max_events () in
    print_synth_table synth;
    if List.exists (fun sy -> not sy.sy_identical) synth then
      failwith "sharded synth analysis diverged from the sequential reports";
    (match compare_path with
    | None -> ()
    | Some prev_path -> (
        match
          compare_results ~prev_path ~benchmarks:[] ~synth ~overload:None
            ~predict:[]
        with
        | Ok () -> ()
        | Error e ->
            Fmt.epr "%s@." e;
            exit 1));
    exit 0
  end;
  (* Table 2 (wall clock, end-to-end, deterministic race counts). *)
  let t = W.Table2.collect ~seed:1L ~scale:1 ~repeats:3 () in
  Fmt.pr "%a@." W.Table2.print t;
  print_fig4_table ();
  print_fig7_table ();
  let traces = trace_records ~jobs in
  Fmt.pr "@.## RD2 hot path per trace@.@.";
  Fmt.pr "%-44s %10s %14s %16s %12s %10s@." "trace" "actions" "lookups/act"
    "same-epoch rate" "seq ev/s" "jobs-ok";
  List.iter
    (fun tr ->
      let rate a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      Fmt.pr "%-44s %10d %14.3f %15.1f%% %12.0f %10b@." tr.tr_name tr.tr_actions
        (rate tr.tr_lookups tr.tr_actions)
        (100.0 *. rate tr.tr_same_epoch tr.tr_actions)
        (per_s tr.tr_events tr.tr_rd2_ns)
        tr.tr_identical)
    traces;
  if List.exists (fun tr -> not tr.tr_identical) traces then
    failwith "sharded analysis diverged from the sequential reports";
  let synth = synth_records ~max_events:synth_max_events () in
  print_synth_table synth;
  if List.exists (fun sy -> not sy.sy_identical) synth then
    failwith "sharded synth analysis diverged from the sequential reports";
  let codec =
    codec_records ~synth_events:(min 200_000 (max 50_000 synth_max_events)) ()
  in
  print_codec_table codec;
  let ((server_ns, server_events) as server) = server_roundtrip () in
  let jdir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crd-bench-journal-%d" (Unix.getpid ()))
  in
  let ((journal_ns, _) as server_journal) =
    server_roundtrip ~journal:jdir ()
  in
  (* The ingest row: a bigger synthetic trace through the streaming
     server path, so the events/s number measures streaming decode +
     online analysis rather than session setup. *)
  let ((ingest_ns, ingest_events) as server_ingest) =
    let events = min 200_000 (max 50_000 synth_max_events) in
    server_roundtrip ~tag:"-i"
      ~trace:(W.Synth.generate ~seed:7L (W.Synth.default ~events))
      ()
  in
  Fmt.pr "@.## Server round trip (snitch, online RD2 over a Unix socket)@.@.";
  Fmt.pr "%d events in %.2f ms (%.0f events/s)@." server_events
    (server_ns /. 1e6)
    (per_s server_events server_ns);
  Fmt.pr "with --journal: %.2f ms (%.0f events/s, %.2fx overhead)@."
    (journal_ns /. 1e6)
    (per_s server_events journal_ns)
    (journal_ns /. server_ns);
  Fmt.pr "ingest (synth/uniform/%dk): %.2f ms (%.0f events/s)@."
    (ingest_events / 1000) (ingest_ns /. 1e6)
    (per_s ingest_events ingest_ns);
  (* Sustained overload: a concurrent burst against one worker, most of
     it acked through the spill tier at decoder-plus-journal speed. *)
  let overload =
    Some
      (sustained_overload
         ~events:(min 100_000 (max 20_000 (synth_max_events / 10)))
         ())
  in
  (match overload with
  | None -> ()
  | Some ov ->
      Fmt.pr
        "sustained overload (%d clients x %dk, 1 worker): %.2f ms \
         (%.0f accepted events/s, %d spilled, %d caught up)@."
        ov.ov_clients (ov.ov_events / 1000)
        (ov.ov_burst_ns /. 1e6)
        (overload_accepted_events_s ov)
        ov.ov_spilled ov.ov_caught_up);
  let predict = predict_records ~max_events:synth_max_events () in
  print_predict_table predict;
  let racedb = racedb_bench () in
  Fmt.pr "@.## Race database (racedb_publish / query_top)@.@.";
  Fmt.pr
    "%d sessions (%d reports, %.0f distinct a session) published in %.2f ms \
     (%.2f ms a session, %.0f reports/s)@."
    racedb.rb_sessions racedb.rb_reports racedb.rb_distinct_per_session
    (racedb.rb_publish_ns /. 1e6)
    (racedb.rb_publish_ns /. 1e6 /. float_of_int racedb.rb_sessions)
    (per_s racedb.rb_reports racedb.rb_publish_ns);
  Fmt.pr "query --top 10 (cold load): %.2f ms (%d entries)@."
    (racedb.rb_query_ns /. 1e6)
    racedb.rb_distinct;
  (* Last: bechamel compacts the heap before every sample, and after
     thousands of [Gc.compact]s OCaml 5.1's major GC falls behind a
     fast-allocating pass — run first, the predictive and synth sections
     grew the heap past 3.5 GB on a 7 GB host. *)
  let benchmarks =
    if tables_only then []
    else begin
      Fmt.pr "@.";
      print_bench_results ~quota
        (table2_tests () @ hb_tests () @ ablation_tests ())
    end
  in
  write_json ~path:out ~jobs ~benchmarks ~traces ~synth ~codec ~server
    ~server_journal ~server_ingest ~overload ~predict ~racedb;
  Fmt.pr "@.results written to %s (jobs=%d)@." out jobs;
  if Array.exists (String.equal "--stats") Sys.argv then begin
    Fmt.pr "@.## Metrics registry after this run@.@.";
    print_string (Crd_obs.dump ())
  end;
  match compare_path with
  | None -> ()
  | Some prev_path -> (
      match
        compare_results ~prev_path ~benchmarks ~synth ~overload ~predict
      with
      | Ok () -> ()
      | Error e ->
          Fmt.epr "%s@." e;
          exit 1)
