(* End-to-end tests of the streaming ingestion service: a real server
   on a Unix socket and real client connections, through rejection,
   faults, crashes, journals and streamed replies. That every session
   path reports the offline races is test_identity.ml's job; the tests
   here compare races where a fault or a crash is what they exercise. *)

open Crd
open Sessions
module Proto = Crd_server.Proto
module Journal = Crd_server.Journal

let concurrent_clients () =
  let trace = snitch_trace () in
  let expected = offline_race_lines trace in
  let n = 3 in
  with_server (fun ~addr ~server ->
      let replies = Array.make n (Error "never ran") in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () -> replies.(i) <- Client.send_trace ~addr trace)
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Error e -> Alcotest.failf "client %d: %s" i e
          | Ok reply ->
              Alcotest.(check (list string))
                (Printf.sprintf "client %d races" i)
                expected (reply_race_lines reply))
        replies;
      let st = Server.stats server in
      Alcotest.(check int) "sessions" n st.Server.sessions;
      Alcotest.(check int) "events" (n * Trace.length trace) st.Server.events;
      Alcotest.(check int) "errors" 0 st.Server.errors)

let unknown_spec_rejected () =
  let trace = snitch_trace () in
  with_server (fun ~addr ~server ->
      (match Client.send_trace ~addr ~spec:"no-such-set" trace with
      | Ok reply -> Alcotest.failf "unknown spec accepted: %s" reply
      | Error _ -> ());
      (* The rejected handshake must not poison the server; it counts as
         a completed (error) session. *)
      ignore (send_exn ~addr trace);
      (* The client returns on the REJECT line; the server counts the
         rejected session just after sending it. *)
      poll "rejected session never counted" (fun () ->
          (Server.stats server).Server.sessions >= 2);
      let st = Server.stats server in
      Alcotest.(check int) "two completed sessions" 2 st.Server.sessions;
      Alcotest.(check int) "one rejected session" 1 st.Server.errors)

(* A call that does not match its object's specification (unknown
   method) must come back as a clean ERR reply under every jobs
   setting, never as an escaped exception dump. *)
let malformed_trace () =
  match
    Trace_text.parse
      "T0 fork T1\nT1 call \"dictionary:o\".frobnicate(\"x\") / nil\nT0 join T1\n"
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse: %s" e

let malformed_event_err jobs () =
  with_server
    ~f_config:(fun c -> { c with Server.jobs })
    (fun ~addr ~server ->
      (match Client.send_trace ~addr (malformed_trace ()) with
      | Ok reply -> Alcotest.failf "malformed trace accepted: %s" reply
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "clean analyzer ERR (%s)" msg)
            true
            (contains msg "ERR Repr.eta"
            && not (contains msg "Invalid_argument")));
      (* ...and the session must not poison the server. *)
      ignore (send_exn ~addr (snitch_trace ()));
      let st = Server.stats server in
      Alcotest.(check int) "two completed sessions" 2 st.Server.sessions;
      Alcotest.(check int) "one error session" 1 st.Server.errors)

(* Injected transient accept() failures (resource exhaustion) must be
   survived with backoff — the pending connection still gets served —
   and counted, both in stats and in the metrics registry. *)
let survives_transient_accept_errors () =
  let trace = snitch_trace () in
  let before = metric "server_accept_errors_total" in
  with_server (fun ~addr ~server ->
      Server.inject_accept_error server Unix.EMFILE;
      Server.inject_accept_error server Unix.ENFILE;
      Server.inject_accept_error server Unix.ENOBUFS;
      let reply = send_exn ~addr trace in
      Alcotest.(check bool)
        "session served after accept failures" true
        (String.length reply >= 2 && String.equal (String.sub reply 0 2) "OK");
      let st = Server.stats server in
      Alcotest.(check int) "accept errors counted" 3 st.Server.accept_errors;
      Alcotest.(check int) "no session errors" 0 st.Server.errors;
      Alcotest.(check int) "one session" 1 st.Server.sessions;
      Alcotest.(check int) "server_accept_errors_total moved" (before + 3)
        (metric "server_accept_errors_total"))

(* End-to-end scrape of the --metrics listener: counters must be
   exposed in Prometheus text format and move when a session runs. *)
let metrics_endpoint () =
  let trace = snitch_trace () in
  let maddr = fresh_addr () in
  with_server
    ~f_config:(fun c -> { c with Server.metrics_addr = Some maddr })
    (fun ~addr ~server:_ ->
      let scrape () =
        let fd = Server.connect maddr in
        Fun.protect
          ~finally:(fun () -> close_quietly fd)
          (fun () ->
            Proto.write_all fd "GET /metrics HTTP/1.0\r\n\r\n";
            Proto.read_to_eof fd)
      in
      let before = scrape () in
      Alcotest.(check bool)
        "HTTP response" true
        (String.length before > 12
        && String.equal (String.sub before 0 12) "HTTP/1.0 200");
      let v0 = Option.value ~default:0 (metric_value before "server_sessions_total") in
      let e0 = Option.value ~default:0 (metric_value before "analyzer_events_total") in
      ignore (send_exn ~addr trace);
      let after = scrape () in
      let v1 = Option.value ~default:0 (metric_value after "server_sessions_total") in
      let e1 = Option.value ~default:0 (metric_value after "analyzer_events_total") in
      Alcotest.(check int) "session counter moved" (v0 + 1) v1;
      Alcotest.(check int) "event counter moved"
        (e0 + Trace.length trace) e1;
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains after needle))
        [
          "server_races_total";
          "server_errors_decode_total";
          "server_conn_queue_depth_hw";
          "server_session_seconds_bucket{le=";
          "server_handshake_seconds_sum";
          "server_analyze_seconds_count";
          "rd2_same_epoch_total";
          "rd2_promotions_total";
          "wire_rx_bytes_total";
        ])

(* A unix socket with a live listener must not be stolen by a second
   server; a stale socket file (no listener) must be reclaimed. *)
let live_socket_not_stolen () =
  with_server (fun ~addr ~server:_ ->
      (match Server.start (Server.default_config ~addr) with
      | Ok second ->
          ignore (Server.stop second);
          Alcotest.fail "second server bound over a live socket"
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "refusal names the live server (%s)" msg)
            true (contains msg "live server"));
      (* The probe must not have disturbed the running server. *)
      ignore (send_exn ~addr (snitch_trace ())))

let stale_socket_reclaimed () =
  let addr = fresh_addr () in
  let path = sock_path addr in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1;
  Unix.close fd;
  (* The file outlives its listener: connect now gives ECONNREFUSED. *)
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists path);
  match Server.start (Server.default_config ~addr) with
  | Error e -> Alcotest.failf "stale socket not reclaimed: %s" e
  | Ok server ->
      Fun.protect
        ~finally:(fun () -> ignore (Server.stop server))
        (fun () -> ignore (send_exn ~addr (snitch_trace ())))

let addr_of_string_table () =
  let ok s expect =
    match Server.addr_of_string s with
    | Ok a ->
        Alcotest.(check string)
          s expect
          (Fmt.str "%a" Server.pp_addr a)
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  let rejected s =
    match Server.addr_of_string s with
    | Ok a -> Alcotest.failf "%s accepted as %a" s Server.pp_addr a
    | Error _ -> ()
  in
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "unix:rel.sock" "unix:rel.sock";
  ok "tcp:127.0.0.1:9090" "tcp:127.0.0.1:9090";
  ok "tcp:localhost:1" "tcp:localhost:1";
  ok "tcp::9090" "tcp:127.0.0.1:9090";
  (* IPv6: bracketed literals, canonical bracketed rendering. *)
  ok "tcp:[::1]:9000" "tcp:[::1]:9000";
  ok "tcp:[fe80::1]:80" "tcp:[fe80::1]:80";
  ok "tcp:[2001:db8::2]:65535" "tcp:[2001:db8::2]:65535";
  (* Bare IPv6-ish host: the last colon splits host from port, and the
     result renders in the canonical bracketed form. *)
  ok "tcp:::1:9090" "tcp:[::1]:9090";
  rejected "";
  rejected "unix:";
  rejected "tcp:";
  rejected "tcp:host";
  rejected "tcp:host:notaport";
  rejected "tcp:host:0";
  rejected "tcp:host:65536";
  rejected "udp:host:1";
  rejected "/tmp/x.sock";
  rejected "tcp:[::1]";
  rejected "tcp:[::1]9000";
  rejected "tcp:[::1";
  rejected "tcp:[]:9000";
  rejected "tcp:[::1]:";
  rejected "tcp:[::1]:0"

(* ------------------------------------------------------------------ *)
(* Robustness: shedding, session crashes, retries, journals            *)
(* ------------------------------------------------------------------ *)

(* With one busy worker and a full backlog, the next connection must be
   shed with a BUSY reply carrying the configured retry hint — before
   its handshake is even read. *)
let busy_shed () =
  with_server
    ~f_config:(fun c ->
      { c with Server.workers = 1; shed_backlog = 1; retry_after_ms = 123 })
    (fun ~addr ~server ->
      let conn () = Server.connect addr in
      let c1 = conn () in
      (* The lone worker owns c1 (blocked reading its handshake)... *)
      poll "worker never picked up the session" (fun () ->
          metric "server_sessions_active" >= 1);
      (* ...c2 fills the backlog... *)
      let c2 = conn () in
      poll "second connection never queued" (fun () ->
          metric "server_conn_queue_depth_hw" >= 1);
      (* ...so c3 must be shed. *)
      let c3 = conn () in
      (match Proto.read_handshake_reply c3 with
      | Ok (Proto.Busy ms) -> Alcotest.(check int) "retry-after hint" 123 ms
      | Ok Proto.Accepted -> Alcotest.fail "expected BUSY, got accept"
      | Ok (Proto.Rejected m) -> Alcotest.failf "expected BUSY, got reject %s" m
      | Error e -> Alcotest.failf "shed reply: %s" e);
      List.iter
        close_quietly
        [ c1; c2; c3 ];
      let st = Server.stats server in
      Alcotest.(check int) "one shed connection" 1 st.Server.busy)

(* An exception escaping a session (worker_body fault) ends only that
   session: the client gets a clean ERR, the crash is counted, and the
   same worker (the only one) takes the next connection — a second
   crashing session, then a clean one served identically. *)
let worker_survives_session_crash () =
  let trace = snitch_trace () in
  let expected = offline_race_lines trace in
  with_faults "seed=3,worker_body=every:1" (fun () ->
      with_server
        ~f_config:(fun c -> { c with Server.workers = 1 })
        (fun ~addr ~server ->
          for _ = 1 to 2 do
            match Client.send_trace ~addr trace with
            | Ok reply -> Alcotest.failf "crashed session replied OK: %s" reply
            | Error msg ->
                Alcotest.(check bool)
                  (Printf.sprintf "clean worker-crash ERR (%s)" msg)
                  true
                  (contains msg "internal: worker crashed")
          done;
          Crd_fault.set_policy (Crd_fault.point "worker_body") Crd_fault.Off;
          (* The worker that survived both crashes serves the next
             session identically. *)
          let reply = send_exn ~addr trace in
          Alcotest.(check (list string))
            "post-crash races = offline races" expected
            (reply_race_lines reply);
          let st = Server.stats server in
          Alcotest.(check int) "two worker crashes" 2 st.Server.worker_crashes;
          Alcotest.(check int) "three sessions" 3 st.Server.sessions;
          Alcotest.(check int) "two error sessions" 2 st.Server.errors))

(* [stop] wakes every loop at once: an idle server with a metrics
   listener, a stall watchdog, a racedb and an unreachable peer stops
   without waiting out a select timeout, a watchdog interval or the
   sync loop's delay. *)
let stop_is_prompt () =
  let maddr = fresh_addr () in
  let peer = fresh_addr () in
  let addr = fresh_addr () in
  let config =
    {
      (Server.default_config ~addr) with
      Server.metrics_addr = Some maddr;
      stall_timeout = 5.;
      racedb = Some (fresh_dir "crd-stop");
      peers = [ peer ];
    }
  in
  match Server.start config with
  | Error e -> Alcotest.failf "server start: %s" e
  | Ok server ->
      Unix.sleepf 0.05;
      let t0 = Unix.gettimeofday () in
      ignore (Server.stop server);
      let ms = 1000. *. (Unix.gettimeofday () -. t0) in
      Alcotest.(check bool)
        (Printf.sprintf "stop took %.1f ms, under 100 ms" ms)
        true (ms < 100.)

(* A lost reply (sock_write fault) is invisible to the analysis: the
   client retries under the same nonce and gets the full report. *)
let retry_on_lost_reply () =
  let trace = snitch_trace () in
  let expected = offline_race_lines trace in
  with_faults "seed=5,sock_write=once" (fun () ->
      with_server (fun ~addr ~server ->
          let reply =
            match
              Client.send_trace ~addr ~retries:3 ~backoff:0.01
                ~nonce:"retry-test" trace
            with
            | Ok reply -> reply
            | Error e -> Alcotest.failf "retrying send failed: %s" e
          in
          Alcotest.(check (list string))
            "retried races = offline races" expected (reply_race_lines reply);
          let st = Server.stats server in
          Alcotest.(check int) "both attempts completed" 2 st.Server.sessions;
          Alcotest.(check int) "no error sessions" 0 st.Server.errors))

(* Without retries the same lost reply is a hard error — the retry
   machinery, not luck, is what the previous test exercises. *)
let lost_reply_without_retries () =
  let trace = snitch_trace () in
  with_faults "seed=5,sock_write=once" (fun () ->
      with_server (fun ~addr ~server:_ ->
          match Client.send_trace ~addr trace with
          | Ok reply -> Alcotest.failf "lost reply came back: %s" reply
          | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "reports the lost reply (%s)" msg)
                true
                (contains msg "connection closed before report")))

(* Journal replay: a committed-but-unreported journal on disk is
   analyzed at startup and its report matches the offline analyzer; an
   uncommitted (partial) journal is left alone. *)
let journal_replay_on_start () =
  let trace = snitch_trace () in
  let expected = offline_race_lines trace in
  let dir = fresh_dir "crd-journal" in
  let bytes = Wire.encode_trace trace in
  let j = Journal.start ~dir ~nonce:"replay1" ~spec:"std" in
  Journal.append j bytes;
  Journal.commit j;
  Journal.close j;
  let j2 = Journal.start ~dir ~nonce:"partial" ~spec:"std" in
  Journal.append j2 (String.sub bytes 0 (String.length bytes / 2));
  Journal.close j2;
  with_server
    ~f_config:(fun c -> { c with Server.journal = Some dir })
    (fun ~addr:_ ~server ->
      let st = Server.stats server in
      Alcotest.(check int) "one recovered session" 1 st.Server.recovered;
      Alcotest.(check int) "recovery counted as a session" 1 st.Server.sessions;
      Alcotest.(check int) "no errors" 0 st.Server.errors;
      let report = read_file (Filename.concat dir "replay1.report") in
      Alcotest.(check (list string))
        "recovered races = offline races" expected (reply_race_lines report);
      Alcotest.(check bool)
        "partial journal not replayed" false
        (Sys.file_exists (Filename.concat dir "partial.report")))

(* Replay streams a journal's committed prefix in 64 KiB reads: a
   journal several blocks long with a torn tail past its marker replays
   to the offline races, and one whose data file is shorter than its
   marker gets an [ERR] report naming both sizes, counted as an error. *)
let journal_replay_streams_committed_prefix () =
  let trace = W.Synth.generate ~seed:7L (W.Synth.default ~events:20_000) in
  let expected = offline_race_lines trace in
  let dir = fresh_dir "crd-journal" in
  let bytes = Wire.encode_trace trace in
  Alcotest.(check bool) "several read blocks" true (String.length bytes > 131072);
  let commit nonce =
    let j = Journal.start ~dir ~nonce ~spec:"std" in
    Journal.append j bytes;
    Journal.commit j;
    j
  in
  let torn = commit "torn" in
  Journal.append torn "torn-tail";
  Journal.close torn;
  Journal.close (commit "short");
  let short = Filename.concat dir "short.crdj" in
  let have = String.length bytes - 100 in
  Unix.truncate short have;
  with_server
    ~f_config:(fun c -> { c with Server.journal = Some dir })
    (fun ~addr:_ ~server ->
      let st = Server.stats server in
      Alcotest.(check int) "both journals recovered" 2 st.Server.recovered;
      Alcotest.(check int) "the short one is an error" 1 st.Server.errors;
      let report = read_file (Filename.concat dir "torn.report") in
      Alcotest.(check (list string))
        "torn journal races = offline races" expected (reply_race_lines report);
      Alcotest.(check string)
        "short journal ERR names both sizes"
        (Printf.sprintf "ERR %s: %d bytes but %d committed\n" short have
           (String.length bytes))
        (read_file (Filename.concat dir "short.report")))

(* ------------------------------------------------------------------ *)
(* Subprocess end-to-end: SIGKILL crash recovery, SIGTERM drain        *)
(* ------------------------------------------------------------------ *)

let spawn_server args =
  Unix.create_process rd2_exe
    (Array.of_list ("rd2" :: args))
    Unix.stdin Unix.stdout Unix.stderr

let wait_listening addr =
  poll "server never came up" (fun () ->
      match Server.connect addr with
      | fd ->
          close_quietly fd;
          true
      | exception Unix.Unix_error _ -> false)

let kill_quietly pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* The sharded server path: with --jobs 2 a session streams into two
   shard workers from its first event, and a malformed call — met by a
   shard worker, not the session's own domain — still comes back as a
   clean ERR. (Its race lines are held to the offline ones in
   test_identity.ml.) *)
let sharded_session () =
  let trace = W.Synth.generate ~seed:7L (W.Synth.default ~events:4_000) in
  with_server
    ~f_config:(fun c -> { c with Server.jobs = 2 })
    (fun ~addr ~server:_ ->
      let reply = send_exn ~addr trace in
      Alcotest.(check bool) "sharded" true (contains reply "(2 shards)");
      let bad = Trace.create () in
      Trace.iter_events trace ~f:(Trace.append bad);
      Trace.iter_events (malformed_trace ()) ~f:(Trace.append bad);
      match Client.send_trace ~addr bad with
      | Ok reply -> Alcotest.failf "malformed trace accepted: %s" reply
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "clean shard-worker ERR (%s)" msg)
            true
            (contains msg "ERR Repr.eta" && not (contains msg "Invalid_argument")))

(* The real thing: a server process is SIGKILLed inside the window
   where a session's journal is committed but its report unsent (held
   open by the report_send stall fault); a restart with the same
   journal directory recovers the session and reports the same races
   the offline analyzer finds. *)
let sigkill_crash_recovery () =
  let trace = snitch_trace () in
  let expected = offline_race_lines trace in
  let dir = fresh_dir "crd-crash" in
  let addr = fresh_addr () in
  let path = sock_path addr in
  let pid =
    spawn_server
      [
        "serve"; "-a"; "unix:" ^ path; "--journal"; dir; "--workers"; "1";
        "--faults"; "seed=7,report_send=once";
      ]
  in
  Fun.protect
    ~finally:(fun () ->
      kill_quietly pid Sys.sigkill;
      ignore (reap pid))
    (fun () ->
      wait_listening addr;
      let fd = Server.connect addr in
      Fun.protect
        ~finally:(fun () -> close_quietly fd)
        (fun () ->
          Proto.send_handshake fd ~nonce:"crash1" ~spec:"std" ();
          (match Proto.read_handshake_reply fd with
          | Ok Proto.Accepted -> ()
          | Ok _ | Error _ -> Alcotest.fail "handshake not accepted");
          Proto.write_all fd (Wire.encode_trace trace);
          (* The commit marker is fsync'd by the reader thread; the
             reply is parked behind the report_send stall. *)
          poll "commit marker never appeared" (fun () ->
              Sys.file_exists (Filename.concat dir "crash1.commit"));
          Alcotest.(check bool)
            "report not yet delivered" false
            (Sys.file_exists (Filename.concat dir "crash1.report"));
          kill_quietly pid Sys.sigkill;
          ignore (reap pid)));
  with_server
    ~f_config:(fun c -> { c with Server.journal = Some dir })
    (fun ~addr:_ ~server ->
      Alcotest.(check int)
        "recovered the killed session" 1 (Server.stats server).Server.recovered);
  let report = read_file (Filename.concat dir "crash1.report") in
  Alcotest.(check (list string))
    "recovered races = offline races" expected (reply_race_lines report)

(* SIGTERM mid-stream with two in-flight sessions under --jobs 2: both
   clients still get their full reports and the process exits 0. *)
let sigterm_graceful_drain () =
  let trace = snitch_trace () in
  let expected = offline_race_lines trace in
  let addr = fresh_addr () in
  let path = sock_path addr in
  let pid =
    spawn_server
      [ "serve"; "-a"; "unix:" ^ path; "--jobs"; "2"; "--workers"; "2" ]
  in
  Fun.protect
    ~finally:(fun () ->
      kill_quietly pid Sys.sigkill;
      ignore (reap pid))
    (fun () ->
      wait_listening addr;
      let n = 2 in
      let results = Array.make n (Error "never ran") in
      let slow_send i =
        results.(i) <-
          Client.send_iter ~addr (fun push ->
              let k = ref 0 in
              Trace.iter_events trace ~f:(fun e ->
                  incr k;
                  if !k mod 100 = 0 then Unix.sleepf 0.01;
                  push e);
              Ok ())
      in
      let threads =
        List.init n (fun i -> Thread.create (fun () -> slow_send i) ())
      in
      Unix.sleepf 0.1;
      kill_quietly pid Sys.sigterm;
      List.iter Thread.join threads;
      let status = reap pid in
      Alcotest.(check bool)
        "server exited 0 after drain" true
        (status = Unix.WEXITED 0);
      Array.iteri
        (fun i r ->
          match r with
          | Error e -> Alcotest.failf "drained client %d: %s" i e
          | Ok reply ->
              Alcotest.(check (list string))
                (Printf.sprintf "drained client %d races" i)
                expected (reply_race_lines reply))
        results)

let stop_releases_socket () =
  let addr = fresh_addr () in
  let path = sock_path addr in
  (match Server.start (Server.default_config ~addr) with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok server ->
      ignore (send_exn ~addr (snitch_trace ()));
      let st = Server.stop server in
      Alcotest.(check int) "drained one session" 1 st.Server.sessions);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
  match Client.send_trace ~addr (Trace.create ()) with
  | Ok _ -> Alcotest.fail "connected to a stopped server"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Race database publication                                           *)
(* ------------------------------------------------------------------ *)

(* Every session's verdict lands in the race database; after [stop] the
   folded fingerprints (and counts) equal the offline analyzer's fold. *)
let racedb_publication () =
  let trace = snitch_trace () in
  let races = offline_races trace in
  let expected = fingerprint_fold races in
  Alcotest.(check bool) "snitch races exist" true (List.length races > 0);
  let dir = fresh_dir "crd-racedb-pub" in
  with_server
    ~f_config:(fun c -> { c with Server.racedb = Some dir })
    (fun ~addr ~server:_ ->
      let reply = send_exn ~addr trace in
      (* the STATS line now carries the fingerprint-distinct count *)
      let distinct =
        String.split_on_char '\n' reply
        |> List.find_map (fun l ->
               Scanf.sscanf_opt l "STATS events=%d races=%d distinct=%d"
                 (fun _ _ d -> d))
      in
      Alcotest.(check (option int))
        "STATS distinct = offline distinct"
        (Some (Report.distinct races))
        distinct;
      ignore (send_exn ~addr trace));
  let st = (Result.get_ok (Crd_racedb.Db.load dir)).Crd_racedb.Db.v_stats in
  Alcotest.(check int)
    "db total = 2 sessions of races" (2 * List.length races) st.Crd_racedb.Db.total;
  Alcotest.(check (list (pair int64 int)))
    "db fold = offline fold, doubled"
    (List.map (fun (fp, c) -> (fp, 2 * c)) expected)
    (db_fold dir)

(* Regression: a SIGKILLed process that had already published its
   session must not publish it again when the committed journal is
   replayed on restart. The batch frame carries the session nonce and
   the store's durable published-nonce set drops the replay. *)
let racedb_replay_no_double_count () =
  let trace = snitch_trace () in
  let races = offline_races trace in
  let expected = fingerprint_fold races in
  let jdir = fresh_dir "crd-racedb-dd-j" in
  let dbdir = fresh_dir "crd-racedb-dd-db" in
  let j = Journal.start ~dir:jdir ~nonce:"dedup1" ~spec:"std" in
  Journal.append j (Wire.encode_trace trace);
  Journal.commit j;
  Journal.close j;
  (* what the dead process did before the kill: publish, but never
     write the .report that would retire the journal *)
  let db = Result.get_ok (Crd_racedb.Db.open_db dbdir) in
  ignore
    (Crd_racedb.Db.publish db ~nonce:"dedup1"
       (List.map (fun r -> Crd_racedb.Record.make ~ts:1000. ~spec:"std" r) races)
      : bool);
  Crd_racedb.Db.close db;
  with_server
    ~f_config:(fun c ->
      { c with Server.journal = Some jdir; racedb = Some dbdir })
    (fun ~addr:_ ~server ->
      Alcotest.(check int)
        "journal replayed" 1 (Server.stats server).Server.recovered);
  Alcotest.(check (list (pair int64 int)))
    "replay did not inflate counts" expected (db_fold dbdir)

(* The worker's ingest loop has two exits besides end-of-stream, on
   both tiers: a client that closes before the end-of-stream frame gets
   a Decode ERR, and one that goes silent gets the idle-timeout ERR.
   Neither may leave anything behind on the lone worker: the next
   session on it reports exactly the offline races — live on the normal
   tier, in the catch-up report on the spill tier. *)
let ingest_exits () =
  let trace = snitch_trace () in
  let expected = offline_race_lines trace in
  let bytes = Wire.encode_trace trace in
  let partial = String.sub bytes 0 (String.length bytes / 2) in
  let dir = fresh_dir "crd-exits" in
  with_server
    ~f_config:(fun c ->
      {
        c with
        Server.workers = 1;
        idle_timeout = 1.5;
        spill_watermark = 1;
        journal = Some dir;
      })
    (fun ~addr ~server ->
      let conn () = Server.connect addr in
      (* Handshake and send [data]; [close_early] then half-closes, so
         the server sees EOF mid-stream while we still read the reply. *)
      let start ?(close_early = false) nonce data =
        let fd = conn () in
        Proto.send_handshake fd ~nonce ~spec:"std" ();
        Proto.write_all fd data;
        if close_early then Unix.shutdown fd Unix.SHUTDOWN_SEND;
        fd
      in
      let reply_of fd =
        Fun.protect
          ~finally:(fun () -> close_quietly fd)
          (fun () ->
            (match Proto.read_handshake_reply fd with
            | Ok Proto.Accepted -> ()
            | Ok _ | Error _ -> Alcotest.fail "handshake not accepted");
            Proto.read_to_eof fd)
      in
      let expect_err what reply needle =
        Alcotest.(check bool)
          (Printf.sprintf "%s: ERR %s (%s)" what needle reply)
          true
          (String.starts_with ~prefix:"ERR " reply && contains reply needle)
      in
      let decode0 = metric "server_errors_decode_total" in
      let timeout0 = metric "server_errors_timeout_total" in
      (* Normal tier. *)
      expect_err "normal, closed early"
        (reply_of (start ~close_early:true "n-trunc" partial))
        "truncated";
      Alcotest.(check (list string))
        "normal: next session = offline races" expected
        (reply_race_lines (send_exn ~addr trace));
      expect_err "normal, silent"
        (reply_of (start "n-idle" partial))
        "idle timeout";
      Alcotest.(check (list string))
        "normal: next session = offline races after a timeout" expected
        (reply_race_lines (send_exn ~addr trace));
      (* Spill tier: c1 pins the worker and c2 waits, so every later
         connection is admitted while the worker is busy — c3 trips the
         watermark and the hysteresis holds the spill tier for the rest.
         Each failing spill session is followed by a good one, whose
         catch-up report must carry the offline races. *)
      let spill0 = metric "overload_to_spill_total" in
      let accepted0 = metric "server_accepted_total" in
      (* The last session may still be closing: only once it is gone
         does an active session mean the worker holds c1. *)
      poll "previous sessions never finished" (fun () ->
          metric "server_sessions_active" = 0);
      let c1 = conn () in
      poll "worker never picked up the pin" (fun () ->
          metric "server_sessions_active" >= 1);
      let c2 = conn () in
      let c3 = start ~close_early:true "s-trunc" partial in
      poll "c3 never admitted on the spill tier" (fun () ->
          metric "overload_to_spill_total" > spill0);
      let c4 = start "s-good1" bytes in
      let c5 = start "s-idle" partial in
      let c6 = start "s-good2" bytes in
      poll "not every connection admitted" (fun () ->
          metric "server_accepted_total" >= accepted0 + 6);
      Alcotest.(check int) "admission still on the spill tier" 1
        (metric "overload_tier");
      List.iter
        close_quietly
        [ c1; c2 ];
      expect_err "spill, closed early" (reply_of c3) "truncated";
      let spilled what fd =
        let reply = reply_of fd in
        Alcotest.(check bool)
          (Printf.sprintf "%s: spill ack (%s)" what reply)
          true
          (contains reply "spilled=1")
      in
      spilled "spill, after a Decode ERR" c4;
      expect_err "spill, silent" (reply_of c5) "idle timeout";
      spilled "spill, after a timeout" c6;
      poll "catch-up never drained both segments" (fun () ->
          (Server.stats server).Server.caught_up >= 2);
      Alcotest.(check int) "two decode ERRs" (decode0 + 2)
        (metric "server_errors_decode_total");
      Alcotest.(check int) "two idle timeouts" (timeout0 + 2)
        (metric "server_errors_timeout_total");
      Alcotest.(check int)
        "two spilled sessions" 2 (Server.stats server).Server.spilled);
  List.iter
    (fun nonce ->
      Alcotest.(check (list string))
        (nonce ^ ": catch-up races = offline races") expected
        (reply_race_lines (read_file (Filename.concat dir (nonce ^ ".report")))))
    [ "s-good1"; "s-good2" ]

(* A thread id above [Tid.max_id] is refused where it enters: offline
   [rd2 check] exits with the decoder's error on both trace formats, and
   a live session gets a Decode ERR, after which the server still serves
   the next session. Before the bound, the text case alone made [rd2
   check] allocate a clock gigabytes wide. *)
let far_tid_refused () =
  let dir = fresh_dir "crd-far-tid" in
  let check format data =
    let path = Filename.concat dir ("t." ^ format) in
    Out_channel.with_open_bin path (fun oc -> output_string oc data);
    let err_path = Filename.concat dir "stderr" in
    let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process rd2_exe
        [| "rd2"; "check"; "--format"; format; path |]
        Unix.stdin null err
    in
    Unix.close err;
    Unix.close null;
    let status = reap pid in
    let msg = read_file err_path in
    Alcotest.(check bool)
      (Printf.sprintf "%s: failing exit" format)
      true
      (status <> Unix.WEXITED 0);
    Alcotest.(check bool)
      (Printf.sprintf "%s: decoder error (%s)" format msg)
      true
      (contains msg "thread id" && contains msg "above the maximum"
      && not (contains msg "exception"))
  in
  check "text" Test_wire.far_tid_text;
  check "bin" Test_wire.far_tid_stream;
  with_server (fun ~addr ~server ->
      let fd = Server.connect addr in
      let reply =
        Fun.protect
          ~finally:(fun () -> close_quietly fd)
          (fun () ->
            Proto.send_handshake fd ~nonce:"far-tid" ~spec:"std" ();
            Proto.write_all fd Test_wire.far_tid_stream;
            (match Proto.read_handshake_reply fd with
            | Ok Proto.Accepted -> ()
            | Ok _ | Error _ -> Alcotest.fail "handshake not accepted");
            Proto.read_to_eof fd)
      in
      Alcotest.(check bool)
        (Printf.sprintf "session: Decode ERR (%s)" reply)
        true
        (String.starts_with ~prefix:"ERR " reply
        && contains reply "above the maximum");
      ignore (send_exn ~addr (snitch_trace ()));
      let st = Server.stats server in
      Alcotest.(check int) "two completed sessions" 2 st.Server.sessions;
      Alcotest.(check int) "one error session" 1 st.Server.errors)

(* ------------------------------------------------------------------ *)
(* Streamed replies                                                    *)
(* ------------------------------------------------------------------ *)

(* A zipf synth session whose reply spans many 64 KiB blocks: ~0.37
   races per event, ~190 bytes per race line. *)
let zipf_trace events = W.Synth.generate ~seed:7L (W.Synth.default ~events)

let analyze trace =
  let an = Analyzer.with_stdspecs () in
  Trace.iter_events trace ~f:(Analyzer.step an);
  Analyzer.finish an

(* The reply [Server.render_reply] streams, built whole in one buffer
   with the same writers. *)
let whole_reply (res : Analyzer.result) ~closing =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Fmt.str "OK@.%a@." Analyzer.pp_result res);
  List.iter (Report.add_line buf) res.rd2_reports;
  List.iter
    (fun r -> Buffer.add_string buf (Fmt.str "%a\n" Rw_report.pp r))
    res.fasttrack_reports;
  List.iter
    (fun v -> Buffer.add_string buf (Fmt.str "%a\n" Atomicity.pp_violation v))
    res.atomicity_violations;
  Buffer.add_string buf closing;
  Buffer.contents buf

(* RD2 lines from a real session, FastTrack and atomicity lines made up
   in bulk so that every section crosses block boundaries: the blocks
   concatenate to the whole reply, each block ends a line, and only its
   last line takes it to (or past) the block size. *)
let block_renderer () =
  let res = analyze (zipf_trace 5_000) in
  let obj = Obj_id.make ~name:"dictionary:s0" 1 in
  let kinds = [| Rw_report.Write_write; Rw_report.Write_read; Rw_report.Read_write |] in
  let fasttrack_reports =
    List.init 3_000 (fun i ->
        {
          Rw_report.index = i;
          loc = Mem_loc.Global (Printf.sprintf "g%d" (i mod 7));
          tid = Tid.of_int (i mod 5);
          kind = kinds.(i mod 3);
        })
  and atomicity_violations =
    List.init 2_000 (fun i ->
        {
          Atomicity.index = i;
          obj;
          tid = Tid.of_int (i mod 3);
          action = Action.make ~obj ~meth:"put" ~args:[ Value.Int i ] ();
          cycle = [ i; i + 1 ];
        })
  in
  let res = { res with fasttrack_reports; atomicity_violations } in
  Alcotest.(check bool)
    "the RD2 lines alone span blocks" true
    (List.length res.rd2_reports * 150 > 2 * Server.reply_block);
  let closing = "STATS closing\n" in
  let blocks = ref [] in
  Server.render_reply res ~closing ~emit:(fun b off len ->
      blocks := Bytes.sub_string b off len :: !blocks);
  let blocks = List.rev !blocks in
  let last = List.length blocks - 1 in
  List.iteri
    (fun i blk ->
      let n = String.length blk in
      if n = 0 || blk.[n - 1] <> '\n' then
        Alcotest.failf "block %d does not end a line" i;
      let last_line =
        match String.rindex_from_opt blk (n - 2) '\n' with
        | Some j -> j + 1
        | None -> 0
      in
      if last_line >= Server.reply_block then
        Alcotest.failf "block %d holds %d bytes before its last line" i last_line;
      if i < last && n < Server.reply_block then
        Alcotest.failf "block %d of %d is short: %d bytes" i last n)
    blocks;
  Alcotest.(check bool) "many blocks" true (last >= 6);
  Alcotest.(check string)
    "blocks = whole reply" (whole_reply res ~closing) (String.concat "" blocks)

let file_exists dir name = Sys.file_exists (Filename.concat dir name)

(* A multi-block session: its race lines equal the offline lines, its
   [.report] holds exactly the bytes the client received, and a client
   that quits after the first block leaves no [.report] (nor its
   [.report.tmp]) and a server that keeps serving. *)
let multi_block_reply () =
  let trace = zipf_trace 20_000 in
  let expected = offline_race_lines trace in
  let dir = fresh_dir "crd-blocks" in
  with_server
    ~f_config:(fun c -> { c with Server.journal = Some dir })
    (fun ~addr ~server ->
      let reply =
        match Client.send_trace ~addr ~nonce:"whole" trace with
        | Ok reply -> reply
        | Error e -> Alcotest.failf "send: %s" e
      in
      Alcotest.(check bool)
        "reply spans many blocks" true
        (String.length reply > 8 * Server.reply_block);
      Alcotest.(check (list string))
        "streamed races = offline races" expected (reply_race_lines reply);
      Alcotest.(check string)
        ".report = bytes delivered" reply
        (read_file (Filename.concat dir "whole.report"));
      Alcotest.(check bool) "no .report.tmp" false (file_exists dir "whole.report.tmp");
      let fd = Server.connect addr in
      Proto.send_handshake fd ~nonce:"quitter" ~spec:"std" ();
      (match Proto.read_handshake_reply fd with
      | Ok Proto.Accepted -> ()
      | _ -> Alcotest.fail "handshake refused");
      Proto.write_all fd (Wire.encode_trace trace);
      (match Proto.read_exact fd Server.reply_block with
      | Some block ->
          Alcotest.(check string)
            "first block is the reply's head"
            (String.sub reply 0 Server.reply_block)
            block
      | None -> Alcotest.fail "first block never arrived");
      Unix.close fd;
      poll "quitting session never finished" (fun () ->
          (Server.stats server).Server.sessions >= 2);
      Alcotest.(check bool) "journal committed" true (file_exists dir "quitter.commit");
      Alcotest.(check bool) "no .report" false (file_exists dir "quitter.report");
      Alcotest.(check bool) "no .report.tmp" false (file_exists dir "quitter.report.tmp");
      Alcotest.(check (list string))
        "committed-unreported" [ "quitter" ]
        (Journal.committed_unreported ~dir);
      let again = send_exn ~addr trace in
      Alcotest.(check (list string))
        "still serving" expected (reply_race_lines again))

(* The sock_write fault point is consulted once per reply, before its
   first byte. Armed for its second hit, it must spare the whole first
   multi-block reply (a point consulted per block would cut it after
   one block), lose the whole second one (the client gets no byte of
   it, no [.report] is left) and spare the third. *)
let sock_write_loses_one_reply () =
  let trace = zipf_trace 5_000 in
  let expected = offline_race_lines trace in
  let dir = fresh_dir "crd-lost-block" in
  with_faults "seed=5,sock_write=nth:2" (fun () ->
      with_server
        ~f_config:(fun c -> { c with Server.journal = Some dir })
        (fun ~addr ~server:_ ->
          let delivered nonce =
            match Client.send_trace ~addr ~nonce trace with
            | Error e -> Alcotest.failf "send %s: %s" nonce e
            | Ok reply ->
                Alcotest.(check bool)
                  (nonce ^ " reply spans blocks") true
                  (String.length reply > 2 * Server.reply_block);
                Alcotest.(check (list string))
                  (nonce ^ " reply whole") expected (reply_race_lines reply);
                Alcotest.(check string)
                  (nonce ^ " .report = bytes delivered") reply
                  (read_file (Filename.concat dir (nonce ^ ".report")))
          in
          delivered "first";
          (match Client.send_trace ~addr ~nonce:"lost" trace with
          | Ok reply ->
              Alcotest.failf "lost reply came back (%d bytes)" (String.length reply)
          | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "no byte of the reply (%s)" msg)
                true
                (contains msg "connection closed before report"));
          Alcotest.(check bool) "no .report" false (file_exists dir "lost.report");
          Alcotest.(check bool) "no .report.tmp" false (file_exists dir "lost.report.tmp");
          delivered "third"))

(* An injected fatal accept error takes the path a real one does: the
   server stops accepting, counts no transient error, serves nothing,
   and [stop] returns at once. *)
let injected_fatal_accept_stops () =
  with_server (fun ~addr ~server ->
      Server.inject_accept_error server Unix.EBADF;
      let fd = Server.connect addr in
      Fun.protect
        ~finally:(fun () -> close_quietly fd)
        (fun () ->
          Proto.send_handshake fd ~nonce:"ebadf" ~spec:"std" ();
          Unix.sleepf 0.3);
      let st = Server.stats server in
      Alcotest.(check int) "no transient accept error" 0 st.Server.accept_errors;
      Alcotest.(check int) "no session served" 0 st.Server.sessions;
      let t0 = Unix.gettimeofday () in
      ignore (Server.stop server);
      let ms = 1000. *. (Unix.gettimeofday () -. t0) in
      Alcotest.(check bool)
        (Printf.sprintf "stop took %.1f ms, under 1 s" ms)
        true (ms < 1000.))

(* The stall watchdog scans until [stop] has joined the workers: a
   session wedged while the queue drains is ended at [stall_timeout],
   not held until the worker_stall fault's 60 s cap. *)
let watchdog_outlives_drain () =
  let trace = snitch_trace () in
  with_faults "seed=5,worker_stall=nth:1" (fun () ->
      with_server
        ~f_config:(fun c -> { c with Server.workers = 1; stall_timeout = 0.5 })
        (fun ~addr ~server ->
          let client =
            Thread.create (fun () -> ignore (Client.send_trace ~addr trace)) ()
          in
          poll "session never parked" (fun () ->
              Crd_fault.injected_count Crd_server.Overload.fp_stall >= 1);
          let t0 = Unix.gettimeofday () in
          let st = Server.stop server in
          let s = Unix.gettimeofday () -. t0 in
          Thread.join client;
          Alcotest.(check bool)
            (Printf.sprintf "stop took %.2f s, under 5 s" s)
            true (s < 5.);
          Alcotest.(check int) "one stall" 1 st.Server.stalls))

let suite =
  ( "server",
    [
      Alcotest.test_case "concurrent clients" `Quick concurrent_clients;
      Alcotest.test_case "unknown spec rejected" `Quick unknown_spec_rejected;
      Alcotest.test_case "malformed event ERR (jobs=1)" `Quick
        (malformed_event_err 1);
      Alcotest.test_case "malformed event ERR (jobs=2)" `Quick
        (malformed_event_err 2);
      Alcotest.test_case "survives transient accept errors" `Quick
        survives_transient_accept_errors;
      Alcotest.test_case "metrics endpoint scrape" `Quick metrics_endpoint;
      Alcotest.test_case "live socket not stolen" `Quick live_socket_not_stolen;
      Alcotest.test_case "stale socket reclaimed" `Quick stale_socket_reclaimed;
      Alcotest.test_case "addr_of_string table" `Quick addr_of_string_table;
      Alcotest.test_case "stop releases the socket" `Quick stop_releases_socket;
      Alcotest.test_case "stop is prompt" `Quick stop_is_prompt;
      Alcotest.test_case "overload shed replies BUSY" `Quick busy_shed;
      Alcotest.test_case "worker survives a session crash" `Quick
        worker_survives_session_crash;
      Alcotest.test_case "retry recovers a lost reply" `Quick
        retry_on_lost_reply;
      Alcotest.test_case "lost reply without retries fails" `Quick
        lost_reply_without_retries;
      Alcotest.test_case "journal replay streams the committed prefix" `Quick
        journal_replay_streams_committed_prefix;
      Alcotest.test_case "journal replay on start" `Quick
        journal_replay_on_start;
      Alcotest.test_case "racedb publication = offline fold" `Quick
        racedb_publication;
      Alcotest.test_case "racedb replay never double-counts" `Quick
        racedb_replay_no_double_count;
      Alcotest.test_case "SIGKILL crash recovery" `Quick
        sigkill_crash_recovery;
      Alcotest.test_case "SIGTERM graceful drain" `Quick
        sigterm_graceful_drain;
      Alcotest.test_case "sharded session = offline check" `Quick
        sharded_session;
      Alcotest.test_case "ingest exits, both tiers"
        `Quick ingest_exits;
      Alcotest.test_case "thread id above Tid.max_id refused" `Quick
        far_tid_refused;
      Alcotest.test_case "block renderer = whole reply" `Quick block_renderer;
      Alcotest.test_case "multi-block reply, .report = bytes sent" `Quick
        multi_block_reply;
      Alcotest.test_case "sock_write loses one whole reply" `Quick
        sock_write_loses_one_reply;
      Alcotest.test_case "injected fatal accept error stops the server" `Quick
        injected_fatal_accept_stops;
      Alcotest.test_case "watchdog outlives the drain" `Quick
        watchdog_outlives_drain;
    ] )
