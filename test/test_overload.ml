(* The degradation ladder end to end: tier decisions, spill admission
   with catch-up race-set identity, shedding only on memory-budget
   exhaustion, the stall watchdog, and the sync exchange deadline. *)

open Crd
open Sessions
module Proto = Crd_server.Proto
module Overload = Crd_server.Overload

(* Nothing charges [mem_queue_bytes] since sessions stopped queueing
   events; the spill test still checks it is back at its baseline. *)
let g_queue = Crd_obs.gauge "mem_queue_bytes"
let g_intern = Crd_obs.gauge "mem_intern_bytes"

(* ------------------------------------------------------------------ *)
(* Tier decisions                                                      *)
(* ------------------------------------------------------------------ *)

(* The ladder as a pure decision table: spill needs both busy workers
   and a backlog at the watermark, hysteresis holds spill until the
   backlog has really drained, and only the memory budget — or an
   explicit backlog bound — sheds. *)
let tier_ladder () =
  let base = Overload.mem_used () in
  let ladder ?(shed_backlog = 0) () =
    Overload.create
      {
        Overload.memory_budget = base + 4096;
        shed_backlog;
        spill_watermark = 4;
        stall_timeout = 0.;
      }
  in
  let ov = ladder () in
  let check ?(ov = ov) msg expect ~pending ~active =
    Alcotest.(check string)
      msg
      (Overload.tier_name expect)
      (Overload.tier_name (Overload.evaluate ov ~pending ~active ~workers:2))
  in
  check "idle is normal" Overload.Normal ~pending:0 ~active:0;
  check "backlog with a free worker stays normal" Overload.Normal ~pending:5
    ~active:1;
  check "busy workers below watermark stay normal" Overload.Normal ~pending:3
    ~active:2;
  check "busy workers at watermark spill" Overload.Spill ~pending:4 ~active:2;
  check "hysteresis: backlog above half holds spill" Overload.Spill ~pending:3
    ~active:1;
  check "hysteresis: busy workers hold spill" Overload.Spill ~pending:0
    ~active:2;
  check "drained backlog with a free worker recovers" Overload.Normal
    ~pending:1 ~active:1;
  let charge = 8192 in
  Fun.protect
    ~finally:(fun () -> Crd_obs.Gauge.add g_intern (-charge))
    (fun () ->
      Crd_obs.Gauge.add g_intern charge;
      check "memory budget exhaustion sheds" Overload.Shed ~pending:0 ~active:0);
  check "released memory recovers" Overload.Normal ~pending:0 ~active:0;
  (* The backlog bound ([--backlog]) sheds ahead of spilling, but only
     while every worker is busy. *)
  let ov = ladder ~shed_backlog:6 () in
  check ~ov "backlog below the bound spills" Overload.Spill ~pending:5 ~active:2;
  check ~ov "full backlog with busy workers sheds" Overload.Shed ~pending:6
    ~active:2;
  check ~ov "full backlog with a free worker does not shed" Overload.Spill
    ~pending:6 ~active:1;
  check ~ov "drained backlog recovers" Overload.Normal ~pending:0 ~active:0;
  let ov = Overload.create { Overload.no_limits with shed_backlog = 1 } in
  check ~ov "backlog bound without a ladder: free worker admits"
    Overload.Normal ~pending:3 ~active:1;
  check ~ov "backlog bound without a ladder: sheds" Overload.Shed ~pending:1
    ~active:2;
  check ~ov "backlog bound without a ladder: recovers" Overload.Normal
    ~pending:0 ~active:2

(* ------------------------------------------------------------------ *)
(* HEALTH probe                                                        *)
(* ------------------------------------------------------------------ *)

let health_probe () =
  with_server (fun ~addr ~server ->
      let fd = Server.connect addr in
      Fun.protect
        ~finally:(fun () -> close_quietly fd)
        (fun () ->
          Proto.write_all fd "HEALTH\n";
          let line = Proto.read_to_eof fd in
          List.iter
            (fun needle ->
              Alcotest.(check bool)
                (Printf.sprintf "health line carries %s" needle)
                true (contains line needle))
            [
              "HEALTH tier=normal"; "mem_used="; "mem_budget=";
              "spill_backlog="; "stalls=";
            ]);
      (* `rd2 health` is the same probe *)
      let line = run_rd2 [ "health"; "unix:" ^ sock_path addr ] in
      Alcotest.(check bool)
        (Printf.sprintf "rd2 health: normal tier, no spill backlog (%s)" line)
        true
        (contains line "HEALTH tier=normal" && contains line " spill_backlog=0 ");
      (* probes are not sessions and must not skew the stats *)
      Alcotest.(check int) "no session recorded" 0
        (Server.stats server).Server.sessions)

(* ------------------------------------------------------------------ *)
(* Spill tier: deterministic admission, catch-up identity              *)
(* ------------------------------------------------------------------ *)

(* With one worker pinned and one session already pending, the next
   connection is tagged spill at admission. Its client gets an
   immediate ack (races deferred); the catch-up drainer then replays
   the committed journal and the race set — report file and racedb
   fold — is identical to the offline analyzer's. *)
let spill_catchup_identity () =
  let trace = snitch_trace () in
  let expected_lines = offline_race_lines trace in
  let expected_fold = fingerprint_fold (offline_races trace) in
  Alcotest.(check bool)
    "snitch races exist" true
    (List.length expected_lines > 0);
  let jdir = fresh_dir "crd-ovl-spill-j" in
  let dbdir = fresh_dir "crd-ovl-spill-db" in
  let q0 = Crd_obs.Gauge.get g_queue and i0 = Crd_obs.Gauge.get g_intern in
  with_server
    ~f_config:(fun c ->
      {
        c with
        Server.workers = 1;
        spill_watermark = 1;
        journal = Some jdir;
        racedb = Some dbdir;
      })
    (fun ~addr ~server ->
      let conn () = Server.connect addr in
      (* c1 pins the lone worker (blocked reading its preamble)... *)
      let c1 = conn () in
      poll "worker never picked up the pin" (fun () ->
          metric "server_sessions_active" >= 1);
      (* ...c2 is admitted normal and waits (pending = 1)... *)
      let spill0 =
        metric "overload_to_spill_total"
      in
      let c2 = conn () in
      (* ...so c3 — accepted after c2 by the single accept loop — is
         evaluated at pending >= watermark with every worker busy and
         tagged spill at admission, whatever happens afterwards. The
         pins stay open until the transition counter proves the tag:
         releasing them earlier could free the worker before c3 is
         even accepted. *)
      let c3 = conn () in
      poll "c3 never admitted on the spill tier" (fun () ->
          metric "overload_to_spill_total" > spill0);
      (* Each descriptor is closed exactly once: a second close could hit
         a number the server has since reused (the catch-up drainer's
         journal mapping, in this same process). *)
      let open_fds = ref [ c1; c2; c3 ] in
      let close fds =
        List.iter
          (fun fd ->
            if List.mem fd !open_fds then begin
              open_fds := List.filter (fun o -> o <> fd) !open_fds;
              try Unix.close fd with Unix.Unix_error _ -> ()
            end)
          fds
      in
      Fun.protect
        ~finally:(fun () -> close [ c1; c2; c3 ])
        (fun () ->
          Proto.send_handshake c3 ~nonce:"spill1" ~spec:"std" ();
          (* release the worker; it burns through the two dead pins and
             then serves c3 on the spill path *)
          close [ c1; c2 ];
          Proto.write_all c3 (Wire.encode_trace trace);
          (match Proto.read_handshake_reply c3 with
          | Ok Proto.Accepted -> ()
          | Ok _ | Error _ -> Alcotest.fail "spill handshake not accepted");
          let reply = Proto.read_to_eof c3 in
          Alcotest.(check bool)
            (Printf.sprintf "spill ack defers analysis (%s)" reply)
            true
            (contains reply "spilled: analysis deferred"
            && contains reply "spilled=1" && contains reply "races=0");
          Alcotest.(check bool)
            "spill ack counts the events" true
            (contains reply
               (Printf.sprintf "events=%d" (Trace.length trace))));
      poll "catch-up never drained the segment" (fun () ->
          (Server.stats server).Server.caught_up >= 1);
      let st = Server.stats server in
      Alcotest.(check int) "one spilled session" 1 st.Server.spilled;
      Alcotest.(check int) "one caught-up segment" 1 st.Server.caught_up;
      Alcotest.(check int)
        "spilled events counted" (Trace.length trace) st.Server.events;
      Alcotest.(check int)
        "catch-up races counted"
        (List.length expected_lines)
        st.Server.races;
      Alcotest.(check int)
        "two dead pins, no spill errors" 2 st.Server.errors;
      (* the backlog gauges move in the drainer's finally, a beat after
         the stats row *)
      poll "spill backlog never drained" (fun () ->
          Overload.spill_backlog () = 0 && Overload.spill_bytes () = 0));
  (* the catch-up report carries exactly the offline race lines *)
  let report = read_file (Filename.concat jdir "spill1.report") in
  Alcotest.(check (list string))
    "catch-up races = offline races" expected_lines (reply_race_lines report);
  (* ...and the racedb fold matches too (published under the session
     nonce, so a restart replay would dedup against it) *)
  Alcotest.(check (list (pair int64 int)))
    "racedb fold = offline fold" expected_fold (db_fold dbdir);
  (* memory accounting returns to baseline once everything drained *)
  Alcotest.(check int) "mem_queue_bytes back to baseline" q0
    (Crd_obs.Gauge.get g_queue);
  Alcotest.(check int) "mem_intern_bytes back to baseline" i0
    (Crd_obs.Gauge.get g_intern)

(* ------------------------------------------------------------------ *)
(* Shed tier: memory budget only                                       *)
(* ------------------------------------------------------------------ *)

let shed_on_memory_budget () =
  let budget = Overload.mem_used () + 1024 in
  let charge = budget + 4096 in
  with_server
    ~f_config:(fun c ->
      { c with Server.memory_budget = budget; retry_after_ms = 321 })
    (fun ~addr ~server ->
      Fun.protect
        ~finally:(fun () -> Crd_obs.Gauge.add g_intern (-charge))
        (fun () ->
          Crd_obs.Gauge.add g_intern charge;
          let fd = Server.connect addr in
          Fun.protect
            ~finally:(fun () -> close_quietly fd)
            (fun () ->
              match Proto.read_handshake_reply fd with
              | Ok (Proto.Busy ms) ->
                  Alcotest.(check int) "retry-after hint" 321 ms
              | Ok Proto.Accepted -> Alcotest.fail "expected BUSY, got accept"
              | Ok (Proto.Rejected m) ->
                  Alcotest.failf "expected BUSY, got reject %s" m
              | Error e -> Alcotest.failf "shed reply: %s" e));
      (* budget released: admission recovers without a restart *)
      let trace = snitch_trace () in
      let reply = send_exn ~addr trace in
      Alcotest.(check bool)
        "session served after release" true
        (String.length reply >= 2 && String.equal (String.sub reply 0 2) "OK");
      let st = Server.stats server in
      Alcotest.(check int) "one shed connection" 1 st.Server.busy;
      Alcotest.(check int) "shed is not a session" 1 st.Server.sessions)

(* ------------------------------------------------------------------ *)
(* Stall watchdog                                                      *)
(* ------------------------------------------------------------------ *)

(* A worker wedged by the [worker_stall] fault is recycled by the
   watchdog: its client gets a retryable ERR (and succeeds on retry
   against the same worker, now free), and the stall is counted. *)
let watchdog_recycles_stall () =
  let trace = snitch_trace () in
  let expected = offline_race_lines trace in
  with_faults "seed=11,worker_stall=once" (fun () ->
      with_server
        ~f_config:(fun c -> { c with Server.workers = 1; stall_timeout = 0.3 })
        (fun ~addr ~server ->
          match Client.send_trace ~addr ~retries:1 ~backoff:0.05 trace with
          | Error e -> Alcotest.failf "retry never recovered: %s" e
          | Ok reply ->
              Alcotest.(check (list string))
                "races after recycle = offline races" expected
                (reply_race_lines reply);
              poll "crash never counted" (fun () ->
                  (Server.stats server).Server.worker_crashes >= 1);
              let st = Server.stats server in
              Alcotest.(check int) "one stall" 1 st.Server.stalls;
              Alcotest.(check int) "one worker recycled" 1
                st.Server.worker_crashes;
              Alcotest.(check int) "stalled session is an error" 1
                st.Server.errors;
              Alcotest.(check int) "both attempts counted" 2 st.Server.sessions))

(* ------------------------------------------------------------------ *)
(* Sync exchange deadline                                              *)
(* ------------------------------------------------------------------ *)

(* A black-hole peer that drips one varint continuation byte per tick:
   every byte lands inside the per-read timeout (which resets on each
   byte), so only the whole-exchange deadline can end the exchange. *)
let sync_deadline_drip () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stop = Atomic.make false in
  let dripper =
    Thread.create
      (fun () ->
        let buf = Bytes.create 4096 in
        (* absorb the client's hello, then drip *)
        (try ignore (Unix.read b buf 0 4096) with Unix.Unix_error _ -> ());
        try
          while not (Atomic.get stop) do
            ignore (Unix.write b (Bytes.make 1 '\x80') 0 1);
            Unix.sleepf 0.1
          done
        with Unix.Unix_error _ -> ())
      ()
  in
  let dir = fresh_dir "crd-ovl-sync-dl" in
  let db = Result.get_ok (Crd_racedb.Db.open_db dir) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (try Unix.close a with Unix.Unix_error _ -> ());
      Thread.join dripper;
      (try Unix.close b with Unix.Unix_error _ -> ());
      Crd_racedb.Db.close db)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      match Crd_sync.client ~timeout:5. ~deadline:0.4 a db with
      | Ok s ->
          Alcotest.failf "drip peer completed an exchange: %a"
            Crd_sync.pp_summary s
      | Error e ->
          let dt = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "deadline error (%s)" e)
            true (contains e "deadline");
          Alcotest.(check bool)
            (Printf.sprintf "deadline fired promptly (%.2fs)" dt)
            true
            (dt < 3.0))

(* ------------------------------------------------------------------ *)
(* Bounded under sustained over-capacity                                *)
(* ------------------------------------------------------------------ *)

(* 4 concurrent clients against 1 worker with a tiny watermark: every
   client is acked OK (spilled or live), no evidence is dropped — the
   race total converges to 4x the offline set once catch-up drains —
   and the accounted memory returns to baseline. *)
let overcapacity_bounded () =
  let trace = snitch_trace () in
  let expected_races = List.length (offline_races trace) in
  let jdir = fresh_dir "crd-ovl-cap-j" in
  let n = 4 in
  let q0 = Crd_obs.Gauge.get g_queue and i0 = Crd_obs.Gauge.get g_intern in
  with_server
    ~f_config:(fun c ->
      {
        c with
        Server.workers = 1;
        spill_watermark = 1;
        journal = Some jdir;
      })
    (fun ~addr ~server ->
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
              Alcotest.(check bool)
                (Printf.sprintf "client %d acked" i)
                true
                (String.length reply >= 2
                && String.equal (String.sub reply 0 2) "OK"))
        replies;
      poll "race total never converged" (fun () ->
          let st = Server.stats server in
          st.Server.caught_up = st.Server.spilled
          && st.Server.races = n * expected_races);
      let st = Server.stats server in
      Alcotest.(check int) "no errors" 0 st.Server.errors;
      Alcotest.(check int) "no sheds" 0 st.Server.busy;
      Alcotest.(check int) "all sessions counted" n st.Server.sessions;
      Alcotest.(check int)
        "all events counted"
        (n * Trace.length trace)
        st.Server.events;
      (* stats caught_up ticks inside catch-up; the backlog gauge drops
         a beat later in its cleanup — poll, don't assert instantly. *)
      poll "spill backlog never drained" (fun () ->
          Overload.spill_backlog () = 0 && Overload.spill_bytes () = 0));
  Alcotest.(check int) "mem_queue_bytes back to baseline" q0
    (Crd_obs.Gauge.get g_queue);
  Alcotest.(check int) "mem_intern_bytes back to baseline" i0
    (Crd_obs.Gauge.get g_intern)

(* The memory signal sees the shard pipeline: a [jobs = 2] analyzer
   mid-stream holds chunks that [Overload.mem_used] counts, and finishing
   it gives them all back. *)
let mem_used_sees_shards () =
  let base = Overload.mem_used () in
  let an =
    Result.get_ok (Analyzer.create ~jobs:2 ~spec_for:Stdspecs.spec_for ())
  in
  W.Synth.iter ~seed:7L (W.Synth.default ~events:20_000) ~f:(Analyzer.step an);
  Alcotest.(check bool) "shard chunks counted mid-stream" true
    (Overload.mem_used () > base);
  ignore (Analyzer.finish an);
  Alcotest.(check int) "back to baseline after finish" base
    (Overload.mem_used ())

let suite =
  ( "overload",
    [
      Alcotest.test_case "tier ladder decisions" `Quick tier_ladder;
      Alcotest.test_case "HEALTH probe" `Quick health_probe;
      Alcotest.test_case "spill admission, catch-up identity" `Quick
        spill_catchup_identity;
      Alcotest.test_case "shed only on memory budget" `Quick
        shed_on_memory_budget;
      Alcotest.test_case "memory signal sees shard chunks" `Quick
        mem_used_sees_shards;
      Alcotest.test_case "watchdog recycles a stalled worker" `Quick
        watchdog_recycles_stall;
      Alcotest.test_case "sync deadline beats a drip peer" `Quick
        sync_deadline_drip;
      Alcotest.test_case "bounded under 2x over-capacity" `Quick
        overcapacity_bounded;
    ] )
