open Crd
module Bqueue = Crd_base.Bqueue

type addr = Unix_sock of string | Tcp of string * int

let tcp_of_host_port host port_s =
  match int_of_string_opt port_s with
  | Some p when p > 0 && p < 65536 ->
      Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
  | _ -> Error (Printf.sprintf "tcp: bad port %S" port_s)

(* HOST:PORT where HOST may be a bracketed IPv6 literal ([::1]:9000) or
   anything colon-free; a bare IPv6 literal is ambiguous and rejected. *)
let parse_host_port rest =
  if String.length rest > 0 && rest.[0] = '[' then
    match String.index_opt rest ']' with
    | None -> Error "tcp: unterminated '[' in tcp:[V6HOST]:PORT"
    | Some j ->
        let host = String.sub rest 1 (j - 1) in
        if host = "" then Error "tcp: empty host in tcp:[V6HOST]:PORT"
        else if j + 1 >= String.length rest || rest.[j + 1] <> ':' then
          Error "tcp: expected ':' after ']' in tcp:[V6HOST]:PORT"
        else
          tcp_of_host_port host
            (String.sub rest (j + 2) (String.length rest - j - 2))
  else
    (* Last-colon split, so an unbracketed IPv6 literal still parses
       (the part after its last colon is the port). *)
    match String.rindex_opt rest ':' with
    | None -> Error "tcp: expected tcp:HOST:PORT"
    | Some j ->
        tcp_of_host_port (String.sub rest 0 j)
          (String.sub rest (j + 1) (String.length rest - j - 1))

let addr_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then Error "unix: empty socket path" else Ok (Unix_sock path)
  | Some i when String.sub s 0 i = "tcp" ->
      parse_host_port (String.sub s (i + 1) (String.length s - i - 1))
  | _ -> Error (Printf.sprintf "bad address %S (want unix:PATH or tcp:HOST:PORT)" s)

let pp_addr ppf = function
  | Unix_sock p -> Fmt.pf ppf "unix:%s" p
  | Tcp (h, p) when String.contains h ':' -> Fmt.pf ppf "tcp:[%s]:%d" h p
  | Tcp (h, p) -> Fmt.pf ppf "tcp:%s:%d" h p

type config = {
  addr : addr;
  metrics_addr : addr option;
  workers : int;
  idle_timeout : float;
  analyzer : Analyzer.config;
  jobs : int;
  specs : Spec.t list option;
  shed_backlog : int;
  retry_after_ms : int;
  journal : string option;
  resync : bool;
  racedb : string option;
  peers : addr list;
  sync_interval : float;
  memory_budget : int;
  spill_watermark : int;
  stall_timeout : float;
}

let default_analyzer =
  {
    Analyzer.rd2 = `Constant;
    direct = false;
    fasttrack = false;
    djit = false;
    atomicity = false;
  }

let default_config ~addr =
  {
    addr;
    metrics_addr = None;
    workers = Analyzer.recommended_jobs ();
    idle_timeout = 30.;
    analyzer = default_analyzer;
    jobs = 1;
    specs = None;
    shed_backlog = 0;
    retry_after_ms = 200;
    journal = None;
    resync = false;
    racedb = None;
    peers = [];
    sync_interval = 30.;
    memory_budget = 0;
    spill_watermark = 0;
    stall_timeout = 0.;
  }

type stats = {
  sessions : int;
  events : int;
  races : int;
  errors : int;
  accept_errors : int;
  busy : int;
  worker_crashes : int;
  recovered : int;
  spilled : int;
  caught_up : int;
  stalls : int;
}

(* ------------------------------------------------------------------ *)
(* Metrics (process-wide registry, see Crd_obs)                        *)
(* ------------------------------------------------------------------ *)

let m_accepted =
  Crd_obs.counter ~help:"Connections accepted" "server_accepted_total"

let m_sessions =
  Crd_obs.counter ~help:"Sessions completed, error sessions included"
    "server_sessions_total"

let m_active =
  Crd_obs.gauge ~help:"Sessions currently in flight" "server_sessions_active"

let m_rejected =
  Crd_obs.counter ~help:"Sessions rejected at the handshake"
    "server_rejected_total"

let m_accept_errors =
  Crd_obs.counter ~help:"Transient accept() failures survived with backoff"
    "server_accept_errors_total"

let m_errors =
  Crd_obs.counter ~help:"Sessions that ended in an error"
    "server_errors_total"

let m_events =
  Crd_obs.counter ~help:"Events analyzed across all sessions"
    "server_events_total"

let m_races =
  Crd_obs.counter ~help:"RD2 races reported across all sessions"
    "server_races_total"

let m_conn_queue_hw =
  Crd_obs.gauge ~help:"High-water of the accepted-connection queue"
    "server_conn_queue_depth_hw"

let m_handshake_seconds =
  Crd_obs.histogram ~help:"Handshake phase duration" "server_handshake_seconds"

let m_analyze_seconds =
  Crd_obs.histogram ~help:"Ingest-and-analyze phase duration"
    "server_analyze_seconds"

let m_session_seconds =
  Crd_obs.histogram ~help:"Whole-session duration" "server_session_seconds"

let m_busy =
  Crd_obs.counter ~help:"Connections shed with a BUSY reply under overload"
    "server_busy_total"

let m_worker_crashes =
  Crd_obs.counter ~help:"Sessions ended by an exception that escaped them"
    "server_worker_crashes_total"

let m_recovered =
  Crd_obs.counter ~help:"Journaled sessions replayed after a restart"
    "server_recovered_sessions_total"

let m_retries =
  Crd_obs.counter ~help:"Sessions whose nonce was seen before (client retries)"
    "server_session_retries_total"

let m_racedb_published =
  Crd_obs.counter ~help:"Race reports handed to the racedb publisher"
    "racedb_published_total"

let m_racedb_dropped =
  Crd_obs.counter ~help:"Race reports dropped at a closed racedb queue"
    "racedb_dropped_total"

(* Registered, with its help text, by [Crd_racedb.Db], which also counts
   the chunks it refuses. *)
let m_racedb_errors = Crd_obs.counter "racedb_publish_errors_total"

let m_racedb_queue_hw =
  Crd_obs.gauge ~help:"High-water of the racedb publish queue"
    "racedb_queue_depth_hw"

(* Chaos injection points threaded through the ingestion pipeline; see
   Crd_fault. decode_frame lives in Crd_wire.Bigcodec, journal_append in
   Journal. *)
let fp_sock_read = Crd_fault.point "sock_read"
let fp_sock_write = Crd_fault.point "sock_write"
let fp_worker_body = Crd_fault.point "worker_body"

(* [report_send] is a stall, not an error: a fired hit parks the worker
   between journal commit and reply, holding the kill window open for
   the crash-recovery test. *)
let fp_report_send = Crd_fault.point "report_send"

(* Error taxonomy: where in the pipeline a session died. *)
type err_kind = Handshake | Spec | Timeout | Decode | Io | Analysis

let err_kind_label = function
  | Handshake -> "handshake"
  | Spec -> "spec"
  | Timeout -> "timeout"
  | Decode -> "decode"
  | Io -> "io"
  | Analysis -> "analysis"

let err_counter =
  let all = [ Handshake; Spec; Timeout; Decode; Io; Analysis ] in
  let tbl =
    List.map
      (fun k ->
        ( k,
          Crd_obs.counter
            ~help:("Sessions failed in the " ^ err_kind_label k ^ " stage")
            ("server_errors_" ^ err_kind_label k ^ "_total") ))
      all
  in
  fun k -> List.assq k tbl

(* The race-database sink decouples sessions from storage: workers hand
   whole session batches to one publisher thread, which owns every
   [Db.publish]. A publish costs per distinct race of the session, not
   per race (the db writes each chunk as one counted frame), so the
   publisher normally keeps up. The queue holds one batch besides the
   one being published — a batch holds every report of its session,
   megabytes for a racy one — so a session that finds it full waits:
   sessions that outrun the disk slow down instead of growing the heap.
   Only a closed queue (shutdown, or a dead publisher) drops and counts.
   A batch carries its session nonce so the db can deduplicate: a
   journal replay of an already-published session is a no-op instead of
   an inflated count. *)
type sink = {
  db : Crd_racedb.Db.t;
  queue : (string * Crd_racedb.Record.t list) Bqueue.t;
  mutable publisher : Thread.t option;
}

let sink_capacity = 1

let sink_publish sink ~nonce ~spec reports =
  if reports <> [] then begin
    let ts = Unix.gettimeofday () in
    let spec = if spec = "" then "std" else spec in
    let records = List.map (fun r -> Crd_racedb.Record.make ~ts ~spec r) reports in
    let n = List.length records in
    if Bqueue.push sink.queue (nonce, records) then begin
      Crd_obs.Counter.add m_racedb_published n;
      Crd_obs.Gauge.set_max m_racedb_queue_hw (Bqueue.length sink.queue)
    end
    else Crd_obs.Counter.add m_racedb_dropped n
  end

let sink_loop sink =
  (* A publisher that dies closes the queue, so no session waits on it. *)
  Fun.protect ~finally:(fun () -> Bqueue.close sink.queue) @@ fun () ->
  let continue = ref true in
  while !continue do
    match Bqueue.pop sink.queue with
    | None -> continue := false
    | Some (nonce, records) -> (
        try
          if not (Crd_racedb.Db.publish sink.db ~nonce records) then
            Crd_obs.Log.info "racedb_publish_dedup" [ ("nonce", nonce) ]
        with
        | Crd_fault.Injected p ->
            Crd_obs.Counter.incr m_racedb_errors;
            Crd_obs.Log.warn "racedb_append_fault" [ ("point", p) ]
        | Unix.Unix_error (e, fn, _) ->
            Crd_obs.Counter.incr m_racedb_errors;
            Crd_obs.Log.err "racedb_append_failed"
              [ ("fn", fn); ("err", Unix.error_message e) ])
  done

let sink_start dir =
  match Crd_racedb.Db.open_db dir with
  | Error e -> Error e
  | Ok db ->
      let sink =
        { db; queue = Bqueue.create ~capacity:sink_capacity (); publisher = None }
      in
      sink.publisher <- Some (Thread.create sink_loop sink);
      Ok sink

let sink_stop sink =
  Bqueue.close sink.queue;
  (match sink.publisher with Some th -> Thread.join th | None -> ());
  Crd_racedb.Db.close sink.db

(* A latch is set once. Setting it writes one byte to its pipe that
   nobody reads, so the pipe stays readable and every loop that selects
   on it wakes at once. *)
type latch = { set : bool Atomic.t; r : Unix.file_descr; w : Unix.file_descr }

let latch () =
  let r, w = Unix.pipe ~cloexec:true () in
  { set = Atomic.make false; r; w }

let is_set l = Atomic.get l.set

let set l =
  if not (Atomic.exchange l.set true) then
    try ignore (Crd_io.write_retry l.w (Bytes.make 1 'x') 0 1)
    with Unix.Unix_error _ -> ()

(* Wait up to [s] seconds, returning early once [l] is set. *)
let wait l s =
  let until = Unix.gettimeofday () +. s in
  let rec go () =
    let left = until -. Unix.gettimeofday () in
    if left > 0. && not (is_set l) then
      match Unix.select [ l.r ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | _ -> ()
  in
  go ()

type t = {
  cfg : config;
  racedb : sink option;
  listen_fd : Unix.file_descr;
  (* Each admitted connection carries the tier it was admitted under:
     the spill decision is made once, at admission, so tests (and
     operators reading logs) see deterministic per-session verdicts
     instead of a race against the signals draining. *)
  conns : (Unix.file_descr * Overload.tier) Bqueue.t;
  overload : Overload.t;
  heartbeats : Overload.Heartbeat.t array;  (* one per worker slot *)
  catchup : (string * float * int) Bqueue.t;  (* nonce, committed_at, bytes *)
  mutable catchup_th : Thread.t option;  (* spill catch-up drainer *)
  mutable watchdog_th : Thread.t option;
  stopping : latch;  (* set by [stop] and by a fatal accept error *)
  drained : latch;  (* set by [stop] once every worker is joined *)
  active : int Atomic.t;  (* sessions currently held by workers *)
  mutable accept_d : unit Domain.t option;
  mutable workers_d : unit Domain.t array;
  mutable syncer : Thread.t option;  (* anti-entropy loop over [cfg.peers] *)
  mutable metrics_d : unit Domain.t option;
  metrics_fd : Unix.file_descr option;
  metrics_path : string option;
  mu : Mutex.t;
  mutable st : stats;
  seen_nonces : (string, unit) Hashtbl.t;  (* under [mu] *)
  sock_path : string option;
  mutable stopped : bool;
  inject_accept : Unix.error list Atomic.t;  (* test instrumentation *)
}

let stats t =
  Mutex.lock t.mu;
  let s = t.st in
  Mutex.unlock t.mu;
  s

(* [sessions] counts every completed session; [errors] is the subset
   that died — see server.mli. *)
let record t ~events ~races ~error =
  Mutex.lock t.mu;
  t.st <-
    {
      t.st with
      sessions = t.st.sessions + 1;
      events = t.st.events + events;
      races = t.st.races + races;
      errors = (t.st.errors + if error then 1 else 0);
    };
  Mutex.unlock t.mu;
  Crd_obs.Counter.incr m_sessions;
  Crd_obs.Counter.add m_events events;
  Crd_obs.Counter.add m_races races;
  if error then Crd_obs.Counter.incr m_errors

let record_accept_error t =
  Mutex.lock t.mu;
  t.st <- { t.st with accept_errors = t.st.accept_errors + 1 };
  Mutex.unlock t.mu;
  Crd_obs.Counter.incr m_accept_errors

let record_busy t =
  Mutex.lock t.mu;
  t.st <- { t.st with busy = t.st.busy + 1 };
  Mutex.unlock t.mu;
  Crd_obs.Counter.incr m_busy

let record_worker_crash t =
  Mutex.lock t.mu;
  t.st <- { t.st with worker_crashes = t.st.worker_crashes + 1 };
  Mutex.unlock t.mu;
  Crd_obs.Counter.incr m_worker_crashes

let record_recovered t =
  Mutex.lock t.mu;
  t.st <- { t.st with recovered = t.st.recovered + 1 };
  Mutex.unlock t.mu;
  Crd_obs.Counter.incr m_recovered

(* A spilled session is complete from the client's point of view (its
   events are committed and acked) but its races are still pending:
   they arrive later via [record_catchup], which adds only the race
   count so totals never double-count. *)
let record_spilled t ~events =
  Mutex.lock t.mu;
  t.st <-
    {
      t.st with
      sessions = t.st.sessions + 1;
      events = t.st.events + events;
      spilled = t.st.spilled + 1;
    };
  Mutex.unlock t.mu;
  Crd_obs.Counter.incr m_sessions;
  Crd_obs.Counter.add m_events events

let record_catchup t ~races =
  Mutex.lock t.mu;
  t.st <-
    { t.st with races = t.st.races + races; caught_up = t.st.caught_up + 1 };
  Mutex.unlock t.mu;
  Crd_obs.Counter.add m_races races

let record_stall t =
  Mutex.lock t.mu;
  t.st <- { t.st with stalls = t.st.stalls + 1 };
  Mutex.unlock t.mu;
  Crd_obs.Counter.incr Overload.m_stalls

(* True iff this nonce was already seen by this server instance — a
   client retry of the same logical session. *)
let note_nonce t nonce =
  if nonce = "" then false
  else begin
    Mutex.lock t.mu;
    let seen = Hashtbl.mem t.seen_nonces nonce in
    if not seen then Hashtbl.add t.seen_nonces nonce ();
    Mutex.unlock t.mu;
    if seen then Crd_obs.Counter.incr m_retries;
    seen
  end

(* ------------------------------------------------------------------ *)
(* Specification sets                                                  *)
(* ------------------------------------------------------------------ *)

(* The same object -> spec naming convention as `rd2 check`. *)
let resolve_spec_set cfg = function
  | "" | "std" -> Ok Stdspecs.spec_for
  | "custom" -> (
      match cfg.specs with
      | Some specs -> Ok (Stdspecs.spec_in specs)
      | None -> Error "server has no custom specification set loaded")
  | other -> Error (Printf.sprintf "unknown specification set %S" other)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* The one socket-ingest loop, run on the worker by both tiers: read
   into one reusable buffer, append the slice to the journal, decode it
   in place and hand each event to [f]. There is no reader thread and
   no per-session queue: while [f] works nobody reads, so a fast client
   blocks on the kernel socket buffer (and, under [jobs > 1], the
   engine's bounded shard queues) instead of growing server memory.
   [beat] hears each read's event count — the worker's progress
   heartbeat for the stall watchdog.

   The end-of-stream frame, not EOF, ends ingestion (the client keeps
   the socket open to read its report), and commits the journal on the
   spot: before the caller finishes the analysis or replies, so a
   server killed while analyzing (or stalled before the reply) leaves a
   replayable journal. *)
let ingest ?journal ~beat ~resync conn ~f =
  let module D = Crd_wire.Bigcodec.Decoder in
  let dec = D.create ~resync () in
  let buf = Bytes.create 65536 in
  let events = ref 0 in
  let f e =
    incr events;
    f e
  in
  let result = ref None in
  let fail kind msg = result := Some (Error (kind, msg)) in
  let decode_error e = fail Decode (Crd_wire.Codec.error_to_string e) in
  let journal_error fn e =
    fail Io (Printf.sprintf "journal %s: %s" fn (Unix.error_message e))
  in
  Fun.protect
    ~finally:(fun () -> D.release dec)
    (fun () ->
      while !result = None do
        match
          if Crd_fault.fire fp_sock_read then
            raise
              (Unix.Unix_error (Unix.EIO, "read", "injected fault: sock_read"));
          Crd_io.read_retry conn buf 0 (Bytes.length buf)
        with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            fail Timeout "idle timeout: no client bytes"
        | exception Unix.Unix_error (e, _, arg) ->
            fail Io
              (if arg = "" then Unix.error_message e
               else Unix.error_message e ^ " (" ^ arg ^ ")")
        | 0 ->
            (* EOF before the end-of-stream frame. *)
            decode_error Crd_wire.Codec.Truncated
        | n -> (
            match
              Option.iter (fun j -> Journal.append_bytes j ~len:n buf) journal
            with
            | exception Crd_fault.Injected p -> fail Io ("injected fault: " ^ p)
            | exception Unix.Unix_error (e, fn, _) -> journal_error fn e
            | () -> (
                let before = !events in
                match D.feed_bytes_iter dec ~len:n buf ~f with
                | Error e -> decode_error e
                | Ok () -> (
                    beat (!events - before);
                    if D.finished dec then
                      match Option.iter Journal.commit journal with
                      | () -> result := Some (Ok ())
                      | exception Unix.Unix_error (e, fn, _) ->
                          journal_error fn e)))
      done;
      Option.get !result)

(* The one analysis entry point live sessions, spill catch-up and
   journal recovery all go through, so a replayed session's report is
   byte-identical to the one the dead server would have sent. [drain]
   feeds events into [f] and reports where ingestion failed, if it did.
   Events stream straight into the engine under every [jobs]: nothing
   is recorded. A malformed event surfaces as Invalid_argument from the
   engine (e.g. [Repr.eta] on a wrong-arity call) and becomes a clean
   [ERR] line, never an exception dump. The reply is rendered later,
   by [render_reply]. *)
let analyze_with cfg spec_for ~drain =
  match Analyzer.create ~config:cfg.analyzer ~jobs:cfg.jobs ~spec_for () with
  | Error e -> Error (Analysis, e)
  | Ok an -> (
      (* The engine is finished on every exit: that joins shard workers. *)
      let finished () =
        try Ok (Analyzer.finish an) with Invalid_argument e -> Error (Analysis, e)
      in
      let drained =
        try drain ~f:(Analyzer.step an) with
        | Invalid_argument e -> Error (Analysis, e)
        | e ->
            (try ignore (finished ()) with _ -> ());
            raise e
      in
      match (drained, finished ()) with
      | Error e, _ | Ok (), Error e -> Error e
      | Ok (), Ok res -> Ok res)

let reply_block = 65536

(* The one reply renderer: [OK], the summary, the RD2 lines, the
   FastTrack and atomicity lines, then [closing]. Everything is written
   into one reused block buffer, handed to [emit] (through a reused
   scratch copy) whenever it reaches [reply_block] bytes, so no reply
   is ever held whole. Race lines go in through [Report.add_line], the
   writer [rd2 check -v] prints with, so the per-race path does no
   Format work. *)
let render_reply (res : Analyzer.result) ~closing ~emit =
  let buf = Buffer.create reply_block in
  let scratch = ref Bytes.empty in
  let flush () =
    let n = Buffer.length buf in
    if n > 0 then begin
      if Bytes.length !scratch < n then scratch := Bytes.create n;
      Buffer.blit buf 0 !scratch 0 n;
      Buffer.clear buf;
      emit !scratch 0 n
    end
  in
  let full () = if Buffer.length buf >= reply_block then flush () in
  (* Each "@." flushes [ppf] into [buf] before the size test, so direct
     appends between Format calls land in order. *)
  let ppf = Fmt.with_buffer buf in
  Fmt.pf ppf "OK@.%a@." Analyzer.pp_result res;
  List.iter
    (fun r ->
      Report.add_line buf r;
      full ())
    res.rd2_reports;
  List.iter
    (fun r ->
      Fmt.pf ppf "%a@." Rw_report.pp r;
      full ())
    res.fasttrack_reports;
  List.iter
    (fun v ->
      Fmt.pf ppf "%a@." Atomicity.pp_violation v;
      full ())
    res.atomicity_violations;
  Buffer.add_string buf closing;
  flush ()

(* The one-line operator probe: everything an "is it keeping up?" glance
   needs, answered straight off the session listener. *)
let health_line t =
  let st = stats t in
  Printf.sprintf
    "HEALTH tier=%s active=%d pending=%d workers=%d spill_backlog=%d \
     spill_bytes=%d mem_used=%d mem_budget=%d stalls=%d sessions=%d \
     spilled=%d caught_up=%d events=%d races=%d\n"
    (Overload.tier_name (Overload.tier t.overload))
    (Atomic.get t.active) (Bqueue.length t.conns) t.cfg.workers
    (Overload.spill_backlog ()) (Overload.spill_bytes ())
    (Overload.mem_used ()) t.cfg.memory_budget st.stalls st.sessions st.spilled
    st.caught_up st.events st.races

(* [tier] is the admission-time verdict from the accept loop; [hb] is
   this worker slot's heartbeat, stamped on every read so the watchdog
   can tell "slow" from "stuck". *)
let session t hb tier conn =
  let cfg = t.cfg in
  Crd_obs.Gauge.incr m_active;
  let span = Crd_obs.Span.start m_session_seconds in
  Overload.Heartbeat.start_session hb conn;
  Fun.protect
    ~finally:(fun () ->
      Overload.Heartbeat.end_session hb;
      Crd_obs.Gauge.decr m_active;
      Crd_obs.Span.finish span)
    (fun () ->
      if cfg.idle_timeout > 0. then begin
        try Unix.setsockopt_float conn Unix.SO_RCVTIMEO cfg.idle_timeout
        with Unix.Unix_error _ -> ()
      end;
      (* Every close goes through here: the heartbeat surrenders the fd
         first, so the watchdog can never shutdown() a descriptor number
         the kernel may already have reused. *)
      let close_conn () =
        Overload.Heartbeat.end_session hb;
        (try Unix.shutdown conn Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close conn with Unix.Unix_error _ -> ()
      in
      let reject kind msg =
        Crd_obs.Counter.incr m_rejected;
        Crd_obs.Counter.incr (err_counter kind);
        Crd_obs.Log.warn "session_rejected"
          [ ("kind", err_kind_label kind); ("err", msg) ];
        (try Proto.send_reject conn msg with Unix.Unix_error _ -> ());
        record t ~events:0 ~races:0 ~error:true;
        close_conn ()
      in
      (* Every reply consults the sock_write fault point once, before
         its first byte; a fired hit loses the reply exactly as a dead
         link would. *)
      let write_reply s =
        Crd_fault.inject fp_sock_write;
        Proto.write_all conn s
      in
      (* Stream the reply to the socket block by block, teeing each
         block into the journal's [.report.tmp] when there is one. The
         [.report] appears only once every block was delivered; a lost
         reply unlinks the tmp and leaves the session
         committed-unreported for recovery. A journal write error only
         drops the tee: the client still gets its reply. *)
      let stream_reply ?journal res ~closing =
        match Crd_fault.inject fp_sock_write with
        | exception Crd_fault.Injected _ -> ()
        | () -> (
            let tee =
              ref
                (match journal with
                | None -> None
                | Some (dir, nonce) -> (
                    try Some (Journal.Report_file.start ~dir ~nonce)
                    with Unix.Unix_error _ -> None))
            in
            let emit b off len =
              Crd_io.write_sub conn b off len;
              match !tee with
              | None -> ()
              | Some r -> (
                  try Journal.Report_file.add r b off len
                  with Unix.Unix_error _ ->
                    Journal.Report_file.abort r;
                    tee := None)
            in
            match render_reply res ~closing ~emit with
            | () ->
                Option.iter
                  (fun r ->
                    try Journal.Report_file.commit r
                    with Unix.Unix_error _ -> Journal.Report_file.abort r)
                  !tee
            | exception Unix.Unix_error _ -> Option.iter Journal.Report_file.abort !tee
            | exception e ->
                Option.iter Journal.Report_file.abort !tee;
                raise e)
      in
      let finish ?journal ~nonce ~spec outcome =
        (match outcome with
        | Ok (res : Analyzer.result) ->
            let events = res.events and reports = res.rd2_reports in
            let races = List.length reports in
            let closing =
              Printf.sprintf "STATS events=%d races=%d distinct=%d wall_s=%.6f\n"
                events races
                (Array.length res.rd2_distinct)
                (Crd_obs.Span.elapsed_s span)
            in
            (* The verdict is final here: publish it to the race
               database before the (faultable) reply, so a lost reply
               still leaves the race durably counted. *)
            (match t.racedb with
            | Some sink -> sink_publish sink ~nonce ~spec reports
            | None -> ());
            if Crd_fault.fire fp_report_send then begin
              (* Deliberate stall (not an error): parks this worker with
                 the journal committed and the reply unsent, so a crash
                 test can SIGKILL the server inside that exact window. *)
              Crd_obs.Log.warn "report_send_stall" [];
              while true do
                Unix.sleepf 3600.
              done
            end;
            stream_reply ?journal res ~closing;
            record t ~events ~races ~error:false;
            Crd_obs.Log.info "session_ok"
              [
                ("events", string_of_int events); ("races", string_of_int races);
              ]
        | Error (kind, msg) ->
            Crd_obs.Counter.incr (err_counter kind);
            Crd_obs.Log.warn "session_error"
              [ ("kind", err_kind_label kind); ("err", msg) ];
            (try write_reply ("ERR " ^ msg ^ "\n")
             with Unix.Unix_error _ | Crd_fault.Injected _ -> ());
            record t ~events:0 ~races:0 ~error:true);
        close_conn ()
      in
      let hs = Crd_obs.Span.start m_handshake_seconds in
      let wrap_io f =
        (* An idle or dead client must fail this session, not escape
           into the worker loop and look like a worker crash. *)
        try f () with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Error "idle timeout during handshake"
        | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      in
      match wrap_io (fun () -> Proto.read_preamble conn) with
      | Error msg ->
          Crd_obs.Span.finish hs;
          reject Handshake msg
      | Ok Proto.Health ->
          (* Not a session: answer the one-line summary and close.
             Nothing is recorded — probes must not skew the stats. *)
          Crd_obs.Span.finish hs;
          (try Proto.write_all conn (health_line t) with Unix.Unix_error _ -> ());
          close_conn ()
      | Ok (Proto.Sync v) ->
          (* A CRDY preamble on the shared listener: hand the socket to
             Crd_sync. Sync exchanges are not sessions — no journal, no
             stats row, no reject reply (the peer speaks sync frames). *)
          Crd_obs.Span.finish hs;
          (match t.racedb with
          | None ->
              Crd_sync.refuse conn "server runs without --racedb";
              Crd_obs.Log.warn "sync_refused" [ ("reason", "no racedb") ]
          | Some sink -> (
              match
                Crd_sync.serve ~timeout:cfg.idle_timeout ~version:v conn
                  sink.db
              with
              | Ok s ->
                  Crd_obs.Log.info "sync_served"
                    [
                      ("peer", s.Crd_sync.peer);
                      ("sent", string_of_int s.Crd_sync.sent);
                      ("received", string_of_int s.Crd_sync.received);
                      ("applied", string_of_int s.Crd_sync.applied);
                    ]
              | Error e -> Crd_obs.Log.warn "sync_failed" [ ("err", e) ]));
          close_conn ()
      | Ok Proto.Session -> (
          match wrap_io (fun () -> Proto.read_handshake_body conn) with
          | Error msg ->
              Crd_obs.Span.finish hs;
              reject Handshake msg
          | Ok { Proto.nonce; spec = spec_name } -> (
          match resolve_spec_set cfg spec_name with
          | Error msg ->
              Crd_obs.Span.finish hs;
              reject Spec msg
          | Ok spec_for -> (
              if note_nonce t nonce then
                Crd_obs.Log.info "session_retry" [ ("nonce", nonce) ];
              let journal =
                match cfg.journal with
                | None -> Ok None
                | Some dir -> (
                    (* A reconnect with a known nonce truncates the old
                       journal: the retry restreams from frame 0. *)
                    let jn =
                      if nonce = "" then Journal.fresh_nonce () else nonce
                    in
                    try Some (Journal.start ~dir ~nonce:jn ~spec:spec_name) |> Result.ok
                    with Unix.Unix_error (e, fn, _) ->
                      Error
                        (Printf.sprintf "journal %s: %s" fn
                           (Unix.error_message e)))
              in
              match journal with
              | Error msg ->
                  Crd_obs.Span.finish hs;
                  reject Io msg
              | Ok journal -> (
                  Fun.protect ~finally:(fun () -> Option.iter Journal.close journal)
                  @@ fun () ->
                  (try Proto.send_accept conn with Unix.Unix_error _ -> ());
                  Crd_obs.Span.finish hs;
                  (* Simulated session-body bug: raises past this
                     function into the worker loop's crash handling,
                     after the handshake so the client sees a clean
                     stream-phase ERR. *)
                  Crd_fault.inject fp_worker_body;
                  (* Simulated wedged worker: parks here until the
                     watchdog cancels this slot's heartbeat, then raises
                     into the same crash handling. *)
                  if Crd_fault.fire Overload.fp_stall then
                    Overload.stall_until_cancelled hb;
                  let beat = Overload.Heartbeat.beat hb in
                  let guarded f =
                    Crd_obs.time m_analyze_seconds (fun () ->
                        try f () with e -> Error (Analysis, Printexc.to_string e))
                  in
                  match (tier, journal) with
                  | Overload.Spill, Some j -> (
                      (* Spill tier: journal at decoder speed, ack, and
                         hand the committed segment to the catch-up
                         drainer. No online analysis, no [.report] — a
                         crash before catch-up leaves the segment
                         committed-unreported, exactly what restart
                         recovery replays. *)
                      let jn = Journal.nonce j in
                      let events = ref 0 in
                      match
                        guarded (fun () ->
                            ingest ~journal:j ~beat ~resync:cfg.resync conn
                              ~f:(fun _ -> incr events))
                      with
                      | Ok () ->
                          let events = !events and bytes = Journal.size j in
                          record_spilled t ~events;
                          Overload.note_spilled ~bytes;
                          ignore
                            (Bqueue.push t.catchup (jn, Crd_obs.now_s (), bytes));
                          Crd_obs.Log.info "session_spilled"
                            [
                              ("nonce", jn);
                              ("events", string_of_int events);
                              ("bytes", string_of_int bytes);
                            ];
                          let reply =
                            Printf.sprintf
                              "OK\n\
                               spilled: analysis deferred to catch-up\n\
                               STATS events=%d races=0 distinct=0 spilled=1 \
                               wall_s=%.6f\n"
                              events
                              (Crd_obs.Span.elapsed_s span)
                          in
                          (try write_reply reply
                           with Unix.Unix_error _ | Crd_fault.Injected _ -> ());
                          close_conn ()
                      | Error e -> finish ~nonce ~spec:spec_name (Error e))
                  | _ ->
                      let outcome =
                        guarded (fun () ->
                            analyze_with cfg spec_for
                              ~drain:
                                (ingest ?journal ~beat ~resync:cfg.resync conn))
                      in
                      (* Publish under the journal nonce when there is one:
                         that is the name a post-crash replay will present,
                         so the dedup matches replay against live. *)
                      let journal_dest, publish_nonce =
                        match (cfg.journal, journal) with
                        | Some dir, Some j ->
                            (Some (dir, Journal.nonce j), Journal.nonce j)
                        | _ -> (None, nonce)
                      in
                      finish ?journal:journal_dest ~nonce:publish_nonce
                        ~spec:spec_name outcome)))))

(* ------------------------------------------------------------------ *)
(* Accept loop and worker pool                                         *)
(* ------------------------------------------------------------------ *)

(* Only a dead listener is fatal; everything else (EMFILE/ENFILE/ENOBUFS
   bursts under load, ...) is survived with a short exponential backoff
   so one resource spike cannot shut the whole server down. *)
let accept_fatal = function
  | Unix.EBADF | Unix.ENOTSOCK | Unix.EINVAL -> true
  | _ -> false

let inject_accept_error t e =
  let rec push () =
    let cur = Atomic.get t.inject_accept in
    if not (Atomic.compare_and_set t.inject_accept cur (cur @ [ e ])) then
      push ()
  in
  push ()

let pop_injected t =
  let rec pop () =
    match Atomic.get t.inject_accept with
    | [] -> None
    | e :: rest as cur ->
        if Atomic.compare_and_set t.inject_accept cur rest then Some e
        else pop ()
  in
  pop ()

(* Block until [fd] is readable ([true]), the server stops or a signal
   interrupts the wait ([false]). *)
let wait_readable t fd =
  match Unix.select [ fd; t.stopping.r ] [] [] (-1.) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  | ready, _, _ -> List.mem fd ready && not (List.mem t.stopping.r ready)

let accept_loop t =
  let backoff = ref 0.01 in
  let survive e =
    record_accept_error t;
    Crd_obs.Log.warn "accept_error"
      [ ("err", Unix.error_message e); ("backoff_s", Printf.sprintf "%.3f" !backoff) ];
    wait t.stopping !backoff;
    backoff := Float.min 0.5 (!backoff *. 2.)
  in
  (* An injected error takes the path a real one would. *)
  let accept fd =
    match pop_injected t with
    | Some e -> raise (Unix.Unix_error (e, "accept", "injected"))
    | None -> Unix.accept fd
  in
  while not (is_set t.stopping) do
    match wait_readable t t.listen_fd with
    | false -> ()
    | true -> (
        match accept t.listen_fd with
        | exception
            Unix.Unix_error
              ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED),
                _,
                _ )
          ->
            ()
        | exception Unix.Unix_error (e, _, _) when accept_fatal e ->
            Crd_obs.Log.err "accept_fatal" [ ("err", Unix.error_message e) ];
            set t.stopping
        | exception Unix.Unix_error (e, _, _) -> survive e
        | conn, _ ->
            backoff := 0.01;
            Crd_obs.Counter.incr m_accepted;
            Unix.clear_nonblock conn;
            let pending = Bqueue.length t.conns in
            let active = Atomic.get t.active in
            (* The degradation ladder decides this connection's tier
               once, here at admission; the tag rides with the fd so
               the worker's verdict is deterministic. *)
            let tier =
              Overload.evaluate t.overload ~pending ~active
                ~workers:t.cfg.workers
            in
            if tier = Overload.Shed then begin
              record_busy t;
              Crd_obs.Log.warn "session_shed"
                [
                  ("tier", Overload.tier_name tier);
                  ("active", string_of_int active);
                  ("pending", string_of_int pending);
                  ("mem_used", string_of_int (Overload.mem_used ()));
                ];
              (try Proto.send_busy conn ~retry_ms:t.cfg.retry_after_ms
               with Unix.Unix_error _ -> ());
              (try Unix.shutdown conn Unix.SHUTDOWN_ALL
               with Unix.Unix_error _ -> ());
              try Unix.close conn with Unix.Unix_error _ -> ()
            end
            else if not (Bqueue.push t.conns (conn, tier)) then (
              try Unix.close conn with Unix.Unix_error _ -> ())
            else
              Crd_obs.Gauge.set_max m_conn_queue_hw (Bqueue.length t.conns))
  done

(* A worker runs sessions until the connection queue closes. An
   exception escaping a session (a bug, or the worker_body fault) is
   answered with a clean ERR line, the connection closes and the crash
   is counted; then the worker takes the next connection. A session
   frees what it holds on its own way out (decoder, journal, analyzer
   shards) and [Heartbeat.start_session] resets the slot, so the
   worker carries nothing from one session to the next. *)
let worker_loop t idx =
  let hb = t.heartbeats.(idx) in
  let continue = ref true in
  while !continue do
    match Bqueue.pop t.conns with
    | None -> continue := false
    | Some (conn, tier) -> (
        Atomic.incr t.active;
        match session t hb tier conn with
        | () -> Atomic.decr t.active
        | exception e ->
            Atomic.decr t.active;
            record_worker_crash t;
            record t ~events:0 ~races:0 ~error:true;
            let msg = Printexc.to_string e in
            Crd_obs.Log.err "worker_crashed" [ ("err", msg) ];
            (try Proto.write_all conn ("ERR internal: worker crashed: " ^ msg ^ "\n")
             with Unix.Unix_error _ -> ());
            (try Unix.shutdown conn Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
            try Unix.close conn with Unix.Unix_error _ -> ())
  done

(* ------------------------------------------------------------------ *)
(* Spill catch-up and the stall watchdog                               *)
(* ------------------------------------------------------------------ *)

(* Replay one committed journal — a spill segment or a session a
   killed process left unreported: stream its committed prefix (64 KiB
   reads, stopping at the marker's size) through [analyze_with], the
   path its live session would have taken; publish under the session
   nonce, where the racedb's durable dedup makes a replay of an
   already-published session a no-op, and leave the report in
   [<nonce>.report]. An unanalyzable journal gets an [ERR] report so it
   is not replayed forever, here or by the next restart. *)
let replay_journal t ~dir nonce =
  let replay ~spec:spec_name ~size fd =
    match resolve_spec_set t.cfg spec_name with
    | Error msg -> Error (Spec, msg)
    | Ok spec_for -> (
        let drain ~f =
          match
            Crd_wire.Bigcodec.iter_fd ~resync:t.cfg.resync ~len:size fd ~f
          with
          | Ok () -> Ok ()
          | Error e -> Error (Decode, Crd_wire.Codec.error_to_string e)
          | exception Unix.Unix_error (e, _, _) ->
              Error (Io, Unix.error_message e)
        in
        match
          try analyze_with t.cfg spec_for ~drain
          with e -> Error (Analysis, Printexc.to_string e)
        with
        | Error _ as e -> e
        | Ok res as ok ->
            (match t.racedb with
            | Some sink ->
                sink_publish sink ~nonce ~spec:spec_name res.rd2_reports
            | None -> ());
            ok)
  in
  let outcome =
    match Journal.with_committed ~dir ~nonce replay with
    | Error msg -> Error (Io, msg)
    | Ok outcome -> outcome
  in
  (* The report a live session would have delivered, streamed to the
     [.report] writer in the same blocks (with no closing line). *)
  let write () =
    match outcome with
    | Ok res ->
        Journal.Report_file.write ~dir ~nonce (fun add ->
            render_reply res ~closing:"" ~emit:add)
    | Error (kind, msg) ->
        Crd_obs.Counter.incr (err_counter kind);
        Journal.write_report ~dir ~nonce ("ERR " ^ msg ^ "\n")
  in
  (try write ()
   with Unix.Unix_error _ | Sys_error _ ->
     Crd_obs.Log.warn "journal_report_unwritable" [ ("nonce", nonce) ]);
  outcome

(* A spill segment replays as its live session would have run, with the
   session's [jobs]: spilling means every worker is busy, so it gets no
   extra shard domains. *)
let catchup_one t dir (nonce, committed_at, bytes) =
  Fun.protect
    ~finally:(fun () ->
      Overload.note_caught_up ~bytes
        ~lag_s:(Float.max 0. (Crd_obs.now_s () -. committed_at)))
    (fun () ->
      match replay_journal t ~dir nonce with
      | Error (_, msg) ->
          Crd_obs.Log.err "catchup_failed" [ ("nonce", nonce); ("err", msg) ]
      | Ok res ->
          let races = List.length res.rd2_reports in
          record_catchup t ~races;
          Crd_obs.Log.info "catchup_done"
            [
              ("nonce", nonce);
              ("events", string_of_int res.events);
              ("races", string_of_int races);
            ])

let catchup_loop t dir =
  let continue = ref true in
  while !continue do
    match Bqueue.pop t.catchup with
    | None -> continue := false
    | Some seg -> (
        try catchup_one t dir seg
        with e ->
          Crd_obs.Log.err "catchup_crashed" [ ("err", Printexc.to_string e) ])
  done

(* The stall watchdog: scan every worker slot's heartbeat; one stuck
   past [--stall-timeout] gets the retryable ERR written and its socket
   shut down from here (unwedging any blocked I/O), while the
   cooperative cancel flag raises the session into the worker's crash
   handling the next time it looks. The timeout should exceed the
   idle timeout: a worker legitimately blocked on a slow client is
   "waiting", not "stuck", and the socket timeouts already bound it.
   It scans until [stop] has joined the workers, so a session that
   wedges while the queue drains is ended too. *)
let watchdog_loop t =
  let timeout = t.cfg.stall_timeout in
  let interval = Float.max 0.01 (Float.min 1.0 (timeout /. 5.)) in
  while not (is_set t.drained) do
    wait t.drained interval;
    let now = Crd_obs.now_s () in
    Array.iteri
      (fun idx hb ->
        match Overload.Heartbeat.check_stall hb ~now ~timeout with
        | None -> ()
        | Some fd ->
            record_stall t;
            Crd_obs.Log.err "worker_stalled"
              [
                ("slot", string_of_int idx);
                ("events", string_of_int (Overload.Heartbeat.events hb));
                ("timeout_s", Printf.sprintf "%.3f" timeout);
              ];
            (try
               Proto.write_all fd
                 "ERR internal: worker stalled past --stall-timeout; retry\n"
             with Unix.Unix_error _ -> ());
            (* Shutdown, never close: the session still owns the fd and
               will close it on its own way out. *)
            (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()))
      t.heartbeats
  done

(* ------------------------------------------------------------------ *)
(* Metrics listener                                                    *)
(* ------------------------------------------------------------------ *)

(* One response per connection, GET /metrics style: best-effort read of
   the request, then the whole registry dump as an HTTP/1.0 response. *)
let metrics_response () =
  let body = Crd_obs.dump () in
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

let metrics_loop t mfd =
  while not (is_set t.stopping) do
    match wait_readable t mfd with
    | false -> ()
    | true -> (
        match Unix.accept mfd with
        | exception Unix.Unix_error _ -> ()
        | conn, _ ->
            Unix.clear_nonblock conn;
            (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO 0.5
             with Unix.Unix_error _ -> ());
            (try ignore (Crd_io.read_retry conn (Bytes.create 4096) 0 4096)
             with Unix.Unix_error _ -> ());
            (try Proto.write_all conn (metrics_response ())
             with Unix.Unix_error _ -> ());
            (try Unix.shutdown conn Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
            (try Unix.close conn with Unix.Unix_error _ -> ()))
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* Replay committed-but-unreported journals left behind by a killed
   process, each counted as a recovered session. *)
let recover_journals t =
  match t.cfg.journal with
  | None -> ()
  | Some dir ->
      List.iter
        (fun nonce ->
          (match replay_journal t ~dir nonce with
          | Ok res ->
              record t ~events:res.events
                ~races:(List.length res.rd2_reports)
                ~error:false
          | Error (_, msg) ->
              record t ~events:0 ~races:0 ~error:true;
              Crd_obs.Log.err "journal_recovery_failed"
                [ ("nonce", nonce); ("err", msg) ]);
          record_recovered t;
          ignore (note_nonce t nonce);
          Crd_obs.Log.info "journal_recovered" [ ("nonce", nonce) ])
        (Journal.committed_unreported ~dir)

(* Is something actually answering on this unix socket? Stale socket
   files (a crashed server) must be reclaimed; live ones must not be
   silently stolen out from under a running server. *)
let unix_socket_live path =
  let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> `Live
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
      | exception Unix.Unix_error (e, _, _) -> `Unknown (Unix.error_message e))

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
        failwith (Printf.sprintf "cannot resolve host %s" host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found ->
        failwith (Printf.sprintf "cannot resolve host %s" host))

let bind_listen addr =
  match addr with
  | Unix_sock path ->
      if Sys.file_exists path then begin
        match (Unix.stat path).Unix.st_kind with
        | Unix.S_SOCK -> (
            match unix_socket_live path with
            | `Live ->
                failwith
                  (Printf.sprintf
                     "%s: a live server is already listening here (refusing \
                      to steal the address)"
                     path)
            | `Stale -> Crd_io.unlink_quiet path
            | `Gone -> ()
            | `Unknown msg ->
                failwith
                  (Printf.sprintf
                     "%s: cannot tell whether a server is listening (%s); \
                      remove the socket file manually if it is stale"
                     path msg))
        | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
      end;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Some path)
  | Tcp (host, port) ->
      let ip = resolve_host host in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (ip, port));
      Unix.listen fd 64;
      (fd, None)

let connect addr =
  let sock domain sockaddr =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd sockaddr
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  in
  match addr with
  | Unix_sock path -> sock Unix.PF_UNIX (Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
      sock Unix.PF_INET (Unix.ADDR_INET (resolve_host host, port))

(* --- anti-entropy over [cfg.peers] --------------------------------- *)

let sync_once ?timeout sink addr =
  match
    Crd_fault.inject Crd_sync.fp_connect;
    connect addr
  with
  | exception Crd_fault.Injected p -> Error ("fault injected: " ^ p)
  | exception Failure m -> Error m
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s(%s)" (Unix.error_message e) fn)
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Crd_sync.client ?timeout fd sink.db)

(* Round-robin over the peer list, one exchange per tick. The delay is
   full-jitter ([0.5x, 1.5x]) so restarted fleets do not thunder in
   lockstep, and doubles per consecutive failure against a peer (capped
   at 60 s) so a dead peer costs one cheap connect a minute, not a
   busy-loop. *)
let sync_loop t sink =
  let peers = Array.of_list t.cfg.peers in
  let n = Array.length peers in
  let streak = Array.make n 0 in
  let rng =
    Random.State.make
      [| Unix.getpid (); int_of_float (Unix.gettimeofday () *. 1e6) |]
  in
  let i = ref 0 in
  while not (is_set t.stopping) do
    let k = !i mod n in
    incr i;
    let base = Float.max 0.05 (t.cfg.sync_interval /. float_of_int n) in
    let d = Float.min 60. (base *. (2. ** float_of_int (min 6 streak.(k)))) in
    wait t.stopping (d *. (0.5 +. Random.State.float rng 1.));
    if not (is_set t.stopping) then begin
      let peer = Fmt.str "%a" pp_addr peers.(k) in
      (* The exchange inherits the session idle timeout per read and a
         10x whole-exchange deadline, so one black-hole peer can never
         pin the anti-entropy thread past its turn. *)
      let timeout =
        if t.cfg.idle_timeout > 0. then t.cfg.idle_timeout else 30.
      in
      match sync_once ~timeout sink peers.(k) with
      | Ok s ->
          streak.(k) <- 0;
          Crd_obs.Log.info "sync_exchange"
            [ ("peer", peer); ("summary", Fmt.str "%a" Crd_sync.pp_summary s) ]
      | Error e ->
          streak.(k) <- streak.(k) + 1;
          Crd_obs.Log.warn "sync_peer_failed"
            [ ("peer", peer); ("err", e); ("streak", string_of_int streak.(k)) ]
    end
  done

let start cfg =
  (* A dead client must surface as EPIPE on write, not kill the server. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if cfg.peers <> [] && cfg.racedb = None then
    Error "sync peers configured without a race database (--peers needs --racedb)"
  else if cfg.spill_watermark > 0 && cfg.journal = None then
    Error
      "spill needs somewhere durable to put the trace (--spill-watermark \
       needs --journal)"
  else
  match bind_listen cfg.addr with
  | exception Failure msg -> Error msg
  | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "%s: %s(%s): %s"
           (Fmt.str "%a" pp_addr cfg.addr)
           fn arg (Unix.error_message e))
  | listen_fd, sock_path -> (
      let metrics =
        match cfg.metrics_addr with
        | None -> Ok None
        | Some a -> (
            match bind_listen a with
            | fd, path -> Ok (Some (fd, path))
            | exception Failure msg -> Error msg
            | exception Unix.Unix_error (e, fn, arg) ->
                Error
                  (Printf.sprintf "%s: %s(%s): %s"
                     (Fmt.str "%a" pp_addr a)
                     fn arg (Unix.error_message e)))
      in
      match metrics with
      | Error msg ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          Option.iter Crd_io.unlink_quiet sock_path;
          Error msg
      | Ok metrics -> (
          let close_listeners () =
            (try Unix.close listen_fd with Unix.Unix_error _ -> ());
            (match metrics with
            | Some (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
            | None -> ());
            List.iter Crd_io.unlink_quiet
              (List.filter_map Fun.id
                 [ sock_path; Option.bind metrics snd ])
          in
          let racedb =
            match cfg.racedb with
            | None -> Ok None
            | Some dir -> Result.map Option.some (sink_start dir)
          in
          match racedb with
          | Error msg ->
              close_listeners ();
              Error ("racedb: " ^ msg)
          | Ok racedb ->
          Unix.set_nonblock listen_fd;
          let workers = max 1 cfg.workers in
          let t =
            {
              cfg = { cfg with workers };
              racedb;
              listen_fd;
              conns = Bqueue.create ~capacity:(max 16 (2 * workers)) ();
              overload =
                Overload.create
                  {
                    Overload.memory_budget = cfg.memory_budget;
                    shed_backlog = cfg.shed_backlog;
                    spill_watermark = cfg.spill_watermark;
                    stall_timeout = cfg.stall_timeout;
                  };
              heartbeats =
                Array.init workers (fun _ -> Overload.Heartbeat.create ());
              catchup = Bqueue.create ~capacity:4096 ();
              catchup_th = None;
              watchdog_th = None;
              stopping = latch ();
              drained = latch ();
              active = Atomic.make 0;
              accept_d = None;
              workers_d = [||];
              syncer = None;
              metrics_d = None;
              metrics_fd = Option.map fst metrics;
              metrics_path = Option.bind metrics snd;
              mu = Mutex.create ();
              st =
                {
                  sessions = 0;
                  events = 0;
                  races = 0;
                  errors = 0;
                  accept_errors = 0;
                  busy = 0;
                  worker_crashes = 0;
                  recovered = 0;
                  spilled = 0;
                  caught_up = 0;
                  stalls = 0;
                };
              seen_nonces = Hashtbl.create 64;
              sock_path;
              stopped = false;
              inject_accept = Atomic.make [];
            }
          in
          recover_journals t;
          t.workers_d <-
            Array.init workers (fun idx ->
                Domain.spawn (fun () -> worker_loop t idx));
          (match t.cfg.journal with
          | Some dir when t.cfg.spill_watermark > 0 ->
              t.catchup_th <-
                Some (Thread.create (fun () -> catchup_loop t dir) ())
          | _ -> ());
          if t.cfg.stall_timeout > 0. then
            t.watchdog_th <-
              Some (Thread.create (fun () -> watchdog_loop t) ());
          (match (t.racedb, t.cfg.peers) with
          | Some sink, _ :: _ ->
              t.syncer <- Some (Thread.create (fun () -> sync_loop t sink) ())
          | _ -> ());
          t.accept_d <- Some (Domain.spawn (fun () -> accept_loop t));
          (match t.metrics_fd with
          | Some mfd ->
              Unix.set_nonblock mfd;
              t.metrics_d <- Some (Domain.spawn (fun () -> metrics_loop t mfd))
          | None -> ());
          Crd_obs.Log.info "server_started"
            [ ("addr", Fmt.str "%a" pp_addr cfg.addr) ];
          Ok t))

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    set t.stopping;
    (match t.accept_d with Some d -> Domain.join d | None -> ());
    (match t.metrics_d with Some d -> Domain.join d | None -> ());
    (* Already-accepted connections stay in the queue and are drained:
       every in-flight session flushes its report before we return. *)
    Bqueue.close t.conns;
    Array.iter Domain.join t.workers_d;
    (* The watchdog scans until here, so a worker that wedges while the
       queue drains is still ended at [stall_timeout]. *)
    set t.drained;
    (* Workers are gone, so nothing can spill anymore: close the
       catch-up queue and let the drainer finish every committed
       segment — a spilled session's evidence is never abandoned at
       shutdown. *)
    Bqueue.close t.catchup;
    (match t.catchup_th with Some th -> Thread.join th | None -> ());
    (match t.watchdog_th with Some th -> Thread.join th | None -> ());
    (* The syncer holds a reference to the db: retire it before the
       sink releases the store. *)
    (match t.syncer with Some th -> Thread.join th | None -> ());
    (* Workers are gone, so no session can publish anymore: drain the
       racedb queue, sync and release the store. *)
    (match t.racedb with Some sink -> sink_stop sink | None -> ());
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      (t.listen_fd :: t.stopping.r :: t.stopping.w :: t.drained.r :: t.drained.w
       :: Option.to_list t.metrics_fd);
    List.iter Crd_io.unlink_quiet
      (List.filter_map Fun.id [ t.sock_path; t.metrics_path ]);
    Crd_obs.Log.info "server_stopped" []
  end;
  stats t

let serve cfg =
  match start cfg with
  | Error e -> Error e
  | Ok t ->
      let interrupted = Atomic.make false in
      let handler = Sys.Signal_handle (fun _ -> Atomic.set interrupted true) in
      (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
      while not (Atomic.get interrupted) do
        Unix.sleepf 0.2
      done;
      Ok (stop t)
