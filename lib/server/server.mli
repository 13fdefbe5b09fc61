(** [Crd_server.Server] — the streaming ingestion service.

    Every accepted connection is an independent {e online} RD2 session:
    the client handshakes (choosing the specification set), streams a
    {!Crd_wire.Codec} event stream, and receives the session's race
    report back, streamed in 64 KiB blocks ({!render_reply}). Sessions
    are multiplexed over a fixed pool of OCaml 5 domains. The worker that holds a session reads its socket itself —
    one reusable 64 KiB buffer, appended to the journal and decoded in
    place, each event stepped into the engine as it is decoded — so
    there is no reader thread and no per-session queue. While the
    worker analyzes, nobody reads: a fast client blocks on the kernel
    socket buffer instead of growing server memory. The spill tier
    reads through the same loop and only counts the events.

    Every session streams its events into one {!Crd.Analyzer} built
    with [jobs]: with [jobs > 1] the analysis runs on [jobs] shard
    domains from the session's first event, as the events arrive,
    through bounded queues, so no session is ever recorded; the reported
    races are identical by the shard-merge determinism invariant. Spill
    catch-up and journal recovery go through the same path, with the
    same [jobs]. Malformed events
    (e.g. a call that does not match its object's specification)
    produce a clean [ERR] reply under every [jobs] setting.

    The server publishes counters, gauges and duration histograms into
    the process-wide {!Crd_obs.default} registry
    ([server_sessions_total], [server_accept_errors_total],
    [server_errors_<stage>_total], [server_session_seconds], ...); set
    {!config.metrics_addr} to expose the registry over a text-dump
    listener (one Prometheus-style dump per connection).

    {!stop} (and SIGTERM/SIGINT under {!serve}) drains gracefully:
    accepting stops, in-flight sessions run to completion and flush
    their race reports to their clients before the server exits.

    {2 Robustness}

    The pipeline is built to stay up under injected faults
    ({!Crd_fault}) and real crashes:

    - {e crash containment} — an exception escaping a session ends
      only that session: the client gets a clean [ERR] reply, the crash
      is counted ([server_worker_crashes_total]) and the worker takes
      the next connection. A session frees what it holds on its own way
      out, so the worker carries nothing over.
    - {e shedding} — with {!config.shed_backlog}[ > 0], connections
      arriving while every worker is busy and the backlog is full get
      an immediate [BUSY retry-after] reply instead of queueing without
      bound ([server_busy_total]). The bound is one of the
      {!Overload} limits, so admission is one decision.
    - {e journaling} — with {!config.journal}[ = Some dir], each
      session's raw CRDW bytes are appended to [dir/<nonce>.crdj] and
      fsync-committed at end-of-stream; {!start} replays
      committed-but-unreported journals from a previous (possibly
      SIGKILLed) process through the normal analysis path
      ([server_recovered_total]). See {!Journal}.
    - {e degradation ladder} — with {!config.spill_watermark} and/or
      {!config.memory_budget} set, admission runs {!Overload.evaluate}:
      queue pressure degrades to the {e spill} tier (ack + journal now,
      analyze in the background — no evidence dropped), and only
      memory-budget exhaustion sheds with [BUSY]. An ASCII ["HEALTH\n"]
      line on the session listener answers a one-line tier/backlog
      summary.
    - {e stall watchdog} — with {!config.stall_timeout}[ > 0.], a
      watchdog thread frees any worker that stops making per-read
      progress: its client gets a retryable [ERR], and the session ends
      through the same crash handling. *)

open Crd

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or ["tcp:[IPV6]:PORT"] (the
    bracketed form is required for IPv6 literals; a bare
    ["tcp:::1:9090"] still parses by splitting at the last [':']). *)

val pp_addr : addr Fmt.t

type config = {
  addr : addr;
  metrics_addr : addr option;
      (** where to expose the {!Crd_obs.default} registry; [None] (the
          default) disables the metrics listener *)
  workers : int;  (** session-carrying domains (default {!Analyzer.recommended_jobs}) *)
  idle_timeout : float;  (** seconds without client bytes before a session is dropped; 0 disables *)
  analyzer : Analyzer.config;  (** detector set for every session *)
  jobs : int;
      (** shard domains per session analysis ({!Analyzer.create}'s
          [jobs]), spill catch-up and journal recovery included *)
  specs : Spec.t list option;  (** the ["custom"] handshake spec set, if loaded *)
  shed_backlog : int;
      (** when [> 0] and all workers are busy with [shed_backlog]
          connections already pending, new connections are shed with a
          [BUSY] reply ({!Overload.limits}[.shed_backlog]); [0] (the
          default) never sheds on backlog *)
  retry_after_ms : int;  (** the retry hint sent with [BUSY] (default 200) *)
  journal : string option;
      (** directory for crash-safe session journals; [None] disables *)
  resync : bool;
      (** decode session streams with
          {!Crd_wire.Bigcodec.Decoder.create}[ ~resync:true]:
          corrupt frames are skipped instead of failing the session *)
  racedb : string option;
      (** directory of a {!Crd_racedb.Db} race database; every
          session's verdict (live or journal-replayed) is published to
          it through a one-batch queue drained by a single publisher
          thread — a session that finds the queue full waits for the
          publisher ([racedb_published_total],
          [racedb_dropped_total], [racedb_publish_errors_total]).
          [None] (the default) disables publication. *)
  peers : addr list;
      (** other rd2 servers to anti-entropy the race database with: a
          background thread round-robins the list, running one
          {!Crd_sync} exchange per tick with full-jitter scheduling and
          per-peer exponential backoff (capped at 60 s) on failure.
          Requires {!field-racedb}; [[]] (the default) disables the
          loop. Peers also reach {e this} server through the regular
          listener — a ["CRDY"] preamble on {!field-addr} routes the
          connection to {!Crd_sync.serve}. *)
  sync_interval : float;
      (** target seconds for one full round over {!field-peers}
          (default 30); each peer's tick is jittered in [0.5x, 1.5x] *)
  memory_budget : int;
      (** accounted-memory bytes ([mem_intern_bytes] +
          [mem_vcpool_bytes] + [mem_shard_bytes]: live decoder state,
          vector-clock arenas and shard chunks) past which admission
          sheds with [BUSY]; [0] (the default) never sheds on memory.
          See {!Overload}. *)
  spill_watermark : int;
      (** admitted-but-unclaimed sessions that flip admission to the
          {e spill} tier while every worker is busy: new sessions are
          acked and journaled at decoder speed (no online analysis) and
          a background drainer replays them through the session
          analysis path later, publishing to the racedb under the session
          nonce so race sets match the online path exactly. Requires
          {!field-journal}; [0] (the default) disables spilling. *)
  stall_timeout : float;
      (** seconds without a read by the session's worker before the watchdog
          writes a retryable [ERR] to the wedged session and shuts its
          socket down, ending the session through the worker's crash
          handling ([server_stalls_total]). Should exceed {!field-idle_timeout}.
          [0.] (the default) disables the watchdog. *)
}

val default_config : addr:addr -> config
(** RD2 (constant mode) only, [Analyzer.recommended_jobs ()] workers,
    30 s idle timeout, [jobs = 1], no metrics
    listener, no shedding, no journal, strict (non-resync) decoding. *)

type stats = {
  sessions : int;
      (** every completed session, successful or not — rejected
          handshakes and dropped sessions included. Always
          [sessions >= errors]; successful sessions are
          [sessions - errors]. *)
  events : int;  (** events analyzed across all sessions *)
  races : int;  (** RD2 races reported across all sessions *)
  errors : int;
      (** the subset of {!field-sessions} that ended in an error
          (handshake reject, unknown spec set, decode failure, idle
          timeout, I/O error, analysis failure) *)
  accept_errors : int;
      (** transient [accept(2)] failures (e.g. [EMFILE], [ENFILE],
          [ENOBUFS]) survived with backoff — not sessions, and not
          counted in {!field-errors} *)
  busy : int;  (** connections shed with a [BUSY] reply — not sessions *)
  worker_crashes : int;
      (** sessions ended by an exception that escaped them (the worker
          survives and takes the next connection); each is also counted
          as an error session *)
  recovered : int;
      (** journal sessions replayed by {!start} after a crash; counted
          in {!field-sessions} (and {!field-errors} if the replayed
          analysis failed) *)
  spilled : int;
      (** sessions acked via the spill tier; counted in
          {!field-sessions} with their event totals — their races
          arrive later via {!field-caught_up} *)
  caught_up : int;
      (** spilled segments the catch-up drainer has finished (their
          race counts land in {!field-races} at that point) *)
  stalls : int;
      (** sessions the stall watchdog ended; each stalled session is
          also counted as a worker crash and an error session *)
}

type t

val start : config -> (t, string) result
(** Bind, listen, and return once the accept loop is running. Binding a
    unix-socket address whose file already exists connect-probes it
    first: a stale socket (no listener answering) is reclaimed, a live
    one makes [start] return an error rather than stealing the address
    from a running server. *)

val stop : t -> stats
(** Graceful drain: stop accepting, finish in-flight sessions (flushing
    their reports), join every domain, release the socket(s). One byte
    on a stop pipe wakes every waiting loop (accept, metrics,
    anti-entropy) at once, so an idle server stops in milliseconds. The
    stall watchdog runs until the workers are joined, so a session
    wedged during the drain is still ended at [stall_timeout].
    Idempotent. *)

val stats : t -> stats

val serve : config -> (stats, string) result
(** {!start}, then block until SIGTERM or SIGINT, then {!stop}. *)

val connect : addr -> Unix.file_descr
(** Open a client connection to [addr] (used by [rd2 sync] and the
    anti-entropy loop). Raises [Unix.Unix_error] or [Failure] on
    connect/resolve errors. *)

val reply_block : int
(** The reply block size, 64 KiB. *)

val render_reply :
  Analyzer.result ->
  closing:string ->
  emit:(Bytes.t -> int -> int -> unit) ->
  unit
(** Render a session reply — [OK], the {!Analyzer.pp_result} summary,
    the RD2 race lines ({!Report.add_line}), the FastTrack and
    atomicity lines, then [closing] — in blocks: [emit b off len]
    receives [b.[off..off+len)] each time the reused block buffer
    reaches {!reply_block} bytes (so a block holds at most one line
    past it), and once more for the rest. [b] is only valid during the
    call. Live sessions emit to the socket (teeing into the journal's
    [.report.tmp]), recovery and catch-up to the [.report] writer. *)

val inject_accept_error : t -> Unix.error -> unit
(** Test instrumentation: the next time the accept loop wakes up for a
    pending connection it behaves as if [accept] failed with this error
    (consumed in injection order, before the real [accept]). Transient
    errors are survived with backoff and counted in
    {!field-accept_errors}; fatal ones ([EBADF], ...) stop the server. *)
