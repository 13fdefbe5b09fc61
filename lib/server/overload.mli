(** The server's degradation ladder and worker watchdog.

    Three admission tiers, driven by live load signals:

    - {b normal}: sessions run the online analyzer, exactly as before;
    - {b spill}: sessions are acked and streamed straight to the
      fsync'd journal at decoder speed, skipping the online analyzer;
      a background catch-up drainer (server.ml) replays the committed
      segments through the session's analysis path and publishes to the
      racedb under the same session nonce, so race sets stay identical
      to what the online path would have produced;
    - {b shed}: [BUSY retry-after], on memory-budget exhaustion or,
      when the operator set {!field-shed_backlog}, on a full accept
      backlog — without that explicit bound, queue pressure degrades
      to spill, never to dropped evidence.

    The memory signal sums three process-wide gauges maintained by the
    producers themselves: [mem_intern_bytes] (live
    {!Crd_wire.Bigcodec} decoder state), [mem_vcpool_bytes]
    (vector-clock arenas) and [mem_shard_bytes] (the analyzer's shard
    chunks being filled, queued or drained). All are deliberate
    approximations: the budget is a degradation threshold, not an
    allocator. *)

type tier = Normal | Spill | Shed

val tier_name : tier -> string

type limits = {
  memory_budget : int;
      (** accounted-memory bytes that trip the shed tier; [0] = no
          budget (never shed on memory) *)
  shed_backlog : int;
      (** admitted-but-unclaimed sessions that trip the shed tier when
          every worker is busy; [0] = never shed on backlog *)
  spill_watermark : int;
      (** admitted-but-unclaimed sessions that trip the spill tier
          when every worker is busy; [0] = spilling disabled *)
  stall_timeout : float;
      (** seconds without worker progress before the watchdog ends its
          session; [0.] = watchdog disabled *)
}

val no_limits : limits
(** Everything off: byte-for-byte the pre-ladder server behaviour. *)

type t
(** The tier controller: one per server instance. *)

val create : limits -> t
val limits : t -> limits

val tier : t -> tier
(** The tier chosen by the most recent {!evaluate}. *)

val evaluate : t -> pending:int -> active:int -> workers:int -> tier
(** Re-derive the tier from a snapshot of the load signals ([pending]
    admitted-unclaimed sessions, [active] sessions held by workers)
    plus {!mem_used}: the one admission decision, which the accept
    loop acts on as is. Transitions update the [overload_tier] gauge and
    the [overload_to_*_total] counters. Spill exit has hysteresis
    (backlog below half the watermark with a free worker), so the
    ladder does not flap around the threshold. *)

val mem_used : unit -> int
(** Sum of the three accounting gauges, in bytes. *)

val note_spilled : bytes:int -> unit
(** A session was acked via the spill path with [bytes] of committed
    journal: moves [overload_spill_backlog] / [overload_spill_bytes]
    and counts [overload_spilled_sessions_total]. *)

val note_caught_up : bytes:int -> lag_s:float -> unit
(** The drainer finished (or abandoned) a spilled segment: reverses
    the backlog gauges and observes the commit-to-publish lag. *)

val spill_backlog : unit -> int
val spill_bytes : unit -> int

val m_stalls : Crd_obs.Counter.t
(** [server_stalls_total] — sessions ended by the watchdog. *)

val fp_stall : Crd_fault.point
(** The [worker_stall] injection point: a fired hit parks the session's
    worker until the watchdog cancels its heartbeat (see
    {!stall_until_cancelled}). *)

(** Per-worker progress heartbeats, read by the watchdog thread.

    A worker [start_session]s when it picks a connection up, {!Heartbeat.beat}s
    as event batches drain, and [end_session]s before the session
    closes its socket (so the watchdog can never [shutdown] a
    descriptor number the kernel may be about to reuse). The watchdog
    polls {!Heartbeat.check_stall}; a positive verdict marks the heartbeat
    cancelled and surrenders the session fd to the watchdog exactly
    once. *)
module Heartbeat : sig
  type t

  val create : unit -> t
  val start_session : t -> Unix.file_descr -> unit

  val beat : t -> int -> unit
  (** [beat t n]: [n] more events drained; refreshes the stamp. *)

  val end_session : t -> unit

  val events : t -> int
  (** Events drained in the current session. *)

  val check_stall : t -> now:float -> timeout:float -> Unix.file_descr option
  (** [Some fd] iff the worker is mid-session, not yet cancelled, and
      has made no progress for longer than [timeout]: the caller now
      owns writing the retryable ERR and shutting the socket down. *)
end

val stall_until_cancelled : Heartbeat.t -> 'a
(** The [worker_stall] fault body: park (bounded at 60 s) until the
    watchdog cancels the heartbeat, then raise into the worker's crash
    handling, which ends the session and frees the worker. *)
