(** [Crd_sync] — pairwise anti-entropy replication of {!Crd_racedb}.

    Every node carries a stable id ([DIR/node]) and a logical version
    vector over its racedb entries ({!Crd_racedb.Db.version}). One
    exchange is push-pull over a single connection:

    {v
    client                                server
      "CRDY" v  HELLO{node, vv_c}  ---->
                <----  HELLO{node, vv_s}
                <----  DELTA*  ACK{vv_s, 0}      entries newer than vv_c
      merge all buffered DELTAs
      DELTA*  ACK{vv_c', applied}  ---->         entries newer than vv_s
                                            merge all buffered DELTAs
                <----  ACK{vv_s', applied}
    v}

    Frames ride the CRDW varint framing ({!sync_magic}, kind bytes
    {!sync_hello}/{!sync_delta}/{!sync_ack}/{!sync_error}).
    Because {!Crd_racedb.Entry.merge} is a lattice join, the exchange
    is idempotent — re-syncing a converged pair transfers two empty
    deltas and changes nothing — and any gossip schedule that keeps
    pairing nodes converges the fleet.

    {2 Failure model}

    Every network read/write and the delta apply are
    fault-point-injectable ([sync_read], [sync_write], [sync_merge];
    connection establishment fires [sync_connect] in the callers). A
    delta stream is applied all-or-nothing, only once its closing ACK
    has been read: the version vector is derived from stored entries
    (pointwise max), so merging a prefix of a stream would advance it
    past entries never received and the next round would skip them
    forever. A connection dying mid-delta therefore applies nothing;
    the retry re-sends the full delta and the merge stays idempotent.
    The apply itself is a single durable merge-batch frame
    ({!Crd_racedb.Db.merge}), so a crash or injected fault {e inside}
    the merge also applies nothing. No exchange ever blocks a server's
    ingest path: the single apply takes the db lock once, not for the
    connection's lifetime.

    Because the stream must be buffered until its ACK and the listener
    shares the unauthenticated session port, one exchange's delta
    stream is capped (2^20 entries, 64 MiB of frame payload; frames
    themselves at 16 MiB). A peer exceeding the caps gets a best-effort
    [sync_error] frame and the exchange fails without applying
    anything. *)

(** {1 Wire constants}

    A connection opens with [sync_magic] and a [sync_version] byte, then
    exchanges [varint(len) payload] frames whose payloads begin with one
    of the kind bytes below. *)

val sync_magic : string
(** ["CRDY"]. *)

val sync_version : int
(** Sync protocol version (currently 2: delta entries carry the
    provenance byte). *)

val sync_hello : int
(** Frame kind: node id + version vector, opens both directions. *)

val sync_delta : int
(** Frame kind: a batch of replicated racedb entries. *)

val sync_ack : int
(** Frame kind: end of a delta stream — version vector + merged count. *)

val sync_error : int
(** Frame kind: human-readable refusal, connection closes after. *)

(** {1 Exchanges} *)

type summary = {
  peer : string;  (** the peer's node id *)
  sent : int;  (** entries streamed to the peer *)
  received : int;  (** entries the peer streamed to us *)
  applied : int;  (** received entries that changed local state *)
  peer_applied : int;  (** sent entries that changed the peer *)
}

val pp_summary : summary Fmt.t

val client :
  ?timeout:float ->
  ?deadline:float ->
  Unix.file_descr ->
  Crd_racedb.Db.t ->
  (summary, string) result
(** [client fd db] runs one full exchange as the initiating side over a
    connected socket. [timeout] (default 30 s, 0 disables) bounds each
    socket read/write; [deadline] (seconds, default [10 * timeout],
    0 disables) bounds the {e whole} exchange — per-read timeouts reset
    on every byte, so without it a peer dripping one byte per window
    could hold the exchange (and its buffered delta stream) open
    indefinitely. Never raises: faults, I/O and protocol errors come
    back as [Error]. *)

val serve :
  ?timeout:float ->
  ?deadline:float ->
  version:int ->
  Unix.file_descr ->
  Crd_racedb.Db.t ->
  (summary, string) result
(** [serve ~version fd db] answers an exchange after the accept loop
    consumed the ["CRDY" version] preamble. [timeout] and [deadline]
    as in {!client}. *)

val refuse : Unix.file_descr -> string -> unit
(** Best-effort [sync_error] frame for connections that cannot be
    served (e.g. the server runs without a racedb). *)

(** {2 Fault points} *)

val fp_connect : Crd_fault.point
(** [sync_connect] — fired by connection-establishing callers. *)

val fp_read : Crd_fault.point
val fp_write : Crd_fault.point
val fp_merge : Crd_fault.point
