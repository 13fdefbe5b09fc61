(** The embedded race database: a crash-safe append-only segment store
    folded into a deduplicating fingerprint index, shaped as a
    state-based CRDT so independent nodes converge by merging
    ({!Entry}, {!Vv}).

    {2 On-disk layout}

    {v
    DIR/lock                 writer lock (flock'd while a handle is open)
    DIR/node                 stable node id (created at first open)
    DIR/seg-NNNNNNNN.log     segment: frame*
    DIR/seg-NNNNNNNN.ok      commit marker: "<bytes>\n" (fsync'd, atomic)
    DIR/index.crdx           compacted dedup index (atomic rename)
    frame   ::= varint(len) payload{len} crc32_le(payload)
    payload ::= 'R' record                      one local record
              | 'C' nonce n group*              one session chunk, atomic
              | 'H' entry*                      one whole merge, atomic
    group   ::= varint(count) varint(last) record
    index   ::= "CRDX" 0x03 body crc32_le(body)
    v}

    A ['C'] chunk of [n] records stores each distinct (fingerprint, ts,
    provenance) once, with how many records it stands for and the chunk
    offset of the last of them; replay folds it exactly as it would the
    [n] records. Lengths inside a payload are bounded only by the
    payload, and writers refuse frames over 256 MiB, so every frame
    written reads back.

    A store reads exactly what this build writes. A checksummed frame
    that does not decode (an unknown tag, or a frame kind an older
    build wrote: untagged records, ['B'] session batches, ['M']/['G']
    merges) and an index of another version (v1 or v2 predate this
    build) are errors, never torn tails: {!open_db} and {!load} return
    [Error] naming the file and the byte offset and change nothing.

    Appends go to the active (highest-numbered) segment and are folded
    into an in-memory index keyed by {!Report.fingerprint}; [sync]
    fsyncs the data and publishes a commit marker, journal-style.
    Compaction seals the active segment, writes the whole in-memory
    index (entries plus the published-nonce set) to [index.crdx] with a
    [folded_up_to] watermark and only then deletes the folded segments —
    a crash at any point either keeps the old index plus all segments
    or the new index with leftovers that the watermark retires at the
    next open, never a double count.

    Opening scans every surviving segment before it changes anything:
    complete, checksummed frames beyond a commit marker are {e salvaged}
    (counted in [stats]), and the torn tail after the last frame that
    passes its length and checksum is truncated. A fresh active
    segment is started on every open, so recovery never appends to a
    file another process version half-wrote.

    {2 Replication model}

    Every locally-observed record bumps this node's G-counter component
    and is stamped with the next local sequence number; segments replay
    in write order, so recovery reassigns identical sequence numbers.
    [version] is the database's version vector (pointwise max over
    entry [ver]s), [delta ~since] the entries a peer with that vector
    has not seen, and [merge] the idempotent lattice join — the
    {!Crd_sync} exchange is built from exactly these three. *)

type t

type stats = {
  distinct : int;  (** distinct witnessed races (predicted excluded) *)
  predicted : int;  (** distinct predicted-only races *)
  total : int;
  segments : int;  (** live segment files, active included *)
  active_id : int;
  folded_up_to : int;  (** highest segment id folded into the index *)
  data_bytes : int;  (** bytes across live segments + index *)
  salvaged : int;  (** records recovered past a commit marker at open *)
  truncated_bytes : int;  (** torn tail bytes discarded at open *)
}

val open_db :
  ?segment_bytes:int ->
  ?sync_every:int ->
  ?auto_compact:int ->
  string ->
  (t, string) result
(** [open_db dir] recovers and opens the database for writing, taking
    the writer lock ([Error] if another process holds it) and minting
    [DIR/node] on first open. [Error] also when the store holds an index
    or frame this build does not read (see above); nothing is then
    changed but the lock file. [segment_bytes] (default 1 MiB) is the
    rotation threshold, [sync_every] (default 64) the appends between
    automatic [sync]s, [auto_compact] (default 8) the sealed-segment
    count that triggers an inline compaction (0 disables). *)

val dir : t -> string

val node_id : t -> string
(** This database's stable node id (the content of [DIR/node]). *)

val append : t -> Record.t -> unit
(** Frame, checksum and append one record, and fold it into the index
    attributed to this node.
    @raise Failure if the record's frame would exceed 256 MiB (nothing
    is written).
    @raise Crd_fault.Injected when the [racedb_append] point fires
    (nothing is written).
    @raise Unix.Unix_error on I/O failure. A failed write changes
    nothing: the record is folded only once its frame is written, and
    the segment is cut back to its length before the write. If that
    cut fails too, the handle is failed: every later [append],
    [publish], [merge] and [sync] raises [Failure] and [compact]
    returns [Error]. *)

val publish : t -> nonce:string -> Record.t list -> bool
(** Publish one session's records as atomic batch frames keyed by the
    session [nonce]. Returns [false] (writing nothing) when the nonce
    was already published — the dedup that makes journal replay after
    a crash count-safe. An empty [nonce] disables dedup; an empty
    record list is a no-op. Sessions split into chunks of 4,096 records
    with derived nonces ([nonce#1], ...), deduped chunk by chunk. Each
    chunk is one counted frame: its cost grows with the chunk's
    distinct (fingerprint, ts, provenance) groups, and the store ends
    up exactly as if every record had been folded in order. A chunk
    whose frame would exceed 256 MiB is refused — nothing of it is
    written or folded, its nonce stays unpublished — and counted in
    [racedb_publish_errors_total].
    @raise Invalid_argument if [nonce] is longer than 64 bytes.
    @raise Crd_fault.Injected / Unix.Unix_error as {!append}. *)

val published : t -> string -> bool
(** Has this session nonce already been published (durably)? *)

val merge : t -> Entry.t list -> int
(** Merge replicated entries (the receive side of a sync exchange):
    each entry joins its local counterpart via {!Entry.merge}; all
    changed results are appended durably as a {e single} checksummed
    merge-batch frame and the store is fsynced before returning, so the
    apply is all-or-nothing — a crash or fault mid-merge can never
    durably apply a prefix of the batch and advance [version] past
    entries never applied. Entries already dominated by local state
    write nothing, so re-merging a converged delta is a no-op. Returns
    the number of distinct entries that changed.
    @raise Failure if the encoded batch exceeds the frame limit
    (256 MiB) — nothing is applied; split the batch and retry.
    @raise Crd_fault.Injected when [racedb_append] fires (nothing is
    staged or written). *)

val version : t -> Vv.t
(** Current version vector: pointwise max over all entry [ver]s. *)

val delta : t -> since:Vv.t -> Entry.t list
(** Entries carrying at least one update a peer at [since] has not
    seen, sorted by fingerprint. [delta ~since:(version t)] is []. *)

val sync : t -> unit
(** Fsync the active segment and publish its commit marker.
    @raise Failure on a failed handle (see {!append}). *)

val compact : t -> (int, string) result
(** Seal the active segment, persist the index, delete folded segments.
    Returns the number of distinct entries in the new index. [Error]
    (with the store intact and still usable) if the [racedb_compact]
    fault point fires or the index cannot be written, or on a failed
    handle (see {!append}). *)

val entries : t -> Entry.t list
(** Snapshot of the index, most frequent first (ties by fingerprint). *)

val stats : t -> stats
val close : t -> unit

type view = {
  v_entries : Entry.t list;  (** most frequent first *)
  v_stats : stats;
  v_node : string;  (** "" when [DIR/node] is missing *)
  v_version : Vv.t;
}

val load : string -> (view, string) result
(** Read-only view of [dir]: index plus every live segment, salvaging
    torn tails without modifying anything. [Error] on an index or frame
    this build does not read, as {!open_db}. Safe against a concurrent
    writer except that a compaction racing the scan can momentarily
    hide the records it is folding; query a quiesced store (or the
    same process' {!entries}) for exact counts. *)

val select :
  ?top:int ->
  ?since:float ->
  ?obj:string ->
  ?spec:string ->
  ?provenance:Provenance.t ->
  Entry.t list ->
  Entry.t list
(** Filter ([last_seen >= since], exact object / spec name, exact
    provenance) and keep the first [top] entries. *)

val pp_stats : stats Fmt.t
