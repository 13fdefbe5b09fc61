(** Crash-safe per-session trace journals.

    With [rd2 serve --journal DIR], each session's raw CRDW bytes are
    appended to [DIR/<nonce>.crdj] as they arrive. When the stream's
    end marker is decoded, the data file is fsync'd and a commit marker
    [DIR/<nonce>.commit] (holding the committed byte count) is written
    atomically — data before marker, so a marker always describes
    durable bytes. The session's reply is teed block by block into
    [DIR/<nonce>.report.tmp] as it is delivered, and renamed to
    [DIR/<nonce>.report] once the whole reply went out.

    The lifecycle therefore reads directly off the filesystem:
    - [.crdj] only: the session never finished streaming — nothing to
      recover, the client will retry.
    - [.crdj] + [.commit]: the trace is complete but analysis or reply
      delivery died — {!committed_unreported} finds these on restart
      and the server replays them through the normal analysis path.
    - all three: the session fully completed.

    Appends consult the [journal_append] {!Crd_fault} point. *)

type t
(** An open single-session journal. Functions raise [Unix.Unix_error]
    on I/O failure (and {!append} raises [Crd_fault.Injected] when the
    fault point fires); callers own the error policy. *)

val start : dir:string -> nonce:string -> spec:string -> t
(** Create [DIR] as needed and open a fresh journal, truncating any
    previous run of the same nonce and removing its stale [.commit],
    [.report] and [.report.tmp] — a retry restarts the logical session
    from frame 0.
    [spec] (the handshake's spec-set name) is recorded in the commit
    marker so recovery replays the same analysis. *)

val nonce : t -> string

val size : t -> int
(** Bytes appended so far — after {!commit}, the committed byte count. *)

val append : t -> ?off:int -> ?len:int -> string -> unit

val append_bytes : t -> ?off:int -> ?len:int -> Bytes.t -> unit
(** Like {!append} but straight from a read buffer — the slice goes to
    the fd without an intermediate string copy. The caller must not
    mutate [b.[off..off+len)] during the call. *)

val commit : t -> unit
(** fsync the data, then atomically publish the commit marker. *)

val close : t -> unit
(** Close the data fd (idempotent). Does not commit. *)

(** A [.report] written block by block as its reply is delivered: the
    bytes go to [DIR/<nonce>.report.tmp], which {!commit} fsyncs and
    renames to [DIR/<nonce>.report] — completing the lifecycle — and
    {!abort} unlinks, leaving the session committed-unreported. *)
module Report_file : sig
  type t

  val start : dir:string -> nonce:string -> t
  (** Open (truncating) [DIR/<nonce>.report.tmp]. *)

  val add : t -> Bytes.t -> int -> int -> unit
  (** [add t b off len] appends [b.[off..off+len)]. *)

  val commit : t -> unit
  (** fsync and close the tmp file, then atomically rename it into place. *)

  val abort : t -> unit
  (** Close and unlink the tmp file. Never raises; idempotent. *)

  val write :
    dir:string -> nonce:string -> ((Bytes.t -> int -> int -> unit) -> unit) -> unit
  (** [write ~dir ~nonce f] runs [f add] between {!start} and {!commit};
      if anything raises, the tmp file is {!abort}ed and the exception
      re-raised. *)
end

val write_report : dir:string -> nonce:string -> string -> unit
(** Atomically record a whole report text (an [ERR] line) through
    {!Report_file}, completing the lifecycle. *)

val committed_unreported : dir:string -> string list
(** Nonces with a commit marker but no report, sorted — the sessions a
    restarted server must replay. Empty for an unreadable directory. *)

val with_committed :
  dir:string ->
  nonce:string ->
  (spec:string -> size:int -> Unix.file_descr -> 'a) ->
  ('a, string) result
(** [with_committed ~dir ~nonce k] reads the commit marker, opens the
    data file and runs [k ~spec ~size fd] with [fd] at offset 0: [size]
    is the committed byte count (bytes past it were never acknowledged
    and must not be read) and [spec] the spec-set name. The fd is
    closed when [k] returns or raises. A missing marker or data file,
    or a data file shorter than [size] (["<path>: N bytes but M
    committed"]), is an [Error] before [k] runs. *)

val fresh_nonce : unit -> string
(** Process-unique filename-safe nonce for clients (and for journaling
    sessions whose client sent none). *)
