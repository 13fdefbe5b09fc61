(** [Crd_wire.Bigcodec] — the CRDW decoder.

    It reads the grammar of {!Codec} and reports {!Codec.error}s,
    decoding in place over [Bytes.t] slices:

    - frames are [(pos, limit)] windows — no per-frame [Buffer.sub] or
      per-string [String.sub];
    - interned strings materialize once per distinct content: a
      definition's slice is hashed and compared in place against the
      intern pool before any allocation;
    - a feed that arrives with an empty pending buffer parses the
      caller's slice directly and copies only the incomplete tail.

    The decoder is push-based and {e total}: feed it arbitrary byte
    slices and it hands each completed event to a callback; on any input
    — truncated, corrupt, or adversarial — it returns a typed
    {!Codec.error} and never raises. It runs in O(frame + intern tables)
    memory, never in O(trace).

    Encoding stays in {!Codec.Encoder}; this module is read-side only.
    It reports into the metrics [wire_rx_bytes_total],
    [wire_frames_total], [wire_decode_errors_total] and
    [wire_resync_total], and consults the [decode_frame] fault point
    once per frame. *)

open Crd_trace

module Decoder : sig
  type t

  val create : ?resync:bool -> unit -> t
  (** [resync] (default [false]) turns mid-stream corruption from a
      fatal error into a scan: the decoder discards the partial effects
      of the bad frame (events and interning definitions), skips one
      byte, and retries until it finds the next parseable frame
      boundary. Each skipped byte increments [wire_resync_total]. The
      scan is best-effort — recovered output is a subset of the
      original events — but the decoder stays total and deterministic,
      and an uncorrupted stream decodes identically with zero resyncs.
      Header errors and data after the end marker remain fatal. *)

  val feed_bytes_iter :
    t ->
    ?off:int ->
    ?len:int ->
    Bytes.t ->
    f:(Event.t -> unit) ->
    (unit, Codec.error) result
  (** [feed_bytes_iter t b ~off ~len ~f] consumes the next slice of the
      stream (default: the rest of [b] from [off]) and hands each event
      it completes to [f], in trace order, as soon as its frame parses.
      When nothing is pending, frames decode straight from the caller's
      slice and only an incomplete tail is copied into the decoder; the
      slice may be reused as soon as the call returns. An out-of-range
      slice raises [Invalid_argument] and leaves the decoder as it was.

      Errors are sticky: after an [Error _], every further call returns
      the same error. Input past the end-of-stream marker is [Corrupt].
      An exception raised by [f] propagates to the caller unchanged (the
      decoder is not poisoned, but delivery of the interrupted feed is
      unspecified — abort the session). *)

  val finished : t -> bool
  (** The end-of-stream marker has been consumed. *)

  val finish : t -> (unit, Codec.error) result
  (** Declare end of input: [Ok ()] iff the stream was complete
      (header, frames, end marker); [Error Truncated] otherwise. *)

  val release : t -> unit
  (** Return the decoder's charge against the process-wide
      [mem_intern_bytes] gauge (pending buffer, intern pool, ref
      tables — the memory-accounting input of the server's overload
      controller). Idempotent; the decoder remains usable but stops
      accounting. Decoders dropped without [release] are reclaimed by
      a GC-finalizer backstop, but long-lived servers should release
      eagerly so the load signal tracks live sessions, not the GC. *)

  val mem : t -> int
  (** Current accounted bytes (0 after {!release}). Approximate —
      table capacities and intern content, not a malloc census. *)
end

(** {1 Whole-value convenience} *)

val decode_string : ?resync:bool -> string -> (Trace.t, Codec.error) result

val iter_fd :
  ?resync:bool ->
  ?len:int ->
  Unix.file_descr ->
  f:(Event.t -> unit) ->
  (unit, Codec.error) result
(** Read [fd] from its current offset to EOF, or through its next [len]
    bytes, through {!Decoder.feed_bytes_iter} over one reusable 64 KiB
    buffer, then {!Decoder.finish}. A failed read raises
    [Unix.Unix_error]. *)

val iter_file :
  ?resync:bool -> string -> f:(Event.t -> unit) -> (unit, string) result
(** {!iter_fd} over the file (regular, a pipe or a FIFO), with the same
    [?resync] and the same events as {!decode_string} on the same
    bytes. Nothing is mapped, so the input's pages do not stay resident
    for the run. *)

val of_file : ?resync:bool -> string -> (Trace.t, string) result
