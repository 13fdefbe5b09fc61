(** [Crd_wire.Bigcodec] — the zero-copy CRDW decoder.

    Same wire grammar, same typed {!Codec.error}s and the same
    observable semantics as {!Codec.Decoder} (which remains the
    reference oracle, differential-tested against this module), but
    decoding in place over [Bigarray] slices:

    - frames are [(pos, limit)] windows — no per-frame [Buffer.sub] or
      per-string [String.sub];
    - interned strings materialize once per distinct content: a
      definition's slice is hashed and compared in place against the
      intern pool before any allocation;
    - a feed that arrives with an empty pending buffer parses the
      caller's slice directly and copies only the incomplete tail.

    Encoding stays in {!Codec.Encoder}; this module is read-side only.
    Metrics ([wire_rx_bytes_total], [wire_frames_total],
    [wire_decode_errors_total], [wire_resync_total]) and the
    [decode_frame] fault point are shared with the legacy decoder. *)

open Crd_trace

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create_bigstring : int -> bigstring
val bigstring_of_string : string -> bigstring

val bigstring_to_string : bigstring -> int -> int -> string
(** [bigstring_to_string b off len] copies the slice out. *)

val map_file : string -> (bigstring, string) result
(** Read-only [Unix.map_file] of a whole regular file ([Error _] for
    files that cannot be mapped — pipes, oversized, unreadable). An
    empty file maps to an empty bigstring without touching [mmap]. The
    mapping is released when the bigstring is collected. *)

module Decoder : sig
  type t

  val create : ?resync:bool -> unit -> t
  (** Same contract as {!Codec.Decoder.create}, including resync
      scanning semantics and sticky errors. *)

  val feed :
    t -> ?off:int -> ?len:int -> bigstring -> (Event.t list, Codec.error) result
  (** Zero-copy feed: when nothing is pending, frames decode straight
      from the caller's slice; only an incomplete tail is buffered. The
      slice may be reused or unmapped as soon as the call returns. *)

  val feed_bytes :
    t -> ?off:int -> ?len:int -> Bytes.t -> (Event.t list, Codec.error) result
  (** One copy (into the pending bigstring) — for callers whose bytes
      come from [Unix.read]. No per-call string allocation. *)

  val feed_iter :
    t ->
    ?off:int ->
    ?len:int ->
    bigstring ->
    f:(Event.t -> unit) ->
    (unit, Codec.error) result
  (** Push-based [feed]: each event goes to [f] as soon as its frame
      parses, with no intermediate list — in a streaming consumer the
      events die in the minor heap instead of being promoted. An
      exception raised by [f] propagates to the caller unchanged (the
      decoder is not poisoned, but delivery of the interrupted feed is
      unspecified — abort the session). *)

  val feed_bytes_iter :
    t ->
    ?off:int ->
    ?len:int ->
    Bytes.t ->
    f:(Event.t -> unit) ->
    (unit, Codec.error) result
  (** Push-based {!feed_bytes}; same contract as {!feed_iter}. *)

  val feed_string :
    t -> ?off:int -> ?len:int -> string -> (Event.t list, Codec.error) result

  val finished : t -> bool
  val finish : t -> (unit, Codec.error) result

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

val decode_bigstring : ?resync:bool -> bigstring -> (Trace.t, Codec.error) result
val decode_string : ?resync:bool -> string -> (Trace.t, Codec.error) result

val iter_bigstring :
  ?resync:bool -> bigstring -> f:(Event.t -> unit) -> (unit, Codec.error) result

val iter_file :
  ?resync:bool -> string -> f:(Event.t -> unit) -> (unit, string) result
(** mmap + decode in place; a file that is not regular or refuses to
    map (a pipe, a FIFO) streams through {!Decoder.feed_bytes_iter} over
    one reusable buffer instead, with the same [?resync] and the same
    result as {!iter_bigstring} on the same bytes. *)

val of_file : ?resync:bool -> string -> (Trace.t, string) result
