(** [Crd_wire.Codec] — the compact binary trace format.

    A wire stream is a 5-byte header (magic ["CRDW"], version byte)
    followed by length-framed chunks, terminated by a zero-length frame:

    {v
    stream  ::= "CRDW" version frame* end
    frame   ::= varint(len>0) byte{len}
    end     ::= varint(0)
    v}

    Frame payloads hold a sequence of records: string/object/lock
    interning definitions and events. Every name (object, lock, method,
    field, global, string value) is written once into a shared string
    table and referenced by varint index afterwards, so long traces over
    few objects cost a handful of bytes per event. Object and lock
    definitions carry the original numeric identity, so decoding
    reproduces the input trace up to structural equality ({!Event.equal}
    holds event-for-event; objects that share an id keep the first
    recorded name).

    The encoder is incremental (events are appended to the current
    chunk, flushed at a byte threshold) and the decoder is push-based:
    feed it arbitrary byte slices and it returns the events completed so
    far. Both run in O(chunk + intern tables) memory, never in O(trace).

    The decoder is {e total}: on any input — truncated, corrupt, or
    adversarial — it returns a typed {!error} and never raises. *)

open Crd_trace

val version : int
(** Wire format version written by this encoder (currently 1). *)

(** {1 SYNC frames}

    The racedb replication protocol ({!Crd_sync}) reuses the CRDW
    varint framing after its own magic: a connection opens with
    ["CRDY" version] and then exchanges [varint(len) payload] frames
    whose payloads begin with one of the kind bytes below. *)

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

(** {1 Errors} *)

type error =
  | Bad_magic  (** input does not start with the ["CRDW"] magic *)
  | Unsupported_version of int
  | Truncated  (** input ended before the end-of-stream marker *)
  | Corrupt of string  (** malformed record, reference, or framing *)

val pp_error : error Fmt.t
val error_to_string : error -> string

(** {1 Incremental encoding} *)

module Encoder : sig
  type t

  val create : ?chunk_bytes:int -> emit:(string -> unit) -> unit -> t
  (** [create ~emit ()] writes the stream header immediately and then
      calls [emit] once per flushed frame. [chunk_bytes] (default 32768)
      is the flush threshold; a frame may exceed it by one record. *)

  val event : t -> Event.t -> unit
  (** Append one event (and any interning definitions it needs) to the
      current chunk, flushing first if the chunk is full.
      @raise Invalid_argument if the encoder is closed. *)

  val flush : t -> unit
  (** Emit the current chunk (if non-empty) as a frame. *)

  val close : t -> unit
  (** Flush, then emit the end-of-stream marker. Idempotent. *)
end

(** {1 Incremental decoding} *)

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

  val feed : t -> ?off:int -> ?len:int -> string -> (Event.t list, error) result
  (** [feed t s] consumes the next slice of the stream and returns the
      events completed by it, in trace order. Errors are sticky: after
      an [Error _], every further call returns the same error. Input
      past the end-of-stream marker is [Corrupt]. *)

  val finished : t -> bool
  (** The end-of-stream marker has been consumed. *)

  val finish : t -> (unit, error) result
  (** Declare end of input: [Ok ()] iff the stream was complete
      (header, frames, end marker); [Error Truncated] otherwise. *)
end

(** {1 Whole-value convenience} *)

val encode_trace : ?chunk_bytes:int -> Trace.t -> string
val decode_string : ?resync:bool -> string -> (Trace.t, error) result

val write_channel : out_channel -> Trace.t -> unit
val to_file : string -> Trace.t -> (unit, string) result

(** {1 Wire helpers} (shared with the server handshake) *)

val add_varint : Buffer.t -> int -> unit
(** LEB128 on OCaml's 63-bit ints (at most 9 bytes). *)

val get_varint : string -> int -> int * int
(** [get_varint s pos] reads one {!add_varint} encoding starting at
    [pos] and returns [(value, next_pos)].
    @raise Failure on truncated or over-long input. *)

val zigzag : int -> int
(** Signed→unsigned bijection on the 63-bit patterns; small negatives
    stay small on the wire. *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)

val magic : string
(** ["CRDW"]. *)

val default_chunk_bytes : int
val max_frame_bytes : int

(** {1 Record tags} (shared with {!Bigcodec}, the zero-copy decoder)

    One byte each. [0x01]-[0x03] are interning definitions; [0x10]+ are
    events; locations and values carry their own sub-tag byte. *)

val tag_str_def : int
val tag_obj_def : int
val tag_lock_def : int
val tag_call : int
val tag_read : int
val tag_write : int
val tag_fork : int
val tag_join : int
val tag_acquire : int
val tag_release : int
val tag_begin : int
val tag_end : int
val loc_global : int
val loc_field : int
val loc_slot : int
val val_nil : int
val val_false : int
val val_true : int
val val_int : int
val val_str : int
val val_ref : int

(** {1 Shared decoder plumbing}

    Both decoders report into the same metrics and consult the same
    [decode_frame] fault point, so dashboards and chaos specs do not
    care which decoder a path uses. *)

val rx_bytes_total : Crd_obs.Counter.t
val frames_total : Crd_obs.Counter.t
val decode_errors_total : Crd_obs.Counter.t
val resync_total : Crd_obs.Counter.t
val fp_decode_frame : Crd_fault.point
