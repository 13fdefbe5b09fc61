(** [Crd_wire.Codec] — the compact binary trace format: its grammar and
    its encoder.

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
    recorded name). Integers are {!Crd_base.Varint} LEB128, signed ones
    zigzagged.

    The encoder is incremental: events are appended to the current
    chunk, flushed at a byte threshold, in O(chunk + intern tables)
    memory. The decoder is {!Bigcodec}; the {!error}s it reports are
    defined here. *)

open Crd_trace

val magic : string
(** ["CRDW"]. *)

val version : int
(** Wire format version written by this encoder (currently 1). *)

val max_frame_bytes : int
(** A decoder rejects a frame longer than this (16 MiB) as corrupt
    rather than buffering it. *)

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

(** {1 Whole-value convenience} *)

val encode_trace : ?chunk_bytes:int -> Trace.t -> string

val write_channel : out_channel -> Trace.t -> unit
val to_file : string -> Trace.t -> (unit, string) result

(** {1 Record tags} (read by {!Bigcodec})

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
