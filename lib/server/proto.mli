(** Shared client/server wire protocol pieces.

    A session is: handshake, then one {!Crd_wire.Codec} stream, then a
    UTF-8 report read until end of stream.

    {v
    client -> server:  "CRDS" version varint(len) nonce
                       varint(len) spec-name  CRDW-stream
    server -> client:  0x00                        (handshake accepted)
                    |  0x01 varint(len) message    (rejected, then close)
                    |  0x02 varint(retry-after ms) (busy, then close)
    server -> client:  report text, then close   (after the CRDW end frame)
    v}

    The nonce (possibly empty) names the logical session: a client that
    retries after a lost reply resends the same nonce, and the server
    treats the reconnect as a fresh run of the same session — its
    journal is truncated, not appended to. *)

val magic : string
val version : int

val max_nonce : int
(** Nonce length cap (64 bytes). *)

val valid_nonce : string -> bool
(** Nonces become journal filenames, so only [A-Za-z0-9_-] is let
    through ([""] is valid: the server then journals under a private
    name and retry dedup is off). *)

type handshake = { nonce : string; spec : string }
type reply = Accepted | Rejected of string | Busy of int  (** retry-after ms *)

val write_all : Unix.file_descr -> string -> unit
(** {!Crd_io.write_all}: write the whole string, looping over short
    writes and retrying interrupts. *)

val read_exact : Unix.file_descr -> int -> string option
(** [None] on end-of-stream before [n] bytes; EINTR-safe. *)

val read_varint : Unix.file_descr -> (int, string) result

val send_handshake : Unix.file_descr -> ?nonce:string -> spec:string -> unit -> unit
val send_accept : Unix.file_descr -> unit
val send_reject : Unix.file_descr -> string -> unit

val send_busy : Unix.file_descr -> retry_ms:int -> unit
(** Overload shed: the client should back off [retry_ms] and retry. *)

type preamble =
  | Session  (** a CRDS trace session *)
  | Sync of int  (** a CRDY racedb sync exchange, with its version *)
  | Health
      (** an ASCII ["HEALTH\n"] probe: the server answers one
          [key=value] line (tier, backlog, memory budget) and closes *)

val read_preamble : Unix.file_descr -> (preamble, string) result
(** Server side: consume the 5-byte magic + version and classify the
    connection. Session, sync and health clients share the listener. *)

val read_handshake_body : Unix.file_descr -> (handshake, string) result
(** The nonce + spec-set part that follows a [Session] preamble. *)

val read_handshake_reply : Unix.file_descr -> (reply, string) result
(** Client side: decode accept/reject/busy. [Error _] is a transport or
    framing failure, not a server decision. *)

val read_to_eof : Unix.file_descr -> string
