(** The durable unit of the race database: one report, stamped with the
    observation time and the specification set that produced it.

    The binary form is self-contained (no interning tables): a record
    must stay decodable in isolation after compaction has thrown the
    surrounding session away. It round-trips the {e whole} report —
    including the optional [prior] [(tid, action)] hint, which the
    text pipeline previously lost on every serialization boundary. *)

open Crd_detector

type t = {
  ts : float;
  spec : string;
  report : Report.t;
  provenance : Provenance.t;
      (** how the race was found; witnessed records encode byte-identically
          to the pre-provenance format *)
}

val make : ?ts:float -> ?provenance:Provenance.t -> spec:string -> Report.t -> t
(** [provenance] defaults to {!Provenance.Witnessed}. *)

val fingerprint : t -> int64
(** [Report.fingerprint] of the payload. *)

val equal : t -> t -> bool
(** Structural equality, object {e names} included (object ids compare
    by id only elsewhere; the wire form must reproduce names too). *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append the binary form to a buffer, with no intermediate string. *)

val encode : t -> string
(** Unframed payload; the segment store adds length and checksum. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; rejects trailing bytes. Every length and
    count is bounded by the string alone: whatever {!encode} wrote
    decodes, however large. *)

val decode_at : string -> int -> t * int
(** [decode_at s pos] decodes the record starting at [pos] (the form is
    self-delimiting) and returns the next offset. Nothing is read past
    the end of [s].
    @raise Failure on malformed input. *)

val pp : t Fmt.t
