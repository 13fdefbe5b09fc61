(** Universal value domain [U] for method arguments and return values.

    The paper's actions are method invocations [o.m(u~)/v~] whose arguments
    and returns range over an unspecified domain with a distinguished
    no-value [nil] (Section 3.1). We use a small dynamically-typed domain
    large enough for all the specifications and workloads in the paper:
    integers, booleans, strings, opaque references (e.g. the connection
    objects of Fig. 1), and [nil]. *)

type t =
  | Nil  (** the distinguished no-value *)
  | Bool of bool
  | Int of int
  | Str of string
  | Ref of int  (** an opaque heap reference, compared by identity *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val is_nil : t -> bool

(** Total order used by ordered predicates ([<], [<=], ...) in
    specification atoms. Values of different constructors are ordered by
    constructor rank; this keeps the logic total without meaning anything
    semantically across kinds. *)
val lt : t -> t -> bool

val le : t -> t -> bool
val add_int : Buffer.t -> int -> unit
(** Append the decimal rendering of an integer, as [Int.to_string]
    gives it, without allocating. Safe to call from several domains at
    once (on distinct buffers). *)

val to_buffer : Buffer.t -> t -> unit
(** Append the rendering of a value: [nil], [true], [42], ["a.com"]
    (OCaml string-literal syntax) or [@7]. {!to_string} and {!pp} are
    the same text. *)

val pp : t Fmt.t
val to_string : t -> string

(** [parse s] reconstructs a value from its [to_string] rendering.
    Inverse of [to_string] on all values. *)
val parse : string -> (t, string) result
