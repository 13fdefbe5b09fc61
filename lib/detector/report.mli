(** Commutativity race reports.

    A report is emitted at the event that closes the race: the current
    action touched an access point that conflicts with an access point
    previously touched by a concurrent action (Definition 4.3).

    Algorithm 1 joins the clocks of all previous touchers of a point into
    one vector clock, so the precise identity of the earlier racing action
    is not retained by the algorithm; [prior] is the {e most recent}
    toucher of the conflicting point, which is the exact racing action in
    the common case and a representative hint otherwise. *)

open Crd_base
open Crd_trace

type t = {
  index : int;  (** trace position of the event that closed the race *)
  obj : Obj_id.t;
  tid : Tid.t;
  action : Action.t;
  point : string;  (** description of the access point touched *)
  conflicting : string;  (** description of the conflicting point *)
  prior : (Tid.t * Action.t) option;
}

val add_line : Buffer.t -> t -> unit
(** Append the race line and a newline:
    [commutativity race at event I: Tn: ACTION [POINT conflicts with
    CONFLICTING]], then [ last touched by Tm: ACTION] when [prior] is
    known; actions as {!Crd_trace.Action.to_buffer} renders them. The
    only race printer: {!pp} is the same line without the newline. *)

val pp : t Fmt.t

val fingerprint : t -> int64
(** Canonical race identity: a stable 64-bit FNV-1a hash of
    [(spec, obj, action pair, point, conflicting point)], with the two
    (method, access point) sides hashed as an {e unordered} pair so a
    race observed from either end folds to the same fingerprint.
    The spec component is recovered from the object-name convention
    ["<spec>"] / ["<spec>:<suffix>"]. Independent of trace position and
    thread ids, so the same logical race in different sessions (or
    interleavings) shares a fingerprint; access-point descriptions can
    embed key values (RD2 points are per-key), which then distinguish
    fingerprints — strictly finer than {!distinct_objects}. *)

val fingerprint_hex : t -> string
(** [fingerprint] as 16 lowercase hex digits — the rendering used by
    [rd2 query] and the racedb tooling. *)

type fingerprints
(** A mutable set of distinct {!fingerprint}s: what a caller keeps when
    it needs the distinct races but not the reports themselves. *)

val fingerprints : unit -> fingerprints
(** An empty set. *)

val add_fingerprint : fingerprints -> t -> unit
(** Add the report's {!fingerprint}. *)

val sorted_union : fingerprints list -> int64 array
(** The distinct fingerprints of all the sets, sorted by
    [Int64.unsigned_compare]. The union is built in the first set, which
    therefore gains the others' members. *)

val distinct_fingerprints : t list -> int64 array
(** The distinct {!fingerprint}s, sorted by [Int64.unsigned_compare] —
    the order of their {!fingerprint_hex} renderings. *)

val distinct : t list -> int
(** Number of distinct race fingerprints — the "(distinct)" column of
    Table 2 under the per-race identity. *)

val distinct_objects : t list -> int
(** Number of distinct objects racing. Coarser than {!distinct} (an
    object can host several distinct races); kept for the object-level
    view of Table 2. *)
