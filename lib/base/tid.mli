(** Thread identifiers.

    Threads are numbered densely from 0 so that vector clocks and the
    happens-before engine's thread table can be array-backed. Thread 0 is
    conventionally the main thread. Ids are bounded by {!max_id}: an
    array indexed by thread id is at most [max_id + 1] wide, whatever a
    trace claims. *)

type t = private int

val max_id : int
(** The largest valid thread id (65,535). *)

val of_int : int -> t
(** @raise Invalid_argument on negative input or input above {!max_id}. *)

val to_int : t -> int
val main : t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : t Fmt.t
