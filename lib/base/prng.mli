(** Deterministic pseudo-random number generator (splitmix64).

    All nondeterminism in the repository — scheduler choices, workload
    generation, property-test shrinking seeds — flows through explicitly
    seeded generators, so every experiment in EXPERIMENTS.md is reproducible
    bit-for-bit. *)

type t

val make : int64 -> t
val copy : t -> t

val split : t -> t
(** [split t] derives an independent stream and advances [t]. *)

val next_int64 : t -> int64
val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val bool : t -> bool
val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val choose : t -> 'a array -> 'a
(** @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
