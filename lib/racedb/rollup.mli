(** Time-bucketed counters (rrd-style), stored sparsely.

    A rollup is a ring of [slots] counters at resolution [res] seconds:
    bucket [b] (i.e. the interval [[b*res, (b+1)*res)]) lives in slot
    [b mod slots], stamped with its bucket number so a wrapped slot is
    recognized and reset rather than summed into — the xcp-rrdd
    aggregation idea, specialized to monotone counters.

    Only the slots that hold a bucket are stored (three words each), so
    a ring's memory follows the buckets it has seen and is bounded by
    [slots]: a ring that saw one bucket costs one slot. Adding to a
    stored slot is O(log slots) and allocates nothing; a sample that
    opens a slot reallocates the stored slots once.

    Samples older than the oldest live bucket are dropped on [add] and
    stale slots are ignored by the query side, so the ring only ever
    describes the trailing [slots * res] seconds it retains. *)

type t

val create : res:int -> slots:int -> t
(** @raise Invalid_argument if [res < 1] or [slots < 1]. *)

val res : t -> int
val slots : t -> int

val copy : t -> t

val add : ?count:int -> t -> float -> unit
(** [add t ts] counts [count] (default 1) samples in the bucket holding
    unix time [ts]. Samples older than every live bucket are dropped. *)

val add_bucket : t -> bucket:int -> count:int -> unit
(** Merge a pre-bucketed count (used when folding rollups together). *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds every live bucket of [src] into [dst].
    @raise Invalid_argument if resolutions differ. *)

val join : t -> t -> unit
(** [join dst src] is the replication merge: per slot, keep the
    lexicographically greater [(bucket, count)] pair. Commutative,
    associative and idempotent (a lattice join), unlike the additive
    [merge_into] used when folding disjoint local data.
    @raise Invalid_argument if resolution or slot count differ. *)

val equal : t -> t -> bool
(** Structural equality over the full ring state (stale slots too). *)

val total : t -> int
(** Sum over all live buckets. *)

val total_since : t -> float -> int
(** Sum over live buckets whose interval ends after the cutoff. *)

val to_list : t -> (float * int) list
(** Live buckets as [(bucket_start_unix_time, count)], oldest first. *)

val encode : Buffer.t -> t -> unit

val decode : string -> int -> t * int
(** [decode s pos] returns the rollup and the next offset.
    @raise Failure on malformed input. *)
