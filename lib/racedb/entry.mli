(** One racedb index entry, shaped as a state-based CRDT so replicas
    can merge without coordination:

    - [counts] is a G-counter keyed by node id (each node only ever
      bumps its own component, so pointwise max is the merge);
    - [ver] is the update version vector — [ver.(n)] is the sequence
      number of node [n]'s latest local update folded into this entry,
      the basis for delta computation in {!Db.delta};
    - [first_seen]/[last_seen] are min/max registers;
    - the rollup rings merge slot-wise by {!Rollup.join};
    - [sample] is elected deterministically (earliest timestamp, ties
      by smallest encoding), so every gossip order converges.

    {!merge} is commutative, associative and idempotent — the laws the
    [test_sync] qcheck properties pin down. *)

type t = {
  fingerprint : int64;
  counts : Vv.t;  (** per-node G-counter; lifetime total is {!count} *)
  ver : Vv.t;  (** per-node sequence of the latest update, for deltas *)
  first_seen : float;
  last_seen : float;
  sample : Record.t;  (** deterministically elected sample record *)
  minutes : Rollup.t;  (** 60 × 1-minute buckets *)
  hours : Rollup.t;  (** 48 × 1-hour buckets *)
  days : Rollup.t;  (** 30 × 1-day buckets *)
  provenance : Provenance.t;
      (** join over all folded records and merged replicas; [Witnessed]
          absorbs, so a prediction later seen live is promoted and never
          demoted back *)
}

val count : t -> int
(** Sum of the G-counter components — the lifetime occurrence count. *)

val merge : t -> t -> t
(** Lattice join of two replicas of the same fingerprint; the result's
    rings are fresh copies (no aliasing with either argument).
    @raise Invalid_argument on fingerprint or ring-shape mismatch. *)

val equal : t -> t -> bool
val snapshot : t -> t
(** Deep copy (fresh rings). *)

val encode : Buffer.t -> t -> unit

val decode : string -> int -> t * int
(** Self-delimiting; returns the next offset.
    @raise Failure on malformed input. *)

val pp : t Fmt.t
