(** The streaming analysis engine.

    An analyzer owns the specification -> access point memo, the
    optional atomicity checker and one or more detector bundles, each
    with its own happens-before engine (Table 1) and any combination of
    attached detectors:

    - {b rd2} — the commutativity race detector of Algorithm 1, fed by
      [Call] events (in constant-lookup or linear-scan mode);
    - {b direct} — the naive specification-level detector (Section 5.1);
    - {b fasttrack} / {b djit} — read-write detectors fed by
      [Read]/[Write] events.

    Events are pushed one at a time through {!step} — from a recorded
    {!Crd_trace.Trace.t}, a decoder, a socket, or live from
    {!Crd_runtime.Sched.run} via [~sink:(step t)] — and {!finish}
    produces the result. The events themselves are not recorded (a sharded stream
    holds a constant number of chunks per shard), and a call is kept by
    value, never by its [Event.t]:
    without [collect], every stepped event is garbage once {!step}
    returns. What grows with the stream is what the detectors keep:

    - RD2 keeps its per-access-point state (with each point's last
      toucher by value) and nothing per race. Each detector bundle
      folds every race it closes into a count ([Rd2.stats]'s [races])
      and a set of distinct fingerprints. Only when the analyzer was
      created with [collect] (the default) does RD2 keep the
      {!Crd_detector.Report.t}s, sharing their actions; the bundle
      reads them from {!Crd_detector.Rd2.races} and conses nothing of
      its own. Without it, RD2's memory is its per-point state plus one
      set entry per distinct race.
    - FastTrack likewise: each bundle folds its races into a count
      ([Fasttrack.stats]' [races]) and a set of raced locations, and
      keeps the {!Crd_fasttrack.Rw_report.t}s only under [collect].
    - Direct and DJIT+ keep every report they emit, and the atomicity
      checker every violation.

    A bundle handles each event it is handed in one way, inline and on
    every shard: it advances its own happens-before engine and gives the
    detectors the live clock ({!Crd_trace.Hb.advance}), which they only
    read: the pass copies no clock per event.

    {2 Sharding}

    Every detector keys its state per object ({!Crd_detector.Rd2},
    {!Crd_detector.Direct}) or per memory location
    ({!Crd_fasttrack.Fasttrack}, {!Crd_fasttrack.Djit}), and clocks move
    only at [Fork], [Join], [Acquire] and [Release]. So with [jobs > 1]
    the producer runs no clock pass: it routes each [Call]/[Read]/[Write]
    event that a detector reads (calls for RD2 and direct, reads and
    writes for FastTrack and DJIT+) by object (calls hash on the object
    identity, reads and writes on the location), and appends every
    synchronization event to every shard, into per-shard batches of 8192
    events that carry no clocks. [Begin] and [End] go nowhere. A batch
    holds a call by value (thread, object, method and values) and the
    shard rebuilds it. One detector bundle per shard, each on its own
    OCaml 5 domain spawned by {!create}, replays the clock pass over its
    batches while the stream is still arriving: sharding starts at the
    first event, whatever the stream's length. Every shard's clocks
    equal the unsharded pass's for every thread it has met, since a
    thread first met late starts at [inc_tau bot] and only a
    synchronization event, which every shard sees, moves a clock. A shard's {!Crd_base.Bqueue} holds a fixed number of chunks;
    the producer waits when it is full, so in-flight memory is constant
    per shard. It is charged to the [mem_shard_bytes] gauge while a
    chunk is filled, queued or drained, which the server's memory
    budget reads.

    The merge is deterministic: each event lives in exactly one shard and
    each shard's reports are in trace order, so merging the per-shard
    lists by trace index in one linear pass reproduces the sequential
    report list {e bit-identically}, and summed counters equal
    the sequential ones — see DESIGN.md, "Shard-merge determinism". The
    distinct fingerprints are the union of the shards' sets, which needs
    no order. *)

open Crd_base
open Crd_trace
open Crd_spec
open Crd_detector
open Crd_fasttrack

type config = {
  rd2 : [ `Off | `Constant | `Linear ];
  direct : bool;
  fasttrack : bool;
  djit : bool;
  atomicity : bool;  (** the access-point atomicity checker *)
}

val default_config : config
(** RD2 in constant mode and FastTrack on; direct and DJIT+ off. *)

type result = {
  events : int;  (** events stepped *)
  shards : int;  (** [jobs] *)
  rd2_reports : Report.t list;
      (** every RD2 race in trace order when the analyzer collects; [[]]
          otherwise ([rd2_stats]'s [races] counts them either way) *)
  rd2_distinct : int64 array;
      (** the distinct RD2 race fingerprints, sorted by
          [Int64.unsigned_compare] (what {!Report.distinct_fingerprints}
          gives on the collected list), folded as the races close: the
          summary, the server's [STATS] line and [rd2 check
          --fingerprints] all read it *)
  rd2_stats : Rd2.stats option;
  direct_reports : Report.t list;
  direct_stats : Direct.stats option;
  fasttrack_reports : Rw_report.t list;
      (** every FastTrack race in trace order when the analyzer collects;
          [[]] otherwise ([fasttrack_stats]' [races] counts them either
          way) *)
  fasttrack_distinct : int;
      (** distinct memory locations with a FastTrack race, folded as the
          races are found (what {!Rw_report.distinct_locations} gives on
          the collected list) *)
  fasttrack_stats : Fasttrack.stats option;
  djit_reports : Rw_report.t list;
  atomicity_violations : Crd_atomicity.Atomicity.violation list;
}

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], capped to 8. *)

type t

val create :
  ?config:config ->
  ?jobs:int ->
  ?collect:bool ->
  spec_for:(Obj_id.t -> Spec.t option) ->
  unit ->
  (t, string) Stdlib.result
(** [spec_for] assigns a commutativity specification to each monitored
    object (objects mapping to [None] are ignored by the commutativity
    detectors). It is only ever called from the domain that calls
    {!step}. Each distinct specification is translated to its access
    point representation once; a translation failure (a non-ECL
    specification) raises [Invalid_argument] from {!step} unless RD2
    and atomicity are both off.

    [jobs] (default 1) is the shard count. With [jobs > 1] the shard
    domains are spawned here and every routed event goes to them; when
    one cannot be spawned (OCaml 5.1 runs at most 128 domains at once)
    the result is [Error], after the domains already spawned have been
    joined.

    [collect] (default [true]) keeps every RD2 report for
    [rd2_reports] and every FastTrack report for [fasttrack_reports].
    With [false] the races are only counted, and fingerprinted (RD2) or
    located (FastTrack) as they are found, which is all the summary,
    [rd2_distinct] and [fasttrack_distinct] need. *)

val with_stdspecs : ?config:config -> ?jobs:int -> ?collect:bool -> unit -> t
(** An analyzer that resolves specifications by monitored-object naming
    convention ({!Crd_stdspecs.Stdspecs.spec_for}): an object named
    [<spec>:<anything>] or exactly [<spec>] uses the built-in
    specification [<spec>] (e.g. ["dictionary:chunks"]). *)

val step : t -> Event.t -> unit
(** Push the next event. Raises [Invalid_argument] on an event the
    analysis cannot take (e.g. a call that does not match its object's
    specification) — also when a shard worker met it; the engine is then
    shut down and every later call re-raises. Raises [Invalid_argument]
    after {!finish}. *)

val run_trace : t -> Trace.t -> unit

val events : t -> int
(** Events stepped so far. *)

val finish : t -> result
(** End the stream: hand the last chunks over and join the shard
    workers, merge, and fold the RD2 counters into the process-wide
    {!Crd_obs.default} registry ([rd2_actions_total], ...). Idempotent:
    later calls return the same result (or re-raise the same failure)
    without counting twice. *)

(** {2 Accessors} — each calls {!finish}. *)

val rd2_races : t -> Report.t list
(** [rd2_reports]: [[]] unless the analyzer collects. *)

val rd2_stats : t -> Rd2.stats option
val direct_races : t -> Report.t list
val fasttrack_races : t -> Rw_report.t list
val fasttrack_stats : t -> Fasttrack.stats option
val djit_races : t -> Rw_report.t list
val atomicity_violations : t -> Crd_atomicity.Atomicity.violation list

val pp_result : result Fmt.t
(** A Table 2-style summary: events (and shards when [jobs > 1]), then
    races total (distinct) per detector. *)

val pp_summary : t Fmt.t
(** [pp_result] of {!finish}. *)
