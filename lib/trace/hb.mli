(** The happens-before engine of Table 1.

    Maintains the auxiliary maps [T : Tid -> VC] and [L : Lock -> VC] and
    updates them at every synchronization event. Action (and read/write)
    events are assigned the current clock [T tau] of their thread.

    {2 Live clocks and snapshots}

    The engine hands out clocks in two forms:

    - the {e live} clock [T tau] ({!advance}): the engine's own mutable
      clock, valid until the next {!advance} or {!step}. Reading it costs
      nothing; a consumer that needs it later must copy it. This is what
      [Analyzer] (inline and in each shard, every detector bundle with
      its own engine) and [Predict] use — the detectors only read the
      clock during the call.
    - a {e stable snapshot} ({!step} on [Call]/[Read]/[Write],
      {!snapshot}): a copy that later events never mutate. The engine
      keeps one shared copy per thread segment (the stretch of events
      between two synchronization points of that thread), so all events
      of a segment carry the same physical clock. No library code calls
      them: they are kept only for crdbench's in-process replay, the
      bench harness and the tests, and go with the benchmark change
      that retires crdbench's [detect].

    Threads live in an array indexed by {!Crd_base.Tid.t} (at most
    [Tid.max_id + 1] wide); a thread seen for the first time — forked or
    not — starts at [inc_tau bot]. Locks are looked up once per acquire
    or release. In steady state (every thread and lock seen, clocks at
    their width) {!advance} allocates nothing. *)

open Crd_base
open Crd_vclock

type t

val create : unit -> t

val advance : t -> Event.t -> Vclock.t
(** Process one event and return the live clock [T tau] of its thread
    [tau] after the event — for [Call]/[Read]/[Write] that is the
    event's clock [vc e]. The result is the engine's own clock: it is
    valid only until the next {!advance} or {!step}, and must not be
    mutated. Copies nothing. *)

val step : t -> Event.t -> Vclock.t
(** {!advance}, then for [Call]/[Read]/[Write] events the event's clock
    [vc e] as a stable snapshot (shared by the events of the segment).
    For every other event the result is the live clock, as from
    {!advance}. *)

val snapshot : t -> Tid.t -> Vclock.t
(** The current clock of a thread, as a stable snapshot. *)
