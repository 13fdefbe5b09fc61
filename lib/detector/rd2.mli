(** The commutativity race detector of Algorithm 1.

    The detector maintains, per object, the set of {e active} access
    points together with one vector clock each — the join of the clocks of
    every action that touched the point. Processing an action [a] with
    clock [vc e]:

    + phase 1: for every [pt] in [eta a], look up the points conflicting
      with [pt] among the active points; any conflicting point whose clock
      is not [<= vc e] witnesses a commutativity race;
    + phase 2: join [vc e] into the clock of every [pt] in [eta a],
      activating fresh points.

    Two lookup strategies are provided (Section 5.4): [`Constant]
    enumerates the bounded set [Co pt] and hashes into the active table —
    O(1) per point for ECL-translated representations; [`Linear] scans
    the whole active set and tests conflicts pairwise — the cost an
    unrestricted representation would force. Both report the same races
    at every event; the ablation benchmark compares their cost. Within
    one event, [`Linear] gives its races in the order of its scan (ds
    entries, then each keyed shape's table), which may differ from the
    order before the per-shape entry tables; the per-event multiset is
    unchanged, and Theorem 5.1's test compares event indices only.

    The per-point clock is {e epoch-adaptive} (FastTrack-style): while
    every toucher of a point is totally ordered it is a scalar epoch
    [c@t], promoted to a per-thread component clock only on the first
    concurrent toucher and demoted back once a toucher dominates it. A
    same-epoch cache additionally skips phase 1 wholesale when the same
    thread re-invokes the same points at an unchanged clock and nothing
    else touched the object. Both optimizations are exact: the reported
    races (indices, points, priors) are identical to the full-VC join of
    Algorithm 1 — see DESIGN.md, "Epoch-adaptive entries". *)

open Crd_base
open Crd_vclock
open Crd_trace
open Crd_apoint

type mode = [ `Constant | `Linear ]

type stats = {
  mutable actions : int;  (** actions processed *)
  mutable lookups : int;  (** conflict-candidate inspections in phase 1 *)
  mutable races : int;  (** reports emitted *)
  mutable same_epoch : int;
      (** actions whose phase 1 was skipped by the same-epoch cache *)
  mutable promotions : int;
      (** entries inflated from a scalar epoch to a component clock on
          their first concurrent toucher *)
  mutable deflations : int;
      (** component clocks demoted back to a scalar epoch once a toucher
          dominated every past component *)
}

type t

val create :
  ?mode:mode ->
  ?pool:Vclock.Pool.t ->
  repr_for:(Obj_id.t -> Repr.t option) ->
  unit ->
  t
(** [repr_for] resolves the access-point representation of each object;
    objects resolving to [None] are ignored (not monitored). [pool], when
    given, backs epoch-to-component promotions: promoted clocks are
    acquired from it and released again on deflation, so the steady-state
    hot loop allocates no clock storage. The pool must be owned by this
    detector's domain only. *)

val on_action :
  t -> index:int -> Tid.t -> Action.t -> Vclock.t -> Report.t list
(** Process one action event with its happens-before clock. The clock is
    only read (never retained), so a live [Hb.raw_clock] is acceptable
    only if no later [step] happens before the next call; prefer
    [Hb.snapshot]. Returns the races closed by this event. Once an
    object's points are active, a call that reports no race allocates
    nothing. *)

val release_object : t -> Obj_id.t -> unit
(** Drop all auxiliary state of a dead object — the reclamation
    optimization of Section 5.3. No further races can be reported against
    it. *)

val active_points : t -> Obj_id.t -> int
(** Size of the active set (for tests and complexity accounting). *)

val stats : t -> stats
val races : t -> Report.t list
(** All reports so far, in trace order. *)
