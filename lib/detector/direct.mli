(** The direct (naive) commutativity race detector of Section 5.1.

    Works on the logical specification itself: every observed action is
    recorded, and each new action is checked against {e all} previously
    recorded actions of the same object — Theta(|A|) commutativity checks
    per action. It exists as the baseline for the access-point ablation
    (Fig 4, Section 5.4) and as the reference oracle for the precision
    property of Theorem 5.1: on any trace, {!Rd2} reports a race at an
    event iff [Direct] does. *)

open Crd_base
open Crd_vclock
open Crd_trace
open Crd_spec

type stats = {
  mutable actions : int;
  mutable lookups : int;  (** pairwise commutativity checks *)
  mutable races : int;
}

type t

val create : spec_for:(Obj_id.t -> Spec.t option) -> unit -> t

val on_action :
  t -> index:int -> Tid.t -> Action.t -> Vclock.t -> Report.t list
(** Check one action against the recorded history of its object, then
    record it. The history keeps its own copy of the clock, never the
    clock passed in, so the live clock of {!Crd_trace.Hb.advance} is
    acceptable. *)

val release_object : t -> Obj_id.t -> unit
val stats : t -> stats
val races : t -> Report.t list
