(** Executable access-point representations [<Xo, eta_o, Co>]
    (Definition 4.4), obtained from an ECL specification by translation
    (Section 6.2) and, optionally, the simplification passes of
    Appendix A.3.

    The representation is {e symbolic}: the infinite point set [Xo] is
    generated by finitely many shapes, so [conflicts] returns a finite
    list whose length is bounded by a static constant — the property
    behind the detector's O(1) per-invocation cost (Theorem 6.6,
    Section 5.4). *)

open Crd_base
open Crd_trace
open Crd_spec

type t

val of_spec : ?optimize:bool -> Spec.t -> (t, string) result
(** Translate a specification. [optimize] (default [true]) runs the
    dropping, cleanup and congruence-replacement passes; with
    [~optimize:false] the raw translation of Section 6.2 is kept
    verbatim. Fails on non-ECL specifications, and on a method with
    more than {!Translate.max_atoms} relevant atoms.

    Everything is derived from {!Translate}'s per-pair residual tables.
    Dropping keeps an atom of a method's (ds or slot) shapes iff
    flipping it changes a lookup against some partner key, searched
    over the atoms the pair reads; the shapes are then enumerated
    straight from those relevance masks, and a shape's conflicts are
    the shapes it hits by lookup. The cost follows the pair tables and
    the projected shapes, not [2^|atoms|] per method pair; the
    dispatch table is [2^|atoms|] ints per method and point kind. *)

val memo : unit -> Spec.t -> (t, string) result
(** A translation cache: [memo ()] translates each distinct
    specification (by name) once and returns the cached outcome after.
    Errors read ["spec NAME: reason"]. Not thread-safe. *)

val spec : t -> Spec.t

val eta_into :
  t -> Action.t -> shapes:int array -> values:Value.t array -> int
(** The compiled [eta_o]: write the access points touched by an action,
    deduplicated, into [shapes] (shape ids) and [values] (the witnessed
    value of a keyed point, [Value.Nil] for a ds point) and return their
    number. Points come in {!eta}'s order: the ds point first, then the
    slot points in slot order. The beta bits are evaluated straight off
    the action's [args] and [rets], so the call allocates nothing. Both
    arrays must hold at least {!max_points} elements.
    @raise Invalid_argument if the action's method or arity does not
    match the specification. *)

val max_points : t -> int
(** An upper bound on the number of points of one action: one ds point
    plus one per slot of the widest method. *)

val eta : t -> Action.t -> Point.t list
(** {!eta_into} as a list of points.
    @raise Invalid_argument as {!eta_into}. *)

val conflict_ids : t -> int -> int array
(** [Co] at shape level: the ids of the shapes conflicting with a shape,
    in increasing order. A ds shape conflicts only with ds shapes and a
    keyed shape only with keyed shapes, at an equal value. The array is
    shared: do not mutate it. *)

val is_keyed : t -> int -> bool
(** Whether a shape's points are keyed ({!Point.Keyed}) rather than ds. *)

val conflicts : t -> Point.t -> Point.t list
(** [Co pt] — every point that conflicts with [pt]: {!conflict_ids} of
    its shape, at its value. Bounded by [max_conflicts t]. *)

val conflict : t -> Point.t -> Point.t -> bool
(** Pairwise conflict test (used by the linear-scan ablation mode). *)

val num_shapes : t -> int
val max_conflicts : t -> int
(** The Theorem 6.6 bound: the largest [List.length (conflicts t pt)]
    over all points [pt]. *)

val shape_desc : t -> int -> string
(** Human-readable description of a shape id (for reports and dumps). *)

val point_desc : t -> Point.t -> string
(** A point as race reports describe it: its {!shape_desc}, then
    [[VALUE]] for an argument-slot point. *)

val pp : t Fmt.t
(** Dump all shapes and the shape-level conflict table. *)
