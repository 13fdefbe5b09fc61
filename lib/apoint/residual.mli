(** Residuation of ECL formulas under beta vectors (Lemma 6.4).

    Once every LB atom of an ECL formula is assigned a truth value, the
    formula simplifies to an LS formula: [false], or a conjunction of
    cross-side disequalities [x_i != y_j] (with the empty conjunction
    being [true]). The conjunction is represented as a sorted,
    deduplicated list of slot pairs [(i, j)] — slot [i] of the first
    action differs from slot [j] of the second. *)

open Crd_spec

type t =
  | Rfalse
  | Rconj of (int * int) list  (** [Rconj \[\]] is [true] *)

val equal : t -> t -> bool
val pp : t Fmt.t

exception Not_ecl of string

val residuate :
  Formula.t -> beta1:(Atom.t -> bool) -> beta2:(Atom.t -> bool) -> t
(** [residuate phi ~beta1 ~beta2] computes [phi\[beta1; beta2\]]
    (Section 6.2). [beta1]/[beta2] are consulted on the {e normalized}
    form of each single-sided atom of the corresponding side.
    @raise Not_ecl if the formula is outside ECL. *)
