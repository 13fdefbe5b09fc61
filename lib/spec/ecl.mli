(** The ECL fragment and its sub-fragments (Definitions 6.1-6.3).

    - {e LS} (Kulkarni et al.'s SIMPLE): conjunctions of cross-side
      disequalities [x1 != y2], [true], [false].
    - {e LB}: boolean combinations (including negation) of single-sided
      atoms.
    - {e ECL}: [X ::= S | B | X /\ X | X \/ B] — conjunctions of ECL
      formulas, and disjunctions of an ECL formula with an LB formula.

    Membership is what guarantees the translated access-point
    representation has bounded conflict sets (Theorem 6.6). *)

type atom_class =
  | Ls_atom  (** cross-side disequality [x1 != y2] *)
  | Lb_atom of Atom.Side.t  (** single-sided atom *)

val classify_atom : Atom.t -> atom_class option
(** [None] for atoms outside ECL (cross-side non-disequality). *)

val is_ls : Formula.t -> bool
val is_lb : Formula.t -> bool
val is_ecl : Formula.t -> bool

val check : Formula.t -> (unit, string) result
(** Like [is_ecl] but explains the first violation found. *)
