(** Atomic formulas of commutativity specifications.

    A method specification [phi_m1_m2 (x~1; x~2)] draws its variables from
    two disjoint supplies: [Fst] variables denote argument/return slots of
    the first action, [Snd] variables those of the second (Section 6.1).
    A variable is resolved to its side and to the index of its slot in the
    action's combined [args @ rets] tuple; the surface name is kept only
    for printing. *)

open Crd_base

module Side : sig
  type t = Fst | Snd

  val flip : t -> t
  val equal : t -> t -> bool
  val pp : t Fmt.t
end

type var = { side : Side.t; slot : int; name : string }

type term = Var of var | Const of Value.t

type pred = Eq | Ne | Lt | Le | Gt | Ge

val pred_holds : pred -> Value.t -> Value.t -> bool

type t = { pred : pred; lhs : term; rhs : term }

val equal : t -> t -> bool

val vars : t -> var list

val sides : t -> Side.t list
(** Sides of the variables occurring in the atom, without duplicates. *)

val single_sided : t -> Side.t option
(** [Some side] when every variable of the atom lives on one side (an
    {e LB}-eligible atom); var-free atoms report [Some Fst]. [None] when
    the atom mixes both sides. *)

val flip_sides : t -> t
(** Swap the two variable supplies ([Fst <-> Snd]). *)

val normalize : t -> t * bool
(** Erase the side distinction (everything becomes [Fst], names dropped),
    orient the atom canonically and force a positive predicate
    ([==], [<] or [<=]) — the paper's atom normalization used to build
    [B(Phi)]. The boolean is the polarity: [(a', true)] means the original
    atom is equivalent to [a'], [(a', false)] that it is equivalent to
    [!a']. Two atoms that differ only in sides, names, orientation or
    polarity normalize to the same canonical atom. *)

val eval : t -> (var -> Value.t) -> bool
val pp : t Fmt.t
