(** Translation from ECL specifications to per-pair residual tables
    (Section 6.2).

    The access-point set [Xo] of a translated specification is
    infinite (argument points are parameterized by values), but it is
    finitely generated by {e shapes}: a shape is a method, a beta vector
    over the method's relevant atoms [B(Phi, m)], and a kind — [ds] or an
    argument/return slot index. The conflict relation [Co] only ever
    relates (a) two ds shapes unconditionally, or (b) two slot shapes
    {e at equal witnessed values} — which is precisely why [Co pt] is a
    bounded-size set (Theorem 6.6).

    Translation residuates each pair formula [phi_ij] under every truth
    assignment to the atoms {e it} reads, not to all of [B(Phi, m_i)] and
    [B(Phi, m_j)]: its cost is the sum over pairs of two to the number of
    atoms the pair reads. Whether two shapes conflict is then one table
    lookup ({!conflict}). *)

open Crd_base
open Crd_spec

type kind = Ds | Slot of int

(** A raw shape: method index, beta bitmask, kind. *)
type key = { meth : int; beta : int; kind : kind }

val key_compare : key -> key -> int

type pair
(** One pair formula [phi_ij], [i <= j], residuated under every
    assignment to the atoms it reads. *)

type t = private {
  spec : Spec.t;
  methods : Signature.t array;
  atoms : Atom.t array array;
      (** [atoms.(m)] is the normalized atom list B(Phi, m) of method [m];
          bit [k] of a beta mask is the truth value of [atoms.(m).(k)]. *)
  pairs : pair array array;  (** [pairs.(i).(j - i)] for [i <= j] *)
}

val of_spec : Spec.t -> (t, string) result
(** Fails when the specification is outside ECL, or when a method has more
    than {!max_atoms} relevant atoms. *)

val max_atoms : int
(** The bound on [Array.length atoms.(m)]. It guards the dispatch table
    {!Repr} builds, one int per beta vector and point kind: 2^14 ints,
    128 KiB, per kind at the bound. Translation itself does not depend
    on it. *)

val method_index : t -> string -> int
(** The index of a method in [methods], or [-1] when the specification
    has no such method. *)

val beta_of : t -> int -> Value.t list -> Value.t list -> int
(** [beta_of t m args rets] evaluates B(Phi, m) on an action's slot tuple
    [args @ rets], reading the slots straight off the two lists: it
    allocates nothing. The tuple must have method [m]'s arity. *)

val reads : t -> int -> int -> int
(** [reads t m j] is the mask of the atoms of [m] that the formula of the
    pair [m], [j] reads; on both sides when [m = j]. A key of [m]
    conflicts with a key of [j] independently of its other beta bits. *)

val conflict : t -> key -> key -> bool
(** [Co] on raw shapes: symmetric, and two ds shapes or two slot shapes
    only. *)
