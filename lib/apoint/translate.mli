(** Translation from ECL specifications to the raw (unoptimized)
    shape-level conflict table (Section 6.2).

    The access-point universe [Xo] of a translated specification is
    infinite (argument points are parameterized by values), but it is
    finitely generated by {e shapes}: a shape is a method, a beta vector
    over the method's relevant atoms [B(Phi, m)], and a kind — [ds] or an
    argument/return slot index. The conflict relation [Co] only ever
    relates (a) two ds shapes unconditionally, or (b) two slot shapes
    {e at equal witnessed values} — which is precisely why [Co pt] is a
    bounded-size set (Theorem 6.6). *)

open Crd_base
open Crd_spec

type kind = Ds | Slot of int

val kind_equal : kind -> kind -> bool
val pp_kind : kind Fmt.t

(** A raw shape: method index, beta bitmask, kind. *)
type key = { meth : int; beta : int; kind : kind }

val key_equal : key -> key -> bool
val key_compare : key -> key -> int

type t = private {
  spec : Spec.t;
  methods : Signature.t array;
  atoms : Atom.t array array;
      (** [atoms.(m)] is the normalized atom list B(Phi, m) of method [m];
          bit [k] of a beta mask is the truth value of [atoms.(m).(k)]. *)
  conflicts : (key, key list) Hashtbl.t;  (** symmetric, no duplicates *)
}

val of_spec : Spec.t -> (t, string) result
(** Fails when the specification is outside ECL, or when a method has more
    than {!max_atoms} relevant atoms (the beta enumeration is
    exponential in that number). *)

val max_atoms : int

val method_index : t -> string -> int
(** The index of a method in [methods], or [-1] when the specification
    has no such method. *)

val beta_of : t -> int -> Value.t list -> Value.t list -> int
(** [beta_of t m args rets] evaluates B(Phi, m) on an action's slot tuple
    [args @ rets], reading the slots straight off the two lists: it
    allocates nothing. The tuple must have method [m]'s arity. *)

val beta_pp : t -> int -> int Fmt.t
(** [beta_pp t m] prints a beta mask of method [m] as atom valuations. *)

val universe : t -> key list
(** Every raw shape of every method (all beta masks, all kinds). *)

val conflict_set : t -> key -> key list
(** Sorted; empty for shapes without conflicts. *)
