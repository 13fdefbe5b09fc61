(** Built-in commutativity specifications, all within the ECL fragment.

    Each [X_src] value is the DSL source text (also usable as example
    input for the [rd2] CLI; [dictionary_src] and [set_src] are the
    files [specs/dictionary.crd] and [specs/set.crd], compiled in);
    [X ()] is the parsed, validated
    specification, memoized. All five are verified sound against the
    executable models of {!Crd_semantics} in the test suite
    (Definition 4.2). *)

open Crd_spec

val dictionary_src : string
(** The specification of Fig 6: [put]/[get]/[size]. *)

val dictionary : unit -> Spec.t

val set_src : string
(** Mathematical set: [add]/[remove]/[contains]/[size], with
    membership-reporting returns. *)

val set : unit -> Spec.t

val counter_src : string
(** Commutative counter: [add(n)] commutes with [add(m)]; [read] does
    not commute with [add]. *)

val counter : unit -> Spec.t

val register_src : string
(** Atomic register: [write]/[read] with the classical read-write
    conflict — commutativity race detection degenerates to ordinary race
    detection on this object. *)

val register : unit -> Spec.t

val fifo_src : string
(** FIFO queue: [enq]/[deq]/[peek]; non-trivially, two [deq]s commute
    when both observe an empty queue, and [enq] commutes with a
    successful [peek]. *)

val fifo : unit -> Spec.t

val bag_src : string
(** Multiset: [add(x)], [remove(x)/ok], [count(x)/n], [size()/r].
    Insertions commute unconditionally (they return nothing), in contrast
    to the set where [add]'s membership-reporting return orders them. *)

val bag : unit -> Spec.t

val all : unit -> Spec.t list
val find : string -> Spec.t option
(** Look up a built-in specification by name. *)

val spec_in : Spec.t list -> Crd_base.Obj_id.t -> Spec.t option
(** The object naming convention: an object named [<spec>] or
    [<spec>:<suffix>] uses the specification named [<spec>] in the
    list, if there is one. *)

val spec_for : Crd_base.Obj_id.t -> Spec.t option
(** {!spec_in} over the built-in specifications. *)
