(** Executable abstract-state semantics of library objects (Section 3.1).

    A model gives each object type its space of abstract states and the
    partial effect map [|a|] of every action (Fig 5): [apply s m args rets]
    is [Some s'] when the action [m(args)/rets] is defined at state [s]
    and moves it to [s'], and [None] otherwise (e.g. [get(k)/7] is
    undefined in states where [k] is not mapped to [7]).

    States and action shapes are enumerable over small finite domains,
    which makes Definition 3.1 ("composed effects agree in either order,
    on every state") directly decidable — the ground truth against which
    commutativity specifications are validated (Definition 4.2). *)

open Crd_base

type state =
  | Map of (Value.t * Value.t) list
      (** key-value mapping, sorted by key, [nil] values absent *)
  | Num of int
  | Reg of Value.t
  | Seq of Value.t list  (** front of the queue first *)

val state_equal : state -> state -> bool

(** An action shape: method, arguments, returns — an action without an
    object identity. *)
type shape = { meth : string; args : Value.t list; rets : Value.t list }

val pp_shape : shape Fmt.t

type t = {
  name : string;
  initial : state;
  states : state list;  (** the full (small) state space *)
  shapes : shape list;  (** the full (small) action universe *)
  apply : state -> shape -> state option;
}

val commute : t -> shape -> shape -> bool
(** Definition 3.1 over the model's finite state space:
    [|a| o |b| = |b| o |a|] as partial maps. *)

val enabled : t -> state -> shape list
(** The shapes whose effect is defined at a state. *)

val map_get : (Value.t * Value.t) list -> Value.t -> Value.t
val map_put : (Value.t * Value.t) list -> Value.t -> Value.t -> (Value.t * Value.t) list
