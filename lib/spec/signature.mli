open Crd_trace

(** Method signatures: named argument and return slots.

    A signature fixes the shape of the actions [o.m(u~)/v~] of one method
    and gives the canonical numbering [w1 ... wn = u~ v~] of its slots used
    throughout the translation (Section 6.2). *)

type t = { meth : string; args : string list; rets : string list }

val make : meth:string -> ?args:string list -> ?rets:string list -> unit -> t

val slot_names : t -> string list
(** [args @ rets]. *)

val arity : t -> int

val matches : t -> Action.t -> bool
(** Does an action have this method name and the right arity? *)

val equal : t -> t -> bool
val pp : t Fmt.t
