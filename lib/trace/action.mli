(** Actions: atomic method invocations [o.m(u~)/v~] on shared objects
    (Section 3.1).

    We treat invocations as atomic transitions because objects are assumed
    linearizable; the action records the object, the method name, the
    argument tuple and the return tuple. *)

open Crd_base

type t = { obj : Obj_id.t; meth : string; args : Value.t list; rets : Value.t list }

val make : obj:Obj_id.t -> meth:string -> ?args:Value.t list -> ?rets:Value.t list -> unit -> t

val slots : t -> Value.t list
(** The combined tuple [w1 ... wn = args @ rets] used by the ECL
    translation to number argument/return positions (Section 6.2). *)

val arity : t -> int
(** [List.length (slots t)]. *)

val equal : t -> t -> bool
val to_buffer : Buffer.t -> t -> unit
(** Append [o.m(u~)/v~]: [obj.meth(a, b)], then [/r] for a single
    return or [/(r1, r2)] for several (nothing for none), values as
    {!Crd_base.Value.to_buffer} renders them. {!to_string} and {!pp} are
    the same text. *)

val pp : t Fmt.t
val to_string : t -> string
