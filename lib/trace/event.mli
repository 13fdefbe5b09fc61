(** Trace events.

    A trace interleaves three kinds of events: library actions ([Call],
    the subject of commutativity race detection), low-level memory
    accesses ([Read]/[Write], the subject of classical race detection) and
    synchronization operations (Table 1). *)

open Crd_base

type op =
  | Call of Action.t
  | Read of Mem_loc.t
  | Write of Mem_loc.t
  | Fork of Tid.t  (** the forked child *)
  | Join of Tid.t  (** the joined child *)
  | Acquire of Lock_id.t
  | Release of Lock_id.t
  | Begin  (** start of an atomic block (transaction) in this thread *)
  | End  (** end of the current atomic block *)

type t = { tid : Tid.t; op : op }

val call : Tid.t -> Action.t -> t
val read : Tid.t -> Mem_loc.t -> t
val write : Tid.t -> Mem_loc.t -> t
val fork : Tid.t -> Tid.t -> t
val join : Tid.t -> Tid.t -> t
val acquire : Tid.t -> Lock_id.t -> t
val release : Tid.t -> Lock_id.t -> t
val begin_ : Tid.t -> t
val end_ : Tid.t -> t

val equal : t -> t -> bool
val pp : t Fmt.t
