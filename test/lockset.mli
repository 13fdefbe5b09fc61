(** An Eraser-style lockset race detector (Savage et al., SOSP'97) — the
    classic lock-discipline alternative to happens-before detection,
    kept beside its tests (not in the library) as a second low-level
    baseline.

    Each location's candidate lockset starts as "all locks" and is
    intersected with the current thread's held locks at every access
    (reads by a single thread are exempt until sharing is observed, per
    Eraser's state machine). An empty candidate set means no single lock
    consistently protects the location — a potential race.

    Lockset detection is incomparable to happens-before detection: it
    flags fork/join-ordered accesses that never raced (false positives
    w.r.t. Definition 4.3) and — because of the first-thread exemption in
    its state machine — can miss races FastTrack reports. The test suite
    exercises both divergences explicitly. *)

open Crd_base
open Crd_fasttrack

type state = Virgin | Exclusive of Tid.t | Shared | Shared_modified | Alarmed

type t

val create : unit -> t

val on_acquire : t -> Tid.t -> Lock_id.t -> unit
val on_release : t -> Tid.t -> Lock_id.t -> unit

val on_read : t -> index:int -> Tid.t -> Mem_loc.t -> Rw_report.t option
val on_write : t -> index:int -> Tid.t -> Mem_loc.t -> Rw_report.t list
(** At most one alarm is raised per location (Eraser semantics). *)

val state_of : t -> Mem_loc.t -> state
val races : t -> Rw_report.t list
