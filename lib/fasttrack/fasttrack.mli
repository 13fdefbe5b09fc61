(** The FastTrack read-write race detector (Flanagan & Freund, PLDI'09).

    FastTrack is the state-of-the-art baseline the paper compares RD2
    against (Table 2). Per memory location it keeps the epoch of the last
    write and adaptively either the epoch of the last read (when reads are
    totally ordered) or a full read vector clock (once reads become
    concurrent) — giving O(1) common-case processing.

    Synchronization is handled externally by {!Crd_trace.Hb}; the
    detector only consumes the issuing thread's current clock. *)

open Crd_base
open Crd_vclock

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable same_epoch : int;  (** fast-path hits *)
  mutable races : int;
}

type t

val create : ?pool:Vclock.Pool.t -> ?collect:bool -> unit -> t
(** [pool], when given, backs read-epoch inflations (the SHARE
    transition): read vector clocks are acquired from it and released
    again when WRITE SHARED deflates the metadata. Single-owner — see
    {!Vclock.Pool}.

    [collect] (default [true]) keeps every report for {!races}. With
    [false] the detector retains no report: the returns of {!on_read}
    and {!on_write} are its only output, [stats]' [races] counts them. *)

val on_read :
  t -> index:int -> Tid.t -> Mem_loc.t -> Vclock.t -> Rw_report.t option
(** [on_read t ~index tid loc clock] processes a read with the thread's
    current clock; reports a write-read race if the last write is not
    ordered before it. The clock is only read during the call, never
    retained (the detector keeps epochs and clocks of its own), so the
    live clock of {!Crd_trace.Hb.advance} is acceptable; the same holds
    for {!on_write}. *)

val on_write :
  t -> index:int -> Tid.t -> Mem_loc.t -> Vclock.t -> Rw_report.t list
(** Reports a write-write and/or read-write race (at most one of each). *)

val stats : t -> stats

val races : t -> Rw_report.t list
(** All reports so far, in trace order; [[]] when created with
    [~collect:false]. *)
