(** A DJIT+-style read-write race detector keeping full vector clocks per
    location. Asymptotically heavier than FastTrack but obviously correct;
    used as the reference oracle in the FastTrack equivalence tests. *)

open Crd_base
open Crd_vclock

type t

val create : unit -> t

(** [on_read] and [on_write] only read the clock they are given, never
    retain it (each location keeps clocks of its own), so the live clock
    of {!Crd_trace.Hb.advance} is acceptable. *)

val on_read :
  t -> index:int -> Tid.t -> Mem_loc.t -> Vclock.t -> Rw_report.t option

val on_write :
  t -> index:int -> Tid.t -> Mem_loc.t -> Vclock.t -> Rw_report.t list

val races : t -> Rw_report.t list
