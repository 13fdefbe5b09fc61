(** Whole-trace analysis: a recorded {!Crd_trace.Trace.t} streamed
    through one {!Analyzer} (see there for sharding and the
    deterministic merge). *)

open Crd_base
open Crd_spec
open Crd_trace

type result = Analyzer.result = {
  events : int;
  shards : int;
  rd2_reports : Crd_detector.Report.t list;
  rd2_distinct : int64 array;
  rd2_stats : Crd_detector.Rd2.stats option;
  direct_reports : Crd_detector.Report.t list;
  direct_stats : Crd_detector.Direct.stats option;
  fasttrack_reports : Crd_fasttrack.Rw_report.t list;
  fasttrack_distinct : int;
  fasttrack_stats : Crd_fasttrack.Fasttrack.stats option;
  djit_reports : Crd_fasttrack.Rw_report.t list;
  atomicity_violations : Crd_atomicity.Atomicity.violation list;
}

val analyze :
  ?jobs:int ->
  ?config:Analyzer.config ->
  spec_for:(Obj_id.t -> Spec.t option) ->
  Trace.t ->
  (result, string) Stdlib.result
(** [Analyzer.create ~jobs], every event of the trace, then
    [Analyzer.finish]. Translation failures and malformed events surface
    as [Error]. *)

val analyze_stdspecs :
  ?jobs:int ->
  ?config:Analyzer.config ->
  Trace.t ->
  (result, string) Stdlib.result
(** Like {!analyze} with {!Crd_stdspecs.Stdspecs.spec_for}. *)

val pp_summary : result Fmt.t
(** {!Analyzer.pp_result}. *)
