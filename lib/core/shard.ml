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

let analyze ?jobs ?config ~spec_for trace =
  match Analyzer.create ?config ?jobs ~spec_for () with
  | Error e -> Error e
  | Ok an -> (
      try
        Analyzer.run_trace an trace;
        Ok (Analyzer.finish an)
      with Invalid_argument e -> Error e)

let analyze_stdspecs ?jobs ?config trace =
  analyze ?jobs ?config ~spec_for:Crd_stdspecs.Stdspecs.spec_for trace

let pp_summary = Analyzer.pp_result
