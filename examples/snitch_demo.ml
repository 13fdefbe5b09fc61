(* The Cassandra DynamicEndpointSnitch scenario (race #3 of Section 7).

   Latency-sample threads add new endpoints to the [samples] map while
   the score thread concurrently uses the map's size() as a performance
   hint — by the time the hint is used, it is already obsolete.

   Run with:  dune exec examples/snitch_demo.exe *)

open Crd
module W = Crd_workloads

let () =
  let analyzer = Analyzer.with_stdspecs () in
  let processed =
    W.Snitch.run ~seed:3L
      ~config:
        { W.Snitch.hosts = 6; updaters = 3; samples_per_host = 8; recalculations = 6 }
      ~sink:(Analyzer.step analyzer) ()
  in
  Fmt.pr "snitch processed %d latency samples@.@." processed;
  Fmt.pr "%a@." Analyzer.pp_summary analyzer;

  (* The put/size races are exactly the paper's finding: the size hint
     read during rank recalculation races with endpoint registration. *)
  let size_races =
    List.filter
      (fun (r : Report.t) ->
        String.length r.point >= 4
        && (String.equal (String.sub r.point 0 4) "size"
           || String.length r.conflicting >= 4
              && String.equal (String.sub r.conflicting 0 4) "size"))
      (Analyzer.rd2_races analyzer)
  in
  Fmt.pr "@.races involving the size() performance hint: %d@."
    (List.length size_races);
  (match size_races with
  | r :: _ -> Fmt.pr "  e.g. %a@." Report.pp r
  | [] -> ());

  Fmt.pr
    "@.FastTrack sees only the low-level timestamp fields; the map-level \
     check-then-act@.pattern (register endpoint if absent, size as hint) \
     is invisible to it, but shows@.up directly as commutativity races on \
     the samples and scores maps.@."
