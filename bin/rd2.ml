(* rd2 — command-line front end for the commutativity race detector.

   Subcommands:
     rd2 specs                 list / print built-in specifications
     rd2 translate FILE        specification -> access point representation
     rd2 check FILE            run detectors over a recorded trace
     rd2 predict FILE          predictive detection over sound reorderings
     rd2 simulate NAME         run a built-in workload under the analyzer
     rd2 table2                reproduce the paper's Table 2
     rd2 serve                 streaming ingestion service (online RD2)
     rd2 send FILE             stream a trace file to a running server *)

open Cmdliner
open Crd

let exits = Cmd.Exit.defaults

(* Trace files come in two formats; every trace-consuming subcommand
   takes the same flag. *)
let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("bin", `Bin) ]) `Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:
          "Trace format: text (one event per line) or bin (the compact \
           CRDW binary codec).")

(* Stream a trace file's events into [f] without materializing it. *)
let iter_trace format path ~f =
  match format with
  | `Text -> (
      try In_channel.with_open_text path (Trace_text.iter_channel ~f)
      with Sys_error msg -> Error msg)
  | `Bin -> Bigwire.iter_file path ~f

let load_trace format path =
  let trace = Trace.create () in
  Result.map (fun () -> trace) (iter_trace format path ~f:(Trace.append trace))

(* Write a trace as text or CRDW, to [output] or (when [None]) stdout. *)
let write_trace format output trace =
  match (format, output) with
  | `Text, None ->
      print_string (Trace_text.to_string trace);
      Ok ()
  | `Text, Some path -> (
      try
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Trace_text.to_string trace));
        Ok ()
      with Sys_error e -> Error e)
  | `Bin, None ->
      Out_channel.set_binary_mode stdout true;
      Wire.write_channel stdout trace;
      Ok ()
  | `Bin, Some path -> Wire.to_file path trace

(* One line per race through [Report.add_line], written to stdout in
   blocks. Whatever was printed before went through Format's "@.", which
   flushes into the same channel, so the lines land after it. *)
let print_races ?(prefix = "") races =
  let block = 65536 in
  let buf = Buffer.create block in
  List.iter
    (fun r ->
      Buffer.add_string buf prefix;
      Report.add_line buf r;
      if Buffer.length buf >= block then begin
        Buffer.output_buffer stdout buf;
        Buffer.clear buf
      end)
    races;
  Buffer.output_buffer stdout buf

let addr_conv =
  Arg.conv
    ( (fun s ->
        match Crd_server.Server.addr_of_string s with
        | Ok a -> Ok a
        | Error e -> Error (`Msg e)),
      Crd_server.Server.pp_addr )

let addr_arg =
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "a"; "addr" ] ~docv:"ADDR"
        ~doc:"Server address: unix:PATH or tcp:HOST:PORT.")

(* ------------------------------------------------------------------ *)
(* specs                                                               *)
(* ------------------------------------------------------------------ *)

let specs_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Print this built-in specification.")
  in
  let run name =
    match name with
    | None ->
        List.iter
          (fun s -> print_endline (Spec.name s))
          (Stdspecs.all ());
        `Ok ()
    | Some n -> (
        match Stdspecs.find n with
        | Some s ->
            Fmt.pr "%a@." Spec.pp s;
            `Ok ()
        | None -> `Error (false, Printf.sprintf "no built-in spec named %s" n))
  in
  Cmd.v
    (Cmd.info "specs" ~exits
       ~doc:"List built-in commutativity specifications, or print one.")
    Term.(ret (const run $ name_arg))

(* ------------------------------------------------------------------ *)
(* translate                                                           *)
(* ------------------------------------------------------------------ *)

let spec_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SPEC" ~doc:"Specification file (DSL syntax).")

let translate_cmd =
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Skip the simplification passes (dropping, cleanup, congruence \
             replacement) and print the raw Section 6.2 translation.")
  in
  let run file raw =
    match Spec_parser.parse_file file with
    | Error e -> `Error (false, e)
    | Ok specs ->
        List.iter
          (fun spec ->
            match Repr.of_spec ~optimize:(not raw) spec with
            | Error e ->
                Fmt.epr "%s: %s@." (Spec.name spec) e
            | Ok repr -> Fmt.pr "%a@.@." Repr.pp repr)
          specs;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "translate" ~exits
       ~doc:
         "Translate an ECL commutativity specification into its access \
          point representation.")
    Term.(ret (const run $ spec_file $ raw))

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let trace_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"Trace file: text, or CRDW binary with --format bin.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "s"; "spec" ] ~docv:"SPEC"
          ~doc:
            "Specification file. Objects are matched to specifications by \
             name: an object named name or name:suffix uses the \
             specification object name. Without this option the built-in \
             specifications are used.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("constant", `Constant); ("linear", `Linear) ]) `Constant
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Conflict lookup strategy: constant (default) or linear.")
  in
  let direct =
    Arg.(
      value & flag
      & info [ "direct" ]
          ~doc:"Also run the naive specification-level detector.")
  in
  let fasttrack =
    Arg.(
      value & flag
      & info [ "fasttrack" ]
          ~doc:"Also run FastTrack on the trace's reads and writes.")
  in
  let atomicity =
    Arg.(
      value & flag
      & info [ "atomicity" ]
          ~doc:
            "Also run the atomicity checker (transactions are the \
             begin/end blocks of the trace).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every race.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Analyze the trace with $(docv) domains, sharded by object / \
             memory location; each shard runs its own happens-before pass \
             over every synchronization event. Reports are identical to the \
             sequential run.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "After the report, dump the process metrics registry \
             (counters/histograms) in Prometheus text format.")
  in
  let fingerprints_flag =
    Arg.(
      value & flag
      & info [ "fingerprints" ]
          ~doc:
            "Print the sorted distinct RD2 race fingerprints (one 16-digit \
             hex per line) — the identity 'rd2 query' folds by, so the \
             output is directly comparable to a race database.")
  in
  let run trace_file spec_file format mode direct fasttrack atomicity verbose
      jobs stats fingerprints =
    let ( let* ) r f = match r with Error e -> `Error (false, e) | Ok v -> f v in
    let* specs =
      match spec_file with
      | None -> Ok (Stdspecs.all ())
      | Some f -> Spec_parser.parse_file f
    in
    let config =
      { Analyzer.rd2 = mode; direct; fasttrack; djit = false; atomicity }
    in
    let* an =
      Analyzer.create ~config ~jobs ~collect:verbose
        ~spec_for:(Stdspecs.spec_in specs) ()
    in
    let* res =
      try
        let streamed = iter_trace format trace_file ~f:(Analyzer.step an) in
        let res = Analyzer.finish an in
        Result.map (fun () -> res) streamed
      with Invalid_argument e -> Error e
    in
    Fmt.pr "%a@." Analyzer.pp_result res;
    if verbose then begin
      print_races res.rd2_reports;
      List.iter (fun r -> Fmt.pr "%a@." Rw_report.pp r) res.fasttrack_reports;
      List.iter
        (fun v -> Fmt.pr "%a@." Atomicity.pp_violation v)
        res.atomicity_violations
    end;
    if fingerprints then
      Array.iter (Printf.printf "%016Lx\n") res.rd2_distinct;
    if stats then print_string (Crd_obs.dump ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "check" ~exits
       ~doc:"Check a recorded trace for commutativity races.")
    Term.(
      ret
        (const run $ trace_file $ spec_arg $ format_arg $ mode $ direct
       $ fasttrack $ atomicity $ verbose $ jobs $ stats_flag
       $ fingerprints_flag))


(* ------------------------------------------------------------------ *)
(* predict                                                             *)
(* ------------------------------------------------------------------ *)

let predict_cmd =
  let trace_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file to analyze.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "s"; "spec" ] ~docv:"SPEC"
          ~doc:
            "Specification file (same object-name matching as 'rd2 check'); \
             default: the built-in specifications.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Fan the per-candidate closure checks out over $(docv) domains. \
             Reports are identical for every $(docv).")
  in
  let scan_limit =
    Arg.(
      value & opt int 64
      & info [ "scan-limit" ] ~docv:"N"
          ~doc:
            "Prior conflicting calls paired with each access point of each \
             call (completeness cap; soundness is unaffected).")
  in
  let max_attempts =
    Arg.(
      value & opt int 8
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:
            "Candidate pairs tried per undecided race fingerprint \
             (completeness cap; soundness is unaffected).")
  in
  let racedb =
    Arg.(
      value
      & opt (some string) None
      & info [ "racedb" ] ~docv:"DIR"
          ~doc:
            "Publish the verdict into the race database at $(docv) (created \
             if missing): witnessed races as provenance=witnessed, predicted \
             ones as provenance=predicted.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every race.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "After the report, dump the process metrics registry in \
             Prometheus text format.")
  in
  let run trace_file spec_file format jobs scan_limit max_attempts racedb
      verbose stats =
    let ( let* ) r f = match r with Error e -> `Error (false, e) | Ok v -> f v in
    let* specs =
      match spec_file with
      | None -> Ok (Stdspecs.all ())
      | Some f -> Spec_parser.parse_file f
    in
    let* trace = load_trace format trace_file in
    let* res =
      Predict.analyze ~jobs ~scan_limit ~max_attempts
        ~spec_for:(Stdspecs.spec_in specs) trace
    in
    let w = Report.distinct res.Predict.witnessed in
    Fmt.pr
      "events %d  calls %d  witnessed %d (%d distinct)  predicted +%d  \
       candidates %d  closures %d  capped %d@."
      res.Predict.stats.Predict.events res.Predict.stats.Predict.calls
      (List.length res.Predict.witnessed)
      w
      (List.length res.Predict.predicted)
      res.Predict.stats.Predict.candidates res.Predict.stats.Predict.closures
      res.Predict.stats.Predict.capped;
    if verbose then begin
      print_races ~prefix:"witnessed " res.Predict.witnessed;
      print_races ~prefix:"predicted " res.Predict.predicted
    end;
    let* () =
      match racedb with
      | None -> Ok ()
      | Some dir -> (
          match Crd_racedb.Db.open_db dir with
          | Error e -> Error e
          | Ok db ->
              let ts = Unix.gettimeofday () in
              let spec = match spec_file with None -> "std" | Some _ -> "custom" in
              let records =
                List.map
                  (fun r -> Crd_racedb.Record.make ~ts ~spec r)
                  res.Predict.witnessed
                @ List.map
                    (fun r ->
                      Crd_racedb.Record.make ~ts
                        ~provenance:Crd_racedb.Provenance.Predicted ~spec r)
                    res.Predict.predicted
              in
              let out =
                try
                  ignore (Crd_racedb.Db.publish db ~nonce:"" records);
                  Ok ()
                with
                | Crd_fault.Injected p -> Error ("fault injected: " ^ p)
                | Unix.Unix_error (e, fn, _) ->
                    Error (Printf.sprintf "%s(%s)" (Unix.error_message e) fn)
              in
              Crd_racedb.Db.close db;
              out)
    in
    if stats then print_string (Crd_obs.dump ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "predict" ~exits
       ~doc:
         "Predictively check a recorded trace: report the observed-run RD2 \
          races plus every non-commuting pair that races in some \
          sync-preserving reordering of the trace — a superset of \
          'rd2 check' on the same input.")
    Term.(
      ret
        (const run $ trace_file $ spec_arg $ format_arg $ jobs $ scan_limit
       $ max_attempts $ racedb $ verbose $ stats_flag))

(* ------------------------------------------------------------------ *)
(* shared workload runner                                              *)
(* ------------------------------------------------------------------ *)

let workload_names =
  [ "fig1"; "snitch" ]
  @ List.map Crd_workloads.Polepos.name Crd_workloads.Polepos.all

let run_fig1 seed sink =
  Sched.run ~seed ~sink (fun () ->
      let o = Monitored.Dict.create ~name:"dictionary:o" () in
      let hosts = [ "a.com"; "a.com"; "b.com"; "c.com" ] in
      List.iteri
        (fun i host ->
          ignore
            (Sched.fork (fun () ->
                 ignore
                   (Monitored.Dict.put o (Value.Str host) (Value.Ref (100 + i))))))
        hosts;
      Sched.join_all ();
      ignore (Monitored.Dict.size o))

(* Returns false for an unknown workload name. *)
let run_workload workload ~seed ~scale sink =
  if String.equal workload "fig1" then begin
    run_fig1 seed sink;
    true
  end
  else if String.equal workload "snitch" then begin
    ignore (Crd_workloads.Snitch.run ~seed ~sink ());
    true
  end
  else
    match Crd_workloads.Polepos.of_name workload with
    | Some c ->
        ignore (Crd_workloads.Polepos.run c ~seed ~scale ~sink ());
        true
    | None -> false

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let workloads = workload_names in
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            (Printf.sprintf "One of: %s." (String.concat ", " workloads)))
  in
  let seed =
    Arg.(
      value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")
  in
  let scale =
    Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Workload scale.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every race.")
  in
  let run workload seed scale verbose =
    let an = Analyzer.with_stdspecs ~collect:verbose () in
    let sink = Analyzer.step an in
    let ok = run_workload workload ~seed ~scale sink in
    if not ok then
      `Error (false, Printf.sprintf "unknown workload %s" workload)
    else begin
      Fmt.pr "%a@." Analyzer.pp_summary an;
      if verbose then print_races (Analyzer.rd2_races an);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "simulate" ~exits
       ~doc:"Run a built-in workload under the analyzer and report races.")
    Term.(ret (const run $ workload $ seed $ scale $ verbose))

(* ------------------------------------------------------------------ *)
(* record                                                              *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(
    value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

let scale_arg =
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Workload scale.")

let record_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:(Printf.sprintf "One of: %s." (String.concat ", " workload_names)))
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the trace here (default: stdout).")
  in
  let run workload seed scale output format =
    let trace = Trace.create () in
    if not (run_workload workload ~seed ~scale (Trace.append trace)) then
      `Error (false, Printf.sprintf "unknown workload %s" workload)
    else
      match write_trace format output trace with
      | Ok () -> `Ok ()
      | Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "record" ~exits
       ~doc:
         "Run a built-in workload and dump its event trace (replayable \
          with 'rd2 check' and streamable with 'rd2 send').")
    Term.(ret (const run $ workload $ seed_arg $ scale_arg $ output $ format_arg))

(* ------------------------------------------------------------------ *)
(* synth                                                               *)
(* ------------------------------------------------------------------ *)

let synth_cmd =
  let module Synth = Crd_workloads.Synth in
  let events =
    Arg.(
      value & opt int 1_000_000
      & info [ "n"; "events" ] ~docv:"N"
          ~doc:"Exact number of events to generate (including forks/joins).")
  in
  let threads =
    Arg.(
      value & opt int 8
      & info [ "threads" ] ~docv:"N" ~doc:"Worker threads forked by main.")
  in
  let objects =
    Arg.(
      value & opt int 1024
      & info [ "objects" ] ~docv:"N" ~doc:"Number of shared objects.")
  in
  let skew =
    let skew_conv =
      Arg.conv
        ( (fun s ->
            match Synth.skew_of_string s with
            | Ok sk -> Ok sk
            | Error e -> Error (`Msg e)),
          fun ppf sk -> Fmt.string ppf (Synth.skew_to_string sk) )
    in
    Arg.(
      value
      & opt skew_conv (Synth.Zipf 0.9)
      & info [ "skew" ] ~docv:"SKEW"
          ~doc:
            "Contention skew over objects: uniform, or zipf:THETA (rank 0 \
             hottest; default zipf:0.9).")
  in
  let mix =
    let mix_conv =
      Arg.conv
        ( (fun s ->
            match Synth.mix_of_string s with
            | Ok m -> Ok m
            | Error e -> Error (`Msg e)),
          fun ppf m -> Fmt.string ppf (Synth.mix_to_string m) )
    in
    Arg.(
      value
      & opt mix_conv Synth.default_mix
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            (Printf.sprintf
               "Specification mix as NAME=WEIGHT,... over %s (default %s)."
               (String.concat ", " Synth.known_specs)
               (Synth.mix_to_string Synth.default_mix)))
  in
  let sync_period =
    Arg.(
      value & opt int 64
      & info [ "sync-period" ] ~docv:"N"
          ~doc:"On average one in $(docv) operations runs under a lock.")
  in
  let key_space =
    Arg.(
      value & opt int 16
      & info [ "key-space" ] ~docv:"N"
          ~doc:"Distinct keys per keyed object.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the trace here (default: stdout).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Instead of writing the trace, analyze it in-process (RD2 + \
             FastTrack with the built-in specifications) and print the \
             summary.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Shard the --check analysis over $(docv) domains.")
  in
  let run events threads objects skew mix sync_period key_space seed output
      format check jobs =
    let config =
      {
        Synth.threads;
        objects;
        events;
        skew;
        mix;
        sync_period;
        key_space;
      }
    in
    if check then begin
      Fmt.epr "synth: %a@." Synth.pp_config config;
      let an =
        Analyzer.with_stdspecs ~jobs ~collect:false
          ~config:
            {
              Analyzer.rd2 = `Constant;
              direct = false;
              fasttrack = true;
              djit = false;
              atomicity = false;
            }
          ()
      in
      match
        Synth.iter ~seed config ~f:(Analyzer.step an);
        Analyzer.finish an
      with
      | res ->
          Fmt.pr "%a@." Analyzer.pp_result res;
          `Ok ()
      | exception Invalid_argument e -> `Error (false, e)
    end
    else
      match
        (try Ok (Synth.generate ~seed config)
         with Invalid_argument e -> Error e)
      with
      | Error e -> `Error (false, e)
      | Ok trace -> (
          match write_trace format output trace with
          | Ok () -> `Ok ()
          | Error e -> `Error (false, e))
  in
  Cmd.v
    (Cmd.info "synth" ~exits
       ~doc:
         "Generate a deterministic synthetic trace (multi-million events, \
          controllable thread count, contention skew and spec mix) for \
          parallel-analysis benchmarking; dump it, or --check it in \
          process.")
    Term.(
      ret
        (const run $ events $ threads $ objects $ skew $ mix $ sync_period
       $ key_space $ seed_arg $ output $ format_arg $ check $ jobs))

(* ------------------------------------------------------------------ *)
(* explore                                                             *)
(* ------------------------------------------------------------------ *)

let explore_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:(Printf.sprintf "One of: %s." (String.concat ", " workload_names)))
  in
  let seeds =
    Arg.(
      value & opt int 10
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of schedules to explore.")
  in
  let scale = scale_arg in
  let run workload seeds scale =
    (* Aggregate distinct races across schedules, folded by the same
       canonical fingerprint the race database uses. *)
    let seen : (int64, unit) Hashtbl.t = Hashtbl.create 64 in
    let new_per_seed = ref [] in
    let ok = ref true in
    for seed = 1 to seeds do
      if !ok then begin
        let an = Analyzer.with_stdspecs ~collect:false () in
        if not (run_workload workload ~seed:(Int64.of_int seed) ~scale
                  (Analyzer.step an))
        then ok := false
        else begin
          let fresh = ref 0 in
          Array.iter
            (fun key ->
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                incr fresh
              end)
            (Analyzer.finish an).rd2_distinct;
          new_per_seed := (seed, !fresh) :: !new_per_seed
        end
      end
    done;
    if not !ok then `Error (false, Printf.sprintf "unknown workload %s" workload)
    else begin
      Fmt.pr "%6s %18s %20s@." "seed" "new race patterns" "cumulative distinct";
      let total = ref 0 in
      List.iter
        (fun (seed, fresh) ->
          total := !total + fresh;
          Fmt.pr "%6d %18d %20d@." seed fresh !total)
        (List.rev !new_per_seed);
      Fmt.pr "@.%d distinct race pattern(s) across %d schedule(s)@."
        (Hashtbl.length seen) seeds;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "explore" ~exits
       ~doc:
         "Run a workload under many scheduler seeds and aggregate the \
          distinct commutativity-race patterns discovered.")
    Term.(ret (const run $ workload $ seeds $ scale))

(* ------------------------------------------------------------------ *)
(* table2                                                              *)
(* ------------------------------------------------------------------ *)

let table2_cmd =
  let seed =
    Arg.(
      value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")
  in
  let scale =
    Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Workload scale.")
  in
  let repeats =
    Arg.(
      value & opt int 3
      & info [ "repeats" ] ~docv:"N"
          ~doc:"Timing repetitions (best-of-N wall clock).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Shard the FASTTRACK and RD2 analyses over $(docv) domains as \
             the workloads run. Race counts are identical by construction.")
  in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"DIR"
          ~doc:
            "Instead of timing, record every Table 2 workload trace into \
             $(docv) (in the --format encoding) for later 'rd2 check' / \
             'rd2 send' replay.")
  in
  let run seed scale repeats jobs dump format =
    match dump with
    | None ->
        let t = Crd_workloads.Table2.collect ~seed ~scale ~repeats ~jobs () in
        Fmt.pr "%a@." Crd_workloads.Table2.print t;
        `Ok ()
    | Some dir -> (
        let names =
          List.map Crd_workloads.Polepos.name Crd_workloads.Polepos.all
          @ [ "snitch" ]
        in
        try
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          List.iter
            (fun name ->
              let trace = Trace.create () in
              ignore (run_workload name ~seed ~scale (Trace.append trace));
              let ext = match format with `Text -> "trace" | `Bin -> "ctrace" in
              let path = Filename.concat dir (name ^ "." ^ ext) in
              (match write_trace format (Some path) trace with
              | Ok () -> ()
              | Error e -> failwith e);
              Fmt.pr "%s: %d events@." path (Trace.length trace))
            names;
          `Ok ()
        with Sys_error e | Failure e -> `Error (false, e))
  in
  Cmd.v
    (Cmd.info "table2" ~exits
       ~doc:
         "Reproduce the paper's Table 2 (or, with --dump, record its \
          workload traces to disk).")
    Term.(ret (const run $ seed $ scale $ repeats $ jobs $ dump $ format_arg))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Session-carrying domains (default: one per recommended \
             analysis job).")
  in
  let idle =
    Arg.(
      value & opt float 30.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Drop a session after this long without client bytes \
             (0 disables).")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "s"; "spec" ] ~docv:"SPEC"
          ~doc:
            "Specification file offered to clients as the 'custom' \
             handshake set.")
  in
  let direct =
    Arg.(
      value & flag
      & info [ "direct" ]
          ~doc:"Also run the naive specification-level detector per session.")
  in
  let fasttrack =
    Arg.(
      value & flag
      & info [ "fasttrack" ] ~doc:"Also run FastTrack per session.")
  in
  let atomicity =
    Arg.(
      value & flag
      & info [ "atomicity" ] ~doc:"Also run the atomicity checker per session.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Shard each session's analysis over $(docv) domains as its \
             events arrive (identical reports).")
  in
  let metrics =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "metrics" ] ~docv:"ADDR"
          ~doc:
            "Expose the metrics registry on this address (unix:PATH or \
             tcp:HOST:PORT): every connection receives one Prometheus-style \
             text dump.")
  in
  let log_level =
    let level_conv =
      Arg.conv
        ( (fun s ->
            match Crd_obs.Log.level_of_string s with
            | Ok l -> Ok l
            | Error e -> Error (`Msg e)),
          fun ppf l ->
            Fmt.string ppf
              (match l with
              | None -> "off"
              | Some Crd_obs.Log.Error -> "error"
              | Some Crd_obs.Log.Warn -> "warn"
              | Some Crd_obs.Log.Info -> "info"
              | Some Crd_obs.Log.Debug -> "debug") )
    in
    Arg.(
      value
      & opt level_conv None
      & info [ "log" ] ~docv:"LEVEL"
          ~doc:
            "Structured logging to stderr at this level (off, error, warn, \
             info, debug). Default: off.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection, e.g. \
             'seed=42,sock_read=p:0.01,worker_body=once' (see Crd_fault; \
             overrides the CRD_FAULTS environment variable).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Crash-safe session journals: raw CRDW bytes per session plus \
             an fsync'd commit marker. On startup, committed-but-unreported \
             journals from a previous (crashed) process are replayed.")
  in
  let backlog =
    Arg.(
      value & opt int 0
      & info [ "backlog" ] ~docv:"N"
          ~doc:
            "Overload shedding: with all workers busy and $(docv) \
             connections already pending, reply BUSY instead of queueing \
             (0 disables, the default).")
  in
  let retry_after =
    Arg.(
      value & opt int 200
      & info [ "retry-after" ] ~docv:"MS"
          ~doc:"Retry hint (milliseconds) sent with BUSY replies.")
  in
  let resync =
    Arg.(
      value & flag
      & info [ "resync" ]
          ~doc:
            "Resynchronizing decode: skip corrupt frames (scanning to the \
             next valid frame boundary) instead of failing the session.")
  in
  let racedb =
    Arg.(
      value
      & opt (some string) None
      & info [ "racedb" ] ~docv:"DIR"
          ~doc:
            "Publish every session's verdict into the crash-safe race \
             database at $(docv) (created if missing); query it with \
             'rd2 query'.")
  in
  let peers =
    Arg.(
      value
      & opt_all (list addr_conv) []
      & info [ "peers" ] ~docv:"ADDRS"
          ~doc:
            "Comma-separated peer servers (unix:PATH or tcp:HOST:PORT) to \
             anti-entropy the race database with; repeatable. Requires \
             $(b,--racedb). Each tick runs one CRDT sync exchange against \
             the next peer, with jitter and per-peer backoff.")
  in
  let sync_interval =
    Arg.(
      value & opt float 30.
      & info [ "sync-interval" ] ~docv:"SECONDS"
          ~doc:"Target seconds for one full sync round over all peers.")
  in
  let bytes_conv =
    (* 64m, 2g, 512k, or plain bytes. *)
    let parse s =
      let fail () = Error (`Msg (Printf.sprintf "bad byte count %S" s)) in
      if s = "" then fail ()
      else
        let n = String.length s in
        let unit, digits =
          match Char.lowercase_ascii s.[n - 1] with
          | 'k' -> (1024, String.sub s 0 (n - 1))
          | 'm' -> (1024 * 1024, String.sub s 0 (n - 1))
          | 'g' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
          | _ -> (1, s)
        in
        match int_of_string_opt digits with
        | Some v when v >= 0 -> Ok (v * unit)
        | _ -> fail ()
    in
    Arg.conv (parse, fun ppf v -> Fmt.pf ppf "%d" v)
  in
  let memory_budget =
    Arg.(
      value & opt bytes_conv 0
      & info [ "memory-budget" ] ~docv:"BYTES"
          ~doc:
            "Degradation ladder: accounted-memory bytes (suffixes k/m/g) \
             past which new connections are shed with BUSY. Queue pressure \
             alone never sheds — it spills (see $(b,--spill-watermark)). \
             0 disables (the default).")
  in
  let spill_watermark =
    Arg.(
      value & opt int 0
      & info [ "spill-watermark" ] ~docv:"N"
          ~doc:
            "Degradation ladder: with all workers busy and $(docv) sessions \
             already pending, new sessions are acked and journaled at \
             decoder speed (no online analysis) and replayed by a \
             background catch-up drainer. Requires $(b,--journal). \
             0 disables (the default).")
  in
  let stall_timeout =
    Arg.(
      value & opt float 0.
      & info [ "stall-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Watchdog: recycle a worker making no read progress for \
             $(docv) seconds; its session gets a retryable ERR. Should \
             exceed $(b,--idle-timeout). 0 disables (the default).")
  in
  let run addr workers idle spec_file direct fasttrack atomicity jobs
      metrics log_level faults journal backlog retry_after resync racedb peers
      sync_interval memory_budget spill_watermark stall_timeout =
    Crd_obs.Log.set_level log_level;
    let ( let* ) r f = match r with Error e -> `Error (false, e) | Ok v -> f v in
    let* () =
      match faults with
      | Some spec -> Crd_fault.configure spec
      | None -> Crd_fault.configure_env ()
    in
    let* specs =
      match spec_file with
      | None -> Ok None
      | Some f -> Result.map Option.some (Spec_parser.parse_file f)
    in
    let default = Crd_server.Server.default_config ~addr in
    let config =
      {
        default with
        Crd_server.Server.workers =
          (if workers > 0 then workers else default.Crd_server.Server.workers);
        idle_timeout = idle;
        analyzer =
          { default.Crd_server.Server.analyzer with direct; fasttrack; atomicity };
        jobs;
        specs;
        metrics_addr = metrics;
        shed_backlog = backlog;
        retry_after_ms = retry_after;
        journal;
        resync;
        racedb;
        peers = List.concat peers;
        sync_interval;
        memory_budget;
        spill_watermark;
        stall_timeout;
      }
    in
    Fmt.epr "rd2 serve: listening on %a@." Crd_server.Server.pp_addr addr;
    (match metrics with
    | Some a -> Fmt.epr "rd2 serve: metrics on %a@." Crd_server.Server.pp_addr a
    | None -> ());
    if Crd_fault.active () then
      Fmt.epr "rd2 serve: fault injection active (seed %Ld)@."
        (Crd_fault.seed ());
    let* st = Crd_server.Server.serve config in
    Fmt.pr
      "sessions %d  events %d  races %d  errors %d  accept_errors %d  busy %d \
       \ worker_crashes %d  recovered %d  spilled %d  caught_up %d  stalls %d@."
      st.Crd_server.Server.sessions st.Crd_server.Server.events
      st.Crd_server.Server.races st.Crd_server.Server.errors
      st.Crd_server.Server.accept_errors st.Crd_server.Server.busy
      st.Crd_server.Server.worker_crashes st.Crd_server.Server.recovered
      st.Crd_server.Server.spilled st.Crd_server.Server.caught_up
      st.Crd_server.Server.stalls;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the streaming ingestion service: every connection is an \
          online RD2 session over the binary wire codec. SIGTERM/SIGINT \
          drain gracefully.")
    Term.(
      ret
        (const run $ addr_arg $ workers $ idle $ spec_arg $ direct
       $ fasttrack $ atomicity $ jobs $ metrics $ log_level $ faults
       $ journal $ backlog $ retry_after $ resync $ racedb $ peers
       $ sync_interval $ memory_budget $ spill_watermark $ stall_timeout))

(* ------------------------------------------------------------------ *)
(* send                                                                *)
(* ------------------------------------------------------------------ *)

let send_cmd =
  let trace_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file to stream.")
  in
  let spec_name =
    Arg.(
      value & opt string "std"
      & info [ "spec-name" ] ~docv:"NAME"
          ~doc:
            "Handshake specification set: std (built-ins) or custom (the \
             server's --spec file).")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry transient failures (refused connections, BUSY replies, \
             lost reports, server worker crashes) up to $(docv) times, \
             restreaming the trace from frame 0 each attempt.")
  in
  let backoff =
    Arg.(
      value & opt float 0.1
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:
            "Initial retry delay; doubles per attempt with +/-50% jitter. \
             A BUSY reply's retry-after hint takes precedence when larger.")
  in
  let timeout =
    Arg.(
      value & opt float 0.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Socket read/write timeout per attempt (0 disables).")
  in
  let nonce =
    Arg.(
      value
      & opt (some string) None
      & info [ "nonce" ] ~docv:"NONCE"
          ~doc:
            "Session nonce ([A-Za-z0-9_-], max 64 bytes) naming the logical \
             session across retries; autogenerated when --retries > 0.")
  in
  let run trace_file addr spec_name format retries backoff timeout nonce =
    match
      Crd_server.Client.send_file ~addr ~spec:spec_name ~retries ~backoff
        ~timeout ?nonce ~format trace_file
    with
    | Ok reply ->
        print_string reply;
        `Ok ()
    | Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "send" ~exits
       ~doc:
         "Stream a trace file to a running 'rd2 serve' and print the \
          server's race report.")
    Term.(
      ret
        (const run $ trace_file $ addr_arg $ spec_name $ format_arg $ retries
       $ backoff $ timeout $ nonce))

(* ------------------------------------------------------------------ *)
(* query / db — the race database                                      *)
(* ------------------------------------------------------------------ *)

let racedb_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Race database directory.")

let iso8601 ts =
  if ts <= 0. then "-"
  else
    let tm = Unix.gmtime ts in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let query_cmd =
  let duration_conv =
    let parse s =
      let fail () =
        Error (`Msg (Printf.sprintf "invalid duration %S (try 90, 10m, 2h, 1d)" s))
      in
      if String.length s = 0 then fail ()
      else
        let unit, body =
          match s.[String.length s - 1] with
          | 's' -> (1., String.sub s 0 (String.length s - 1))
          | 'm' -> (60., String.sub s 0 (String.length s - 1))
          | 'h' -> (3600., String.sub s 0 (String.length s - 1))
          | 'd' -> (86400., String.sub s 0 (String.length s - 1))
          | _ -> (1., s)
        in
        match float_of_string_opt body with
        | Some v when v >= 0. -> Ok (v *. unit)
        | _ -> fail ()
    in
    Arg.conv (parse, fun ppf d -> Fmt.pf ppf "%gs" d)
  in
  let top =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"N" ~doc:"Keep only the $(docv) most frequent races.")
  in
  let since =
    Arg.(
      value
      & opt (some duration_conv) None
      & info [ "since" ] ~docv:"DURATION"
          ~doc:
            "Keep races last seen within this long ago (seconds, or with an \
             s/m/h/d suffix).")
  in
  let obj =
    Arg.(
      value
      & opt (some string) None
      & info [ "obj" ] ~docv:"NAME" ~doc:"Keep races on this object (exact name).")
  in
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"NAME"
          ~doc:"Keep races recorded under this specification set.")
  in
  let provenance =
    Arg.(
      value
      & opt
          (enum
             [
               ("any", None);
               ("witnessed", Some Crd_racedb.Provenance.Witnessed);
               ("predicted", Some Crd_racedb.Provenance.Predicted);
             ])
          None
      & info [ "provenance" ] ~docv:"PROV"
          ~doc:
            "Keep races with this provenance: witnessed (observed in a \
             recorded interleaving), predicted (so far only realized by a \
             sound reordering — 'rd2 predict'), or any (default).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable output: one JSON array of entries.")
  in
  let run dir top since obj spec provenance json =
    match Crd_racedb.Db.load dir with
    | Error e -> `Error (false, e)
    | Ok view ->
        let now = Unix.gettimeofday () in
        let since = Option.map (fun d -> now -. d) since in
        let entries =
          Crd_racedb.Db.select ?top ?since ?obj ?spec ?provenance
            view.Crd_racedb.Db.v_entries
        in
        if json then begin
          let buckets r =
            Crd_racedb.Rollup.to_list r
            |> List.map (fun (t, c) -> Printf.sprintf "[%.0f,%d]" t c)
            |> String.concat ","
          in
          let vv_json vv =
            Crd_racedb.Vv.to_list vv
            |> List.map (fun (n, v) ->
                   Printf.sprintf "\"%s\":%d" (json_escape n) v)
            |> String.concat ","
          in
          let entry_json (e : Crd_racedb.Entry.t) =
            let r = e.Crd_racedb.Entry.sample.Crd_racedb.Record.report in
            Printf.sprintf
              "{\"fingerprint\":\"%016Lx\",\"count\":%d,\
               \"provenance\":\"%s\",\
               \"node_counts\":{%s},\"version\":{%s},\"first_seen\":%.6f,\
               \"last_seen\":%.6f,\"spec\":\"%s\",\"obj\":\"%s\",\
               \"point\":\"%s\",\"conflicting\":\"%s\",\"prior\":%b,\
               \"minutes\":[%s],\"hours\":[%s],\"days\":[%s]}"
              e.Crd_racedb.Entry.fingerprint
              (Crd_racedb.Entry.count e)
              (Crd_racedb.Provenance.to_string e.Crd_racedb.Entry.provenance)
              (vv_json e.Crd_racedb.Entry.counts)
              (vv_json e.Crd_racedb.Entry.ver)
              e.Crd_racedb.Entry.first_seen e.Crd_racedb.Entry.last_seen
              (json_escape e.Crd_racedb.Entry.sample.Crd_racedb.Record.spec)
              (json_escape (Obj_id.name r.Report.obj))
              (json_escape r.Report.point)
              (json_escape r.Report.conflicting)
              (Option.is_some r.Report.prior)
              (buckets e.Crd_racedb.Entry.minutes)
              (buckets e.Crd_racedb.Entry.hours)
              (buckets e.Crd_racedb.Entry.days)
          in
          print_string
            ("[" ^ String.concat "," (List.map entry_json entries) ^ "]\n");
          `Ok ()
        end
        else begin
          Fmt.pr "%a@." Crd_racedb.Db.pp_stats view.Crd_racedb.Db.v_stats;
          List.iter
            (fun (e : Crd_racedb.Entry.t) ->
              Fmt.pr
                "%016Lx  %-9s count=%-6d 1h=%-5d 24h=%-5d first=%s  last=%s@."
                e.Crd_racedb.Entry.fingerprint
                (Crd_racedb.Provenance.to_string e.Crd_racedb.Entry.provenance)
                (Crd_racedb.Entry.count e)
                (Crd_racedb.Rollup.total_since e.Crd_racedb.Entry.minutes
                   (now -. 3600.))
                (Crd_racedb.Rollup.total_since e.Crd_racedb.Entry.hours
                   (now -. 86400.))
                (iso8601 e.Crd_racedb.Entry.first_seen)
                (iso8601 e.Crd_racedb.Entry.last_seen);
              Fmt.pr "    %a@." Crd_racedb.Record.pp e.Crd_racedb.Entry.sample)
            entries;
          `Ok ()
        end
  in
  Cmd.v
    (Cmd.info "query" ~exits
       ~doc:
         "Query a race database produced by 'rd2 serve --racedb': distinct \
          races with occurrence counts, time-bucketed rollups and a sample \
          report each.")
    Term.(
      ret
        (const run $ racedb_dir_arg $ top $ since $ obj $ spec $ provenance
       $ json))

let db_cmd =
  let compact =
    let run dir =
      (* honor CRD_FAULTS so crash windows are scriptable, as in serve *)
      match Crd_fault.configure_env () with
      | Error e -> `Error (false, e)
      | Ok () -> (
      match Crd_racedb.Db.open_db dir with
      | Error e -> `Error (false, e)
      | Ok db -> (
          match Crd_racedb.Db.compact db with
          | Ok distinct ->
              Crd_racedb.Db.close db;
              Fmt.pr "compacted: %d distinct race(s)@." distinct;
              `Ok ()
          | Error e ->
              Crd_racedb.Db.close db;
              `Error (false, e)))
    in
    Cmd.v
      (Cmd.info "compact" ~exits
         ~doc:
           "Fold every segment into the dedup index and delete the folded \
            segments (requires the writer lock: stop the server first).")
      Term.(ret (const run $ racedb_dir_arg))
  in
  let stats =
    let run dir =
      match Crd_racedb.Db.load dir with
      | Error e -> `Error (false, e)
      | Ok view ->
          Fmt.pr "%a@." Crd_racedb.Db.pp_stats view.Crd_racedb.Db.v_stats;
          (if view.Crd_racedb.Db.v_node <> "" then
             Fmt.pr "node %s  version %a@." view.Crd_racedb.Db.v_node
               Crd_racedb.Vv.pp view.Crd_racedb.Db.v_version);
          `Ok ()
    in
    Cmd.v
      (Cmd.info "stats" ~exits
         ~doc:"Print store-level statistics (read-only, lock-free).")
      Term.(ret (const run $ racedb_dir_arg))
  in
  Cmd.group
    (Cmd.info "db" ~exits ~doc:"Race database maintenance.")
    [ compact; stats ]

(* ------------------------------------------------------------------ *)
(* sync — one-shot anti-entropy exchange                               *)
(* ------------------------------------------------------------------ *)

let sync_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some addr_conv) None
      & info [] ~docv:"ADDR"
          ~doc:"Peer server to exchange with (unix:PATH or tcp:HOST:PORT).")
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "racedb" ] ~docv:"DIR"
          ~doc:"Local race database to sync (takes the writer lock).")
  in
  let timeout =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Socket read/write timeout (0 disables).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Whole-exchange deadline: fail the sync after $(docv) seconds \
             of wall clock even if the peer keeps trickling bytes \
             (default 10x the timeout, 0 disables).")
  in
  let run addr dir timeout deadline =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    match Crd_fault.configure_env () with
    | Error e -> `Error (false, e)
    | Ok () -> (
        match Crd_racedb.Db.open_db dir with
        | Error e -> `Error (false, e)
        | Ok db ->
            let res =
              match
                Crd_fault.inject Crd_sync.fp_connect;
                Crd_server.Server.connect addr
              with
              | exception Crd_fault.Injected p ->
                  Error ("fault injected: " ^ p)
              | exception Failure m -> Error m
              | exception Unix.Unix_error (e, fn, _) ->
                  Error (Printf.sprintf "%s(%s)" (Unix.error_message e) fn)
              | fd ->
                  Fun.protect
                    ~finally:(fun () ->
                      try Unix.close fd with Unix.Unix_error _ -> ())
                    (fun () -> Crd_sync.client ~timeout ?deadline fd db)
            in
            Crd_racedb.Db.close db;
            (match res with
            | Ok s ->
                Fmt.pr "%a@." Crd_sync.pp_summary s;
                `Ok ()
            | Error e -> `Error (false, "sync: " ^ e)))
  in
  Cmd.v
    (Cmd.info "sync" ~exits
       ~doc:
         "Run one CRDT anti-entropy exchange between a local race database \
          and a running server: both sides end up with the union of their \
          entries. Idempotent — re-running against a converged pair \
          transfers nothing.")
    Term.(ret (const run $ addr $ dir $ timeout $ deadline))

(* ------------------------------------------------------------------ *)
(* health — one-line server summary                                    *)
(* ------------------------------------------------------------------ *)

let health_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some addr_conv) None
      & info [] ~docv:"ADDR"
          ~doc:"Server to probe (unix:PATH or tcp:HOST:PORT).")
  in
  let timeout =
    Arg.(
      value & opt float 5.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Socket read/write timeout (0 disables).")
  in
  let run addr timeout =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    match Crd_server.Server.connect addr with
    | exception Failure m -> `Error (false, m)
    | exception Unix.Unix_error (e, fn, _) ->
        `Error (false, Printf.sprintf "%s(%s)" (Unix.error_message e) fn)
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            if timeout > 0. then begin
              (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
               with Unix.Unix_error _ | Invalid_argument _ -> ());
              try Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
              with Unix.Unix_error _ | Invalid_argument _ -> ()
            end;
            match
              Crd_server.Proto.write_all fd "HEALTH\n";
              Crd_server.Proto.read_to_eof fd
            with
            | exception Unix.Unix_error (e, fn, _) ->
                `Error (false, Printf.sprintf "%s(%s)" (Unix.error_message e) fn)
            | "" -> `Error (false, "server closed the connection without a reply")
            | reply when reply.[0] = '\x02' ->
                (* A shedding server answers admission itself: the BUSY
                   preamble byte arrives before the probe is even read. *)
                Fmt.pr "HEALTH tier=shed (server is shedding: BUSY)@.";
                `Ok ()
            | reply ->
                Fmt.pr "%s" reply;
                if String.length reply > 0 && reply.[String.length reply - 1] <> '\n'
                then Fmt.pr "@.";
                `Ok ())
  in
  Cmd.v
    (Cmd.info "health" ~exits
       ~doc:
         "Print a running server's one-line health summary: admission tier, \
          active/pending sessions, spill backlog, accounted memory against \
          the budget, and watchdog stalls.")
    Term.(ret (const run $ addr $ timeout))

(* ------------------------------------------------------------------ *)

let main =
  Cmd.group
    (Cmd.info "rd2" ~version:"1.0.0" ~exits
       ~doc:"Dynamic commutativity race detection (PLDI 2014 reproduction).")
    [
      specs_cmd; translate_cmd; check_cmd; predict_cmd; simulate_cmd;
      record_cmd; synth_cmd; explore_cmd; table2_cmd; serve_cmd; send_cmd;
      query_cmd; db_cmd; sync_cmd; health_cmd;
    ]

let () = exit (Cmd.eval main)
