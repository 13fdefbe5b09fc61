(* The identity harness. RD2's race set is a function of the trace alone
   (Theorem 5.1), so every path that analyzes a trace must report the
   races of the offline engine. Each corpus trace gets one reference —
   the engine at jobs 1, as race lines and distinct fingerprints — and
   every path below is held to it:

   - the engine at jobs 2 and 4, collecting and fold-only;
   - `rd2 check --format bin -v --fingerprints` at -j 1 and -j 2;
   - a server session at jobs 1, and at jobs 2 (journaled) under an
     io_eintr storm;
   - the race database the jobs-1 server published into;
   - a spilled session's [.report] after catch-up;
   - committed-but-unreported journals replayed on restart;
   - [Predict], in process and through `rd2 predict --racedb`: every
     reference race is predicted, and the witnessed part is the
     reference.

   A row of [rows] starts what it needs once — one server serves the
   jobs-1 sessions, the replay, the spill and the race database — runs
   the whole corpus through it, and reports what each of its paths saw
   of each trace. *)

open Crd
open Sessions
module Proto = Crd_server.Proto
module Journal = Crd_server.Journal

type case = {
  name : string;
  trace : Trace.t;
  races : Report.t list;  (* the reference *)
  lines : string list;
  fps : int64 array;  (* sorted by [Int64.unsigned_compare] *)
}

(* A parent that works on every object before it forks and after it
   joins: each object's puts are ordered only by the fork and join
   edges, which every shard must see. The children race on key "c". *)
let fork_join_trace () =
  let objects = 6 in
  let buf = Buffer.create 2048 in
  let put t o k v prev =
    Printf.bprintf buf "T%d call \"dictionary:o%d\".put(\"%s\", @%d) / %s\n" t o
      k v prev
  in
  for o = 0 to objects - 1 do
    put 0 o "a" 1 "nil"
  done;
  Buffer.add_string buf "T0 fork T1\nT0 fork T2\n";
  for o = 0 to objects - 1 do
    put 1 o "a" 2 "@1";
    put 1 o "c" 3 "nil";
    put 2 o "c" 4 "@3"
  done;
  Buffer.add_string buf "T0 join T1\nT0 join T2\n";
  for o = 0 to objects - 1 do
    put 0 o "a" 5 "@2"
  done;
  match Trace_text.parse (Buffer.contents buf) with
  | Ok t -> t
  | Error e -> Alcotest.failf "fork-join trace: %s" e

let reference name trace =
  let races = offline_races trace in
  {
    name;
    trace;
    races;
    lines = race_lines races;
    fps = Report.distinct_fingerprints races;
  }

(* A fixed draw of small random traces, the snitch workload, a seed-7
   synthetic trace, and the fork/join probe. *)
let corpus =
  lazy
    (let rand = Random.State.make [| 27 |] in
     let drawn =
       QCheck2.Gen.generate ~rand ~n:3
         (Generators.dict_trace ~threads:4 ~objects:3 ~len:300)
     in
     List.mapi (fun i t -> reference (Printf.sprintf "dict-%d" i) t) drawn
     @ [
         reference "snitch" (snitch_trace ());
         reference "synth-7" (W.Synth.generate ~seed:7L (W.Synth.default ~events:8_000));
         reference "fork-join" (fork_join_trace ());
       ])

(* What a path saw of a trace. [Fold] is of the whole corpus: a race
   database folds every session into one. *)
type seen =
  | Lines of string list  (** the races, rendered, in trace order *)
  | Folded of int * int64 array  (** race count, distinct fingerprints *)
  | Fold of int * (int64 * int) list
      (** per-fingerprint counts, after [n] sessions of every trace *)
  | Predicted of int64 array * int64 array
      (** distinct fingerprints: witnessed, and every predicted race *)

let fps_of l = Array.of_list (List.sort_uniq Int64.unsigned_compare l)

(* Holds [got] to [want], naming the first line where they part. *)
let same_lines what want got =
  let rec go i = function
    | [], [] -> ()
    | w :: ws, g :: gs when String.equal w g -> go (i + 1) (ws, gs)
    | w, g ->
        let first = function [] -> "<end>" | l :: _ -> l in
        Alcotest.failf
          "%s: %d lines expected, %d seen; line %d differs:@.  want %s@.  seen %s"
          what (List.length want) (List.length got) i (first w) (first g)
  in
  go 0 (want, got)

let same_fps what want got =
  if want <> got then
    Alcotest.failf "%s: %d distinct fingerprints expected, %d seen" what
      (Array.length want) (Array.length got)

let agree cases (path, trace, seen) =
  let what = Printf.sprintf "%s, %s" path trace in
  let case () =
    match List.find_opt (fun c -> c.name = trace) cases with
    | Some c -> c
    | None -> Alcotest.failf "%s: no such trace" what
  in
  match seen with
  | Lines l -> same_lines what (case ()).lines l
  | Folded (n, fps) ->
      let c = case () in
      Alcotest.(check int) (what ^ ": races") (List.length c.races) n;
      same_fps what c.fps fps
  | Fold (n, f) ->
      Alcotest.(check (list (pair int64 int)))
        (what ^ ": fold")
        (List.map
           (fun (fp, k) -> (fp, n * k))
           (fingerprint_fold (List.concat_map (fun c -> c.races) cases)))
        f
  | Predicted (witnessed, all) ->
      let c = case () in
      same_fps (what ^ ", witnessed") c.fps witnessed;
      Array.iter
        (fun fp ->
          if not (Array.mem fp all) then
            Alcotest.failf "%s: reference race %016Lx not predicted" what fp)
        c.fps

(* --- the rows ------------------------------------------------------- *)

let engine cases =
  List.concat_map
    (fun (jobs, collect) ->
      let path =
        Printf.sprintf "engine jobs %d%s" jobs (if collect then "" else " fold-only")
      in
      List.concat_map
        (fun c ->
          let an =
            Result.get_ok
              (Analyzer.create
                 ~config:{ Analyzer.default_config with fasttrack = false }
                 ~jobs ~collect ~spec_for:Stdspecs.spec_for ())
          in
          Analyzer.run_trace an c.trace;
          let r = Analyzer.finish an in
          let races =
            Option.fold ~none:0 ~some:(fun s -> s.Rd2.races) r.rd2_stats
          in
          (path, c.name, Folded (races, r.rd2_distinct))
          ::
          (if collect then [ (path, c.name, Lines (race_lines r.rd2_reports)) ]
           else []))
        cases)
    [ (2, true); (4, true); (2, false); (4, false) ]

let is_fingerprint l =
  String.length l = 16
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) l

let rd2_check cases =
  let dir = fresh_dir "crd-id-check" in
  let files =
    List.map
      (fun c ->
        let path = Filename.concat dir (c.name ^ ".crdw") in
        Result.get_ok (Wire.to_file path c.trace);
        (c, path))
      cases
  in
  List.concat_map
    (fun jobs ->
      let path = Printf.sprintf "rd2 check -j %d" jobs in
      List.concat_map
        (fun (c, file) ->
          let out =
            run_rd2
              [
                "check"; file; "--format"; "bin"; "-v"; "--fingerprints"; "-j";
                string_of_int jobs;
              ]
          in
          let lines = reply_race_lines out in
          let fps =
            String.split_on_char '\n' out
            |> List.filter is_fingerprint
            |> List.map (fun l -> Int64.of_string ("0x" ^ l))
            |> Array.of_list
          in
          [
            (path, c.name, Lines lines);
            (path, c.name, Folded (List.length lines, fps));
          ])
        files)
    [ 1; 2 ]

(* [fmt] scanned from just after the first [key] in [text]. *)
let scan_at what text key fmt k =
  let nt = String.length text and nk = String.length key in
  let rec at i =
    if i + nk > nt then Alcotest.failf "%s: no %S in %S" what key text
    else if String.sub text i nk = key then
      Scanf.sscanf (String.sub text (i + nk) (nt - i - nk)) fmt k
    else at (i + 1)
  in
  at 0

let sessions path ~addr cases =
  List.map
    (fun c ->
      let reply = send_exn ~addr c.trace in
      if not (String.starts_with ~prefix:"OK" reply) then
        Alcotest.failf "%s, %s: reply is not OK" path c.name;
      (path, c.name, Lines (reply_race_lines reply)))
    cases

(* The races of [<prefix>-<trace>.report]. *)
let report path dir prefix c =
  let file = Filename.concat dir (prefix ^ "-" ^ c.name ^ ".report") in
  (path, c.name, Lines (reply_race_lines (read_file file)))

(* Spills one session per trace: once the last session has left the
   lone worker, a first connection pins it, a second waits, and every
   later one is admitted on the spill tier while the worker is still
   held. Released, the worker acks each spilled session; the drainer
   catches them up into [.report]s. *)
let spill ~addr ~server cases =
  let spill0 = metric "overload_to_spill_total"
  and accepted0 = metric "server_accepted_total"
  and caught0 = (Server.stats server).Server.caught_up in
  poll "earlier sessions never finished" (fun () ->
      metric "server_sessions_active" = 0);
  let pin = Server.connect addr in
  (* every descriptor still open here is closed on the way out *)
  let held = ref [ pin ] in
  let connect () =
    let fd = Server.connect addr in
    held := fd :: !held;
    fd
  in
  Fun.protect
    ~finally:(fun () -> List.iter close_quietly !held)
    (fun () ->
      poll "worker never picked up the pin" (fun () ->
          metric "server_sessions_active" >= 1);
      let waiting = connect () in
      let conns = List.map (fun c -> (c, connect ())) cases in
      poll "not every connection admitted" (fun () ->
          metric "server_accepted_total" >= accepted0 + 2 + List.length cases);
      Alcotest.(check bool)
        "admitted on the spill tier" true
        (metric "overload_to_spill_total" > spill0);
      List.iter close_quietly [ pin; waiting ];
      held := List.map snd conns;
      List.iter
        (fun (c, fd) ->
          Proto.send_handshake fd ~nonce:("spill-" ^ c.name) ~spec:"std" ();
          Proto.write_all fd (Wire.encode_trace c.trace);
          (match Proto.read_handshake_reply fd with
          | Ok Proto.Accepted -> ()
          | Ok _ | Error _ -> Alcotest.failf "%s: handshake refused" c.name);
          let ack = Proto.read_to_eof fd in
          if not (contains ack "spilled=1") then
            Alcotest.failf "%s: not spilled: %s" c.name ack)
        conns);
  (* Caught up once `rd2 health` shows the backlog empty and every
     spilled session counted: the count moves after the [.report] is
     written, the backlog after the count. *)
  poll "catch-up never drained" (fun () ->
      let health = run_rd2 [ "health"; "unix:" ^ sock_path addr ] in
      let field key = scan_at "rd2 health" health (" " ^ key ^ "=") "%d" Fun.id in
      field "spill_backlog" = 0
      && field "caught_up" >= caught0 + List.length cases)

(* One server, one worker, spill watermark 1, a journal and a race
   database. Its journal directory starts with every trace committed
   but never answered, as a killed server leaves it: the start replays
   them. Then each trace is sent as a live session, then spilled. The
   race database holds three sessions of every trace. *)
let one_worker_server cases =
  let dir = fresh_dir "crd-id-journal" and dbdir = fresh_dir "crd-id-db" in
  List.iter
    (fun c ->
      let j = Journal.start ~dir ~nonce:("replay-" ^ c.name) ~spec:"std" in
      Journal.append j (Wire.encode_trace c.trace);
      Journal.commit j;
      Journal.close j)
    cases;
  let live =
    with_server
      ~f_config:(fun c ->
        {
          c with
          Server.workers = 1;
          spill_watermark = 1;
          journal = Some dir;
          racedb = Some dbdir;
        })
      (fun ~addr ~server ->
        Alcotest.(check int)
          "every journal recovered" (List.length cases)
          (Server.stats server).Server.recovered;
        let live = sessions "server jobs 1" ~addr cases in
        spill ~addr ~server cases;
        live)
  in
  List.concat
    [
      List.map (report "journal replay" dir "replay") cases;
      live;
      List.map (report "spill catch-up" dir "spill") cases;
      [ ("racedb", "corpus", Fold (3, db_fold dbdir)) ];
    ]

(* A signal landing mid-[read]/[write] once killed the session: the raw
   fd loops took [EINTR] for a hard error. Here [io_eintr] interrupts
   every third raw syscall on both sides of every connection —
   handshake, trace stream, journal append, reply — and the retries
   must leave each session's races those of a calm one. *)
let server_jobs2 cases =
  with_faults "seed=42,io_eintr=every:3" (fun () ->
      with_server
        ~f_config:(fun c ->
          { c with Server.jobs = 2; journal = Some (fresh_dir "crd-id-eintr") })
        (fun ~addr ~server:_ -> sessions "server jobs 2, EINTR storm" ~addr cases))

let predicted cases =
  List.concat_map
    (fun c ->
      let r = Result.get_ok (Predict.analyze_stdspecs c.trace) in
      let fps l = fps_of (List.map Report.fingerprint l) in
      [
        ("predict", c.name, Lines (race_lines r.Predict.witnessed));
        ( "predict",
          c.name,
          Predicted
            (fps r.Predict.witnessed, fps (r.Predict.witnessed @ r.Predict.predicted))
        );
      ])
    cases

(* `rd2 predict --racedb` on each trace, read back through the CLI. The
   summary line's witnessed distinct and predicted counts must be those
   of `rd2 query --provenance` and `rd2 db stats`; the queried entries
   are what the row holds to the reference. *)
let predict_racedb cases =
  let dir = fresh_dir "crd-id-predict" in
  List.map
    (fun c ->
      let file = Filename.concat dir (c.name ^ ".crdw") in
      let db = Filename.concat dir (c.name ^ ".db") in
      Result.get_ok (Wire.to_file file c.trace);
      let summary = run_rd2 [ "predict"; file; "--format"; "bin"; "--racedb"; db ] in
      let query prov =
        fps_of
          (json_fingerprints
             (run_rd2 [ "query"; db; "--provenance"; prov; "--json" ]))
      in
      let witnessed = query "witnessed" and predicted = query "predicted" in
      let all = query "any" in
      let stats = run_rd2 [ "db"; "stats"; db ] in
      let check what want got = Alcotest.(check int) (c.name ^ ": " ^ what) want got in
      scan_at c.name summary "witnessed " "%_d (%d distinct)"
        (check "predict summary distinct = queried witnessed"
           (Array.length witnessed));
      scan_at c.name summary "predicted +" "%d"
        (check "predict summary predicted = queried predicted"
           (Array.length predicted));
      scan_at c.name stats "distinct: " "%d"
        (check "db stats distinct = queried witnessed" (Array.length witnessed));
      scan_at c.name stats "predicted: " "%d"
        (check "db stats predicted = queried predicted" (Array.length predicted));
      same_fps (c.name ^ ": query any = witnessed + predicted")
        (fps_of (Array.to_list witnessed @ Array.to_list predicted))
        all;
      ("rd2 predict --racedb", c.name, Predicted (witnessed, all)))
    cases

let rows =
  [
    ("engine jobs 2 and 4, collecting and fold-only", engine);
    ("rd2 check -j 1 and -j 2", rd2_check);
    ("server jobs 1, journal replay, spill catch-up, racedb", one_worker_server);
    ("server jobs 2, EINTR storm", server_jobs2);
    ("predict", predicted);
    ("rd2 predict --racedb", predict_racedb);
  ]

let suite =
  ( "identity",
    Alcotest.test_case "every corpus trace races" `Quick (fun () ->
        List.iter
          (fun c -> if c.races = [] then Alcotest.failf "%s: no races" c.name)
          (Lazy.force corpus))
    :: List.map
         (fun (name, run) ->
           Alcotest.test_case name `Quick (fun () ->
               let cases = Lazy.force corpus in
               List.iter (agree cases) (run cases)))
         rows )
