(* crdbench — end-to-end benchmark of the two things users run:
   offline `rd2 check` on a recorded trace, and live `rd2 serve`
   sessions streamed by instrumented programs.

   The system under test is the built rd2 executable, spawned as a child
   process. Inputs are synthetic traces generated up front from --seed;
   rd2 only ever sees the generated files and streams. Every output is
   checked against an in-process reference and, at seed 7, against the
   digests committed in reference.txt.

   Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
   (--trace 1) add spans around every SUT run and session, scrape the
   server's metrics endpoint, and replay each input in-process through
   the layers' public functions, so each layer's self time can be set
   against the untraced per-event cost. See README.md. *)

open Crd
module Synth = Crd_workloads.Synth
module Bigcodec = Crd_wire.Bigcodec
module Db = Crd_racedb.Db
module Record = Crd_racedb.Record
module Journal = Crd_server.Journal
module Server = Crd_server.Server

let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("crdbench: " ^ s);
      exit 2)
    fmt

let log fmt = Printf.ksprintf prerr_endline fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Quartiles exactly as Python's statistics.quantiles(data, n=4). *)
let quartiles l =
  let a = sorted_array l in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else 0. in
    (v, v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type serve = {
  input_events : int;
  inputs : int;  (** zipf traces from seeds seed .. seed+inputs-1 *)
  conns : int;  (** closed-loop client connections *)
  workers : int;
  jobs : int;
  journal : bool;
  racedb : bool;
}

type kind = Check of Synth.config | Serve of serve
type workload = { name : string; kind : kind }

(* --smoke runs every workload at 1/50 of its size.

   The check traces are 250k events, not millions: on a shared host,
   memory-bound runs slow by 10-40% for seconds at a time, and the
   fastest of the 20-60 short runs a window holds spreads far less from
   window to window than anything taken from a handful of long ones. *)
let workloads ~smoke =
  let events n = if smoke then n / 50 else n in
  [
    (* Hot objects make RD2 most of the run and races plentiful, so the
       fingerprint path works too. *)
    { name = "check-zipf-250k"; kind = Check (Synth.default ~events:(events 250_000)) };
    (* Lock-heavy with 64-wide clocks and sparse races: HB is a larger
       share, the report path does little. *)
    {
      name = "check-uniform-64t";
      kind =
        Check
          {
            (Synth.default ~events:(events 250_000)) with
            threads = 64;
            objects = 4096;
            skew = Synth.Uniform;
            sync_period = 2;
          };
    };
    (* Per-session fixed costs dominate: handshake, journal commit,
       racedb publish, rendering every race into the reply. *)
    {
      name = "serve-small-sessions";
      kind =
        Serve
          {
            input_events = events 20_000;
            inputs = 16;
            conns = 2;
            workers = 2;
            jobs = 1;
            journal = true;
            racedb = true;
          };
    };
    (* Long sessions on the sharded server path, which records the whole
       session before analysing it; journal and racedb do no work. *)
    {
      name = "serve-large-j2";
      kind =
        Serve
          {
            input_events = events 250_000;
            inputs = 4;
            conns = 1;
            workers = 1;
            jobs = 2;
            journal = false;
            racedb = false;
          };
    };
  ]

let input_count w = match w.kind with Check _ -> 1 | Serve s -> s.inputs

(* ------------------------------------------------------------------ *)
(* Settings and files                                                  *)
(* ------------------------------------------------------------------ *)

type settings = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  rd2 : string;
  work : string;
  reference : string;
}

let setup_reps st = if st.smoke then 3 else 20
let warmup_s st = if st.smoke then 0.3 else 2.
let work st f = Filename.concat st.work f

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* References                                                          *)
(* ------------------------------------------------------------------ *)

type reference = {
  events : int;
  races : int;
  distinct : int;
  md5 : string;  (** of the sorted distinct fingerprints, one per line *)
  fps : string list;
}

let fingerprint_text fps = String.concat "" (List.map (fun f -> f ^ "\n") fps)

let reference_of_races ~events races =
  let fps = List.sort_uniq String.compare (List.map Report.fingerprint_hex races) in
  {
    events;
    races = List.length races;
    distinct = List.length fps;
    md5 = Digest.to_hex (Digest.string (fingerprint_text fps));
    fps;
  }

(* What `rd2 check` runs without detector flags, and what `rd2 serve`
   runs by default: RD2 in constant-lookup mode, nothing else. *)
let rd2_only =
  { Analyzer.rd2 = `Constant; direct = false; fasttrack = false; djit = false; atomicity = false }

let reference_of_trace trace =
  let an = Analyzer.with_stdspecs ~config:rd2_only () in
  Analyzer.run_trace an trace;
  reference_of_races ~events:(Trace.length trace) (Analyzer.rd2_races an)

let same (a : reference) (b : reference) =
  a.events = b.events && a.races = b.races && a.distinct = b.distinct && a.md5 = b.md5

let pp_ref r = Printf.sprintf "events=%d races=%d distinct=%d md5=%s" r.events r.races r.distinct r.md5
let scale_label st = if st.smoke then "smoke" else "full"

(* reference.txt: "<workload> <full|smoke> <seed> <input> <events>
   <races> <distinct> <md5>" per line; '#' starts a comment. *)
let committed_references path =
  let tbl = Hashtbl.create 64 in
  (match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> ()
  | text ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ w; scale; seed; input; events; races; distinct; md5 ] when line.[0] <> '#' -> (
              match List.map int_of_string_opt [ seed; input; events; races; distinct ] with
              | [ Some seed; Some input; Some events; Some races; Some distinct ] ->
                  Hashtbl.replace tbl (w, scale, seed, input)
                    { events; races; distinct; md5; fps = [] }
              | _ -> ())
          | _ -> ())
        (String.split_on_char '\n' text));
  tbl

let reference_line w ~scale ~seed i r =
  Printf.sprintf "%s %s %d %d %d %d %d %s" w.name scale seed i r.events r.races r.distinct r.md5

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type input = {
  idx : int;
  n : int;
  bytes : string;  (** the CRDW stream *)
  path : string;  (** the same stream as a file *)
}

let generate w ~seed i =
  match w.kind with
  | Check c -> Synth.generate ~seed:(Int64.of_int seed) c
  | Serve s -> Synth.generate ~seed:(Int64.of_int (seed + i)) (Synth.default ~events:s.input_events)

(* Generate and encode every input (the client-side encode is the
   "wire.encode" span); the untraced run computes its reference here,
   from the generated trace, so no trace outlives this function. *)
let prepare st w =
  List.init (input_count w) (fun i ->
      let trace = generate w ~seed:st.seed i in
      let bytes =
        Spans.with_span ~req:i "extra" (fun root ->
            Spans.with_span ~parent:root ~req:i "wire.encode" (fun _ -> Wire.encode_trace trace))
      in
      let path = work st (Printf.sprintf "input-%d.crdw" i) in
      write_file path bytes;
      let input = { idx = i; n = Trace.length trace; bytes; path } in
      let t0 = now () in
      let reference = if st.traced then None else Some (reference_of_trace trace) in
      (input, reference, now () -. t0))

(* ------------------------------------------------------------------ *)
(* The layers, replayed in-process                                     *)
(* ------------------------------------------------------------------ *)

let read_slice = 65536 (* what the server reads from a socket at a time *)

let base_name o =
  let name = Obj_id.name o in
  match String.index_opt name ':' with Some i -> String.sub name 0 i | None -> name

let std_repr_for () =
  let reprs = Hashtbl.create 8 in
  fun o ->
    match Stdspecs.find (base_name o) with
    | None -> None
    | Some spec -> (
        match Hashtbl.find_opt reprs (Spec.name spec) with
        | Some r -> Some r
        | None -> (
            match Repr.of_spec spec with
            | Ok r ->
                Hashtbl.add reprs (Spec.name spec) r;
                Some r
            | Error e -> failwith e))

(* The happens-before pass and RD2, one span each per batch. Hb.step
   hands out stable snapshots for calls, so a batch's clocks can be
   computed before RD2 consumes them. Batches are small so that those
   snapshots still die in the minor heap, as they do when the analyzer
   interleaves the two per event; held for a whole 8192-event chunk,
   64-wide clocks get promoted and the replay pays major-GC work rd2
   never does. *)
let detect ~req ~parent ~n get =
  let batch = 512 in
  let hb = Hb.create () in
  let rd2 =
    Rd2.create ~mode:`Constant ~pool:(Vclock.Pool.create ~capacity:1024 ())
      ~repr_for:(std_repr_for ()) ()
  in
  let clocks = Array.make batch (Vclock.bot ()) in
  let lo = ref 0 in
  while !lo < n do
    let base = !lo and hi = min n (!lo + batch) in
    Spans.with_span ~parent ~req "hb.step" (fun _ ->
        for i = base to hi - 1 do
          clocks.(i - base) <- Hb.step hb (get i)
        done);
    Spans.with_span ~parent ~req "rd2.on_action" (fun _ ->
        for i = base to hi - 1 do
          let e = get i in
          match e.Event.op with
          | Event.Call a -> ignore (Rd2.on_action rd2 ~index:i e.Event.tid a clocks.(i - base))
          | _ -> ()
        done);
    lo := hi
  done;
  rd2

(* The streaming decode of a live session: 64 KiB slices, each appended
   to the session journal first when there is one. *)
let decode_stream ~req ~parent ?journal inp =
  let events = Array.make inp.n (Event.begin_ (Tid.of_int 0)) in
  let k = ref 0 in
  let dec = Bigcodec.Decoder.create () in
  let b = Bytes.unsafe_of_string inp.bytes in
  let off = ref 0 in
  while !off < Bytes.length b do
    let off_ = !off and len = min read_slice (Bytes.length b - !off) in
    Option.iter
      (fun j ->
        Spans.with_span ~parent ~req "journal.append" (fun _ ->
            Journal.append_bytes j ~off:off_ ~len b))
      journal;
    Spans.with_span ~parent ~req "wire.decode" (fun _ ->
        match
          Bigcodec.Decoder.feed_bytes_iter dec ~off:off_ ~len b ~f:(fun e ->
              events.(!k) <- e;
              incr k)
        with
        | Ok () -> ()
        | Error e -> failwith (Crd_wire.Codec.error_to_string e));
    off := off_ + len
  done;
  (match Bigcodec.Decoder.finish dec with
  | Ok () -> ()
  | Error e -> failwith (Crd_wire.Codec.error_to_string e));
  Bigcodec.Decoder.release dec;
  if !k <> inp.n then failwith "replay decoded a different number of events";
  events

(* A session reply as the server renders it: summary, one line per race,
   then the STATS line (whose timing fields are left out here). *)
let render summary races =
  let buf = Buffer.create 4096 in
  let ppf = Fmt.with_buffer buf in
  Fmt.pf ppf "OK@.%t@." summary;
  List.iter (fun r -> Fmt.pf ppf "%a@." Report.pp r) races;
  Fmt.flush ppf ();
  Buffer.add_string buf
    (Printf.sprintf "STATS races=%d distinct=%d\n" (List.length races) (Report.distinct races));
  Buffer.contents buf

let sequential_summary ~events races ppf =
  Fmt.pf ppf "@[<v>events: %d@,rd2: %d races (%d distinct)@,@]" events (List.length races)
    (Report.distinct races)

type replay = {
  refs : reference list;
  rd2_stats : Rd2.stats list;
  major_collections : int;  (** during the on-path replay *)
  speedups : float list;  (** sequential HB+RD2 time / Shard.analyze ~jobs:2 time *)
  merge_s : float;
  chunks : int;
  fallbacks : int;
}

let counter name = Crd_obs.Counter.get (Crd_obs.counter name)
let hist_sum name = Crd_obs.Histogram.sum (Crd_obs.histogram name)

(* Each input is one request. Its "pipeline" root holds, in order, the
   layers the workload's SUT path runs; attribution sums their self
   times. The "extra" root holds replays off that path: the sharded
   analysis behind `rd2 check -j 2`, and the sequential detector that is
   the reference for a sharded server. *)
let replay st w inputs =
  let rd2_stats = ref [] and major = ref 0 and speedups = ref [] in
  let merge0 = hist_sum "shard_merge_seconds"
  and chunks0 = counter "shard_chunks_total"
  and fallbacks0 = counter "shard_fallback_total" in
  let on_path ~req f =
    let m0 = (Gc.quick_stat ()).Gc.major_collections in
    let r = Spans.with_span ~req "pipeline" f in
    major := !major + (Gc.quick_stat ()).Gc.major_collections - m0;
    r
  in
  let timed f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let sequential ~req ~parent ~n get =
    let rd2, t = timed (fun () -> detect ~req ~parent ~n get) in
    rd2_stats := Rd2.stats rd2 :: !rd2_stats;
    (Rd2.races rd2, t)
  in
  let sharded ~req ~parent trace =
    timed (fun () ->
        Spans.with_span ~parent ~req "shard.analyze" (fun _ ->
            match Shard.analyze_stdspecs ~jobs:2 ~config:rd2_only trace with
            | Ok r -> r
            | Error e -> failwith e))
  in
  let dbdir = work st "replay-db" and jdir = work st "replay-journal" in
  List.iter rm_rf [ dbdir; jdir ];
  let db = lazy (match Db.open_db dbdir with Ok db -> db | Error e -> failwith e) in
  let replay_input inp =
    let req = inp.idx in
    match w.kind with
    | Check _ ->
        let trace, races, t_seq =
          on_path ~req (fun root ->
              let trace =
                Spans.with_span ~parent:root ~req "wire.of_file" (fun _ ->
                    match Bigcodec.of_file inp.path with Ok t -> t | Error e -> failwith e)
              in
              let races, t_seq = sequential ~req ~parent:root ~n:inp.n (Trace.get trace) in
              Spans.with_span ~parent:root ~req "report.fingerprints" (fun _ ->
                  ignore (Report.distinct races);
                  ignore
                    (Sys.opaque_identity
                       (fingerprint_text
                          (List.sort_uniq String.compare (List.map Report.fingerprint_hex races)))));
              (trace, races, t_seq))
        in
        let _, t_par = Spans.with_span ~req "extra" (fun root -> sharded ~req ~parent:root trace) in
        speedups := ratio t_seq t_par :: !speedups;
        reference_of_races ~events:inp.n races
    | Serve s when s.jobs > 1 ->
        let events, t_par =
          on_path ~req (fun root ->
              let events = decode_stream ~req ~parent:root inp in
              let trace =
                Spans.with_span ~parent:root ~req "shard.record" (fun _ ->
                    let t = Trace.create () in
                    Array.iter (Trace.append t) events;
                    t)
              in
              let res, t_par = sharded ~req ~parent:root trace in
              Spans.with_span ~parent:root ~req "report.render" (fun _ ->
                  ignore
                    (Sys.opaque_identity
                       (render (fun ppf -> Shard.pp_summary ppf res) res.Shard.rd2_reports)));
              (events, t_par))
        in
        let races, t_seq =
          Spans.with_span ~req "extra" (fun root ->
              sequential ~req ~parent:root ~n:inp.n (Array.get events))
        in
        speedups := ratio t_seq t_par :: !speedups;
        reference_of_races ~events:inp.n races
    | Serve s ->
        on_path ~req (fun root ->
            let nonce = Printf.sprintf "replay-%d" inp.idx in
            let journal =
              if s.journal then
                Some
                  (Spans.with_span ~parent:root ~req "journal.start" (fun _ ->
                       Journal.start ~dir:jdir ~nonce ~spec:"std"))
              else None
            in
            let events = decode_stream ~req ~parent:root ?journal inp in
            Option.iter
              (fun j -> Spans.with_span ~parent:root ~req "journal.commit" (fun _ -> Journal.commit j))
              journal;
            let races, _ = sequential ~req ~parent:root ~n:inp.n (Array.get events) in
            let reply =
              Spans.with_span ~parent:root ~req "report.render" (fun _ ->
                  render (sequential_summary ~events:inp.n races) races)
            in
            if s.racedb then
              Spans.with_span ~parent:root ~req "racedb.publish" (fun _ ->
                  let ts = now () in
                  ignore
                    (Db.publish (Lazy.force db) ~nonce
                       (List.map (fun r -> Record.make ~ts ~spec:"std" r) races)));
            Option.iter
              (fun j ->
                Spans.with_span ~parent:root ~req "journal.report" (fun _ ->
                    Journal.write_report ~dir:jdir ~nonce reply);
                Journal.close j)
              journal;
            reference_of_races ~events:inp.n races)
  in
  let refs = List.map replay_input inputs in
  if Lazy.is_val db then Db.close (Lazy.force db);
  {
    refs;
    rd2_stats = !rd2_stats;
    major_collections = !major;
    speedups = !speedups;
    merge_s = hist_sum "shard_merge_seconds" -. merge0;
    chunks = counter "shard_chunks_total" - chunks0;
    fallbacks = counter "shard_fallback_total" - fallbacks0;
  }

(* ------------------------------------------------------------------ *)
(* rd2 check                                                           *)
(* ------------------------------------------------------------------ *)

let is_fingerprint l =
  String.length l = 16 && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) l

let parse_check_output text =
  let lines = String.split_on_char '\n' text in
  let events = List.find_map (fun l -> Scanf.sscanf_opt l "events: %d" Fun.id) lines in
  let counts =
    List.find_map (fun l -> Scanf.sscanf_opt l "rd2: %d races (%d distinct)" (fun a b -> (a, b))) lines
  in
  let fps = List.filter is_fingerprint lines in
  match (events, counts) with
  | Some events, Some (races, distinct) when distinct = List.length fps ->
      Ok { events; races; distinct; md5 = Digest.to_hex (Digest.string (fingerprint_text fps)); fps = [] }
  | _ -> Error "rd2 check printed no summary, or a fingerprint count that differs from it"

type check_run = { j : int; run : Sut.run; out : (reference, string) result; stdout_bytes : int }

let check_once st ~path ~j =
  let out = work st (Printf.sprintf "check-j%d.out" j) and err = work st "check.err" in
  let run =
    Sut.run_sampled ~stdout:out ~stderr:err st.rd2
      [ "check"; "--format"; "bin"; "--fingerprints"; "-j"; string_of_int j; path ]
  in
  let text = Sut.read_file out in
  let out =
    if Sut.status_ok run.Sut.status then parse_check_output text
    else
      Error
        (Printf.sprintf "rd2 check -j %d: %s: %s" j (Sut.pp_status run.Sut.status) (Sut.tail_of err))
  in
  { j; run; out; stdout_bytes = String.length text }

(* Set-up: `rd2 check` on a 10-event trace, i.e. process start and spec
   translation. Then the window: `-j 1` runs, each started when the
   previous one exits, for at least the window length and at least three
   runs. One `-j 2` run follows, for its output only: on a shared 2-vCPU
   host its wall time swings too much to bound. *)
let check_window st path =
  let tiny = work st "tiny.crdw" in
  write_file tiny
    (Wire.encode_trace
       (Synth.generate ~seed:(Int64.of_int st.seed)
          { (Synth.default ~events:10) with threads = 2; objects = 4 }));
  let setup = List.init (setup_reps st) (fun _ -> check_once st ~path:tiny ~j:1) in
  let runs = ref [] in
  let t0 = now () in
  while List.length !runs < 3 || now () -. t0 < st.seconds do
    let req = List.length !runs in
    runs := Spans.with_span ~req "check.run" (fun _ -> check_once st ~path ~j:1) :: !runs
  done;
  (setup, List.rev !runs, check_once st ~path ~j:2)

(* ------------------------------------------------------------------ *)
(* rd2 serve                                                           *)
(* ------------------------------------------------------------------ *)

type stats = { s_events : int; s_races : int; s_distinct : int; s_wall : float }

type session = {
  conn : int;
  input : int;
  warm : bool;  (** started during the warm-up, not measured *)
  t0 : float;
  t1 : float;
  result : (stats, string) result;
  reply_bytes : int;
}

(* "OK", the summary, one line per race, then
   "STATS events=E races=R distinct=D queue_hw=Q wall_s=W". *)
let parse_reply reply =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' reply) in
  match (lines, List.rev lines) with
  | "OK" :: _, last :: _ when String.starts_with ~prefix:"STATS " last -> (
      let field k =
        List.find_map
          (fun f -> String.split_on_char '=' f |> function [ k'; v ] when k' = k -> Some v | _ -> None)
          (String.split_on_char ' ' last)
      in
      let int k = Option.bind (field k) int_of_string_opt in
      match (int "events", int "races", int "distinct", Option.bind (field "wall_s") float_of_string_opt) with
      | Some s_events, Some s_races, Some s_distinct, Some s_wall ->
          Ok { s_events; s_races; s_distinct; s_wall }
      | _ -> Error ("malformed STATS line: " ^ last))
  | "OK" :: _, _ -> Error "reply without a STATS line"
  | first :: _, _ -> Error first
  | [], _ -> Error "empty reply"

type serve_result = {
  setup_s : float list;
  sessions : session list;
  cpu_s : float;  (** server CPU over all sessions *)
  hwm_kb : int;
  m0 : (string, float) Hashtbl.t;  (** metrics before the first session *)
  m1 : (string, float) Hashtbl.t;  (** and after the last *)
  mem_hw : (string * float) list;
  exit_ok : bool;
  db : Db.view option;
}

let serve_window st (s : serve) inputs =
  let sock = work st "s.sock" and msock = work st "m.sock" in
  let jdir = work st "journal" and dbdir = work st "racedb" in
  let addr = Server.Unix_sock sock and maddr = Server.Unix_sock msock in
  let args =
    [ "serve"; "--addr"; "unix:" ^ sock; "--metrics"; "unix:" ^ msock;
      "--workers"; string_of_int s.workers ]
    @ (if s.jobs > 1 then [ "--jobs"; string_of_int s.jobs ] else [])
    @ (if s.journal then [ "--journal"; jdir ] else [])
    @ if s.racedb then [ "--racedb"; dbdir ] else []
  in
  let fresh () = List.iter rm_rf [ jdir; dbdir ] in
  let start () =
    fresh ();
    match Sut.start_server ~log:(work st "serve.log") ~addr st.rd2 args with
    | Ok r -> r
    | Error e -> die "%s" e
  in
  let setup_s =
    List.init (setup_reps st) (fun _ ->
        let srv, t = start () in
        ignore (Sut.stop_server srv);
        t)
  in
  let srv, _ = start () in
  let inputs = Array.of_list inputs in
  let m0 = Sut.scrape maddr in
  let cpu0 = Option.value ~default:0. (Sut.cpu_s srv.Sut.pid) in
  let results = Array.make s.conns [] in
  let send ~c ~k ~warm input =
    let nonce = Printf.sprintf "s%d-c%d-%d" st.seed c k in
    let t0 = now () in
    let reply =
      Spans.with_span ~req:((c * 100_000) + k) "serve.session" (fun _ ->
          Sut.session addr ~nonce inputs.(input).bytes)
    in
    let t1 = now () in
    let result, reply_bytes =
      match reply with Ok r -> (parse_reply r, String.length r) | Error e -> (Error e, 0)
    in
    results.(c) <- { conn = c; input; warm; t0; t1; result; reply_bytes } :: results.(c)
  in
  (* One session on its own first: the server creates some of its
     metric cells lazily on first use, and two sessions racing to be
     first can lose one of them (CamlinternalLazy.Undefined). *)
  send ~c:0 ~k:(-1) ~warm:true 0;
  let t_start = now () in
  let t_warm = t_start +. warmup_s st in
  let t_end = t_warm +. st.seconds in
  (* Each connection cycles through its share of the inputs and stops
     after the window on a whole cycle, so every input is measured
     equally often. *)
  let cycle = max 1 (s.inputs / s.conns) in
  let finished = Atomic.make 0 in
  let client c =
    let k = ref 0 and measured = ref 0 in
    let go () =
      let t = now () in
      t < t_warm || ((t < t_end || !measured mod cycle <> 0) && t < t_end +. st.seconds)
    in
    while go () do
      let warm = now () < t_warm in
      send ~c ~k:!k ~warm ((c + (!k * s.conns)) mod s.inputs);
      incr k;
      if not warm then incr measured
    done;
    Atomic.incr finished
  in
  let threads = List.init s.conns (fun c -> Thread.create client c) in
  (* The traced run samples the server's memory gauges while it works. *)
  let mem_names = [ "mem_queue_bytes"; "mem_intern_bytes"; "mem_vcpool_bytes" ] in
  let mem_hw = Hashtbl.create 4 in
  if st.traced then
    while Atomic.get finished < s.conns do
      let m = Sut.scrape maddr in
      List.iter
        (fun k ->
          Hashtbl.replace mem_hw k
            (Float.max (Sut.metric m k) (Option.value ~default:0. (Hashtbl.find_opt mem_hw k))))
        mem_names;
      Thread.delay 0.25
    done;
  List.iter Thread.join threads;
  let cpu1 = Option.value ~default:0. (Sut.cpu_s srv.Sut.pid) in
  let hwm_kb = Option.value ~default:0 (Sut.vm_hwm_kb srv.Sut.pid) in
  let m1 = Sut.scrape maddr in
  let status = Sut.stop_server srv in
  if not (Sut.status_ok status) then
    log "rd2 serve exited with %s: %s" (Sut.pp_status status) (Sut.tail_of srv.Sut.log);
  let db =
    if s.racedb then match Db.load dbdir with Ok v -> Some v | Error e -> (log "racedb: %s" e; None)
    else None
  in
  {
    setup_s;
    sessions = List.concat_map List.rev (Array.to_list results);
    cpu_s = cpu1 -. cpu0;
    hwm_kb;
    m0;
    m1;
    mem_hw = List.map (fun k -> (k, Option.value ~default:0. (Hashtbl.find_opt mem_hw k))) mem_names;
    exit_ok = Sut.status_ok status;
    db;
  }


(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Every workload reports every metric of a catalogue, in this order.
   BENCHMARK.json lists the same names and units. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("events_s", "events/s");
    ("latency_ms", "ms");
    ("peak_rss_mb", "MiB");
    ("cpu_us_per_event", "us");
  ]

(* A layer a workload bypasses reports 0. *)
let per_layer =
  [
    ("wire.decode_ns_per_event", "ns");
    ("wire.decode_minor_words_per_event", "words");
    ("wire.bytes_per_event", "bytes");
    ("wire.encode_ns_per_event", "ns");
    ("hb.ns_per_event", "ns");
    ("rd2.ns_per_action", "ns");
    ("rd2.lookups_per_action", "count");
    ("rd2.same_epoch_rate", "ratio");
    ("rd2.promotions_per_action", "count");
    ("rd2.races_per_action", "count");
    ("report.ns_per_race", "ns");
    ("report.bytes_per_reply", "bytes");
    ("shard.record_ns_per_event", "ns");
    ("shard.wall_s", "s");
    ("shard.merge_s", "s");
    ("shard.chunks", "count");
    ("shard.fallbacks", "count");
    ("shard.speedup_j2", "ratio");
    ("server.handshake_ms_mean", "ms");
    ("server.analyze_ms_mean", "ms");
    ("server.session_ms_p50", "ms");
    ("server.transport_ms_p50", "ms");
    ("server.busy", "count");
    ("server.errors", "count");
    ("server.session_queue_hw", "count");
    ("client.latency_p90_ms", "ms");
    ("client.sessions", "count");
    ("journal.commit_ms_p50", "ms");
    ("journal.bytes_per_event", "bytes");
    ("journal.commits", "count");
    ("racedb.publish_ms_p50", "ms");
    ("racedb.append_s", "s");
    ("racedb.published_per_session", "count");
    ("racedb.dedup_ratio", "ratio");
    ("mem.queue_bytes_hw", "bytes");
    ("mem.intern_bytes_hw", "bytes");
    ("mem.vcpool_bytes_hw", "bytes");
    ("gc.minor_words_per_event", "words");
    ("gc.major_collections", "count");
    ("trace.sut_ns_per_event", "ns");
    ("trace.attributed_ns_per_event", "ns");
    ("trace.unattributed_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  gen_s : float;  (** input generation and encoding *)
  ref_s : float;  (** reference computation (the replay, when traced) *)
}

(* Per-layer metrics from the replay's spans and counters. [sut_ns] is
   the untraced per-event cost of the SUT path measured in this run's
   window; attribution sets the on-path self times against it. *)
let replay_metrics inputs ~sut_ns (rp : replay) =
  let spans = Spans.all () in
  let self = Spans.self_ns spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.Spans.id s) spans;
  let rec root s = if s.Spans.parent = 0 then s else root (Hashtbl.find by_id s.Spans.parent) in
  let under r s = s.Spans.parent <> 0 && (root s).Spans.name = r in
  let replayed = List.filter (fun s -> under "pipeline" s || under "extra" s) spans in
  let on_path = List.filter (under "pipeline") spans in
  let named p = List.filter (fun s -> s.Spans.name = p) replayed in
  let sum f l = List.fold_left (fun a s -> a +. f s) 0. l in
  let layer_self l = sum self (List.filter (fun s -> Spans.layer s = l) replayed) in
  let minor s = s.Spans.minor1 -. s.Spans.minor0 in
  let n = fi (List.fold_left (fun a i -> a + i.n) 0 inputs) in
  let per_event x = ratio x n in
  let ms l = List.map (fun s -> Spans.duration_ns s /. 1e6) l in
  let stat f = fi (List.fold_left (fun a s -> a + f s) 0 rp.rd2_stats) in
  let actions = stat (fun s -> s.Rd2.actions) and races = stat (fun s -> s.Rd2.races) in
  let decode = named "wire.of_file" @ named "wire.decode" in
  let roots name = List.filter (fun s -> s.Spans.parent = 0 && s.Spans.name = name) spans in
  let pipelines = roots "pipeline" in
  let attributed = per_event (sum self on_path) in
  [
    ("wire.decode_ns_per_event", per_event (sum self decode));
    ("wire.decode_minor_words_per_event", per_event (sum minor decode));
    ("wire.bytes_per_event", per_event (fi (List.fold_left (fun a i -> a + String.length i.bytes) 0 inputs)));
    ("wire.encode_ns_per_event", per_event (sum Spans.duration_ns (named "wire.encode")));
    ("hb.ns_per_event", per_event (layer_self "hb"));
    ("rd2.ns_per_action", ratio (layer_self "rd2") actions);
    ("rd2.lookups_per_action", ratio (stat (fun s -> s.Rd2.lookups)) actions);
    ("rd2.same_epoch_rate", ratio (stat (fun s -> s.Rd2.same_epoch)) actions);
    ("rd2.promotions_per_action", ratio (stat (fun s -> s.Rd2.promotions)) actions);
    ("rd2.races_per_action", ratio races actions);
    ("report.ns_per_race", ratio (layer_self "report") races);
    ("shard.record_ns_per_event", per_event (sum self (named "shard.record")));
    ("shard.wall_s", median (List.map (fun s -> Spans.duration_ns s /. 1e9) (named "shard.analyze")));
    ("shard.merge_s", rp.merge_s);
    ("shard.chunks", fi rp.chunks);
    ("shard.fallbacks", fi rp.fallbacks);
    ("shard.speedup_j2", median rp.speedups);
    ("journal.commit_ms_p50", median (ms (named "journal.commit")));
    ("racedb.publish_ms_p50", median (ms (named "racedb.publish")));
    ("gc.minor_words_per_event", per_event (sum minor pipelines));
    ("gc.major_collections", fi rp.major_collections);
    ("trace.sut_ns_per_event", sut_ns);
    ("trace.attributed_ns_per_event", attributed);
    ("trace.unattributed_ratio", ratio (Float.abs (sut_ns -. attributed)) sut_ns);
    ( "trace.overhead_ratio",
      ratio
        (fi (List.length replayed) *. Spans.cost_ns ())
        (sum Spans.duration_ns (pipelines @ roots "extra")) );
  ]

(* The committed digests apply to the inputs they name; other seeds
   have none. *)
let committed_mismatches st w refs =
  let tbl = committed_references st.reference in
  List.concat
    (List.mapi
       (fun i r ->
         match Hashtbl.find_opt tbl (w.name, scale_label st, st.seed, i) with
         | Some c when not (same c r) ->
             [ Printf.sprintf "%s input %d: %s, committed %s" w.name i (pp_ref r) (pp_ref c) ]
         | _ -> [])
       refs)

(* A replay is one sample of a noisy host, as each check run is, so it is
   repeated and the round with the least attributed time kept: its spans
   stay recorded and give the per-layer metrics. Returns the references
   the replay computed, and those metrics. *)
let traced_replay st w inputs ~sut_ns =
  let before = Spans.all () in
  let round () =
    Spans.restore before;
    let rp = replay st w inputs in
    let layers = replay_metrics inputs ~sut_ns rp in
    (List.assoc "trace.attributed_ns_per_event" layers, (rp.refs, layers), Spans.all ())
  in
  let best =
    List.fold_left
      (fun ((a, _, _) as best) ((b, _, _) as r) -> if b < a then r else best)
      (round ()) [ round (); round () ]
  in
  let _, result, spans = best in
  Spans.restore spans;
  result

type measured = {
  failed_ops : string list;  (** runs or sessions that failed or disagreed with the reference *)
  check_errors : string list;  (** the other correctness checks *)
  attempted : int;
  values : (string * float) list;
  refs : reference list;
  ref_s : float;
}

(* Every timing sample behind a median, one line per metric, so a run's
   spread can be read off its output. *)
let print_samples st name l =
  if not st.smoke then
    Printf.printf "# samples %s (%d): %s\n" name (List.length l)
      (String.concat " " (List.map (Printf.sprintf "%.6g") l))

let run_check st w inputs refs =
  let inp = List.hd inputs in
  let setup, runs, sharded = check_window st inp.path in
  let walls = List.map (fun r -> r.run.Sut.wall_s) runs in
  let n = fi inp.n in
  (* A check run is one deterministic job repeated back to back, and a
     shared host's interference only ever adds time to it: the fastest
     run is its cost, the others measure the neighbours. *)
  let fastest l = List.fold_left Float.min infinity l in
  let t0 = now () in
  let traced = if st.traced then Some (traced_replay st w inputs ~sut_ns:(1e9 *. fastest walls /. n)) else None in
  let ref_s = now () -. t0 in
  let reference = match traced with Some (refs, _) -> List.hd refs | None -> List.hd refs in
  (* -j 1 = -j 2 = the in-process reference. *)
  let errors =
    List.filter_map
      (fun (r : check_run) ->
        match r.out with
        | Error e -> Some e
        | Ok o when not (same o reference) ->
            Some (Printf.sprintf "rd2 check -j %d: %s, reference %s" r.j (pp_ref o) (pp_ref reference))
        | Ok _ -> None)
      (sharded :: runs)
    @ List.filter_map
        (fun (r : check_run) -> match r.out with Error e -> Some ("set-up run: " ^ e) | Ok _ -> None)
        setup
  in
  print_samples st "setup_s" (List.map (fun r -> r.run.Sut.wall_s) setup);
  print_samples st "wall_s" walls;
  let values =
    [
      ("setup_s", median (List.map (fun r -> r.run.Sut.wall_s) setup));
      ("events_s", n /. fastest walls);
      ("latency_ms", 1000. *. fastest walls);
      ("peak_rss_mb", median (List.map (fun r -> fi r.run.Sut.hwm_kb /. 1024.) runs));
      ("cpu_us_per_event", 1e6 *. fastest (List.map (fun r -> r.run.Sut.cpu_s) runs) /. n);
      ("report.bytes_per_reply", median (List.map (fun r -> fi r.stdout_bytes) runs));
    ]
    @ match traced with Some (_, layers) -> layers | None -> []
  in
  {
    failed_ops = errors;
    check_errors = [];
    attempted = List.length setup + List.length runs + 1;
    values;
    refs = [ reference ];
    ref_s;
  }

let run_serve st w s inputs refs =
  let r = serve_window st s inputs in
  let measured = List.filter (fun x -> not x.warm) r.sessions in
  let latency x = x.t1 -. x.t0 in
  let served = List.filter_map (fun x -> Result.to_option (Result.map (fun st -> (x, st)) x.result)) measured in
  let t0 = now () in
  let traced =
    if st.traced then
      Some
        (traced_replay st w inputs
           ~sut_ns:(1e9 *. median (List.map (fun (x, st) -> latency x /. fi st.s_events) served)))
    else None
  in
  let ref_s = now () -. t0 in
  let refs = match traced with Some (refs, _) -> refs | None -> refs in
  let refs_a = Array.of_list refs in
  let errors =
    List.filter_map
      (fun x ->
        let rf = refs_a.(x.input) in
        match x.result with
        | Error e -> Some (Printf.sprintf "session %d/%d: %s" x.conn x.input e)
        | Ok st when st.s_events <> rf.events || st.s_races <> rf.races || st.s_distinct <> rf.distinct ->
            Some
              (Printf.sprintf "session on input %d: events=%d races=%d distinct=%d, reference %s"
                 x.input st.s_events st.s_races st.s_distinct (pp_ref rf))
        | Ok _ -> None)
      r.sessions
  in
  (* Every distinct race of every session sent must be in the racedb. *)
  let db_errors, dedup =
    match (s.racedb, r.db) with
    | false, _ -> ([], 0.)
    | true, None -> ([ "racedb could not be loaded" ], 0.)
    | true, Some v ->
        let sent = List.sort_uniq compare (List.map (fun x -> x.input) r.sessions) in
        let want = List.sort_uniq String.compare (List.concat_map (fun i -> refs_a.(i).fps) sent) in
        let have =
          List.sort_uniq String.compare
            (List.map (fun e -> Printf.sprintf "%016Lx" e.Crd_racedb.Entry.fingerprint) v.Db.v_entries)
        in
        ( (if want = have then []
           else
             [ Printf.sprintf "racedb holds %d distinct races, the sessions sent %d" (List.length have) (List.length want) ]),
          ratio (fi v.Db.v_stats.Db.distinct) (fi v.Db.v_stats.Db.total) )
  in
  let ok_stats l = List.filter_map (fun x -> Result.to_option x.result) l in
  let events l = fi (List.fold_left (fun a st -> a + st.s_events) 0 (ok_stats l)) in
  (* A closed-loop connection is busy from its first measured send to its
     last reply, so the connections' rates add up. *)
  let events_s =
    List.fold_left ( +. ) 0.
      (List.init s.conns (fun c ->
           match List.filter (fun x -> x.conn = c) measured with
           | [] -> 0.
           | l ->
               let first = List.fold_left (fun a x -> Float.min a x.t0) infinity l in
               let last = List.fold_left (fun a x -> Float.max a x.t1) 0. l in
               ratio (events l) (last -. first)))
  in
  let delta k = Sut.metric r.m1 k -. Sut.metric r.m0 k in
  let mean_ms h = 1000. *. ratio (delta (h ^ "_sum")) (delta (h ^ "_count")) in
  print_samples st "setup_s" r.setup_s;
  print_samples st "latency_s" (List.map latency measured);
  let values =
    [
      ("setup_s", median r.setup_s);
      ("events_s", events_s);
      ("latency_ms", 1000. *. median (List.map latency measured));
      ("peak_rss_mb", fi r.hwm_kb /. 1024.);
      ("cpu_us_per_event", 1e6 *. ratio r.cpu_s (events r.sessions));
      ("report.bytes_per_reply", median (List.map (fun x -> fi x.reply_bytes) measured));
      ("server.handshake_ms_mean", mean_ms "server_handshake_seconds");
      ("server.analyze_ms_mean", mean_ms "server_analyze_seconds");
      ("server.session_ms_p50", 1000. *. median (List.map (fun (_, st) -> st.s_wall) served));
      ("server.transport_ms_p50", 1000. *. median (List.map (fun (x, st) -> latency x -. st.s_wall) served));
      ("server.busy", delta "server_busy_total");
      ("server.errors", delta "server_errors_total");
      ("server.session_queue_hw", Sut.metric r.m1 "server_session_queue_depth_hw");
      ("client.latency_p90_ms", 1000. *. percentile 0.9 (List.map latency measured));
      ("client.sessions", fi (List.length measured));
      ("journal.bytes_per_event", ratio (delta "journal_bytes_total") (delta "server_events_total"));
      ("journal.commits", delta "journal_commits_total");
      ("racedb.append_s", delta "racedb_append_seconds_sum");
      ("racedb.published_per_session", ratio (delta "racedb_published_total") (fi (List.length r.sessions)));
      ("racedb.dedup_ratio", dedup);
    ]
    @ List.map (fun (k, v) -> ("mem." ^ String.sub k 4 (String.length k - 4) ^ "_hw", v)) r.mem_hw
    @ match traced with Some (_, layers) -> layers | None -> []
  in
  {
    failed_ops = errors;
    check_errors = (if r.exit_ok then [] else [ "rd2 serve did not exit cleanly" ]) @ db_errors;
    attempted = List.length r.setup_s + List.length r.sessions;
    values;
    refs;
    ref_s;
  }

let run_workload st w =
  rm_rf st.work;
  mkdir_p st.work;
  Spans.restore [];
  let t0 = now () in
  let prepared = prepare st w in
  let inputs = List.map (fun (i, _, _) -> i) prepared in
  let refs = List.filter_map (fun (_, r, _) -> r) prepared in
  let ref_s0 = List.fold_left (fun a (_, _, t) -> a +. t) 0. prepared in
  let gen_s = now () -. t0 -. ref_s0 in
  Gc.compact ();
  let r =
    match w.kind with
    | Check _ -> run_check st w inputs refs
    | Serve s -> run_serve st w s inputs refs
  in
  let errors = r.failed_ops @ r.check_errors @ committed_mismatches st w r.refs in
  List.iter (fun e -> log "%s: %s" w.name e) errors;
  {
    correct = errors = [];
    attempted = r.attempted;
    failed = List.length r.failed_ops;
    values = r.values;
    gen_s;
    ref_s = ref_s0 +. r.ref_s;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let catalogue st = if st.traced then per_layer else end_to_end

let summary st o =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (fi o.attempted));
      ("failed", Json.Num (fi o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, u) ->
               let v = Option.value ~default:0. (List.assoc_opt k o.values) in
               (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
             (catalogue st)) );
    ]

let print_run st w o =
  Printf.printf "# %s seed=%d seconds=%g trace=%d inputs: gen_s=%.3f ref_s=%.3f\n" w.name st.seed
    st.seconds (if st.traced then 1 else 0) o.gen_s o.ref_s;
  if st.smoke then
    Printf.printf "# %s: %s, %d operations, %d failed\n" w.name
      (if o.correct then "correct" else "INCORRECT")
      o.attempted o.failed
  else begin
    List.iter
      (fun (k, u) ->
        match List.assoc_opt k o.values with
        | Some v -> Printf.printf "%-22s %-36s %14.6g %s\n" w.name k v u
        | None -> ())
      (end_to_end @ if st.traced then per_layer else []);
    print_endline (Json.to_string (summary st o))
  end;
  flush stdout

let run_record st w o =
  Json.Obj
    [
      ("workload", Json.Str w.name);
      ("seed", Json.Num (fi st.seed));
      ("trace", Json.Num (if st.traced then 1. else 0.));
      ("gen_s", Json.Num o.gen_s);
      ("ref_s", Json.Num o.ref_s);
      ("result", summary st o);
    ]

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)
(* ------------------------------------------------------------------ *)

let load_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | s -> ( try Json.parse s with Json.Parse_error e -> die "%s: %s" path e)

(* (workload, metric) -> values, in file order. *)
let samples path =
  let tbl = Hashtbl.create 64 and keys = ref [] in
  List.iter
    (fun run ->
      let w = Option.bind (Json.member "workload" run) Json.to_str in
      let metrics = Option.bind (Json.member "result" run) (Json.member "metrics") in
      match (w, metrics) with
      | Some w, Some (Json.Obj kvs) ->
          List.iter
            (fun (k, v) ->
              match Option.bind (Json.member "value" v) Json.to_num with
              | Some x ->
                  if not (Hashtbl.mem tbl (w, k)) then keys := (w, k) :: !keys;
                  Hashtbl.replace tbl (w, k) (x :: Option.value ~default:[] (Hashtbl.find_opt tbl (w, k)))
              | None -> ())
            kvs
      | _ -> ())
    (Json.to_list (Option.value ~default:Json.Null (Json.member "runs" (load_json path))));
  (tbl, List.rev !keys)

let bounds benchmark_json =
  List.filter_map
    (fun m ->
      match (Option.bind (Json.member "name" m) Json.to_str, Option.bind (Json.member "bound" m) Json.to_num) with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" (load_json benchmark_json))))

(* A pair is unresolved when either set's quartile spread exceeds the
   bound, agrees when the medians differ by no more than the bound, and
   disagrees otherwise. Metrics without a bound are printed unlabelled. *)
let compare_sets ~benchmark_json a b =
  let ta, keys = samples a and tb, _ = samples b in
  let bounds = bounds benchmark_json in
  Printf.printf "%-22s %-34s %12s %12s %12s %12s %12s %12s %8s  %s\n" "workload" "metric" "A.q1" "A.median"
    "A.q3" "B.q1" "B.median" "B.q3" "diff" "verdict";
  let disagree = ref 0 in
  List.iter
    (fun key ->
      match Hashtbl.find_opt tb key with
      | None -> ()
      | Some vb ->
          let va = Hashtbl.find ta key in
          let qa1, ma, qa3 = quartiles va and qb1, mb, qb3 = quartiles vb in
          let diff = ratio (mb -. ma) ma in
          let verdict =
            match List.assoc_opt (snd key) bounds with
            | None -> ""
            | Some bound ->
                if ratio (qa3 -. qa1) ma > bound || ratio (qb3 -. qb1) mb > bound then "unresolved"
                else if Float.abs diff <= bound then "agree"
                else (
                  incr disagree;
                  "disagree")
          in
          Printf.printf "%-22s %-34s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.2f%%  %s\n" (fst key)
            (snd key) qa1 ma qa3 qb1 mb qb3 (100. *. diff) verdict)
    keys;
  !disagree

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* --smoke also checks that BENCHMARK.json names what this harness
   reports, so the two cannot drift apart unnoticed. *)
let check_benchmark_json path ws =
  let j = load_json path in
  let entries key fields =
    List.map
      (fun m ->
        String.concat " " (List.filter_map (fun f -> Option.bind (Json.member f m) Json.to_str) fields))
      (Json.to_list (Option.value ~default:Json.Null (Json.member key j)))
  in
  let expect what got want =
    if got <> want then
      die "%s: %s are [%s], the harness has [%s]" path what (String.concat ", " got)
        (String.concat ", " want)
  in
  let with_units = List.map (fun (k, u) -> k ^ " " ^ u) in
  expect "workloads" (entries "workloads" [ "name" ]) (List.map (fun w -> w.name) ws);
  expect "end_to_end metrics" (entries "end_to_end" [ "name"; "unit" ]) (with_units end_to_end);
  expect "per_layer metrics" (entries "per_layer" [ "name"; "unit" ]) (with_units per_layer)

let () =
  let workload = ref [] and seed = ref 7 and seconds = ref 20. and trace = ref 0 and runs = ref 1 in
  let out = ref "" and spans = ref "" and rd2 = ref "_build/default/bin/rd2.exe" in
  let work = ref "crdbench/_work" and reference = ref "crdbench/reference.txt" in
  let benchmark_json = ref "BENCHMARK.json" in
  let smoke = ref false and print_reference = ref false and compare = ref [] in
  let specs =
    [
      ("--workload", Arg.String (fun w -> workload := !workload @ [ w ]), "W run only this workload (repeatable)");
      ("--seed", Arg.Set_int seed, "N input seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S measured window of one run (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 1 reports per-layer metrics from a traced run");
      ("--runs", Arg.Set_int runs, "K runs of each workload (default 1)");
      ("--out", Arg.Set_string out, "F.json write every run's results, for --compare");
      ("--spans", Arg.Set_string spans, "F.jsonl write every traced run's spans");
      ("--rd2", Arg.Set_string rd2, "PATH the rd2 executable (default _build/default/bin/rd2.exe)");
      ("--work", Arg.Set_string work, "DIR scratch directory, emptied before and after (default crdbench/_work)");
      ("--reference", Arg.Set_string reference, "F committed digests (default crdbench/reference.txt)");
      ("--benchmark-json", Arg.Set_string benchmark_json, "F bounds and names (default BENCHMARK.json)");
      ("--smoke", Arg.Set smoke, " every workload at 1/50 size with 2 s windows, traced");
      ("--print-reference", Arg.Set print_reference, " print the reference.txt lines for seed 7 and exit");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun a -> compare := [ a ]); Arg.String (fun b -> compare := !compare @ [ b ]) ],
        "A.json B.json compare two sets of runs written by --out" );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "crdbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs K] [--out F.json]\n\
     crdbench --compare A.json B.json";
  (match !compare with
  | [ a; b ] -> exit (if compare_sets ~benchmark_json:!benchmark_json a b = 0 then 0 else 1)
  | _ -> ());
  let all = workloads ~smoke:!smoke in
  if !print_reference then begin
    List.iter
      (fun smoke ->
        List.iter
          (fun w ->
            for i = 0 to input_count w - 1 do
              print_endline
                (reference_line w ~scale:(if smoke then "smoke" else "full") ~seed:7 i
                   (reference_of_trace (generate w ~seed:7 i)))
            done)
          (workloads ~smoke))
      [ false; true ];
    exit 0
  end;
  let selected =
    match !workload with
    | [] -> all
    | names ->
        List.map
          (fun n ->
            match List.find_opt (fun w -> w.name = n) all with
            | Some w -> w
            | None -> die "unknown workload %S (known: %s)" n (String.concat ", " (List.map (fun w -> w.name) all)))
          names
  in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if not (Sys.file_exists !rd2) then die "no rd2 executable at %s" !rd2;
  if !smoke then check_benchmark_json !benchmark_json all;
  let st =
    {
      seed = !seed;
      seconds = (if !smoke then 2. else !seconds);
      traced = !smoke || !trace = 1;
      smoke = !smoke;
      rd2 = !rd2;
      work = !work;
      reference = !reference;
    }
  in
  Spans.enabled := st.traced;
  at_exit (fun () ->
      Sut.kill_all ();
      rm_rf st.work);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Interrupted, still stop the servers and remove the scratch files. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  if !spans <> "" then write_file !spans "";
  let records = ref [] and all_correct = ref true in
  List.iter
    (fun w ->
      for _ = 1 to max 1 !runs do
        let o = run_workload st w in
        print_run st w o;
        records := run_record st w o :: !records;
        if !spans <> "" then Spans.append_jsonl !spans;
        if not o.correct then all_correct := false
      done)
    selected;
  if !out <> "" then write_file !out (Json.to_string (Json.Obj [ ("runs", Json.Arr (List.rev !records)) ]) ^ "\n");
  exit (if !all_correct then 0 else 1)
