open Crd_base
open Crd_trace
open Crd_spec
open Crd_apoint
open Crd_detector
open Crd_fasttrack
module Vclock = Crd_vclock.Vclock
module Atomicity = Crd_atomicity.Atomicity

type config = {
  rd2 : [ `Off | `Constant | `Linear ];
  direct : bool;
  fasttrack : bool;
  djit : bool;
  atomicity : bool;
}

let default_config =
  {
    rd2 = `Constant;
    direct = false;
    fasttrack = true;
    djit = false;
    atomicity = false;
  }

type result = {
  events : int;
  shards : int;
  rd2_reports : Report.t list;
  rd2_distinct : int64 array;
  rd2_stats : Rd2.stats option;
  direct_reports : Report.t list;
  direct_stats : Direct.stats option;
  fasttrack_reports : Rw_report.t list;
  fasttrack_distinct : int;
  fasttrack_stats : Fasttrack.stats option;
  djit_reports : Rw_report.t list;
  atomicity_violations : Atomicity.violation list;
}

let recommended_jobs () = min 8 (Domain.recommended_domain_count ())

(* Chunk size of the batched shard queues: large enough that queue round
   trips and mutex operations are amortized over thousands of events,
   small enough that workers start draining while the producer is still
   routing. *)
let chunk_events = 8_192

(* Chunks a shard's queue holds before the producer waits: with the
   chunk being filled and the one being drained, in-flight memory per
   shard is a constant, whatever the stream length. *)
let queued_chunks = 4

(* ------------------------------------------------------------------ *)
(* The detector bundle                                                 *)
(* ------------------------------------------------------------------ *)

(* One detector set: the inline bundle of an unsharded run, or one per
   shard worker. Each bundle owns its happens-before engine and its
   vector-clock pool: both are single-owner, and a bundle never leaves
   the domain that created it.

   RD2 and FastTrack keep their reports only when [collect] does (RD2's
   collected reports then share their prior actions). The bundle folds
   each RD2 race into [rd2_fps] (their count is [Rd2.stats]'s [races])
   and each FastTrack race into [ft_locs] (their count is
   [Fasttrack.stats]' [races]). *)
type detectors = {
  hb : Hb.t;
  rd2 : Rd2.t option;
  direct : Direct.t option;
  ft : Fasttrack.t option;
  djit : Djit.t option;
  pool : Vclock.Pool.t;
  rd2_fps : Report.fingerprints;
  ft_locs : Rw_report.locations;
}

let make_detectors (config : config) ~collect ~repr_for ~spec_for =
  let pool = Metrics.create_pool () in
  {
    hb = Hb.create ();
    rd2 =
      (match config.rd2 with
      | `Off -> None
      | (`Constant | `Linear) as mode ->
          Some (Rd2.create ~mode ~pool ~collect ~repr_for ()));
    direct = (if config.direct then Some (Direct.create ~spec_for ()) else None);
    ft =
      (if config.fasttrack then Some (Fasttrack.create ~pool ~collect ())
       else None);
    djit = (if config.djit then Some (Djit.create ()) else None);
    pool;
    rd2_fps = Report.fingerprints ();
    ft_locs = Rw_report.locations ();
  }

let rec fold_rd2 d = function
  | [] -> ()
  | r :: rest ->
      Report.add_fingerprint d.rd2_fps r;
      fold_rd2 d rest

(* The one per-event path, inline and on every shard: advance the
   bundle's clock pass, then run the detectors on its live clock, which
   they only read during the call. No allocation of its own. *)
let dispatch d ~index (e : Event.t) =
  let vc = Hb.advance d.hb e in
  match e.op with
  | Event.Call action ->
      (match d.rd2 with
      | Some det -> fold_rd2 d (Rd2.on_action det ~index e.tid action vc)
      | None -> ());
      (match d.direct with
      | Some det -> ignore (Direct.on_action det ~index e.tid action vc)
      | None -> ())
  | Event.Read loc ->
      (match d.ft with
      | Some det -> (
          match Fasttrack.on_read det ~index e.tid loc vc with
          | Some r -> Rw_report.add_location d.ft_locs r
          | None -> ())
      | None -> ());
      (match d.djit with
      | Some det -> ignore (Djit.on_read det ~index e.tid loc vc)
      | None -> ())
  | Event.Write loc ->
      (match d.ft with
      | Some det ->
          List.iter
            (Rw_report.add_location d.ft_locs)
            (Fasttrack.on_write det ~index e.tid loc vc)
      | None -> ());
      (match d.djit with
      | Some det -> ignore (Djit.on_write det ~index e.tid loc vc)
      | None -> ())
  | Event.Fork _ | Event.Join _ | Event.Acquire _ | Event.Release _
  | Event.Begin | Event.End ->
      ()

(* A bundle's reports and counters. Taking them ends the bundle: its
   pool goes back to the [mem_vcpool_bytes] accounting. *)
type outputs = {
  o_rd2 : Report.t list;
  o_rd2_fps : Report.fingerprints;
  o_rd2_stats : Rd2.stats option;
  o_direct : Report.t list;
  o_direct_stats : Direct.stats option;
  o_ft : Rw_report.t list;
  o_ft_locs : Rw_report.locations;
  o_ft_stats : Fasttrack.stats option;
  o_djit : Rw_report.t list;
}

let outputs_of d =
  Metrics.publish_pool d.pool;
  {
    o_rd2 = (match d.rd2 with Some det -> Rd2.races det | None -> []);
    o_rd2_fps = d.rd2_fps;
    o_rd2_stats = Option.map Rd2.stats d.rd2;
    o_direct = (match d.direct with Some det -> Direct.races det | None -> []);
    o_direct_stats = Option.map Direct.stats d.direct;
    o_ft = (match d.ft with Some det -> Fasttrack.races det | None -> []);
    o_ft_locs = d.ft_locs;
    o_ft_stats = Option.map Fasttrack.stats d.ft;
    o_djit = (match d.djit with Some det -> Djit.races det | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* Chunks and the shard workers                                        *)
(* ------------------------------------------------------------------ *)

(* A chunk is a fixed-capacity struct-of-arrays batch of events; it
   carries no clocks. A [Read]/[Write] or synchronization event is kept
   by pointer in [c_ev]. A call is kept by value, so the decoded event
   dies young: [c_ev] holds [call_mark], [c_call] the thread and the
   argument count, [c_obj] and [c_meth] the object and method (interned
   by the decoder), and the chunk's [c_vals] arena its arguments then
   returns, up to [c_end]. The worker rebuilds a young event per call.
   Every chunk's arrays are charged to [mem_shard_bytes] until
   {!release}. *)
type chunk = {
  c_idx : int array;
  c_ev : Event.t array;
  c_call : int array;  (* tid lor (nargs lsl 16): [Tid.max_id] < 2^16 *)
  c_obj : Obj_id.t array;
  c_meth : string array;
  c_end : int array;  (* a call's values end here in [c_vals] *)
  mutable c_vals : Value.t array;
  mutable c_nvals : int;
  mutable c_n : int;
}

(* Never appended as itself: [Begin] is never routed. *)
let call_mark = Event.begin_ Tid.main
let no_obj = Obj_id.make (-1)

let word_bytes = Sys.word_size / 8

(* Six arrays of [chunk_events] slots plus the value arena. *)
let chunk_bytes ch =
  word_bytes * ((6 * Array.length ch.c_idx) + Array.length ch.c_vals)

let release ch = Crd_obs.Gauge.add Metrics.mem_shard_bytes (-chunk_bytes ch)

let fresh_chunk () =
  let ch =
    {
      c_idx = Array.make chunk_events 0;
      c_ev = Array.make chunk_events call_mark;
      c_call = Array.make chunk_events 0;
      c_obj = Array.make chunk_events no_obj;
      c_meth = Array.make chunk_events "";
      c_end = Array.make chunk_events 0;
      c_vals = Array.make chunk_events Value.Nil;
      c_nvals = 0;
      c_n = 0;
    }
  in
  Crd_obs.Gauge.add Metrics.mem_shard_bytes (chunk_bytes ch);
  ch

let rec put_values ch = function
  | [] -> ()
  | v :: vs ->
      let i = ch.c_nvals in
      if i = Array.length ch.c_vals then begin
        let grown = Array.make (2 * i) Value.Nil in
        Array.blit ch.c_vals 0 grown 0 i;
        ch.c_vals <- grown;
        Crd_obs.Gauge.add Metrics.mem_shard_bytes (word_bytes * i)
      end;
      Array.unsafe_set ch.c_vals i v;
      ch.c_nvals <- i + 1;
      put_values ch vs

(* Appends; true when the chunk is now full. *)
let add ch index (e : Event.t) =
  let i = ch.c_n in
  Array.unsafe_set ch.c_idx i index;
  (match e.op with
  | Event.Call a ->
      let start = ch.c_nvals in
      put_values ch a.Action.args;
      Array.unsafe_set ch.c_call i
        (Tid.to_int e.tid lor ((ch.c_nvals - start) lsl 16));
      put_values ch a.Action.rets;
      Array.unsafe_set ch.c_end i ch.c_nvals;
      Array.unsafe_set ch.c_ev i call_mark;
      Array.unsafe_set ch.c_obj i a.Action.obj;
      Array.unsafe_set ch.c_meth i a.Action.meth
  | _ -> Array.unsafe_set ch.c_ev i e);
  ch.c_n <- i + 1;
  ch.c_n = chunk_events

let rec values_from vals i stop =
  if i = stop then []
  else Array.unsafe_get vals i :: values_from vals (i + 1) stop

(* [f index event] on each event in order, a call rebuilt from its
   values. *)
let iter_chunk ch f =
  let start = ref 0 in
  for i = 0 to ch.c_n - 1 do
    let e = Array.unsafe_get ch.c_ev i in
    let e =
      if e != call_mark then e
      else begin
        let c = Array.unsafe_get ch.c_call i
        and stop = Array.unsafe_get ch.c_end i in
        let mid = !start + (c lsr 16) in
        let action =
          {
            Action.obj = Array.unsafe_get ch.c_obj i;
            meth = Array.unsafe_get ch.c_meth i;
            args = values_from ch.c_vals !start mid;
            rets = values_from ch.c_vals mid stop;
          }
        in
        start := stop;
        Event.call (Tid.of_int (c land 0xffff)) action
      end
    in
    f (Array.unsafe_get ch.c_idx i) e
  done

(* A shard worker drains its queue until the producer closes it. One
   that dies releases the chunk it was on, closes its queue, so the
   producer's next [push] is refused instead of waiting forever, and
   releases what was queued. *)
let worker config ~collect ~repr_for ~spec_for q () =
  Crd_obs.time Metrics.shard_wall_seconds (fun () ->
      let dets = make_detectors config ~collect ~repr_for ~spec_for in
      let rec loop () =
        match Bqueue.pop q with
        | None -> ()
        | Some ch ->
            Fun.protect
              ~finally:(fun () -> release ch)
              (fun () ->
                iter_chunk ch (fun index e -> dispatch dets ~index e));
            Crd_obs.Counter.incr Metrics.shard_chunks_total;
            loop ()
      in
      match loop () with
      | () -> Ok (outputs_of dets)
      | exception e ->
          Metrics.publish_pool dets.pool;
          Bqueue.close q;
          let rec drain () =
            Option.iter
              (fun ch ->
                release ch;
                drain ())
              (Bqueue.pop q)
          in
          drain ();
          Error e)

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

type shards = {
  queues : chunk Bqueue.t array;
  workers : (outputs, exn) Stdlib.result Domain.t array;
  fill : chunk array;  (* each shard's chunk being filled *)
}

type mode =
  | Inline of detectors  (** [jobs = 1]: detectors fed by {!step} *)
  | Sharded of shards
  | Finished of result
  | Failed of exn

type t = {
  resolve : Obj_id.t -> Spec.t option * Repr.t option;
  atomicity : Atomicity.t option;
  calls_read : bool;  (* RD2 or direct runs *)
  accesses_read : bool;  (* FastTrack or DJIT+ runs *)
  mutable events : int;
  mutable mode : mode;
}

(* Ends the shard pipeline, once: hand each non-empty fill chunk over
   when [flush] (a chunk not handed over is released here), close every
   queue so the live workers drain it and exit, and join them all. The
   first failure, in shard order, wins. *)
let join_shards ~flush s =
  Array.iteri
    (fun i ch ->
      if not (flush && ch.c_n > 0 && Bqueue.push s.queues.(i) ch) then
        release ch;
      Bqueue.close s.queues.(i))
    s.fill;
  Array.fold_right
    (fun w acc ->
      match (Domain.join w, acc) with
      | Error e, _ -> Error e
      | Ok o, Ok os -> Ok (o :: os)
      | Ok _, (Error _ as err) -> err)
    s.workers (Ok [])

(* Shuts the engine down on [e]. A shard worker's failure wins over it:
   it met an event the producer had already passed, and it is why a
   [push] was refused. *)
let abandon t e =
  let e =
    match t.mode with
    | Sharded s -> (
        match join_shards ~flush:false s with Error w -> w | Ok _ -> e)
    | Inline d ->
        Metrics.publish_pool d.pool;
        e
    | Finished _ | Failed _ -> e
  in
  t.mode <- Failed e;
  raise e

(* The shard of key [k] among [n]: [abs (k mod n)], never negative (unlike
   [abs k mod n], since [abs min_int < 0]). *)
let shard_of k n = abs (k mod n)

let append s shard index e =
  if add s.fill.(shard) index e then
    if Bqueue.push s.queues.(shard) s.fill.(shard) then
      s.fill.(shard) <- fresh_chunk ()
    else failwith "Analyzer: a shard worker stopped"

(* A call goes to its object's shard, a read or write to its location's,
   and a synchronization event to every shard: each runs its own clock
   pass. *)
let route t s index (e : Event.t) =
  let n = Array.length s.queues in
  match e.op with
  | Event.Call action ->
      (* Resolved here, in the producer, before any worker can ask. *)
      ignore (t.resolve action.Action.obj);
      append s (shard_of (Obj_id.id action.Action.obj) n) index e
  | Event.Read loc | Event.Write loc ->
      append s (shard_of (Mem_loc.hash loc) n) index e
  | Event.Fork _ | Event.Join _ | Event.Acquire _ | Event.Release _ ->
      for shard = 0 to n - 1 do
        append s shard index e
      done
  | Event.Begin | Event.End -> ()

(* One worker domain per queue. A failed spawn (OCaml 5.1 caps a
   process at 128 domains) closes every queue, so the workers already
   spawned find theirs empty and exit, joins them, and is an [Error]. *)
let spawn_workers queues body =
  let spawned = ref [] in
  match
    Array.iter (fun q -> spawned := Domain.spawn (body q) :: !spawned) queues
  with
  | () -> Ok (Array.of_list (List.rev !spawned))
  | exception Failure e ->
      Array.iter Bqueue.close queues;
      List.iter (fun w -> ignore (Domain.join w)) !spawned;
      Error (Printf.sprintf "cannot run %d shards: %s" (Array.length queues) e)

let create ?(config = default_config) ?(jobs = 1) ?(collect = true) ~spec_for
    () =
  (* The spec -> access-point memo: one entry per object, over one
     translation per specification. Only the producer writes it; shard
     workers read it under [mu], once per object they meet. Translation
     is needed only by RD2 and the atomicity checker, and fails loudly. *)
  let objs : (int, Spec.t option * Repr.t option) Hashtbl.t =
    Hashtbl.create 64
  in
  let mu = Mutex.create () in
  let translate = Repr.memo () in
  let needs_repr = config.rd2 <> `Off || config.atomicity in
  let resolve o =
    let key = Obj_id.id o in
    match Hashtbl.find_opt objs key with
    | Some r -> r
    | None ->
        let spec = spec_for o in
        let repr =
          match spec with
          | Some s when needs_repr -> (
              match translate s with
              | Ok r -> Some r
              | Error e -> invalid_arg ("Analyzer: " ^ e))
          | _ -> None
        in
        Mutex.protect mu (fun () -> Hashtbl.replace objs key (spec, repr));
        (spec, repr)
  in
  let jobs = max 1 jobs in
  let mode =
    if jobs = 1 then
      Ok
        (Inline
           (make_detectors config ~collect
              ~repr_for:(fun o -> snd (resolve o))
              ~spec_for:(fun o -> fst (resolve o))))
    else begin
      let lookup o =
        Mutex.protect mu (fun () ->
            Option.value ~default:(None, None)
              (Hashtbl.find_opt objs (Obj_id.id o)))
      in
      let queues =
        Array.init jobs (fun _ -> Bqueue.create ~capacity:queued_chunks ())
      in
      spawn_workers queues
        (worker config ~collect
           ~repr_for:(fun o -> snd (lookup o))
           ~spec_for:(fun o -> fst (lookup o)))
      |> Result.map (fun workers ->
             Sharded
               { queues; workers; fill = Array.init jobs (fun _ -> fresh_chunk ()) })
    end
  in
  Result.map
    (fun mode ->
      {
        resolve;
        (* The atomicity checker is cross-object (one transactional graph),
           so it cannot be sharded; it runs in the producer. *)
        atomicity =
          (if config.atomicity then
             Some (Atomicity.create ~repr_for:(fun o -> snd (resolve o)) ())
           else None);
        calls_read = config.rd2 <> `Off || config.direct;
        accesses_read = config.fasttrack || config.djit;
        events = 0;
        mode;
      })
    mode

let with_stdspecs ?config ?jobs ?collect () =
  match
    create ?config ?jobs ?collect ~spec_for:Crd_stdspecs.Stdspecs.spec_for ()
  with
  | Ok t -> t
  | Error e -> invalid_arg ("Analyzer.with_stdspecs: " ^ e)

let step t (e : Event.t) =
  (match t.mode with
  | Finished _ -> invalid_arg "Analyzer.step: the analysis is finished"
  | Failed exn -> raise exn
  | Inline _ | Sharded _ -> ());
  let index = t.events in
  t.events <- index + 1;
  Crd_obs.Counter.incr Metrics.events_total;
  try
    (match t.atomicity with
    | Some a -> ignore (Atomicity.step a ~index e)
    | None -> ());
    (* Only the events a bundle reads are dispatched or routed: every
       event that moves a clock, calls when RD2 or direct runs, reads and
       writes when FastTrack or DJIT+ does. [Begin] and [End] move no
       clock, and a thread's first event of any kind starts it at
       [inc_tau bot]. *)
    let routed =
      match e.op with
      | Event.Call _ -> t.calls_read
      | Event.Read _ | Event.Write _ -> t.accesses_read
      | Event.Fork _ | Event.Join _ | Event.Acquire _ | Event.Release _ ->
          true
      | Event.Begin | Event.End -> false
    in
    if routed then
      match t.mode with
      | Inline d -> dispatch d ~index e
      | Sharded s -> route t s index e
      | Finished _ | Failed _ -> assert false
  with exn -> abandon t exn

let run_trace t trace = Trace.iter_events trace ~f:(step t)
let events t = t.events

(* Deterministic merge: each trace index lives in exactly one shard and
   per-shard report lists are already in trace order, so merging the
   lists pairwise on the index reproduces the sequential report list
   exactly, in one linear pass per shard and no sort. On equal indices
   the earlier list goes first, as a stable sort would order them. *)
let merge_reports index_of per_shard =
  let rec merge2 acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a', y :: b' ->
        if index_of y < index_of x then merge2 (y :: acc) a b'
        else merge2 (x :: acc) a' b
  in
  List.fold_left (merge2 []) [] per_shard

let sum_stats add = function
  | [] -> None
  | s0 :: rest -> Some (List.fold_left add s0 rest)

let add_rd2 (a : Rd2.stats) (b : Rd2.stats) =
  {
    Rd2.actions = a.actions + b.actions;
    lookups = a.lookups + b.lookups;
    races = a.races + b.races;
    same_epoch = a.same_epoch + b.same_epoch;
    promotions = a.promotions + b.promotions;
    deflations = a.deflations + b.deflations;
  }

let add_direct (a : Direct.stats) (b : Direct.stats) =
  {
    Direct.actions = a.actions + b.actions;
    lookups = a.lookups + b.lookups;
    races = a.races + b.races;
  }

let add_ft (a : Fasttrack.stats) (b : Fasttrack.stats) =
  {
    Fasttrack.reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    same_epoch = a.same_epoch + b.same_epoch;
    races = a.races + b.races;
  }

let complete t ~shards outs =
  let merge_span = Crd_obs.Span.start Metrics.shard_merge_seconds in
  let merge index_of f = merge_reports index_of (List.map f outs) in
  let report_index (r : Report.t) = r.Report.index
  and rw_index (r : Rw_report.t) = r.Rw_report.index in
  let rd2_reports = merge report_index (fun o -> o.o_rd2)
  and direct_reports = merge report_index (fun o -> o.o_direct)
  and fasttrack_reports = merge rw_index (fun o -> o.o_ft)
  and djit_reports = merge rw_index (fun o -> o.o_djit) in
  Crd_obs.Span.finish merge_span;
  let r =
    {
      events = t.events;
      shards;
      rd2_reports;
      rd2_distinct = Report.sorted_union (List.map (fun o -> o.o_rd2_fps) outs);
      rd2_stats = sum_stats add_rd2 (List.filter_map (fun o -> o.o_rd2_stats) outs);
      direct_reports;
      direct_stats =
        sum_stats add_direct (List.filter_map (fun o -> o.o_direct_stats) outs);
      fasttrack_reports;
      fasttrack_distinct =
        Rw_report.union_count (List.map (fun o -> o.o_ft_locs) outs);
      fasttrack_stats =
        sum_stats add_ft (List.filter_map (fun o -> o.o_ft_stats) outs);
      djit_reports;
      atomicity_violations =
        (match t.atomicity with Some a -> Atomicity.violations a | None -> []);
    }
  in
  Option.iter Metrics.publish_rd2 r.rd2_stats;
  t.mode <- Finished r;
  r

let finish t =
  match t.mode with
  | Finished r -> r
  | Failed e -> raise e
  | Inline d -> complete t ~shards:1 [ outputs_of d ]
  | Sharded s -> (
      match join_shards ~flush:true s with
      | Error e ->
          t.mode <- Failed e;
          raise e
      | Ok outs -> complete t ~shards:(Array.length s.workers) outs)

let rd2_races t = (finish t).rd2_reports
let rd2_stats t = (finish t).rd2_stats
let direct_races t = (finish t).direct_reports
let fasttrack_races t = (finish t).fasttrack_reports
let fasttrack_stats t = (finish t).fasttrack_stats
let djit_races t = (finish t).djit_reports
let atomicity_violations t = (finish t).atomicity_violations

let pp_result ppf (r : result) =
  Fmt.pf ppf "@[<v>events: %d" r.events;
  if r.shards > 1 then Fmt.pf ppf " (%d shards)" r.shards;
  Fmt.pf ppf "@,";
  (match r.rd2_stats with
  | Some s ->
      Fmt.pf ppf "rd2: %d races (%d distinct)@," s.Rd2.races
        (Array.length r.rd2_distinct);
      if s.Rd2.actions > 0 then
        Fmt.pf ppf "rd2: %d/%d actions same-epoch (%.1f%%)@," s.Rd2.same_epoch
          s.Rd2.actions
          (100. *. float_of_int s.Rd2.same_epoch /. float_of_int s.Rd2.actions)
  | None -> ());
  (match r.direct_stats with
  | Some _ ->
      Fmt.pf ppf "direct: %d races (%d distinct)@,"
        (List.length r.direct_reports)
        (Report.distinct r.direct_reports)
  | None -> ());
  (match r.fasttrack_stats with
  | Some s ->
      Fmt.pf ppf "fasttrack: %d races (%d distinct locations)@,"
        s.Fasttrack.races r.fasttrack_distinct
  | None -> ());
  if r.djit_reports <> [] then
    Fmt.pf ppf "djit: %d races (%d distinct locations)@,"
      (List.length r.djit_reports)
      (Rw_report.distinct_locations r.djit_reports);
  if r.atomicity_violations <> [] then
    Fmt.pf ppf "atomicity: %d violation(s)@,"
      (List.length r.atomicity_violations);
  Fmt.pf ppf "@]"

let pp_summary ppf t = pp_result ppf (finish t)
