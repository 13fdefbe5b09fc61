(* Crd_sync and the racedb replication model: merge laws (commutative /
   associative / idempotent) on version vectors, rollup rings and whole
   entries; N-replica convergence under random ingest/gossip schedules;
   the CRDY wire exchange over a socketpair; and idempotence of the
   exchange under injected sync_* faults. *)

open Crd
module Db = Crd_racedb.Db
module Record = Crd_racedb.Record
module Entry = Crd_racedb.Entry
module Rollup = Crd_racedb.Rollup
module Vv = Crd_racedb.Vv
module Provenance = Crd_racedb.Provenance
module Gen = QCheck2.Gen

(* Faulted exchanges race writes against peer closes; that must surface
   as EPIPE (handled), not kill the test binary. *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- generators ----------------------------------------------------- *)

let mk_report ?(key = "k") ?(meth = "put") ?(name = "dictionary:o") () =
  let obj = Obj_id.make ~name 7 in
  {
    Report.index = 42;
    obj;
    tid = Tid.of_int 2;
    action = Action.make ~obj ~meth ~args:[ Value.Str key ] ();
    point = meth ^ ":k[" ^ key ^ "]";
    conflicting = "put:k[" ^ key ^ "]";
    prior = None;
  }

let vv_gen =
  let open Gen in
  let node = Gen.oneofl [ "n-a"; "n-b"; "n-c"; "n-d" ] in
  let* l =
    Gen.list_size (Gen.int_bound 4)
      (Gen.pair node (Gen.map (fun n -> n + 1) (Gen.int_bound 50)))
  in
  Gen.return (Vv.of_list l)

(* a minutes-shaped ring with a handful of live buckets near a fixed
   base time, so joins have real overlaps to resolve *)
let rollup_gen =
  let open Gen in
  let base = 1_700_000_000. in
  let* samples =
    Gen.list_size (Gen.int_bound 8)
      (Gen.pair (Gen.int_bound 50) (Gen.map (fun n -> n + 1) (Gen.int_bound 9)))
  in
  Gen.return
    (let r = Rollup.create ~res:60 ~slots:60 in
     List.iter
       (fun (m, c) -> Rollup.add ~count:c r (base +. (60. *. float_of_int m)))
       samples;
     r)

(* entries share one fingerprint (merge requires it) but vary in every
   replicated register *)
let entry_gen =
  let open Gen in
  let* counts = vv_gen in
  let counts = if counts = Vv.empty then Vv.set Vv.empty "n-a" 1 else counts in
  let* ver = vv_gen in
  let* t0 = Gen.map (fun n -> 1000. +. float_of_int n) (Gen.int_bound 5000) in
  let* dt = Gen.map float_of_int (Gen.int_bound 5000) in
  let* key = Gen.oneofl [ "s1"; "s2"; "s3" ] in
  let* minutes = rollup_gen in
  let* provenance = Gen.oneofl [ Provenance.Predicted; Provenance.Witnessed ] in
  let sample = Record.make ~ts:t0 ~provenance ~spec:"std" (mk_report ~key ()) in
  Gen.return
    {
      Entry.fingerprint = 7L;
      counts;
      ver;
      first_seen = t0;
      last_seen = t0 +. dt;
      sample;
      minutes;
      hours = Rollup.create ~res:3600 ~slots:48;
      days = Rollup.create ~res:86400 ~slots:30;
      provenance;
    }

(* --- merge laws ----------------------------------------------------- *)

let vv_laws =
  [
    qcheck "vv join commutative" (Gen.pair vv_gen vv_gen) (fun (a, b) ->
        Vv.equal (Vv.join a b) (Vv.join b a));
    qcheck "vv join associative"
      (Gen.triple vv_gen vv_gen vv_gen)
      (fun (a, b, c) ->
        Vv.equal (Vv.join a (Vv.join b c)) (Vv.join (Vv.join a b) c));
    qcheck "vv join idempotent" vv_gen (fun a -> Vv.equal (Vv.join a a) a);
    qcheck "vv join dominates both" (Gen.pair vv_gen vv_gen) (fun (a, b) ->
        let j = Vv.join a b in
        Vv.dominates j a && Vv.dominates j b);
  ]

let rollup_join a b =
  let d = Rollup.copy a in
  Rollup.join d b;
  d

let rollup_laws =
  [
    qcheck "rollup join commutative" (Gen.pair rollup_gen rollup_gen)
      (fun (a, b) -> Rollup.equal (rollup_join a b) (rollup_join b a));
    qcheck "rollup join associative"
      (Gen.triple rollup_gen rollup_gen rollup_gen)
      (fun (a, b, c) ->
        Rollup.equal
          (rollup_join a (rollup_join b c))
          (rollup_join (rollup_join a b) c));
    qcheck "rollup join idempotent" rollup_gen (fun a ->
        Rollup.equal (rollup_join a a) a);
  ]

let entry_laws =
  [
    qcheck "entry merge commutative" (Gen.pair entry_gen entry_gen)
      (fun (a, b) -> Entry.equal (Entry.merge a b) (Entry.merge b a));
    qcheck "entry merge associative"
      (Gen.triple entry_gen entry_gen entry_gen)
      (fun (a, b, c) ->
        Entry.equal
          (Entry.merge a (Entry.merge b c))
          (Entry.merge (Entry.merge a b) c));
    qcheck "entry merge idempotent" entry_gen (fun a ->
        Entry.equal (Entry.merge a a) a);
    qcheck "entry codec round-trip" entry_gen (fun e ->
        let b = Buffer.create 256 in
        Entry.encode b e;
        let e', n = Entry.decode (Buffer.contents b) 0 in
        n = Buffer.length b && Entry.equal e e');
  ]

(* --- replica helpers ------------------------------------------------ *)

let by_fingerprint =
  List.sort (fun (a : Entry.t) (b : Entry.t) ->
      compare a.Entry.fingerprint b.Entry.fingerprint)

let canon db = by_fingerprint (Db.entries db)

(* A store's entries as [rd2 query] reads them, live or not. *)
let loaded dir = by_fingerprint (Result.get_ok (Db.load dir)).Db.v_entries

let same_entries ea eb =
  List.length ea = List.length eb && List.for_all2 Entry.equal ea eb

let same_state a b = same_entries (canon a) (canon b)

(* one push-pull gossip step, straight through the storage API *)
let gossip a b =
  ignore (Db.merge b (Db.delta a ~since:(Db.version b)) : int);
  ignore (Db.merge a (Db.delta b ~since:(Db.version a)) : int)

let report_pool =
  Array.init 12 (fun i -> mk_report ~key:(Printf.sprintf "k%d" i) ())

(* --- convergence under random schedules ----------------------------- *)

let convergence n () =
  let rng = Random.State.make [| 4242; n |] in
  let dbs =
    Array.init n (fun _ -> Result.get_ok (Db.open_db (Sessions.fresh_dir "crd-sync")))
  in
  let expected = Hashtbl.create 32 in
  let nonce_ctr = ref 0 in
  for _step = 1 to 80 do
    if Random.State.int rng 3 < 2 then begin
      let node = Random.State.int rng n in
      let k = 1 + Random.State.int rng 4 in
      let ts = 1_700_000_000. +. float_of_int (Random.State.int rng 100_000) in
      let records =
        List.init k (fun _ ->
            Record.make ~ts ~spec:"std"
              report_pool.(Random.State.int rng (Array.length report_pool)))
      in
      incr nonce_ctr;
      ignore
        (Db.publish dbs.(node)
           ~nonce:(Printf.sprintf "s%d" !nonce_ctr)
           records
          : bool);
      List.iter
        (fun r ->
          let fp = Record.fingerprint r in
          Hashtbl.replace expected fp
            (1 + Option.value ~default:0 (Hashtbl.find_opt expected fp)))
        records
    end
    else begin
      let i = Random.State.int rng n in
      let j = Random.State.int rng n in
      if i <> j then gossip dbs.(i) dbs.(j)
    end
  done;
  (* full anti-entropy sweep: every pair, enough rounds for any order *)
  for _round = 1 to n do
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        gossip dbs.(i) dbs.(j)
      done
    done
  done;
  for i = 1 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d = replica 0" i)
      true
      (same_state dbs.(0) dbs.(i))
  done;
  let got =
    List.map
      (fun (e : Entry.t) -> (e.Entry.fingerprint, Entry.count e))
      (canon dbs.(0))
  in
  let want =
    Hashtbl.fold (fun fp c acc -> (fp, c) :: acc) expected []
    |> List.sort compare
  in
  Alcotest.(check (list (pair int64 int)))
    "every publication counted exactly once" want got;
  (* a converged pair exchanges empty deltas *)
  if n > 1 then
    Alcotest.(check int)
      "empty delta after convergence" 0
      (List.length (Db.delta dbs.(0) ~since:(Db.version dbs.(1))));
  Array.iter Db.close dbs

(* re-merging a full snapshot is a no-op, and survives reopen *)
let merge_idempotent_on_store () =
  let da = Sessions.fresh_dir "crd-sync" and db_dir = Sessions.fresh_dir "crd-sync" in
  let a = Result.get_ok (Db.open_db da) in
  let b = Result.get_ok (Db.open_db db_dir) in
  ignore
    (Db.publish a ~nonce:"pa"
       [
         Record.make ~ts:10. ~spec:"std" report_pool.(0);
         Record.make ~ts:20. ~spec:"std" report_pool.(1);
       ]
      : bool);
  let snap = Db.entries a in
  Alcotest.(check bool) "first merge changes b" true (Db.merge b snap > 0);
  Alcotest.(check int) "second merge is a no-op" 0 (Db.merge b snap);
  Alcotest.(check bool) "replicas equal" true (same_state a b);
  Db.close b;
  (* idempotence must hold against the durable state too *)
  let b = Result.get_ok (Db.open_db db_dir) in
  Alcotest.(check int) "merge after reopen is a no-op" 0 (Db.merge b snap);
  Db.close a;
  Db.close b

(* --- the CRDY exchange over a socketpair ---------------------------- *)

(* server side answers exactly as `rd2 serve` does: classify the 5-byte
   preamble, then hand the socket to Crd_sync.serve *)
let exchange server_db client_db =
  let sa, sb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server_res = ref (Error "server never ran") in
  let th =
    Thread.create
      (fun () ->
        (server_res :=
           match Crd_server.Proto.read_preamble sa with
           | Ok (Crd_server.Proto.Sync v) ->
               Crd_sync.serve ~timeout:5. ~version:v sa server_db
           | Ok Crd_server.Proto.Session -> Error "classified as a session"
           | Ok Crd_server.Proto.Health -> Error "classified as a health probe"
           | Error e -> Error e
           | exception e -> Error (Printexc.to_string e));
        (try Unix.shutdown sa Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close sa with Unix.Unix_error _ -> ())
      ()
  in
  let client_res = Crd_sync.client ~timeout:5. sb client_db in
  (try Unix.shutdown sb Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close sb with Unix.Unix_error _ -> ());
  Thread.join th;
  (client_res, !server_res)

let wire_exchange_converges () =
  let a = Result.get_ok (Db.open_db (Sessions.fresh_dir "crd-sync")) in
  let b = Result.get_ok (Db.open_db (Sessions.fresh_dir "crd-sync")) in
  ignore
    (Db.publish a ~nonce:"wa"
       [
         Record.make ~ts:10. ~spec:"std" report_pool.(0);
         Record.make ~ts:20. ~spec:"std" report_pool.(1);
       ]
      : bool);
  ignore
    (Db.publish b ~nonce:"wb"
       [
         Record.make ~ts:30. ~spec:"std" report_pool.(1);
         Record.make ~ts:40. ~spec:"std" report_pool.(2);
       ]
      : bool);
  (match exchange a b with
  | Ok c, Ok s ->
      Alcotest.(check string) "client sees server node" (Db.node_id a) c.Crd_sync.peer;
      Alcotest.(check string) "server sees client node" (Db.node_id b) s.Crd_sync.peer;
      Alcotest.(check int) "client sent its two" 2 c.Crd_sync.sent;
      Alcotest.(check int) "server sent its two" 2 s.Crd_sync.sent;
      Alcotest.(check int) "server learned client's count" c.Crd_sync.sent
        s.Crd_sync.received
  | Error e, _ -> Alcotest.failf "client: %s" e
  | _, Error e -> Alcotest.failf "server: %s" e);
  Alcotest.(check bool) "replicas converged" true (same_state a b);
  (* second exchange: nothing to transfer, nothing applied *)
  (match exchange a b with
  | Ok c, Ok s ->
      Alcotest.(check int) "client resends nothing" 0 c.Crd_sync.sent;
      Alcotest.(check int) "server resends nothing" 0 s.Crd_sync.sent;
      Alcotest.(check int) "nothing applied" 0 (c.Crd_sync.applied + s.Crd_sync.applied)
  | Error e, _ -> Alcotest.failf "client (2nd): %s" e
  | _, Error e -> Alcotest.failf "server (2nd): %s" e);
  Db.close a;
  Db.close b

let refused_without_racedb () =
  let b = Result.get_ok (Db.open_db (Sessions.fresh_dir "crd-sync")) in
  let sa, sb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th =
    Thread.create
      (fun () ->
        (match Crd_server.Proto.read_preamble sa with
        | Ok (Crd_server.Proto.Sync _) ->
            Crd_sync.refuse sa "server runs without --racedb"
        | _ -> ());
        (try Unix.shutdown sa Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close sa with Unix.Unix_error _ -> ())
      ()
  in
  (match Crd_sync.client ~timeout:5. sb b with
  | Ok _ -> Alcotest.fail "exchange must fail against a refusing server"
  | Error e ->
      Alcotest.(check bool)
        "refusal message surfaced" true
        (Sessions.contains e "without --racedb"));
  (try Unix.close sb with Unix.Unix_error _ -> ());
  Thread.join th;
  Db.close b

(* The peer refused and closed before the client wrote anything: the
   client's first write fails with EPIPE while the refusal frame waits
   in its socket, and the refusal is what it reports. *)
let refusal_read_after_failed_write () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let b = Result.get_ok (Db.open_db (Sessions.fresh_dir "crd-sync")) in
  let sa, sb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Crd_sync.refuse sb "server runs without --racedb";
  Unix.close sb;
  (match Crd_sync.client ~timeout:5. sa b with
  | Ok _ -> Alcotest.fail "exchange must fail against a refusing peer"
  | Error e ->
      Alcotest.(check string)
        "refusal, not the broken pipe"
        "sync: peer refused: server runs without --racedb" e);
  Unix.close sa;
  Db.close b

(* --- fault-injected exchanges never corrupt or inflate -------------- *)

let faulted_exchanges_still_converge () =
  let a = Result.get_ok (Db.open_db (Sessions.fresh_dir "crd-sync")) in
  let b = Result.get_ok (Db.open_db (Sessions.fresh_dir "crd-sync")) in
  let expected = Hashtbl.create 16 in
  let publish db nonce reports =
    let records = List.map (fun r -> Record.make ~ts:50. ~spec:"std" r) reports in
    ignore (Db.publish db ~nonce records : bool);
    List.iter
      (fun r ->
        let fp = Record.fingerprint r in
        Hashtbl.replace expected fp
          (1 + Option.value ~default:0 (Hashtbl.find_opt expected fp)))
      records
  in
  publish a "fa" [ report_pool.(0); report_pool.(1); report_pool.(2) ];
  publish b "fb" [ report_pool.(2); report_pool.(3) ];
  Result.get_ok
    (Crd_fault.configure
       "seed=11,sync_read=p:0.15,sync_write=p:0.15,sync_merge=p:0.15,racedb_append=p:0.1");
  let failures = ref 0 in
  Fun.protect ~finally:Crd_fault.reset (fun () ->
      for _attempt = 1 to 12 do
        match exchange a b with
        | Ok _, Ok _ -> ()
        | _ -> incr failures
      done;
      Alcotest.(check bool)
        "some attempts were faulted" true (!failures > 0));
  (* faults off: one clean exchange must finish the job *)
  (match exchange a b with
  | Ok _, Ok _ -> ()
  | Error e, _ -> Alcotest.failf "clean client: %s" e
  | _, Error e -> Alcotest.failf "clean server: %s" e);
  Alcotest.(check bool) "replicas converged" true (same_state a b);
  let got =
    List.map
      (fun (e : Entry.t) -> (e.Entry.fingerprint, Entry.count e))
      (canon a)
  in
  let want =
    Hashtbl.fold (fun fp c acc -> (fp, c) :: acc) expected []
    |> List.sort compare
  in
  Alcotest.(check (list (pair int64 int)))
    "partial deliveries + retries never inflate counts" want got;
  Db.close a;
  Db.close b

(* --- a merge torn mid-frame applies nothing -------------------------- *)

(* The disk image of a crash inside Db.merge: the single merge-batch
   frame half-written, no commit marker yet. Reopening must apply NONE
   of the delta — a durably applied prefix would advance the version
   vector past entries never applied and the peer would skip them
   forever — and a clean retry must still converge. *)
let torn_merge_applies_nothing () =
  let a = Result.get_ok (Db.open_db (Sessions.fresh_dir "crd-sync")) in
  let dir_b = Sessions.fresh_dir "crd-sync" in
  let b = Result.get_ok (Db.open_db dir_b) in
  ignore
    (Db.publish a ~nonce:"ta"
       [
         Record.make ~ts:10. ~spec:"std" report_pool.(0);
         Record.make ~ts:20. ~spec:"std" report_pool.(1);
       ]
      : bool);
  ignore
    (Db.publish b ~nonce:"tb" [ Record.make ~ts:30. ~spec:"std" report_pool.(2) ]
      : bool);
  let vv_before = Db.version b in
  let seg_of dir =
    match
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".log")
    with
    | [ s ] -> Filename.concat dir s
    | l -> Alcotest.failf "expected one segment, got %d" (List.length l)
  in
  let seg = seg_of dir_b in
  let pre_merge = (Unix.stat seg).Unix.st_size in
  let snap = Db.entries a in
  Alcotest.(check bool) "merge applied" true (Db.merge b snap > 0);
  Db.close b;
  let post_merge = (Unix.stat seg).Unix.st_size in
  Alcotest.(check bool) "merge wrote one frame" true (post_merge > pre_merge);
  (* tear the merge frame in half and lose the marker, as a crash
     mid-write would *)
  let bytes = In_channel.with_open_bin seg In_channel.input_all in
  let cut = pre_merge + ((post_merge - pre_merge) / 2) in
  Out_channel.with_open_bin seg (fun oc ->
      Out_channel.output_string oc (String.sub bytes 0 cut));
  Sys.remove (Filename.chop_suffix seg ".log" ^ ".ok");
  let b = Result.get_ok (Db.open_db dir_b) in
  Alcotest.(check bool)
    "version did not advance past the torn merge" true
    (Vv.equal (Db.version b) vv_before);
  Alcotest.(check int) "none of the delta applied" 1
    (List.length (Db.entries b));
  (* the retry re-sends the full delta and converges *)
  Alcotest.(check bool) "retry applies everything" true (Db.merge b snap > 0);
  gossip a b;
  Alcotest.(check bool) "replicas converged" true (same_state a b);
  Db.close a;
  Db.close b

(* --- an unbounded delta stream is refused, not buffered -------------- *)

let write_all fd s =
  let len = String.length s in
  let by = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then go (off + Unix.write fd by off (len - off))
  in
  go 0

let framed payload =
  let b = Buffer.create (String.length payload + 4) in
  Varint.add b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* a hostile "server" that answers the hello and then streams delta
   frames forever, never sending the closing ACK *)
let oversized_delta_stream_refused () =
  let b = Result.get_ok (Db.open_db (Sessions.fresh_dir "crd-sync")) in
  let sa, sb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hello =
    let buf = Buffer.create 32 in
    Buffer.add_char buf (Char.chr Crd_sync.sync_hello);
    Varint.add buf 4;
    Buffer.add_string buf "evil";
    Vv.encode buf Vv.empty;
    framed (Buffer.contents buf)
  in
  let delta_frame =
    (* ~6.4 MB per frame: entries whose sample drags a ~200 kB key *)
    let key = String.make 200_000 'x' in
    let sample = Record.make ~ts:1. ~spec:"std" (mk_report ~key ()) in
    let e =
      {
        Entry.fingerprint = Record.fingerprint sample;
        counts = Vv.set Vv.empty "evil" 1;
        ver = Vv.set Vv.empty "evil" 1;
        first_seen = 1.;
        last_seen = 1.;
        sample;
        minutes = Rollup.create ~res:60 ~slots:60;
        hours = Rollup.create ~res:3600 ~slots:48;
        days = Rollup.create ~res:86400 ~slots:30;
        provenance = Provenance.Witnessed;
      }
    in
    let buf = Buffer.create (1 lsl 23) in
    Buffer.add_char buf (Char.chr Crd_sync.sync_delta);
    Varint.add buf 8;
    for _ = 1 to 8 do
      Entry.encode buf e
    done;
    framed (Buffer.contents buf)
  in
  let th =
    Thread.create
      (fun () ->
        (try
           write_all sa hello;
           (* far more than the 64 MiB exchange cap; the client trips
              the limit and closes, surfacing here as EPIPE *)
           for _ = 1 to 40 do
             write_all sa delta_frame
           done
         with Unix.Unix_error _ -> ());
        try Unix.close sa with Unix.Unix_error _ -> ())
      ()
  in
  (match Crd_sync.client ~timeout:10. sb b with
  | Ok _ -> Alcotest.fail "client must refuse an unbounded delta stream"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "limit error surfaced (got %S)" e)
        true
        (let needle = "exceeds exchange limits" in
         let nh = String.length e and nn = String.length needle in
         let rec go i =
           i + nn <= nh && (String.sub e i nn = needle || go (i + 1))
         in
         go 0));
  (try Unix.close sb with Unix.Unix_error _ -> ());
  Thread.join th;
  Alcotest.(check int) "nothing was merged" 0 (List.length (Db.entries b));
  Db.close b

(* --- the server's anti-entropy loop (rd2 serve --peers) -------------- *)

(* Two servers, each with its own race database, ingest disjoint traces
   while B gossips with A ([peers]) through one-shot faults on the
   connect, a frame read and a merge. Both databases converge to the
   same entries, every fault fired, and a further `rd2 sync` of B's
   store with A applies nothing. A predicted race only B's store held
   before the start reaches A, and by `rd2 sync` from A a fresh third
   store, where `rd2 query` still lists it as predicted. *)
let peers_loop_converges () =
  let module Server = Crd_server.Server in
  let module Synth = Crd_workloads.Synth in
  let t1 = Synth.generate ~seed:101L { (Synth.default ~events:2_000) with threads = 4 }
  and t2 =
    Synth.generate ~seed:202L
      { (Synth.default ~events:2_000) with threads = 4; mix = [ ("set", 5); ("counter", 3) ] }
  in
  let dir_a = Sessions.fresh_dir "crd-sync-a" and dir_b = Sessions.fresh_dir "crd-sync-b" in
  let predicted = mk_report ~key:"predicted-only" () in
  let b = Result.get_ok (Db.open_db dir_b) in
  Db.append b (Record.make ~ts:1. ~provenance:Provenance.Predicted ~spec:"std" predicted);
  Db.close b;
  let want =
    List.sort_uniq compare
      (Report.fingerprint predicted
      :: List.map Report.fingerprint (Sessions.offline_races t1 @ Sessions.offline_races t2))
  in
  Sessions.with_server
    ~f_config:(fun c -> { c with Server.racedb = Some dir_a })
    (fun ~addr:addr_a ~server:_ ->
      (* The faults are spaced so that exchanges succeed between them:
         each success resets the loop's backoff. *)
      let faults = [ Crd_sync.fp_connect; Crd_sync.fp_read; Crd_sync.fp_merge ] in
      Sessions.with_faults "seed=42,sync_connect=nth:1,sync_read=nth:9,sync_merge=nth:7"
        (fun () ->
          Sessions.with_server
            ~f_config:(fun c ->
              { c with Server.racedb = Some dir_b; peers = [ addr_a ]; sync_interval = 0.01 })
            (fun ~addr:addr_b ~server:_ ->
              ignore (Sessions.send_exn ~addr:addr_a t1);
              ignore (Sessions.send_exn ~addr:addr_b t2);
              Sessions.poll ~tries:1200 "the faults never fired or the databases never converged"
                (fun () ->
                  List.for_all (fun p -> Crd_fault.injected_count p > 0) faults
                  &&
                  let ea = loaded dir_a in
                  List.map (fun (e : Entry.t) -> e.Entry.fingerprint) ea = want
                  && same_entries ea (loaded dir_b)));
          List.iter
            (fun p ->
              Alcotest.(check int)
                (Crd_fault.name p ^ " fired") 1 (Crd_fault.injected_count p))
            faults);
      Alcotest.(check bool) "converged after B stopped" true
        (same_entries (loaded dir_a) (loaded dir_b));
      (* `rd2 sync` of [dir] with A, as an operator runs it. *)
      let sync dir =
        Sessions.run_rd2 [ "sync"; "unix:" ^ Sessions.sock_path addr_a; "--racedb"; dir ]
      in
      let out = sync dir_b in
      Alcotest.(check bool)
        (Printf.sprintf "converged pair: nothing sent, received or applied (%s)" out)
        true
        (Sessions.contains out "sent 0, received 0, applied 0 (peer applied 0)");
      let dir_c = Sessions.fresh_dir "crd-sync-c" in
      ignore (sync dir_c);
      Alcotest.(check bool) "still predicted two hops on" true
        (List.mem (Report.fingerprint predicted)
           (Sessions.json_fingerprints
              (Sessions.run_rd2
                 [ "query"; dir_c; "--provenance"; "predicted"; "--json" ]))));
  (* Both servers drained: the stores render the same `rd2 query`. *)
  let query dir = Sessions.run_rd2 [ "query"; dir; "--json" ] in
  let qa = query dir_a in
  Alcotest.(check int) "A's store lists every race" (List.length want)
    (List.length (Sessions.json_fingerprints qa));
  Alcotest.(check string) "rd2 query --json: A = B" qa (query dir_b)

let suite =
  ( "sync",
    vv_laws @ rollup_laws @ entry_laws
    @ [
        Alcotest.test_case "convergence, 2 replicas" `Quick (convergence 2);
        Alcotest.test_case "convergence, 3 replicas" `Quick (convergence 3);
        Alcotest.test_case "convergence, 5 replicas" `Quick (convergence 5);
        Alcotest.test_case "merge idempotent on the store" `Quick
          merge_idempotent_on_store;
        Alcotest.test_case "CRDY exchange converges" `Quick
          wire_exchange_converges;
        Alcotest.test_case "refused without racedb" `Quick
          refused_without_racedb;
        Alcotest.test_case "refusal read after a failed write" `Quick
          refusal_read_after_failed_write;
        Alcotest.test_case "faulted exchanges still converge" `Quick
          faulted_exchanges_still_converge;
        Alcotest.test_case "torn merge frame applies nothing" `Quick
          torn_merge_applies_nothing;
        Alcotest.test_case "oversized delta stream refused" `Quick
          oversized_delta_stream_refused;
        Alcotest.test_case "server --peers loop converges" `Quick
          peers_loop_converges;
      ] )
