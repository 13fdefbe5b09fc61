(* The embedded race database: record codec round-trips, torn-tail
   recovery at every byte offset, compaction (including an injected
   mid-compaction abort), rollup ring arithmetic, and the fingerprint
   identity everything folds by. *)

open Crd
module Db = Crd_racedb.Db
module Record = Crd_racedb.Record
module Rollup = Crd_racedb.Rollup
module Entry = Crd_racedb.Entry
module Synth = Crd_workloads.Synth
module Dense = Rollup_oracle
module Gen = QCheck2.Gen

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- report / record generators ------------------------------------ *)

let value_gen =
  Gen.oneof
    [
      Gen.return Value.Nil;
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map (fun i -> Value.Int i) Gen.int;
      Gen.map (fun s -> Value.Str s) (Gen.string_size (Gen.int_bound 12));
      Gen.map (fun i -> Value.Ref (abs i)) Gen.nat;
    ]

let action_gen obj =
  let open Gen in
  let* meth = Gen.oneofl [ "put"; "get"; "remove"; "size"; "add" ] in
  let* args = Gen.list_size (Gen.int_bound 3) value_gen in
  let* rets = Gen.list_size (Gen.int_bound 2) value_gen in
  Gen.return (Action.make ~obj ~meth ~args ~rets ())

let report_gen =
  let open Gen in
  let* oid = Gen.int_bound 1000 in
  let* name = Gen.oneofl [ "dictionary:o"; "dictionary"; "counter:c"; "set:s" ] in
  let obj = Obj_id.make ~name oid in
  let* index = Gen.nat in
  let* tid = Gen.int_bound 16 in
  let* action = action_gen obj in
  let* point = Gen.string_size (Gen.int_bound 24) in
  let* conflicting = Gen.string_size (Gen.int_bound 24) in
  let* prior =
    Gen.oneof
      [
        Gen.return None;
        (let* ptid = Gen.int_bound 16 in
         let* pact = action_gen obj in
         Gen.return (Some (Tid.of_int ptid, pact)));
      ]
  in
  Gen.return
    {
      Report.index;
      obj;
      tid = Tid.of_int tid;
      action;
      point;
      conflicting;
      prior;
    }

let record_gen =
  let open Gen in
  let* r = report_gen in
  let* spec = Gen.oneofl [ "std"; "custom" ] in
  let* ts = Gen.map (fun n -> float_of_int n /. 7.) (Gen.int_bound 1_000_000) in
  Gen.return (Record.make ~ts ~spec r)

(* A small deterministic report for the non-property tests. *)
let mk_report ?(key = "k") ?(meth = "put") ?(name = "dictionary:o") ?prior_meth
    () =
  let obj = Obj_id.make ~name 7 in
  let prior =
    Option.map
      (fun m -> (Tid.of_int 1, Action.make ~obj ~meth:m ()))
      prior_meth
  in
  {
    Report.index = 42;
    obj;
    tid = Tid.of_int 2;
    action = Action.make ~obj ~meth ~args:[ Value.Str key ] ();
    point = meth ^ ":k[" ^ key ^ "]";
    conflicting = "put:k[" ^ key ^ "]";
    prior;
  }

let mk_record ?key ?meth ?name ?prior_meth ts =
  Record.make ~ts ~spec:"std" (mk_report ?key ?meth ?name ?prior_meth ())

(* --- fingerprint --------------------------------------------------- *)

let fingerprint_symmetric () =
  (* swapping the two (method, point) sides folds to one fingerprint *)
  let obj = Obj_id.make ~name:"dictionary:o" 7 in
  let a =
    {
      Report.index = 1;
      obj;
      tid = Tid.of_int 1;
      action = Action.make ~obj ~meth:"put" ();
      point = "P";
      conflicting = "Q";
      prior = Some (Tid.of_int 2, Action.make ~obj ~meth:"get" ());
    }
  in
  let b =
    {
      a with
      action = Action.make ~obj ~meth:"get" ();
      point = "Q";
      conflicting = "P";
      prior = Some (Tid.of_int 9, Action.make ~obj ~meth:"put" ());
    }
  in
  Alcotest.(check string)
    "mirror image shares the fingerprint" (Report.fingerprint_hex a)
    (Report.fingerprint_hex b);
  Alcotest.(check int) "distinct folds the pair" 1 (Report.distinct [ a; b ])

let fingerprint_invariances () =
  let r = mk_report ~prior_meth:"get" () in
  let same =
    {
      r with
      index = 9999;
      tid = Tid.of_int 13;
      action = { r.Report.action with Action.args = [ Value.Str "k" ] };
    }
  in
  Alcotest.(check string)
    "position/thread independent" (Report.fingerprint_hex r)
    (Report.fingerprint_hex same);
  let other_key = mk_report ~key:"other" ~prior_meth:"get" () in
  Alcotest.(check bool)
    "different access point, different fingerprint" true
    (Report.fingerprint r <> Report.fingerprint other_key);
  let other_obj = mk_report ~name:"dictionary:p" ~prior_meth:"get" () in
  Alcotest.(check bool)
    "different object, different fingerprint" true
    (Report.fingerprint r <> Report.fingerprint other_obj)

(* --- record codec --------------------------------------------------- *)

let record_roundtrip_tests =
  [
    qcheck "decode (encode r) = r" record_gen (fun r ->
        match Record.decode (Record.encode r) with
        | Ok r' -> Record.equal r r'
        | Error e -> QCheck2.Test.fail_report e);
    qcheck "strict prefixes are errors" record_gen (fun r ->
        let s = Record.encode r in
        String.length s = 0
        || Result.is_error (Record.decode (String.sub s 0 (String.length s - 1))));
    qcheck "trailing garbage is an error" record_gen (fun r ->
        Result.is_error (Record.decode (Record.encode r ^ "\x00")));
    qcheck ~count:300 "bit flips never raise" record_gen (fun r ->
        let s = Bytes.of_string (Record.encode r) in
        let pos = Hashtbl.hash (Bytes.to_string s) mod Bytes.length s in
        let bit = 1 lsl (Hashtbl.hash pos land 7) in
        Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor bit));
        match Record.decode (Bytes.to_string s) with
        | Ok _ | Error _ -> true);
  ]

(* --- rollups -------------------------------------------------------- *)

let rollup_buckets () =
  let r = Rollup.create ~res:60 ~slots:3 in
  Rollup.add r 0.;
  Rollup.add r 59.;
  Rollup.add r 60.;
  Rollup.add r 120.;
  Alcotest.(check int) "all live" 4 (Rollup.total r);
  Alcotest.(check (list (pair (float 0.) int)))
    "bucket starts and counts"
    [ (0., 2); (60., 1); (120., 1) ]
    (Rollup.to_list r);
  (* bucket 3 wraps onto slot 0, evicting bucket 0 *)
  Rollup.add r 180.;
  Alcotest.(check int) "wrap evicts the oldest" 3 (Rollup.total r);
  Alcotest.(check (list (pair (float 0.) int)))
    "window slid" [ (60., 1); (120., 1); (180., 1) ] (Rollup.to_list r);
  (* a sample older than every live bucket is dropped *)
  Rollup.add r 0.;
  Alcotest.(check int) "stale sample dropped" 3 (Rollup.total r);
  Alcotest.(check int) "total_since cuts buckets" 2
    (Rollup.total_since r 125.)

let rollup_merge_and_codec () =
  let a = Rollup.create ~res:60 ~slots:4 in
  let b = Rollup.create ~res:60 ~slots:4 in
  Rollup.add ~count:2 a 30.;
  Rollup.add b 40.;
  Rollup.add b 100.;
  Rollup.merge_into a b;
  Alcotest.(check (list (pair (float 0.) int)))
    "merge sums buckets"
    [ (0., 3); (60., 1) ]
    (Rollup.to_list a);
  Alcotest.check_raises "resolution mismatch rejected"
    (Invalid_argument "Rollup.merge_into: resolution mismatch") (fun () ->
      Rollup.merge_into a (Rollup.create ~res:30 ~slots:4));
  let buf = Buffer.create 64 in
  Rollup.encode buf a;
  let a', pos = Rollup.decode (Buffer.contents buf) 0 in
  Alcotest.(check int) "decode consumes everything" (Buffer.length buf) pos;
  Alcotest.(check (list (pair (float 0.) int)))
    "codec round-trip" (Rollup.to_list a) (Rollup.to_list a')

(* Differential check against the dense ring [Rollup_oracle]: random
   operation sequences over three rings of one shape, applied to both
   implementations. The sequences mix adds (also older than the window
   and at negative times), pre-bucketed adds (negative buckets and
   counts included), additive merges and joins (a ring with itself
   too), copies, round trips, and decodes of hand-built bytes: stale
   and non-congruent buckets, an empty bucket field (0) with a nonzero
   count, and other shapes, on which merges and joins must fail alike.
   After every operation both sides must agree on the encoded bytes,
   [total], [total_since], [to_list] and pairwise [equal], and the
   sparse ring must survive [decode] of its own encoding. *)

type rollup_op =
  | Add of int * float * int option
  | Add_bucket of int * int * int
  | Merge_into of int * int
  | Join of int * int
  | Copy of int * int
  | Decode of int * string
  | Round_trip of int

let pp_rollup_op = function
  | Add (i, ts, c) ->
      Printf.sprintf "add r%d %g%s" i ts
        (match c with Some c -> Printf.sprintf " ~count:%d" c | None -> "")
  | Add_bucket (i, b, c) -> Printf.sprintf "add_bucket r%d %d %d" i b c
  | Merge_into (i, j) -> Printf.sprintf "merge_into r%d r%d" i j
  | Join (i, j) -> Printf.sprintf "join r%d r%d" i j
  | Copy (i, j) -> Printf.sprintf "r%d := copy r%d" i j
  | Decode (i, s) -> Printf.sprintf "r%d := decode %S" i s
  | Round_trip i -> Printf.sprintf "r%d := decode (encode r%d)" i i

(* Wire bytes of a ring of [slots] slots, one (bucket + 1, count) pair
   a slot, drawn freely rather than written by either implementation. *)
let ring_bytes_gen ~res ~slots =
  let open Gen in
  let* res = frequency [ (5, return res); (1, return (res + 1)) ]
  and* slots = frequency [ (5, return slots); (1, int_range 1 8) ] in
  let+ cells =
    list_repeat slots
      (pair
         (frequency [ (3, return 0); (3, int_range 1 40) ])
         (frequency [ (2, return 0); (3, int_range 1 5) ]))
  in
  let b = Buffer.create 32 in
  Crd_base.Varint.add b res;
  Crd_base.Varint.add b slots;
  List.iter
    (fun (bucket, count) ->
      Crd_base.Varint.add b bucket;
      Crd_base.Varint.add b count)
    cells;
  Buffer.contents b

let rollup_case_gen =
  let open Gen in
  let* res = oneofl [ 1; 60 ] and* slots = int_range 1 8 in
  let ring = int_bound 2 in
  let op =
    frequency
      [
        ( 5,
          map3
            (fun i b c -> Add (i, (float_of_int (b * res) +. 0.5), c))
            ring (int_range (-2) 40)
            (opt (int_range (-1) 4)) );
        ( 3,
          map3 (fun i b c -> Add_bucket (i, b, c)) ring (int_range (-2) 40)
            (int_range (-1) 5) );
        (2, map2 (fun i j -> Merge_into (i, j)) ring ring);
        (2, map2 (fun i j -> Join (i, j)) ring ring);
        (1, map2 (fun i j -> Copy (i, j)) ring ring);
        (1, map2 (fun i s -> Decode (i, s)) ring (ring_bytes_gen ~res ~slots));
        (1, map (fun i -> Round_trip i) ring);
      ]
  in
  let+ ops = list_size (int_range 1 40) op
  and+ cutoff = map float_of_int (int_range (-60) (45 * res)) in
  (res, slots, ops, cutoff)

let print_rollup_case (res, slots, ops, cutoff) =
  Printf.sprintf "res %d, slots %d, cutoff %g:\n  %s" res slots cutoff
    (String.concat "\n  " (List.map pp_rollup_op ops))

let outcome f = match f () with () -> Ok () | exception Invalid_argument m -> Error m

let apply_rollup_op sp dn = function
  | Add (i, ts, count) ->
      outcome (fun () -> Rollup.add ?count sp.(i) ts)
      = outcome (fun () -> Dense.add ?count dn.(i) ts)
  | Add_bucket (i, bucket, count) ->
      outcome (fun () -> Rollup.add_bucket sp.(i) ~bucket ~count)
      = outcome (fun () -> Dense.add_bucket dn.(i) ~bucket ~count)
  | Merge_into (i, j) ->
      outcome (fun () -> Rollup.merge_into sp.(i) sp.(j))
      = outcome (fun () -> Dense.merge_into dn.(i) dn.(j))
  | Join (i, j) ->
      outcome (fun () -> Rollup.join sp.(i) sp.(j))
      = outcome (fun () -> Dense.join dn.(i) dn.(j))
  | Copy (i, j) ->
      sp.(i) <- Rollup.copy sp.(j);
      dn.(i) <- Dense.copy dn.(j);
      true
  | Decode (i, s) ->
      let r, p = Rollup.decode s 0 and d, q = Dense.decode s 0 in
      sp.(i) <- r;
      dn.(i) <- d;
      p = String.length s && q = p
  | Round_trip i ->
      let b = Buffer.create 64 in
      Rollup.encode b sp.(i);
      sp.(i) <- fst (Rollup.decode (Buffer.contents b) 0);
      let b = Buffer.create 64 in
      Dense.encode b dn.(i);
      dn.(i) <- fst (Dense.decode (Buffer.contents b) 0);
      true

let rollups_agree sp dn cutoff =
  let bytes encode r =
    let b = Buffer.create 64 in
    encode b r;
    Buffer.contents b
  in
  let ok = ref true in
  Array.iteri
    (fun i r ->
      let d = dn.(i) in
      let s = bytes Rollup.encode r in
      ok :=
        !ok
        && s = bytes Dense.encode d
        && Rollup.res r = Dense.res d
        && Rollup.slots r = Dense.slots d
        && Rollup.total r = Dense.total d
        && Rollup.total_since r cutoff = Dense.total_since d cutoff
        && Rollup.to_list r = Dense.to_list d
        && (let r', pos = Rollup.decode s 0 in
            pos = String.length s && Rollup.equal r' r
            && bytes Rollup.encode r' = s);
      Array.iteri
        (fun j r2 -> ok := !ok && Rollup.equal r r2 = Dense.equal d dn.(j))
        sp)
    sp;
  !ok

let rollup_matches_dense_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1_500 ~name:"rollup: sparse ring == dense oracle"
       ~print:print_rollup_case rollup_case_gen (fun (res, slots, ops, cutoff) ->
         let sp = Array.init 3 (fun _ -> Rollup.create ~res ~slots)
         and dn = Array.init 3 (fun _ -> Dense.create ~res ~slots) in
         rollups_agree sp dn cutoff
         && List.for_all
              (fun op -> apply_rollup_op sp dn op && rollups_agree sp dn cutoff)
              ops))

(* Counting into a slot the ring already stores (its bucket again, or
   a newer tenant of the slot) writes in place. *)
let rollup_add_allocates_nothing () =
  let r = Rollup.create ~res:60 ~slots:60 in
  Rollup.add r 30.;
  Rollup.add r 90.;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Rollup.add_bucket r ~bucket:(i land 1) ~count:1;
    Rollup.add r 30.
  done;
  Rollup.add_bucket r ~bucket:60 ~count:1;
  let words = Gc.minor_words () -. before in
  if words > 100. then
    Alcotest.failf "10,001 adds to stored slots allocated %.0f words" words;
  Alcotest.(check (list (pair (float 0.) int)))
    "counted, bucket 0 evicted" [ (60., 5_001); (3600., 1) ] (Rollup.to_list r)

(* --- segment store -------------------------------------------------- *)

(* The index costs what it stores: one 20k-event synth session (the
   serve-small-sessions shape, thousands of distinct races each seen in
   one minute) published into a fresh store keeps under [bound] words a
   distinct entry reachable from the handle — the entry, its sample,
   vectors, rings and table slot. Dense rings alone took ~290. *)
let index_memory_per_entry () =
  let bound = 160 in
  let an = Analyzer.with_stdspecs () in
  Synth.iter ~seed:7L (Synth.default ~events:20_000) ~f:(Analyzer.step an);
  let records =
    List.map (Record.make ~ts:1.7e9 ~spec:"std") (Analyzer.rd2_races an)
  in
  let dir = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db dir) in
  Alcotest.(check bool) "published" true (Db.publish db ~nonce:"s0" records);
  let distinct = (Db.stats db).Db.distinct in
  Alcotest.(check bool) "thousands of entries" true (distinct > 1_000);
  let per_entry = Obj.reachable_words (Obj.repr db) / distinct in
  Db.close db;
  if per_entry >= bound then
    Alcotest.failf "%d words per entry over %d entries (bound %d)" per_entry
      distinct bound

let append_reopen () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db dir) in
  Db.append db (mk_record ~key:"a" 10.);
  Db.append db (mk_record ~key:"a" 20.);
  Db.append db (mk_record ~key:"b" 15.);
  let st = Db.stats db in
  Alcotest.(check int) "distinct live" 2 st.Db.distinct;
  Alcotest.(check int) "total live" 3 st.Db.total;
  Db.close db;
  (* read-only load and a fresh writable open agree *)
  let v = Result.get_ok (Db.load dir) in
  let es = v.Db.v_entries and st = v.Db.v_stats in
  Alcotest.(check int) "distinct after load" 2 st.Db.distinct;
  Alcotest.(check int) "total after load" 3 st.Db.total;
  let top = List.hd es in
  Alcotest.(check int) "dedup count" 2 (Entry.count top);
  Alcotest.(check (float 0.)) "first_seen" 10. top.Entry.first_seen;
  Alcotest.(check (float 0.)) "last_seen" 20. top.Entry.last_seen;
  Alcotest.(check (float 0.)) "sample is the earliest" 10.
    top.Entry.sample.Record.ts;
  let db = Result.get_ok (Db.open_db dir) in
  let st = Db.stats db in
  Alcotest.(check int) "reopen total" 3 st.Db.total;
  Alcotest.(check int) "nothing salvaged after clean close" 0 st.Db.salvaged;
  Db.close db

let locking () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db dir) in
  (match Db.open_db dir with
  | Ok _ -> Alcotest.fail "second writer must be rejected"
  | Error e ->
      Alcotest.(check bool) "error mentions the lock" true (Sessions.contains e "locked"));
  Db.close db;
  let db = Result.get_ok (Db.open_db dir) in
  Db.close db

(* --- published batches ------------------------------------------- *)

let only_segment dir =
  match
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".log")
  with
  | [ s ] -> Filename.concat dir s
  | l -> Alcotest.failf "expected one segment, got %d" (List.length l)

let count_of es fp =
  match List.find_opt (fun (e : Entry.t) -> e.Entry.fingerprint = fp) es with
  | Some e -> Entry.count e
  | None -> 0

(* Session [i] publishes three records only it has ("u<i>", two of them
   under a second ts, one predicted) and two shared ones, so its
   presence and completeness read off the counts. *)
let session_records i =
  let u = Printf.sprintf "u%d" i in
  let ts = float_of_int (100 * (i + 1)) in
  [
    mk_record ~key:u ts;
    mk_record ~key:"shared" ts;
    Record.make ~ts:(ts +. 1.) ~provenance:Crd_racedb.Provenance.Predicted
      ~spec:"std" (mk_report ~key:u ());
    mk_record ~key:"shared" ts;
    mk_record ~key:u (ts +. 1.);
  ]

let unique_fp i = Record.fingerprint (mk_record ~key:(Printf.sprintf "u%d" i) 0.)
let shared_fp = Record.fingerprint (mk_record ~key:"shared" 0.)

(* Each published chunk is one frame: cut the segment at every byte
   offset and every session must be either whole, with its nonce
   published, or absent without it. *)
let torn_tail_published () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db ~auto_compact:0 dir) in
  let sessions = 3 in
  let ends =
    List.init sessions (fun i ->
        Alcotest.(check bool)
          "fresh session publishes" true
          (Db.publish db ~nonce:(Printf.sprintf "n%d" i) (session_records i));
        (Unix.stat (only_segment dir)).Unix.st_size)
  in
  Db.close db;
  let seg = only_segment dir in
  let marker = Filename.chop_suffix seg ".log" ^ ".ok" in
  let bytes = In_channel.with_open_bin seg In_channel.input_all in
  Alcotest.(check int) "last session ends the file" (String.length bytes)
    (List.nth ends (sessions - 1));
  for cut = 0 to String.length bytes - 1 do
    Sessions.write_file seg (String.sub bytes 0 cut);
    Sessions.write_file marker "0\n";
    let present = List.map (fun e -> e <= cut) ends in
    let whole = List.length (List.filter Fun.id present) in
    let where = Printf.sprintf "cut %d" cut in
    let es = (Result.get_ok (Db.load dir)).Db.v_entries in
    List.iteri
      (fun i p ->
        Alcotest.(check int)
          (Printf.sprintf "%s: session %d whole or absent" where i)
          (if p then 3 else 0)
          (count_of es (unique_fp i)))
      present;
    Alcotest.(check int) (where ^ ": shared count") (2 * whole)
      (count_of es shared_fp);
    (* a repairing open agrees, nonce by nonce *)
    let db = Result.get_ok (Db.open_db dir) in
    List.iteri
      (fun i p ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: nonce %d published iff whole" where i)
          p
          (Db.published db (Printf.sprintf "n%d" i)))
      present;
    Alcotest.(check int) (where ^ ": repaired total") (5 * whole)
      (Db.stats db).Db.total;
    Db.close db
  done

(* Crash the tail at every byte offset of the last record: open must
   succeed, keep every earlier record, and account the torn bytes. *)
let torn_tail_every_offset () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db dir) in
  Db.append db (mk_record ~key:"a" 1.);
  Db.append db (mk_record ~key:"b" 2.);
  Db.append db (mk_record ~key:"c" 3.);
  Db.close db;
  let seg = only_segment dir in
  let marker = Filename.chop_suffix seg ".log" ^ ".ok" in
  let bytes = In_channel.with_open_bin seg In_channel.input_all in
  (* the last frame starts where a scan of the first two ends *)
  let frame r =
    (* varint(len) + 'R' tag + record + crc32 *)
    let payload_len = 1 + String.length (Record.encode r) in
    let rec varint_len n = if n < 0x80 then 1 else 1 + varint_len (n lsr 7) in
    varint_len payload_len + payload_len + 4
  in
  let last_start =
    frame (mk_record ~key:"a" 1.) + frame (mk_record ~key:"b" 2.)
  in
  Alcotest.(check int)
    "frame arithmetic matches the file"
    (last_start + frame (mk_record ~key:"c" 3.))
    (String.length bytes);
  for cut = last_start to String.length bytes - 1 do
    Out_channel.with_open_bin seg (fun oc ->
        Out_channel.output_string oc (String.sub bytes 0 cut));
    (* the crash also lost the final marker *)
    Out_channel.with_open_bin marker (fun oc ->
        Out_channel.output_string oc "0\n");
    (* read-only load observes without repairing *)
    let st = (Result.get_ok (Db.load dir)).Db.v_stats in
    Alcotest.(check int)
      (Printf.sprintf "load at cut %d keeps the clean prefix" cut)
      2 st.Db.total;
    Alcotest.(check int)
      (Printf.sprintf "load at cut %d salvages past the marker" cut)
      2 st.Db.salvaged;
    Alcotest.(check int)
      (Printf.sprintf "load at cut %d accounts torn bytes" cut)
      (cut - last_start) st.Db.truncated_bytes
  done;
  (* writable open repairs the worst cut (one byte short of complete) *)
  let db = Result.get_ok (Db.open_db dir) in
  let st = Db.stats db in
  Alcotest.(check int) "repair keeps the clean prefix" 2 st.Db.total;
  Alcotest.(check int) "repair truncated the tail"
    (String.length bytes - 1 - last_start)
    st.Db.truncated_bytes;
  Db.append db (mk_record ~key:"c" 3.);
  Db.close db;
  let st = (Result.get_ok (Db.load dir)).Db.v_stats in
  Alcotest.(check int) "store heals and grows" 3 st.Db.total;
  Alcotest.(check int) "no damage after repair" 0 st.Db.truncated_bytes;
  torn_tail_published ()

let compaction () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  (* tiny segments force rotations; auto_compact=0 keeps it manual *)
  let db = Result.get_ok (Db.open_db ~segment_bytes:4096 ~auto_compact:0 dir) in
  for i = 1 to 200 do
    Db.append db (mk_record ~key:(string_of_int (i mod 5)) (float_of_int i))
  done;
  let before = Db.stats db in
  Alcotest.(check bool) "several segments" true (before.Db.segments > 1);
  (match Db.compact db with
  | Ok n -> Alcotest.(check int) "index holds every distinct race" 5 n
  | Error e -> Alcotest.failf "compact: %s" e);
  let after = Db.stats db in
  Alcotest.(check int) "segments folded away" 1 after.Db.segments;
  Alcotest.(check int) "counts survive compaction" 200 after.Db.total;
  Db.close db;
  let v = Result.get_ok (Db.load dir) in
  let es = v.Db.v_entries and st = v.Db.v_stats in
  Alcotest.(check int) "reload from index: distinct" 5 st.Db.distinct;
  Alcotest.(check int) "reload from index: total" 200 st.Db.total;
  let e = List.hd es in
  Alcotest.(check int) "rollups persisted" (Entry.count e) (Rollup.total e.Entry.minutes)

let compaction_abort_is_harmless () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db ~auto_compact:0 dir) in
  for i = 1 to 50 do
    Db.append db (mk_record ~key:(string_of_int (i mod 3)) (float_of_int i))
  done;
  Result.get_ok (Crd_fault.configure "seed=7,racedb_compact=once");
  Fun.protect ~finally:Crd_fault.reset (fun () ->
      (match Db.compact db with
      | Ok _ -> Alcotest.fail "compaction must abort under the fault"
      | Error e ->
          Alcotest.(check bool)
            "abort is reported" true (Sessions.contains e "fault injected"));
      (* the handle is still fully usable *)
      Db.append db (mk_record ~key:"fresh" 99.);
      let st = Db.stats db in
      Alcotest.(check int) "nothing lost" 51 st.Db.total;
      (* the once-policy is spent: the retry succeeds *)
      match Db.compact db with
      | Ok n -> Alcotest.(check int) "retry compacts" 4 n
      | Error e -> Alcotest.failf "retry: %s" e);
  Db.close db;
  let st = (Result.get_ok (Db.load dir)).Db.v_stats in
  Alcotest.(check int) "counts intact after abort+retry" 51 st.Db.total

(* SIGKILL-shaped crash: copy the store mid-stream (no close, no final
   sync) and reopen the copy — every appended record must be there. *)
let crash_copy_recovers_everything () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  let crash = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db ~sync_every:1000 ~auto_compact:0 dir) in
  for i = 1 to 25 do
    Db.append db (mk_record ~key:(string_of_int i) (float_of_int i))
  done;
  (* simulate the kernel's view at SIGKILL: files as currently written *)
  Array.iter
    (fun f ->
      if f <> "lock" then
        let s =
          In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
        in
        Out_channel.with_open_bin (Filename.concat crash f) (fun oc ->
            Out_channel.output_string oc s))
    (Sys.readdir dir);
  let st = (Result.get_ok (Db.load crash)).Db.v_stats in
  Alcotest.(check int) "every append survives the kill" 25 st.Db.total;
  Alcotest.(check int) "all past the marker" 25 st.Db.salvaged;
  Db.close db;
  (* the server's path: sessions published as counted chunks, one of
     them long enough to split into two chunks *)
  let dir = Sessions.fresh_dir "crd-racedb" in
  let crash = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db ~sync_every:100_000 ~auto_compact:0 dir) in
  let long =
    List.init 5000 (fun i -> mk_record ~key:(string_of_int (i mod 7)) 50.)
  in
  let sessions = List.init 3 session_records in
  List.iteri
    (fun i rs -> ignore (Db.publish db ~nonce:(Printf.sprintf "n%d" i) rs))
    sessions;
  ignore (Db.publish db ~nonce:"long" long);
  let live = Db.entries db in
  Array.iter
    (fun f ->
      if f <> "lock" then
        Sessions.write_file (Filename.concat crash f)
          (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
    (Sys.readdir dir);
  Db.close db;
  let st = (Result.get_ok (Db.load crash)).Db.v_stats in
  Alcotest.(check int) "every published record survives the kill" 5015
    st.Db.total;
  Alcotest.(check int) "published records past the marker" 5015 st.Db.salvaged;
  let db = Result.get_ok (Db.open_db crash) in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("nonce " ^ n ^ " survives") true (Db.published db n))
    [ "n0"; "n1"; "n2"; "long"; "long#1" ];
  Alcotest.(check bool) "the recovered store equals the live one" true
    (List.equal Entry.equal live (Db.entries db));
  Db.close db

let select_filters () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db dir) in
  Db.append db (mk_record ~key:"a" ~name:"dictionary:o" 10.);
  Db.append db (mk_record ~key:"a" ~name:"dictionary:o" 20.);
  Db.append db (mk_record ~key:"b" ~name:"counter:c" 30.);
  let es = Db.entries db in
  Alcotest.(check int) "snapshot size" 2 (List.length es);
  Alcotest.(check int) "most frequent first" 2 (Entry.count (List.hd es));
  Alcotest.(check int) "top=1" 1 (List.length (Db.select ~top:1 es));
  Alcotest.(check int) "since filters by last_seen" 1
    (List.length (Db.select ~since:25. es));
  Alcotest.(check int) "obj filter" 1
    (List.length (Db.select ~obj:"counter:c" es));
  Alcotest.(check int) "spec filter hits" 2
    (List.length (Db.select ~spec:"std" es));
  Alcotest.(check int) "spec filter misses" 0
    (List.length (Db.select ~spec:"custom" es));
  Db.close db

(* --- stores this build does not read ---------------------------------- *)

(* An independent CRC-32 for the hand-built frames and indexes below. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

let add_u32le b v =
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let add_i64le b v =
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

(* varint(len) payload crc32_le(payload): a frame whose checksum holds. *)
let frame payload =
  let b = Buffer.create (String.length payload + 8) in
  Varint.add b (String.length payload);
  Buffer.add_string b payload;
  add_u32le b (crc32 payload);
  Buffer.contents b

let index ~version body =
  let b = Buffer.create (String.length body + 16) in
  Buffer.add_string b "CRDX";
  Buffer.add_char b (Char.chr version);
  Buffer.add_string b body;
  add_u32le b (crc32 body);
  Buffer.contents b

(* The pre-replication (v1) index: plain counts, no vectors, no nonce
   set. *)
let v1_index (r : Record.t) =
  let b = Buffer.create 256 in
  Varint.add b 0 (* folded_up_to *);
  Varint.add b 1;
  add_i64le b (Record.fingerprint r);
  Varint.add b 3;
  add_i64le b (Int64.bits_of_float r.Record.ts);
  add_i64le b (Int64.bits_of_float r.Record.ts);
  List.iter
    (fun (res, slots) -> Rollup.encode b (Rollup.create ~res ~slots))
    [ (60, 60); (3600, 48); (86400, 30) ];
  let sample = Record.encode r in
  Varint.add b (String.length sample);
  Buffer.add_string b sample;
  index ~version:1 (Buffer.contents b)

(* A pre-provenance (v2) entry: today's layout without the trailing
   provenance byte. *)
let entry_v2 e =
  let b = Buffer.create 256 in
  Entry.encode b e;
  Buffer.sub b 0 (Buffer.length b - 1)

let v2_index es =
  let b = Buffer.create 256 in
  Varint.add b 0 (* folded_up_to *);
  Varint.add b 0 (* published nonces *);
  Varint.add b (List.length es);
  List.iter (fun e -> Buffer.add_string b (entry_v2 e)) es;
  index ~version:2 (Buffer.contents b)

(* A 'B' session batch: the chunk nonce and every record. *)
let b_frame ~nonce records =
  let p = Buffer.create 256 in
  Buffer.add_char p 'B';
  Varint.add p (String.length nonce);
  Buffer.add_string p nonce;
  Varint.add p (List.length records);
  List.iter
    (fun r ->
      let s = Record.encode r in
      Varint.add p (String.length s);
      Buffer.add_string p s)
    records;
  frame (Buffer.contents p)

(* A 'G' merge batch of v2 entries. *)
let g_frame es =
  let p = Buffer.create 256 in
  Buffer.add_char p 'G';
  Varint.add p (List.length es);
  List.iter (fun e -> Buffer.add_string p (entry_v2 e)) es;
  frame (Buffer.contents p)

(* Every file of [dir] with the digest of its bytes. *)
let dir_image dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.map (fun f ->
         (f, Digest.to_hex (Digest.file (Filename.concat dir f))))

(* A store this build wrote, then [mangle]d into one it must refuse:
   [mangle] returns the file and the text the error must name. Both
   opens fail, and not one byte of the directory changes. *)
let refused_store mangle () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db dir) in
  Db.append db (mk_record ~key:"a" 1.);
  ignore (Db.publish db ~nonce:"s1" [ mk_record ~key:"b" 2.; mk_record ~key:"b" 2. ]);
  let es = Db.entries db in
  Db.close db;
  let file, where = mangle dir es in
  let before = dir_image dir in
  let refused what = function
    | Ok () -> Alcotest.failf "%s accepted the store" what
    | Error e ->
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "%s error %S names %S" what e needle)
              true (Sessions.contains e needle))
          [ file; where ]
  in
  refused "load" (Result.map ignore (Db.load dir));
  refused "open_db" (Result.map Db.close (Db.open_db dir));
  Alcotest.(check (list (pair string string)))
    "directory unchanged" before (dir_image dir)

let with_index bytes dir _ =
  let path = Filename.concat dir "index.crdx" in
  Sessions.write_file path bytes;
  (path, "predates this build")

(* The frame lands after the store's own frames, past its commit
   marker, where a torn tail would be. *)
let with_frame bytes dir _ =
  let seg = only_segment dir in
  let off = String.length (Sessions.read_file seg) in
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 seg (fun oc ->
      Out_channel.output_string oc bytes);
  (seg, Printf.sprintf "byte %d" off)

let refused_store_test (name, mangle) =
  Alcotest.test_case ("db: refuses " ^ name) `Quick (refused_store mangle)

let refused_v1_index =
  refused_store_test
    ("a v1 index", fun dir es -> with_index (v1_index (List.hd es).Entry.sample) dir es)

let refused_store_tests =
  List.map refused_store_test
    [
      ("a v2 index", fun dir es -> with_index (v2_index es) dir es);
      ( "a 'B' frame",
        fun dir es -> with_frame (b_frame ~nonce:"s2" [ mk_record ~key:"d" 3. ]) dir es );
      ("a 'G' frame", fun dir es -> with_frame (g_frame es) dir es);
      ("an unknown 'Z' frame", fun dir es -> with_frame (frame "Zzz") dir es);
    ]

(* --- counted chunks = the per-record fold ---------------------------- *)

(* A store directory whose node id is fixed, so two stores built from
   the same records compare entry for entry. *)
let node_dir () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  Sessions.write_file (Filename.concat dir "node") "n1\n";
  dir

(* The reference: every record appended on its own. A session splits
   into 4,096-record chunks under the nonces nonce, nonce#1, ..., and a
   chunk whose nonce was published before is skipped: the dedup
   [publish] promises, written out. *)
let append_store batches =
  let db = Result.get_ok (Db.open_db (node_dir ())) in
  let seen = Hashtbl.create 16 in
  let rec chunks nonce i rs =
    if rs <> [] then begin
      let cn =
        if nonce = "" || i = 0 then nonce else Printf.sprintf "%s#%d" nonce i
      in
      if cn = "" || not (Hashtbl.mem seen cn) then begin
        Hashtbl.replace seen cn ();
        List.iteri (fun j r -> if j < 4096 then Db.append db r) rs
      end;
      chunks nonce (i + 1) (List.filteri (fun j _ -> j >= 4096) rs)
    end
  in
  List.iter (fun (nonce, rs) -> chunks nonce 0 rs) batches;
  db

let same_store what expect db =
  let a = Db.entries expect and b = Db.entries db in
  if List.length a <> List.length b then
    QCheck2.Test.fail_reportf "%s: %d entries, expected %d" what (List.length b)
      (List.length a);
  List.iter2
    (fun x y ->
      if not (Entry.equal x y) then
        QCheck2.Test.fail_reportf "%s: entry %a, expected %a" what Entry.pp y
          Entry.pp x)
    a b;
  if not (Crd_racedb.Vv.equal (Db.version expect) (Db.version db)) then
    QCheck2.Test.fail_reportf "%s: version %a, expected %a" what Crd_racedb.Vv.pp
      (Db.version db) Crd_racedb.Vv.pp (Db.version expect)

(* Few fingerprints, each with several encodings (index and thread
   vary, so the sample election shows); timestamps equal, out of order
   and colliding in a ring (3,600 s apart share a minutes slot, 172,800 s
   an hours slot, 2,592,000 s a days slot); both provenances. *)
let batch_record_gen =
  let open Gen in
  let* key = oneofl [ "a"; "b"; "c" ] in
  let* meth = oneofl [ "put"; "get" ] in
  let* index = int_bound 3 in
  let* tid = int_bound 2 in
  let* ts =
    oneofl [ 10.; 10.; 20.; 5.; 3610.; 7210.; 172_810.; 2_592_010.; 1e9 ]
  in
  let* predicted = bool in
  let r = mk_report ~key ~meth () in
  Gen.return
    (Record.make ~ts
       ~provenance:
         (if predicted then Crd_racedb.Provenance.Predicted
          else Crd_racedb.Provenance.Witnessed)
       ~spec:"std"
       { r with Report.index; tid = Tid.of_int tid })

let batches_gen =
  let open Gen in
  list_size (int_range 1 4)
    (pair (oneofl [ ""; "s1"; "s2" ]) (list_size (int_range 1 40) batch_record_gen))

let pp_batches =
  QCheck2.Print.list (fun (n, rs) -> Printf.sprintf "%S:%d" n (List.length rs))

let publish_all db batches =
  List.iter (fun (nonce, rs) -> ignore (Db.publish db ~nonce rs : bool)) batches

let counted_fold_tests =
  [
    QCheck2.Test.make ~count:40 ~name:"publish = per-record append fold"
      ~print:pp_batches batches_gen (fun batches ->
        let expect = append_store batches in
        (* all counted: live, after reopen, after compact + reopen *)
        let dir = node_dir () in
        let db = Result.get_ok (Db.open_db dir) in
        publish_all db batches;
        same_store "live" expect db;
        Db.close db;
        let db = Result.get_ok (Db.open_db dir) in
        same_store "reopened" expect db;
        ignore (Db.compact db);
        Db.close db;
        let db = Result.get_ok (Db.open_db dir) in
        same_store "compacted" expect db;
        Db.close db;
        Db.close expect;
        true)
    |> QCheck_alcotest.to_alcotest;
    Alcotest.test_case "publish = per-record append fold, multi-chunk" `Quick
      (fun () ->
        (* 9,000 records: three chunks with derived nonces, groups that
           span chunks, and a re-publish the dedup must drop *)
        let rs =
          List.init 9000 (fun i ->
              Record.make
                ~ts:(float_of_int (i mod 3 * 3600))
                ~spec:"std"
                { (mk_report ~key:(string_of_int (i mod 11)) ()) with
                  Report.index = i })
        in
        let batches = [ ("big", rs); ("", List.filteri (fun i _ -> i < 10) rs); ("big", rs) ] in
        let expect = append_store batches in
        let dir = node_dir () in
        let db = Result.get_ok (Db.open_db dir) in
        Alcotest.(check bool) "first publish writes" true (Db.publish db ~nonce:"big" rs);
        ignore (Db.publish db ~nonce:"" (List.filteri (fun i _ -> i < 10) rs));
        Alcotest.(check bool) "re-publish is deduped" false (Db.publish db ~nonce:"big" rs);
        same_store "live" expect db;
        Db.close db;
        let db = Result.get_ok (Db.open_db dir) in
        same_store "reopened" expect db;
        List.iter
          (fun n -> Alcotest.(check bool) ("chunk nonce " ^ n) true (Db.published db n))
          [ "big"; "big#1"; "big#2" ];
        Db.close db;
        Db.close expect);
    Alcotest.test_case "publish, compact, reopen under an io_eintr storm" `Quick
      (fun () ->
        (* every second write is interrupted; the store must come out
           as the undisturbed one *)
        let rs =
          List.init 9000 (fun i ->
              Record.make ~ts:(float_of_int (i mod 5)) ~spec:"std"
                { (mk_report ~key:(string_of_int (i mod 13)) ()) with
                  Report.index = i })
        in
        let build () =
          let dir = node_dir () in
          let db = Result.get_ok (Db.open_db dir) in
          ignore (Db.publish db ~nonce:"storm" rs);
          (match Db.compact db with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "compact: %s" e);
          Db.close db;
          Result.get_ok (Db.open_db dir)
        in
        let expect = build () in
        let db =
          Sessions.with_faults "seed=3,io_eintr=every:2" (fun () ->
              let db = build () in
              Alcotest.(check bool) "io_eintr fired" true
                (Crd_fault.injected_count Crd_io.fp_io_eintr > 0);
              db)
        in
        same_store "after the storm" expect db;
        Db.close db;
        Db.close expect);
  ]

(* --- records larger than the old 1 MiB sanity bound ----------------- *)

let big_records () =
  let big = String.make (2 lsl 20) 'v' in
  List.init 12 (fun i ->
      let r = mk_report ~key:(string_of_int (i mod 11)) () in
      let r =
        if i = 3 then
          { r with Report.action = { r.Report.action with Action.args = [ Value.Str "3"; Value.Str big ] } }
        else r
      in
      Record.make ~ts:(float_of_int i) ~spec:"std" r)

let large_record_reopen () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db dir) in
  Alcotest.(check bool) "published" true (Db.publish db ~nonce:"big" (big_records ()));
  let live = Db.entries db in
  Alcotest.(check int) "live entries" 11 (List.length live);
  Db.close db;
  let db = Result.get_ok (Db.open_db dir) in
  Alcotest.(check bool) "reopen keeps the nonce" true (Db.published db "big");
  Alcotest.(check bool) "reopen keeps every entry" true
    (List.equal Entry.equal live (Db.entries db));
  Db.close db

let large_record_compact_reopen () =
  let dir = Sessions.fresh_dir "crd-racedb" in
  let db = Result.get_ok (Db.open_db dir) in
  ignore (Db.publish db ~nonce:"big" (big_records ()));
  let live = Db.entries db in
  (match Db.compact db with
  | Ok n -> Alcotest.(check int) "compacted entries" 11 n
  | Error e -> Alcotest.failf "compact: %s" e);
  Db.close db;
  (match Db.open_db dir with
  | Error e -> Alcotest.failf "open after compaction: %s" e
  | Ok db ->
      Alcotest.(check bool) "the index keeps every entry" true
        (List.equal Entry.equal live (Db.entries db));
      Alcotest.(check bool) "the index keeps the nonce" true (Db.published db "big");
      Db.close db);
  match Db.load dir with
  | Error e -> Alcotest.failf "load after compaction: %s" e
  | Ok v -> Alcotest.(check int) "load total" 12 v.Db.v_stats.Db.total

(* A stored thread id outside [0, Tid.max_id] is corruption: [decode]
   returns an error, the way it does for every other malformed field,
   instead of letting [Tid.of_int]'s [Invalid_argument] escape. *)
let record_tid_out_of_range () =
  let report =
    { (mk_report ~prior_meth:"get" ()) with Report.tid = Tid.of_int Tid.max_id }
  in
  let report =
    { report with
      Report.prior = Option.map (fun (_, a) -> (Tid.of_int Tid.max_id, a)) report.Report.prior }
  in
  let s = Record.encode (Record.make ~ts:0. ~spec:"std" report) in
  let max_tid = "\xff\xff\x03" in
  let find_from i =
    let rec go i =
      if String.sub s i 3 = max_tid then i else go (i + 1)
    in
    go i
  in
  let first = find_from 0 in
  let second = find_from (first + 3) in
  let splice at field =
    String.sub s 0 at ^ field ^ String.sub s (at + 3) (String.length s - at - 3)
  in
  (match Record.decode s with
  | Ok r -> Alcotest.(check int) "T65535 round-trips" Tid.max_id (Tid.to_int r.Record.report.Report.tid)
  | Error e -> Alcotest.failf "T65535 rejected: %s" e);
  let above = "\xff\xff\x04" and negative = String.make 8 '\xff' ^ "\x7f" in
  List.iter
    (fun (what, s) ->
      match Record.decode s with
      | Error e -> Alcotest.(check string) what "record: bad thread id" e
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    [
      ("tid above max_id", splice first above);
      ("negative tid", splice first negative);
      ("prior tid above max_id", splice second above);
    ]

let suite =
  ( "racedb",
    [
      Alcotest.test_case "fingerprint: symmetry" `Quick fingerprint_symmetric;
      Alcotest.test_case "fingerprint: invariances" `Quick
        fingerprint_invariances;
    ]
    @ record_roundtrip_tests
    @ [
        Alcotest.test_case "rollup: bucket arithmetic" `Quick rollup_buckets;
        Alcotest.test_case "rollup: merge and codec" `Quick
          rollup_merge_and_codec;
        Alcotest.test_case "db: append, close, reopen" `Quick append_reopen;
        Alcotest.test_case "db: writer lock" `Quick locking;
        Alcotest.test_case "db: torn tail at every offset" `Quick
          torn_tail_every_offset;
        Alcotest.test_case "db: compaction" `Quick compaction;
        Alcotest.test_case "db: aborted compaction is harmless" `Quick
          compaction_abort_is_harmless;
        Alcotest.test_case "db: SIGKILL-shaped crash image" `Quick
          crash_copy_recovers_everything;
        Alcotest.test_case "db: select filters" `Quick select_filters;
        refused_v1_index;
        Alcotest.test_case "db: record over 1 MiB survives reopen" `Quick
          large_record_reopen;
        Alcotest.test_case "db: record over 1 MiB survives compact+reopen"
          `Quick large_record_compact_reopen;
      ]
    @ refused_store_tests @ counted_fold_tests
    @ [
        Alcotest.test_case "record: thread id out of range" `Quick
          record_tid_out_of_range;
        rollup_matches_dense_oracle;
        Alcotest.test_case "rollup: adding to a stored slot allocates nothing"
          `Quick rollup_add_allocates_nothing;
        Alcotest.test_case "db: index memory per entry" `Quick
          index_memory_per_entry;
      ] )
