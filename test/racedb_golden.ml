(* Build a race database from fixed sessions and print its compacted
   index file ([index.crdx]) to stdout; the golden rule in test/dune
   pins the MD5 of those bytes.

   Everything that reaches the index is fixed: the node ids are written
   before the first open, the sessions are seeded synthetic traces and
   every record carries a chosen timestamp. The timestamps walk the
   minute and hour rings past a full window (stale slots), jump the day
   ring forward, and go back in time once (adds older than the window);
   one session is predicted, one record is appended alone, a second
   store's entries are merged in, and the index is compacted, reopened
   and compacted again.

   Usage: racedb_golden.exe > index.crdx *)

open Crd
module Db = Crd_racedb.Db
module Record = Crd_racedb.Record
module Provenance = Crd_racedb.Provenance
module Synth = Crd_workloads.Synth

let rec rm p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let races seed =
  let an = Analyzer.with_stdspecs () in
  Synth.iter ~seed:(Int64.of_int seed) (Synth.default ~events:2_000)
    ~f:(Analyzer.step an);
  Analyzer.rd2_races an

let session ?provenance ~ts seed =
  List.map (Record.make ~ts ?provenance ~spec:"std") (races seed)

let open_store dir node =
  Unix.mkdir dir 0o755;
  Out_channel.with_open_bin (Filename.concat dir "node") (fun oc ->
      output_string oc (node ^ "\n"));
  Result.get_ok (Db.open_db ~segment_bytes:65536 ~auto_compact:3 dir)

let base = 1_700_000_000.

let () =
  let root = Filename.temp_dir "crd-racedb-golden" "" in
  let dir = Filename.concat root "a" and peer_dir = Filename.concat root "b" in
  let db = open_store dir "golden-a" in
  (* sessions 31 minutes apart: the minute ring wraps twice *)
  List.iteri
    (fun i seed ->
      ignore
        (Db.publish db ~nonce:(Printf.sprintf "s%d" i)
           (session ~ts:(base +. (1860. *. float_of_int i)) seed)))
    [ 7; 8; 9; 10; 11 ];
  (* a day and forty days later, then back before the day window *)
  ignore (Db.publish db ~nonce:"day1" (session ~ts:(base +. 86400.) 7));
  ignore (Db.publish db ~nonce:"day40" (session ~ts:(base +. (40. *. 86400.)) 8));
  ignore (Db.publish db ~nonce:"old" (session ~ts:(base -. (90. *. 86400.)) 9));
  ignore
    (Db.publish db ~nonce:"pred"
       (session ~provenance:Provenance.Predicted ~ts:(base +. 7200.) 12));
  (match races 13 with
  | r :: _ -> Db.append db (Record.make ~ts:(base +. 3.5) ~spec:"std" r)
  | [] -> ());
  let peer = open_store peer_dir "golden-b" in
  ignore (Db.publish peer ~nonce:"p0" (session ~ts:(base +. 1860.) 8));
  ignore (Db.publish peer ~nonce:"p1" (session ~ts:(base +. 600.) 14));
  ignore (Db.merge db (Db.delta peer ~since:Crd_racedb.Vv.empty));
  Db.close peer;
  ignore (Result.get_ok (Db.compact db));
  Db.close db;
  let db = Result.get_ok (Db.open_db ~segment_bytes:65536 ~auto_compact:3 dir) in
  ignore (Db.publish db ~nonce:"late" (session ~ts:(base +. (40. *. 86400.) +. 60.) 15));
  ignore (Result.get_ok (Db.compact db));
  Db.close db;
  print_string
    (In_channel.with_open_bin (Filename.concat dir "index.crdx")
       In_channel.input_all);
  rm root
