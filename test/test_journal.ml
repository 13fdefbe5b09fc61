(* Unit tests of the crash-safe journal lifecycle: append/commit/report
   file states, recovery listing, and truncation of uncommitted bytes. *)

open Crd
module Journal = Crd_server.Journal

(* What replay may read of a journal: its committed prefix and spec. *)
let read_committed ~dir ~nonce =
  Journal.with_committed ~dir ~nonce (fun ~spec ~size fd ->
      let b = Bytes.create size in
      let rec go off =
        if off = size then off
        else
          match Unix.read fd b off (size - off) with
          | 0 -> off
          | n -> go (off + n)
      in
      let n = go 0 in
      (Bytes.sub_string b 0 n, spec))

(* Replay a journal the way the server does: stream its committed
   prefix through the decoder. An [Error] carries the events delivered
   before the journal failed. *)
let replay ~dir ~nonce =
  let events = ref [] in
  match
    Journal.with_committed ~dir ~nonce (fun ~spec ~size fd ->
        (Bigwire.iter_fd ~len:size fd ~f:(fun e -> events := e :: !events), spec))
  with
  | Error e -> Error (e, List.rev !events)
  | Ok (r, spec) -> Ok (r, spec, List.rev !events)

let roundtrip () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let j = Journal.start ~dir ~nonce:"a1" ~spec:"std" in
  Journal.append j "hello ";
  Journal.append j "world";
  Alcotest.(check (list string))
    "uncommitted journal is not recoverable" []
    (Journal.committed_unreported ~dir);
  Journal.commit j;
  Journal.close j;
  Alcotest.(check (list string))
    "committed journal is recoverable" [ "a1" ]
    (Journal.committed_unreported ~dir);
  (match read_committed ~dir ~nonce:"a1" with
  | Error e -> Alcotest.failf "read_committed: %s" e
  | Ok (bytes, spec) ->
      Alcotest.(check string) "bytes round-trip" "hello world" bytes;
      Alcotest.(check string) "spec round-trips" "std" spec);
  Journal.write_report ~dir ~nonce:"a1" "OK\n";
  Alcotest.(check (list string))
    "reported journal is done" []
    (Journal.committed_unreported ~dir)

let append_off_len () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let j = Journal.start ~dir ~nonce:"a2" ~spec:"std" in
  Journal.append j ~off:2 ~len:3 "xxabcyy";
  Journal.commit j;
  Journal.close j;
  match read_committed ~dir ~nonce:"a2" with
  | Error e -> Alcotest.failf "read_committed: %s" e
  | Ok (bytes, _) -> Alcotest.(check string) "sub-range appended" "abc" bytes

(* Bytes written after the commit marker (a crash mid-append on a
   retried session) must not leak into recovery. *)
let uncommitted_suffix_dropped () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let j = Journal.start ~dir ~nonce:"a3" ~spec:"custom" in
  Journal.append j "durable";
  Journal.commit j;
  Journal.append j "lost-tail";
  Journal.close j;
  match read_committed ~dir ~nonce:"a3" with
  | Error e -> Alcotest.failf "read_committed: %s" e
  | Ok (bytes, spec) ->
      Alcotest.(check string) "only committed prefix" "durable" bytes;
      Alcotest.(check string) "spec" "custom" spec

(* A retried session restarts its journal from byte 0 and clears any
   stale commit/report markers. *)
let restart_truncates () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let j = Journal.start ~dir ~nonce:"a4" ~spec:"std" in
  Journal.append j "first attempt";
  Journal.commit j;
  Journal.close j;
  Journal.write_report ~dir ~nonce:"a4" "OK\n";
  let j2 = Journal.start ~dir ~nonce:"a4" ~spec:"std" in
  Alcotest.(check bool)
    "stale report cleared" false
    (Sys.file_exists (Filename.concat dir "a4.report"));
  Alcotest.(check (list string))
    "stale commit cleared" []
    (Journal.committed_unreported ~dir);
  Journal.append j2 "retry";
  Journal.commit j2;
  Journal.close j2;
  match read_committed ~dir ~nonce:"a4" with
  | Error e -> Alcotest.failf "read_committed: %s" e
  | Ok (bytes, _) -> Alcotest.(check string) "retry bytes only" "retry" bytes

let short_data_is_an_error () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let j = Journal.start ~dir ~nonce:"a5" ~spec:"std" in
  Journal.append j "12345678";
  Journal.commit j;
  Journal.close j;
  (* Simulate data-file corruption: truncate below the committed size. *)
  Out_channel.with_open_bin
    (Filename.concat dir "a5.crdj")
    (fun oc -> Out_channel.output_string oc "1234");
  match read_committed ~dir ~nonce:"a5" with
  | Ok (bytes, _) -> Alcotest.failf "truncated journal read back %S" bytes
  | Error e ->
      Alcotest.(check string)
        "names both sizes"
        (Filename.concat dir "a5.crdj: 4 bytes but 8 committed")
        e

let missing_data_is_an_error () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let j = Journal.start ~dir ~nonce:"a8" ~spec:"std" in
  Journal.append j "abc";
  Journal.commit j;
  Journal.close j;
  Sys.remove (Filename.concat dir "a8.crdj");
  match
    Journal.with_committed ~dir ~nonce:"a8" (fun ~spec:_ ~size:_ _ -> ())
  with
  | Ok () -> Alcotest.fail "replay ran without a data file"
  | Error e ->
      Alcotest.(check string)
        "names the data file"
        (Filename.concat dir "a8.crdj: No such file or directory")
        e

let commit_marker_format () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let j = Journal.start ~dir ~nonce:"a6" ~spec:"std" in
  Journal.append j "abc";
  Journal.commit j;
  Journal.close j;
  Alcotest.(check string)
    "marker is '<size> <spec>'" "3 std\n"
    (Sessions.read_file (Filename.concat dir "a6.commit"))

let fault_point () =
  (match Crd_fault.configure "journal_append=nth:2" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "configure: %s" e);
  Fun.protect ~finally:Crd_fault.reset (fun () ->
      let dir = Sessions.fresh_dir "crd-jtest" in
      let j = Journal.start ~dir ~nonce:"a7" ~spec:"std" in
      Journal.append j "ok";
      (match Journal.append j "boom" with
      | () -> Alcotest.fail "second append should have faulted"
      | exception Crd_fault.Injected p ->
          Alcotest.(check string) "point name" "journal_append" p);
      Journal.append j "fine";
      Journal.commit j;
      Journal.close j;
      match read_committed ~dir ~nonce:"a7" with
      | Error e -> Alcotest.failf "read_committed: %s" e
      | Ok (bytes, _) ->
          (* The faulted append wrote nothing: injection happens before
             the write, exactly like a full-disk failure would. *)
          Alcotest.(check string) "faulted append skipped" "okfine" bytes)

let append_bytes_off_len () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let j = Journal.start ~dir ~nonce:"b1" ~spec:"std" in
  Journal.append_bytes j ~off:2 ~len:3 (Bytes.of_string "xxabcyy");
  Journal.commit j;
  Journal.close j;
  match read_committed ~dir ~nonce:"b1" with
  | Error e -> Alcotest.failf "read_committed: %s" e
  | Ok (bytes, _) -> Alcotest.(check string) "sub-range appended" "abc" bytes

(* Replay streams the committed prefix through the decoder (these cases
   once covered the mapped replay path and keep its names): a torn tail
   past the marker, which would otherwise be trailing data after the end
   marker, is never reached, so the events equal the committed prefix. *)
let replay_drops_torn_tail () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let t = Test_wire.sample_trace () in
  let j = Journal.start ~dir ~nonce:"b2" ~spec:"custom" in
  Journal.append j (Wire.encode_trace ~chunk_bytes:16 t);
  Journal.commit j;
  Journal.append j "torn-tail";
  Journal.close j;
  match replay ~dir ~nonce:"b2" with
  | Error (e, _) -> Alcotest.failf "replay: %s" e
  | Ok (r, spec, events) ->
      Alcotest.(check bool) "stream complete" true (r = Ok ());
      Alcotest.(check bool)
        "events = the committed prefix" true
        (events = Trace.to_list t);
      Alcotest.(check string) "spec" "custom" spec

(* A data file shorter than its marker fails before replay reads a
   byte, and the error names both sizes. *)
let replay_short_data () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let bin = Wire.encode_trace ~chunk_bytes:16 (Test_wire.sample_trace ()) in
  let j = Journal.start ~dir ~nonce:"b4" ~spec:"std" in
  Journal.append j bin;
  Journal.commit j;
  Journal.close j;
  (* Truncate below the committed size, past the first frame, so a
     reader that did start would deliver events. *)
  let have = String.length bin - 5 in
  Out_channel.with_open_bin
    (Filename.concat dir "b4.crdj")
    (fun oc -> Out_channel.output_string oc (String.sub bin 0 have));
  match replay ~dir ~nonce:"b4" with
  | Ok _ -> Alcotest.fail "truncated journal replayed"
  | Error (e, events) ->
      Alcotest.(check string)
        "names both sizes"
        (Printf.sprintf "%s: %d bytes but %d committed"
           (Filename.concat dir "b4.crdj") have (String.length bin))
        e;
      Alcotest.(check int) "no event delivered" 0 (List.length events)

(* Replay's [iter_fd] reads go through the EINTR-retrying loop: under
   an [io_eintr] storm, replaying a journal of several 64 KiB reads
   still yields the source trace. *)
let replay_under_eintr_storm () =
  let dir = Sessions.fresh_dir "crd-jtest" in
  let t =
    Crd_workloads.Synth.generate ~seed:7L (Crd_workloads.Synth.default ~events:20_000)
  in
  let bin = Wire.encode_trace t in
  Alcotest.(check bool) "journal spans several reads" true
    (String.length bin > 3 * 65536);
  let j = Journal.start ~dir ~nonce:"e1" ~spec:"std" in
  Journal.append j bin;
  Journal.commit j;
  Journal.close j;
  Sessions.with_faults "seed=9,io_eintr=every:2" (fun () ->
      match replay ~dir ~nonce:"e1" with
      | Error (e, _) -> Alcotest.failf "replay: %s" e
      | Ok (r, _, events) ->
          Alcotest.(check bool) "stream complete" true (r = Ok ());
          Alcotest.(check bool) "events = the source trace" true
            (events = Trace.to_list t);
          Alcotest.(check bool) "io_eintr fired" true
            (Crd_fault.injected_count Crd_io.fp_io_eintr > 0))

let fresh_nonce_unique () =
  let a = Journal.fresh_nonce () and b = Journal.fresh_nonce () in
  Alcotest.(check bool) "distinct" true (not (String.equal a b));
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is a valid protocol nonce" n)
        true
        (Crd_server.Proto.valid_nonce n))
    [ a; b ]

let suite =
  ( "journal",
    [
      Alcotest.test_case "append/commit/report roundtrip" `Quick roundtrip;
      Alcotest.test_case "append off/len" `Quick append_off_len;
      Alcotest.test_case "uncommitted suffix dropped" `Quick
        uncommitted_suffix_dropped;
      Alcotest.test_case "retry restarts from byte 0" `Quick restart_truncates;
      Alcotest.test_case "short data is an error" `Quick short_data_is_an_error;
      Alcotest.test_case "missing data is an error" `Quick
        missing_data_is_an_error;
      Alcotest.test_case "commit marker format" `Quick commit_marker_format;
      Alcotest.test_case "journal_append fault point" `Quick fault_point;
      Alcotest.test_case "append_bytes off/len" `Quick append_bytes_off_len;
      Alcotest.test_case "map_committed drops the torn tail" `Quick
        replay_drops_torn_tail;
      Alcotest.test_case "map_committed short data is an error" `Quick
        replay_short_data;
      Alcotest.test_case "replay under an io_eintr storm" `Quick
        replay_under_eintr_storm;
      Alcotest.test_case "fresh nonces are valid and unique" `Quick
        fresh_nonce_unique;
    ] )
