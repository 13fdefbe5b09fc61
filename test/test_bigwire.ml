(* Differential testing of the library's CRDW decoder, [Bigwire],
   against [Codec_oracle], the string decoder it replaced, kept in this
   directory as the reference: on every input — valid, truncated,
   bit-flipped, or random — both decoders must produce identical events
   and identical typed errors, under every feed chunking (chunk
   boundaries split varints and string definitions) and in resync
   mode. *)

open Crd
module Gen = QCheck2.Gen
module Big = Bigwire
module Oracle = Codec_oracle

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Calls whose values sit on and around the decoder's shared small-int
   range [0, 1024), and at the zigzag extremes. *)
let int_trace : Trace.t Gen.t =
  let open Gen in
  let edge = oneofl [ -1; 0; 1; 1023; 1024; max_int; min_int ] in
  let value =
    oneof
      [
        map (fun i -> Value.Int i) edge;
        map (fun i -> Value.Int i) (int_range (-2000) 2000);
        map (fun i -> Value.Ref i) edge;
      ]
  in
  let call =
    map3
      (fun tid args rets ->
        Event.call (Tid.of_int tid)
          (Action.make ~obj:(Obj_id.make ~name:"bag:b" 0) ~meth:"add" ~args ~rets ()))
      (int_range 0 2) (list_size (int_range 0 3) value) (list_size (int_range 0 1) value)
  in
  map
    (fun calls ->
      let t = Trace.create () in
      List.iter (Trace.append t) calls;
      t)
    (list_size (int_range 1 40) call)

let trace_gen =
  Gen.oneof
    [
      Generators.dict_trace ~threads:3 ~objects:2 ~len:60;
      Generators.rw_trace ~threads:3 ~len:60;
      int_trace;
    ]

(* Both decoders on the same whole input: same events or same error. *)
let agree ?resync s =
  match (Oracle.decode_string ?resync s, Big.decode_string ?resync s) with
  | Ok t1, Ok t2 -> Trace.to_list t1 = Trace.to_list t2
  | Error e1, Error e2 -> e1 = e2
  | Ok _, Error _ | Error _, Ok _ -> false

(* The oracle fed in [chunk]-byte slices of the string. *)
let oracle_chunked ?resync ~chunk s =
  let d = Oracle.Decoder.create ?resync () in
  let events = ref [] in
  let err = ref None in
  let pos = ref 0 in
  while !err = None && !pos < String.length s do
    let len = min chunk (String.length s - !pos) in
    (match Oracle.Decoder.feed d ~off:!pos ~len s with
    | Ok evs -> events := List.rev_append evs !events
    | Error e -> err := Some e);
    pos := !pos + len
  done;
  match !err with
  | Some e -> Error e
  | None -> (
      match Oracle.Decoder.finish d with
      | Ok () -> Ok (List.rev !events)
      | Error e -> Error e)

let whole_oracle ?resync s =
  Result.map Trace.to_list (Oracle.decode_string ?resync s)

(* The whole string in one feed, events streamed to [f]. *)
let iter_string ?resync s ~f =
  let d = Big.Decoder.create ?resync () in
  Fun.protect
    ~finally:(fun () -> Big.Decoder.release d)
    (fun () ->
      match Big.Decoder.feed_bytes_iter d (Bytes.unsafe_of_string s) ~f with
      | Error e -> Error e
      | Ok () -> Big.Decoder.finish d)

let sample_bin () = Wire.encode_trace ~chunk_bytes:16 (Test_wire.sample_trace ())

(* A steady stream of small-int calls: [put(k, v) / p] on one
   dictionary, every value in [0, 1024). *)
let small_int_stream n =
  let t = Trace.create () in
  let obj = Obj_id.make ~name:"dictionary:d" 0 in
  for i = 0 to n - 1 do
    Trace.append t
      (Event.call
         (Tid.of_int (i land 3))
         (Action.make ~obj ~meth:"put"
            ~args:[ Value.Int (i land 1023); Value.Int ((7 * i) land 1023) ]
            ~rets:[ Value.Int ((13 * i) land 1023) ]
            ()))
  done;
  Wire.encode_trace t

(* --- deterministic cases ------------------------------------------- *)

let sample_identity () =
  let bin = sample_bin () in
  Alcotest.(check bool) "whole input agrees" true (agree bin);
  List.iter
    (fun chunk ->
      Alcotest.(check bool)
        (Printf.sprintf "chunk=%d agrees" chunk)
        true
        (Test_wire.decode_chunked ~chunk bin = whole_oracle bin))
    [ 1; 2; 3; 7; 16; 1 lsl 20 ]

(* max_int / min_int zigzag round trip through both decoders, as values
   and as [Ref]s. *)
let zigzag_extremes () =
  let t = Trace.create () in
  let obj = Obj_id.make ~name:"dictionary:x" (-7) in
  Trace.append t
    (Event.call (Tid.of_int 0)
       (Action.make ~obj ~meth:"put"
          ~args:[ Value.Int max_int; Value.Int min_int; Value.Ref min_int ]
          ~rets:[ Value.Int (-1); Value.Ref max_int ]
          ()));
  let bin = Wire.encode_trace t in
  (match Big.decode_string bin with
  | Ok t' ->
      Alcotest.(check bool)
        "extreme ints round trip" true
        (Trace.to_list t' = Trace.to_list t)
  | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e);
  Alcotest.(check bool)
    "bytewise agrees on extremes" true
    (Test_wire.decode_chunked ~chunk:1 bin = whole_oracle bin)

let header_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "agree on %S" s) true (agree s))
    [ ""; "C"; "CRD"; "XRDW\x01\x00"; "CRDW"; "CRDW\x07\x00"; "CRDW\x01" ]

let trailing_garbage () =
  let bin = sample_bin () ^ "junk" in
  Alcotest.(check bool) "agree on trailing garbage" true (agree bin);
  Alcotest.(check bool)
    "agree on trailing garbage under resync" true
    (agree ~resync:true bin)

let all_prefixes_agree () =
  let bin = sample_bin () in
  for cut = 0 to String.length bin - 1 do
    if not (agree (String.sub bin 0 cut)) then
      Alcotest.failf "decoders disagree on prefix of %d bytes" cut
  done

let bit_flips_agree () =
  let bin = sample_bin () in
  let b = Bytes.of_string bin in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    Bytes.set b i (Char.chr (Char.code orig lxor 0x10));
    let s = Bytes.to_string b in
    if not (agree s) then Alcotest.failf "disagree on flip at byte %d" i;
    if not (agree ~resync:true s) then
      Alcotest.failf "resync disagree on flip at byte %d" i;
    Bytes.set b i orig
  done

(* The intern pool must materialize one string per distinct content:
   two definitions of the same bytes yield physically equal strings. *)
let intern_materializes_once () =
  let t = Trace.create () in
  (* Two objects with distinct ids but the same name: the encoder
     interns the name once, but a second def of equal content arrives
     via the method names below. *)
  let o1 = Obj_id.make ~name:"set:s" 1 in
  let o2 = Obj_id.make ~name:"set:t" 2 in
  Trace.append t
    (Event.call (Tid.of_int 0)
       (Action.make ~obj:o1 ~meth:"add" ~args:[ Value.Str "payload" ] ~rets:[] ()));
  Trace.append t
    (Event.call (Tid.of_int 1)
       (Action.make ~obj:o2 ~meth:"add" ~args:[ Value.Str "payload" ] ~rets:[] ()));
  match Big.decode_string (Wire.encode_trace t) with
  | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e
  | Ok t' -> (
      match Trace.to_list t' with
      | [ { Event.op = Event.Call a1; _ }; { Event.op = Event.Call a2; _ } ] ->
          Alcotest.(check bool)
            "equal method names share one string" true
            (a1.Action.meth == a2.Action.meth)
      | _ -> Alcotest.fail "unexpected decoded shape")

(* The feed delivers the oracle's events in the same order, with chunk
   boundaries anywhere. *)
let streaming_iter_agrees () =
  let bin = sample_bin () in
  let expected = whole_oracle bin in
  List.iter
    (fun chunk ->
      Alcotest.(check bool)
        (Printf.sprintf "feed_bytes_iter chunk=%d = oracle" chunk)
        true
        (Test_wire.decode_chunked ~chunk bin = expected))
    [ 1; 7; 1 lsl 20 ];
  (* A slice parses in place up to its last complete frame and copies
     only an incomplete tail: feeding a >= 1 MiB stream in one slice,
     whole or cut 1000 bytes short, charges the decoder its intern
     tables and nothing else (the tail fits its first buffer). All
     strings are defined in the first frame, so the charge after it is
     the charge after any longer prefix. *)
  let big = small_int_stream 100_000 in
  let n = String.length big in
  Alcotest.(check bool) "stream >= 1 MiB" true (n >= 1 lsl 20);
  let feed d s =
    match Big.Decoder.feed_bytes_iter d (Bytes.of_string s) ~f:ignore with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e
  in
  let charge_after s =
    let d = Big.Decoder.create () in
    feed d s;
    (d, Big.Decoder.mem d)
  in
  let first = Test_wire.first_frame_boundary big in
  let d, intern = charge_after (String.sub big 0 first) in
  Big.Decoder.release d;
  let d, whole = charge_after big in
  Big.Decoder.release d;
  Alcotest.(check int) "one whole slice: no pending copy charged" intern whole;
  let cut = n - 1000 in
  let d, torn = charge_after (String.sub big 0 cut) in
  Alcotest.(check int) "a cut slice: only the tail copied" intern torn;
  feed d (String.sub big cut (n - cut));
  Alcotest.(check bool) "the next feed completes it" true
    (Big.Decoder.finish d = Ok ());
  Big.Decoder.release d;
  (* A slice that fails after its first frame keeps nothing of the
     rest: the error is sticky, so it would never be parsed. *)
  let corrupt =
    String.sub big 0 first ^ "\x01\x01\x01\x01"
    ^ String.sub big first (n - first)
  in
  let d = Big.Decoder.create () in
  (match
     Big.Decoder.feed_bytes_iter d (Bytes.of_string corrupt) ~f:ignore
   with
  | Ok () -> Alcotest.fail "corruption not detected"
  | Error _ ->
      Alcotest.(check int) "a failed slice: nothing copied" intern
        (Big.Decoder.mem d));
  Big.Decoder.release d

(* An exception raised by the consumer callback must reach the caller
   unchanged — not be swallowed into a [Corrupt] decode error. *)
let consumer_exception_propagates () =
  let bin = sample_bin () in
  let b = Bytes.of_string bin in
  let d = Big.Decoder.create () in
  let seen = ref 0 in
  Alcotest.check_raises "consumer exception surfaces" Exit (fun () ->
      ignore
        (Big.Decoder.feed_bytes_iter d b ~f:(fun _ ->
             incr seen;
             if !seen = 3 then raise Exit)));
  Alcotest.(check int) "consumer saw events up to the raise" 3 !seen

(* An out-of-range slice is the caller's error: the feed raises
   [Invalid_argument] and leaves the decoder as it was, so valid bytes
   fed next still decode. *)
let bad_slice_raises () =
  let bin = sample_bin () in
  let want = Trace.to_list (Result.get_ok (Oracle.decode_string bin)) in
  let by = Bytes.of_string bin in
  let n = String.length bin in
  let bad = [ (3, n); (-1, 2); (0, -1); (n + 1, 0) ] in
  let d = Big.Decoder.create () in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises "bytes slice"
        (Invalid_argument "Bigcodec.Decoder.feed_bytes_iter: invalid slice")
        (fun () -> ignore (Big.Decoder.feed_bytes_iter d ~off ~len by ~f:ignore)))
    bad;
  let got = ref [] in
  let f e = got := e :: !got in
  let half = n / 2 in
  (match Big.Decoder.feed_bytes_iter d ~len:half by ~f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "first half after a bad slice: %a" Wire.pp_error e);
  (match Big.Decoder.feed_bytes_iter d ~off:half by ~f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "second half after a bad slice: %a" Wire.pp_error e);
  Alcotest.(check bool) "stream complete" true (Big.Decoder.finish d = Ok ());
  Alcotest.(check bool) "events = oracle" true (List.rev !got = want)

(* A file streams through [iter_file]'s 64 KiB reads: [of_file] and
   [iter_file] give back the encoded trace, also when the stream is
   several read blocks long. *)
let file_roundtrip () =
  let small = Test_wire.sample_trace () in
  let big = Trace.create () in
  for _ = 1 to 2000 do
    Trace.iter_events small ~f:(Trace.append big)
  done;
  List.iter
    (fun t ->
      let path = Filename.temp_file "crd-bigwire" ".crdw" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          (match Wire.to_file path t with
          | Ok () -> ()
          | Error e -> Alcotest.failf "to_file: %s" e);
          (match Big.of_file path with
          | Error e -> Alcotest.failf "of_file: %s" e
          | Ok t' ->
              Alcotest.(check bool)
                "of_file = original" true
                (Trace.to_list t' = Trace.to_list t));
          let n = ref 0 in
          match Big.iter_file path ~f:(fun _ -> incr n) with
          | Error e -> Alcotest.failf "iter_file: %s" e
          | Ok () -> Alcotest.(check int) "iter_file events" (Trace.length t) !n))
    [ small; big ]

(* [iter_fd ~len] reads exactly the stream's bytes and stops: the junk
   after them is never fed (without [len] it is trailing data), and the
   descriptor is left just past the stream, however the 64 KiB reads
   fall. *)
let iter_fd_stops_at_len () =
  let bin = small_int_stream 20_000 in
  let n = String.length bin in
  let want = whole_oracle bin in
  let path = Filename.temp_file "crd-bigwire" ".crdw" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc bin;
      Out_channel.output_string oc "junk");
  let iter ?len () =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let events = ref [] in
        let r = Big.iter_fd ?len fd ~f:(fun e -> events := e :: !events) in
        ( Result.map (fun () -> List.rev !events) r,
          Unix.lseek fd 0 Unix.SEEK_CUR ))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check bool) "longer than one read" true (n > 65536);
      let got, off = iter ~len:n () in
      Alcotest.(check bool) "events = oracle" true (got = want);
      Alcotest.(check int) "offset = stream length" n off;
      match iter () with
      | Error (Wire.Corrupt _), _ -> ()
      | _ -> Alcotest.fail "trailing junk read without ~len")

(* A FIFO streams through [iter_file]'s read loop like a regular file:
   with [~resync:true], a stream carrying a corrupt frame must
   yield exactly the events (and result) of the same bytes fed whole
   from memory. The stream is several pipe buffers long, so the reader
   sees many partial reads. *)
let fifo_resync_agrees () =
  let t = Trace.create () in
  let sample = Test_wire.sample_trace () in
  for _ = 1 to 2000 do
    Trace.iter_events sample ~f:(Trace.append t)
  done;
  let bin = Wire.encode_trace ~chunk_bytes:64 t in
  let cut = Test_wire.first_frame_boundary bin in
  let corrupted =
    String.sub bin 0 cut ^ "\x01\x01\x01\x01"
    ^ String.sub bin cut (String.length bin - cut)
  in
  let collect iter =
    let events = ref [] in
    let r = iter ~f:(fun e -> events := e :: !events) in
    (r, List.rev !events)
  in
  (match iter_string corrupted ~f:ignore with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corruption not detected without resync");
  let expected_r, expected =
    collect (fun ~f ->
        Result.map_error Wire.error_to_string
          (iter_string ~resync:true corrupted ~f))
  in
  Alcotest.(check int) "resync recovers every event" (Trace.length t)
    (List.length expected);
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crd-bigwire-fifo-%d" (Unix.getpid ()))
  in
  Unix.mkfifo path 0o600;
  (* A reader that gives up early must fail this test, not kill it. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let writer =
        Thread.create
          (fun () ->
            let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                try
                  ignore
                    (Unix.write_substring fd corrupted 0 (String.length corrupted))
                with Unix.Unix_error (Unix.EPIPE, _, _) -> ()))
          ()
      in
      let got_r, got = collect (Big.iter_file ~resync:true path) in
      Thread.join writer;
      Alcotest.(check (result unit string)) "same result" expected_r got_r;
      Alcotest.(check bool) "same events" true (got = expected))

(* Small ints decode to shared boxes: equal values are physically equal,
   and a call allocates only its event (3 words), [Call] (2), action (5)
   and three list cells (9). Measured on this stream: 39.0 minor words
   per event before the shared boxes, the closure-free value lists and
   the unboxed [Action.make] arguments; 19.0 after. *)
let small_ints_shared () =
  let events = 20_000 in
  let b = small_int_stream events in
  let run () =
    match iter_string b ~f:ignore with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let per_event = (Gc.minor_words () -. before) /. float_of_int events in
  if per_event > 19.1 then
    Alcotest.failf "decoding small-int calls allocates %.2f minor words per event"
      per_event;
  let values = ref [] in
  (match iter_string b ~f:(fun e ->
       match e.Event.op with
       | Event.Call a -> values := a.Action.args @ a.Action.rets @ !values
       | _ -> ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e);
  let first = Hashtbl.create 1024 in
  List.iter
    (fun v ->
      match Hashtbl.find_opt first v with
      | None -> Hashtbl.add first v v
      | Some v' -> if v != v' then Alcotest.failf "%a decoded twice" Value.pp v)
    !values

(* Two domains decoding the same bytes at once, both reading the shared
   small ints, get the events of the oracle. *)
let two_domains_agree () =
  let bin = small_int_stream 5_000 in
  let decode () =
    match Big.decode_string bin with
    | Ok t -> Trace.to_list t
    | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e
  in
  let d1 = Domain.spawn decode and d2 = Domain.spawn decode in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  let want = Trace.to_list (Result.get_ok (Oracle.decode_string bin)) in
  Alcotest.(check int) "all events" 5_000 (List.length r1);
  Alcotest.(check bool) "both = oracle" true (r1 = want && r2 = want)

let suite =
  ( "bigwire",
    [
      Alcotest.test_case "sample stream identity" `Quick sample_identity;
      Alcotest.test_case "zigzag extremes" `Quick zigzag_extremes;
      Alcotest.test_case "header errors agree" `Quick header_errors;
      Alcotest.test_case "trailing garbage agrees" `Quick trailing_garbage;
      Alcotest.test_case "all prefixes agree" `Quick all_prefixes_agree;
      Alcotest.test_case "bit flips agree" `Quick bit_flips_agree;
      Alcotest.test_case "intern pool materializes once" `Quick
        intern_materializes_once;
      Alcotest.test_case "file round trip" `Quick file_roundtrip;
      Alcotest.test_case "iter_fd stops at len" `Quick iter_fd_stops_at_len;
      Alcotest.test_case "FIFO resync = in-memory" `Quick
        fifo_resync_agrees;
      Alcotest.test_case "streaming iter agrees" `Quick streaming_iter_agrees;
      Alcotest.test_case "consumer exception propagates" `Quick
        consumer_exception_propagates;
      Alcotest.test_case "bad slice raises, decoder intact" `Quick bad_slice_raises;
      Alcotest.test_case "small ints shared" `Quick small_ints_shared;
      Alcotest.test_case "two domains decode alike" `Quick two_domains_agree;
      qcheck "valid streams decode identically" trace_gen (fun trace ->
          agree (Wire.encode_trace ~chunk_bytes:64 trace));
      qcheck "chunked big decode = whole legacy decode"
        Gen.(pair trace_gen (int_range 1 9))
        (fun (trace, chunk) ->
          let bin = Wire.encode_trace ~chunk_bytes:32 trace in
          Test_wire.decode_chunked ~chunk bin = whole_oracle bin);
      qcheck "corrupted streams agree"
        Gen.(triple trace_gen (int_range 0 max_int) (int_range 0 7))
        (fun (trace, n, bit) ->
          let b = Bytes.of_string (Wire.encode_trace ~chunk_bytes:32 trace) in
          let i = n mod Bytes.length b in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          agree (Bytes.to_string b));
      qcheck "corrupted streams agree under resync"
        Gen.(triple trace_gen (int_range 0 max_int) (int_range 0 7))
        (fun (trace, n, bit) ->
          let b = Bytes.of_string (Wire.encode_trace ~chunk_bytes:32 trace) in
          let i = n mod Bytes.length b in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          agree ~resync:true (Bytes.to_string b));
      qcheck "resync chunked agrees with legacy chunked"
        Gen.(
          quad trace_gen (int_range 0 max_int) (int_range 0 7) (int_range 1 9))
        (fun (trace, n, bit, chunk) ->
          let b = Bytes.of_string (Wire.encode_trace ~chunk_bytes:32 trace) in
          let i = n mod Bytes.length b in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          let s = Bytes.to_string b in
          Test_wire.decode_chunked ~resync:true ~chunk s
          = oracle_chunked ~resync:true ~chunk s);
      qcheck "random bytes never raise and agree" ~count:500
        Gen.(string_size ~gen:char (int_range 0 120))
        (fun s -> agree s);
    ] )
