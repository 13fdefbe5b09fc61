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

(* Feed the big decoder in [chunk]-byte slices of one mapped bigstring
   through [feed_iter]: the first feed takes the zero-copy direct path,
   an incomplete tail rides the pending buffer, later feeds alternate
   between the two. *)
let decode_big_chunked ?resync ~chunk s =
  let b = Big.bigstring_of_string s in
  let d = Big.Decoder.create ?resync () in
  let events = ref [] in
  let push e = events := e :: !events in
  let rec go pos =
    if pos >= String.length s then Big.Decoder.finish d
    else
      let len = min chunk (String.length s - pos) in
      match Big.Decoder.feed_iter d ~off:pos ~len b ~f:push with
      | Error e -> Error e
      | Ok () -> go (pos + len)
  in
  Result.map (fun () -> List.rev !events) (go 0)

(* The same through [feed_bytes_iter] — the server ingest path. *)
let decode_big_bytes ?resync ~chunk s = Test_wire.decode_chunked ?resync ~chunk s

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

let sample_bin () = Wire.encode_trace ~chunk_bytes:16 (Test_wire.sample_trace ())

(* --- deterministic cases ------------------------------------------- *)

let sample_identity () =
  let bin = sample_bin () in
  Alcotest.(check bool) "whole input agrees" true (agree bin);
  List.iter
    (fun chunk ->
      Alcotest.(check bool)
        (Printf.sprintf "chunk=%d agrees" chunk)
        true
        (decode_big_chunked ~chunk bin = whole_oracle bin
        && decode_big_bytes ~chunk bin = whole_oracle bin))
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
    (decode_big_chunked ~chunk:1 bin = whole_oracle bin)

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

(* Both feeds deliver the oracle's events in the same order, with chunk
   boundaries anywhere. *)
let streaming_iter_agrees () =
  let bin = sample_bin () in
  let expected = whole_oracle bin in
  List.iter
    (fun chunk ->
      Alcotest.(check bool)
        (Printf.sprintf "feed_iter chunk=%d = oracle" chunk)
        true
        (decode_big_chunked ~chunk bin = expected))
    [ 1; 7; 1 lsl 20 ];
  Alcotest.(check bool)
    "feed_bytes_iter = oracle" true
    (decode_big_bytes ~chunk:(String.length bin) bin = expected)

(* An exception raised by the consumer callback must reach the caller
   unchanged — not be swallowed into a [Corrupt] decode error. *)
let consumer_exception_propagates () =
  let bin = sample_bin () in
  let b = Big.bigstring_of_string bin in
  let d = Big.Decoder.create () in
  let seen = ref 0 in
  Alcotest.check_raises "consumer exception surfaces" Exit (fun () ->
      ignore
        (Big.Decoder.feed_iter d b ~f:(fun _ ->
             incr seen;
             if !seen = 3 then raise Exit)));
  Alcotest.(check int) "consumer saw events up to the raise" 3 !seen

(* An out-of-range slice is the caller's error: both feeds raise
   [Invalid_argument] and leave the decoder as it was, so valid bytes
   fed next still decode. *)
let bad_slice_raises () =
  let bin = sample_bin () in
  let want = Trace.to_list (Result.get_ok (Oracle.decode_string bin)) in
  let b = Big.bigstring_of_string bin and by = Bytes.of_string bin in
  let n = String.length bin in
  let bad = [ (3, n); (-1, 2); (0, -1); (n + 1, 0) ] in
  let d = Big.Decoder.create () in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises "bigstring slice"
        (Invalid_argument "Bigcodec.Decoder.feed_iter: invalid slice")
        (fun () -> ignore (Big.Decoder.feed_iter d ~off ~len b ~f:ignore));
      Alcotest.check_raises "bytes slice"
        (Invalid_argument "Bigcodec.Decoder.feed_bytes_iter: invalid slice")
        (fun () -> ignore (Big.Decoder.feed_bytes_iter d ~off ~len by ~f:ignore)))
    bad;
  let got = ref [] in
  let f e = got := e :: !got in
  let half = n / 2 in
  (match Big.Decoder.feed_iter d ~len:half b ~f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "feed_iter after a bad slice: %a" Wire.pp_error e);
  (match Big.Decoder.feed_bytes_iter d ~off:half by ~f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "feed_bytes_iter after a bad slice: %a" Wire.pp_error e);
  Alcotest.(check bool) "stream complete" true (Big.Decoder.finish d = Ok ());
  Alcotest.(check bool) "events = oracle" true (List.rev !got = want)

let mapped_file_roundtrip () =
  let t = Test_wire.sample_trace () in
  let path = Filename.temp_file "crd-bigwire" ".crdw" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Wire.to_file path t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "to_file: %s" e);
      (match Big.map_file path with
      | Error e -> Alcotest.failf "map_file: %s" e
      | Ok b -> (
          match Big.decode_bigstring b with
          | Error e -> Alcotest.failf "decode_bigstring: %a" Wire.pp_error e
          | Ok t' ->
              Alcotest.(check bool)
                "mmap decode = original" true
                (Trace.to_list t' = Trace.to_list t)));
      match Big.of_file path with
      | Error e -> Alcotest.failf "of_file: %s" e
      | Ok t' ->
          Alcotest.(check bool)
            "of_file = original" true
            (Trace.to_list t' = Trace.to_list t))

(* A FIFO streams through [iter_file]'s read loop like a regular file:
   with [~resync:true], a stream carrying a corrupt frame must
   yield exactly the events (and result) of [iter_bigstring
   ~resync:true] on the same bytes. The stream is several pipe buffers
   long, so the reader sees many partial reads. *)
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
  let big = Big.bigstring_of_string corrupted in
  (match Big.iter_bigstring big ~f:ignore with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corruption not detected without resync");
  let expected_r, expected =
    collect (fun ~f ->
        Result.map_error Wire.error_to_string
          (Big.iter_bigstring ~resync:true big ~f))
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

(* Small ints decode to shared boxes: equal values are physically equal,
   and a call allocates only its event (3 words), [Call] (2), action (5)
   and three list cells (9). Measured on this stream: 39.0 minor words
   per event before the shared boxes, the closure-free value lists and
   the unboxed [Action.make] arguments; 19.0 after. *)
let small_ints_shared () =
  let events = 20_000 in
  let b = Big.bigstring_of_string (small_int_stream events) in
  let run () =
    match Big.iter_bigstring b ~f:ignore with
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
  (match Big.iter_bigstring b ~f:(fun e ->
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
      Alcotest.test_case "mmap'd file round trip" `Quick mapped_file_roundtrip;
      Alcotest.test_case "FIFO resync = iter_bigstring" `Quick
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
          decode_big_chunked ~chunk bin = whole_oracle bin
          && decode_big_bytes ~chunk bin = whole_oracle bin);
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
          decode_big_chunked ~resync:true ~chunk s
          = oracle_chunked ~resync:true ~chunk s);
      qcheck "random bytes never raise and agree" ~count:500
        Gen.(string_size ~gen:char (int_range 0 120))
        (fun s -> agree s);
    ] )
