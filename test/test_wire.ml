(* The binary wire codec: round-trip identity, and totality of the
   decoder ([Bigwire], the one the library ships) — every truncated or
   corrupted input yields a typed [Error _], never an exception. Every
   case decodes the whole input and the same bytes fed in 1-, 2- and
   7-byte slices (chunk boundaries split varints, string definitions and
   the header), and asserts the same result at every chunking. *)

open Crd
module Gen = QCheck2.Gen

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let trace_gen =
  Gen.oneof
    [
      Generators.dict_trace ~threads:3 ~objects:2 ~len:60;
      Generators.rw_trace ~threads:3 ~len:60;
    ]

(* One handwritten trace covering every event kind, location shape, and
   value tag (including a negative int, which exercises zigzag). *)
let sample_trace () =
  let t = Trace.create () in
  let d = Obj_id.make ~name:"dictionary:d" 0 in
  let s = Obj_id.make ~name:"set:s" 7 in
  let l = Lock_id.make 3 in
  let t0 = Tid.of_int 0 and t1 = Tid.of_int 1 in
  Trace.append t (Event.fork t0 t1);
  Trace.append t (Event.acquire t1 l);
  Trace.append t
    (Event.call t1
       (Action.make ~obj:d ~meth:"put"
          ~args:[ Value.Str "key"; Value.Int (-42) ]
          ~rets:[ Value.Nil ] ()));
  Trace.append t
    (Event.call t0
       (Action.make ~obj:s ~meth:"add"
          ~args:[ Value.Ref 9 ]
          ~rets:[ Value.Bool true ] ()));
  Trace.append t (Event.release t1 l);
  Trace.append t (Event.begin_ t0);
  Trace.append t (Event.read t0 (Mem_loc.Global "g"));
  Trace.append t (Event.write t1 (Mem_loc.Field (d, "f")));
  Trace.append t (Event.read t1 (Mem_loc.Slot (s, "slot", Value.Int 3)));
  Trace.append t (Event.end_ t0);
  Trace.append t (Event.join t0 t1);
  t

(* Feed [s] to the decoder through [feed_bytes_iter] in [chunk]-byte
   slices and collect the events, or the first error. *)
let decode_chunked ?resync ~chunk s =
  let d = Bigwire.Decoder.create ?resync () in
  let src = Bytes.unsafe_of_string s in
  let events = ref [] in
  let push e = events := e :: !events in
  let rec go pos =
    if pos >= Bytes.length src then Bigwire.Decoder.finish d
    else
      let len = min chunk (Bytes.length src - pos) in
      match Bigwire.Decoder.feed_bytes_iter d ~off:pos ~len src ~f:push with
      | Error e -> Error e
      | Ok () -> go (pos + len)
  in
  let r = go 0 in
  Bigwire.Decoder.release d;
  Result.map (fun () -> List.rev !events) r

let chunkings = [ 1; 2; 7 ]

(* The whole-input result, after checking that every chunking gives the
   same one. *)
let decode ?resync s =
  let whole = Result.map Trace.to_list (Bigwire.decode_string ?resync s) in
  List.iter
    (fun chunk ->
      if decode_chunked ?resync ~chunk s <> whole then
        Alcotest.failf "%d-byte feeds disagree with the whole input" chunk)
    chunkings;
  whole

let decode_exn what s =
  match decode s with
  | Ok events -> events
  | Error e -> Alcotest.failf "%s: decode failed: %a" what Wire.pp_error e

let roundtrip_sample () =
  let t = sample_trace () in
  let bin = Wire.encode_trace t in
  Alcotest.(check bool)
    "decode (encode t) = t" true
    (decode_exn "sample" bin = Trace.to_list t)

let roundtrip_tiny_chunks () =
  let t = sample_trace () in
  (* A tiny flush threshold forces many frames; the stream must still
     decode to the same trace. *)
  let bin = Wire.encode_trace ~chunk_bytes:16 t in
  Alcotest.(check bool)
    "multi-frame round trip" true
    (decode_exn "tiny chunks" bin = Trace.to_list t)

let empty_trace () =
  let t = Trace.create () in
  Alcotest.(check int)
    "empty trace round trip" 0
    (List.length (decode_exn "empty" (Wire.encode_trace t)))

let empty_input () =
  match decode "" with
  | Error Wire.Truncated -> ()
  | Error e -> Alcotest.failf "expected Truncated, got %a" Wire.pp_error e
  | Ok _ -> Alcotest.fail "empty input decoded"

let bad_magic () =
  match decode "XRDW\x01\x00" with
  | Error Wire.Bad_magic -> ()
  | Error e -> Alcotest.failf "expected Bad_magic, got %a" Wire.pp_error e
  | Ok _ -> Alcotest.fail "bad magic decoded"

let bad_version () =
  match decode "CRDW\x07\x00" with
  | Error (Wire.Unsupported_version 7) -> ()
  | Error e -> Alcotest.failf "expected Unsupported_version 7, got %a" Wire.pp_error e
  | Ok _ -> Alcotest.fail "future version decoded"

let trailing_garbage () =
  let bin = Wire.encode_trace (sample_trace ()) ^ "junk" in
  match decode bin with
  | Error (Wire.Corrupt _) -> ()
  | Error e -> Alcotest.failf "expected Corrupt, got %a" Wire.pp_error e
  | Ok _ -> Alcotest.fail "input past end-of-stream decoded"

(* Every strict prefix of a valid stream is an error — no prefix may
   silently pass for the whole trace — and byte-at-a-time feeding of the
   full stream reproduces it exactly. *)
let all_prefixes_truncated () =
  let bin = Wire.encode_trace (sample_trace ()) in
  for cut = 0 to String.length bin - 1 do
    match decode (String.sub bin 0 cut) with
    | Ok _ -> Alcotest.failf "prefix of %d/%d bytes decoded" cut (String.length bin)
    | Error _ -> ()
  done

let bytewise_equals_whole () =
  let t = sample_trace () in
  let bin = Wire.encode_trace t in
  match decode_chunked ~chunk:1 bin with
  | Error e -> Alcotest.failf "bytewise decode failed: %a" Wire.pp_error e
  | Ok events ->
      Alcotest.(check bool) "bytewise = whole" true (events = Trace.to_list t)

(* Exhaustive single-bit-flip fuzz over the sample stream: the decoder
   must stay total (typed errors only) on every 1-bit corruption. *)
let bit_flips_total () =
  let bin = Wire.encode_trace (sample_trace ()) in
  let b = Bytes.of_string bin in
  for i = 0 to Bytes.length b - 1 do
    for bit = 0 to 7 do
      let orig = Bytes.get b i in
      Bytes.set b i (Char.chr (Char.code orig lxor (1 lsl bit)));
      (match decode (Bytes.to_string b) with
      | Ok _ | Error _ -> ());
      Bytes.set b i orig
    done
  done

(* --- resync mode ------------------------------------------------- *)

let metric name =
  String.split_on_char '\n' (Crd_obs.dump ())
  |> List.find_map (fun l ->
         match String.index_opt l ' ' with
         | Some i when String.sub l 0 i = name ->
             int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
         | _ -> None)
  |> Option.value ~default:0

(* Offset just past the first frame: header, then one length varint and
   its payload. *)
let first_frame_boundary bin =
  let len, p = Varint.get bin (String.length Wire.magic + 1) in
  p + len

let resync_identity_on_clean_stream () =
  let t = sample_trace () in
  let bin = Wire.encode_trace ~chunk_bytes:16 t in
  let before = metric "wire_resync_total" in
  (match decode ~resync:true bin with
  | Ok events ->
      Alcotest.(check bool)
        "clean stream unchanged by resync mode" true
        (events = Trace.to_list t)
  | Error e -> Alcotest.failf "resync decode of clean stream: %a" Wire.pp_error e);
  Alcotest.(check int) "zero resyncs" before (metric "wire_resync_total")

(* Garbage spliced between two frames: every 0x01 byte claims a 1-byte
   frame, and no 1-byte frame can hold a record, so the scanner skips
   exactly one byte per attempt and lands back on the true boundary —
   all real events recovered, one resync per garbage byte in each of
   the whole and the chunked decodes. *)
let resync_skips_interframe_garbage () =
  let t = sample_trace () in
  let bin = Wire.encode_trace ~chunk_bytes:16 t in
  let cut = first_frame_boundary bin in
  let corrupted =
    String.sub bin 0 cut ^ "\x01\x01\x01\x01"
    ^ String.sub bin cut (String.length bin - cut)
  in
  (match decode corrupted with
  | Error (Wire.Corrupt _) -> ()
  | Error e -> Alcotest.failf "expected Corrupt without resync, got %a" Wire.pp_error e
  | Ok _ -> Alcotest.fail "corrupted stream decoded without resync");
  let before = metric "wire_resync_total" in
  (match decode ~resync:true corrupted with
  | Ok events ->
      Alcotest.(check bool)
        "all events recovered" true
        (events = Trace.to_list t)
  | Error e -> Alcotest.failf "resync decode: %a" Wire.pp_error e);
  Alcotest.(check int) "one resync per garbage byte"
    (before + (4 * (1 + List.length chunkings)))
    (metric "wire_resync_total")

let resync_keeps_fatal_errors () =
  (match decode ~resync:true "XRDW\x01\x00" with
  | Error Wire.Bad_magic -> ()
  | Error e -> Alcotest.failf "expected Bad_magic, got %a" Wire.pp_error e
  | Ok _ -> Alcotest.fail "bad magic decoded under resync");
  let bin = Wire.encode_trace (sample_trace ()) ^ "junk" in
  match decode ~resync:true bin with
  | Error (Wire.Corrupt _) -> ()
  | Error e -> Alcotest.failf "expected Corrupt, got %a" Wire.pp_error e
  | Ok _ -> Alcotest.fail "trailing data decoded under resync"

(* The fault tests decode the whole input once: a [once] fault would
   fire in the first of several feedings only. *)
let decode_frame_fault_fatal () =
  Sessions.with_faults "decode_frame=once" (fun () ->
      let bin = Wire.encode_trace (sample_trace ()) in
      match Bigwire.decode_string bin with
      | Error (Wire.Corrupt msg) ->
          Alcotest.(check bool)
            "error names the injection point" true
            (String.length msg >= 12
            && String.sub msg (String.length msg - 12) 12 = "decode_frame")
      | Error e -> Alcotest.failf "expected Corrupt, got %a" Wire.pp_error e
      | Ok _ -> Alcotest.fail "injected frame fault ignored")

let decode_frame_fault_resync () =
  (* A resync decoder survives the injected corruption; with the same
     seed the outcome is bit-for-bit repeatable. *)
  let run () =
    Sessions.with_faults "seed=11,decode_frame=once" (fun () ->
        let bin = Wire.encode_trace ~chunk_bytes:16 (sample_trace ()) in
        Result.map Trace.to_list (Bigwire.decode_string ~resync:true bin))
  in
  let a = run () in
  (match a with
  | Ok _ | Error (Wire.Truncated | Wire.Corrupt _) -> ()
  | Error e -> Alcotest.failf "unexpected resync failure: %a" Wire.pp_error e);
  Alcotest.(check bool) "deterministic under a fixed seed" true (a = run ())

(* A thread id above [Tid.max_id]: [T0 fork T<tid>] as one CRDW frame and
   as a text line. Every array indexed by tid (a vector clock, the
   happens-before thread table) would be that wide, so every decoder
   refuses it with a typed error before any event reaches the analysis. *)
let far_tid = 400_000_000

let far_tid_stream =
  let payload = Buffer.create 16 in
  Buffer.add_char payload (Char.chr Wire.tag_fork);
  Varint.add payload 0;
  Varint.add payload far_tid;
  let b = Buffer.create 32 in
  Buffer.add_string b Wire.magic;
  Buffer.add_char b (Char.chr Wire.version);
  Varint.add b (Buffer.length payload);
  Buffer.add_buffer b payload;
  Varint.add b 0;
  Buffer.contents b

let far_tid_text =
  Printf.sprintf "T0 fork T%d\nT%d call \"dictionary:o\".put(\"a\", 1) / nil\n"
    far_tid far_tid

let tid_bound () =
  Alcotest.(check int) "max_id" 65_535 Tid.max_id;
  Alcotest.(check int) "max_id accepted" Tid.max_id (Tid.to_int (Tid.of_int Tid.max_id));
  Alcotest.check_raises "above max_id"
    (Invalid_argument "Tid.of_int: thread id above Tid.max_id") (fun () ->
      ignore (Tid.of_int (Tid.max_id + 1)));
  let corrupt what = function
    | Error (Wire.Corrupt msg) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" what msg)
          true
          (String.starts_with ~prefix:"thread id 400000000 above" msg)
    | Error e -> Alcotest.failf "%s: unexpected %a" what Wire.pp_error e
    | Ok _ -> Alcotest.failf "%s: far thread id accepted" what
  in
  corrupt "bigcodec" (decode far_tid_stream);
  (* A varint that is a valid int but not a valid tid, at the bound. *)
  let at_bound =
    String.concat ""
      [ Wire.magic; String.make 1 (Char.chr Wire.version); "\x05\x13\x00\xff\xff\x03"; "\x00" ]
  in
  (match decode at_bound with
  | Ok events -> Alcotest.(check int) "T65535 decodes" 1 (List.length events)
  | Error e -> Alcotest.failf "T65535 rejected: %a" Wire.pp_error e);
  (match Trace_text.parse far_tid_text with
  | Error msg ->
      Alcotest.(check string) "text" "line 1: thread id T400000000 above the maximum T65535" msg
  | Ok _ -> Alcotest.fail "text: far thread id accepted");
  (* Too many digits for an int: an error too, not an escaped Failure. *)
  match Trace_text.parse "T0 fork T99999999999999999999999\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "text: overflowing thread id accepted"

let suite =
  ( "wire",
    [
      Alcotest.test_case "sample round trip" `Quick roundtrip_sample;
      Alcotest.test_case "multi-frame round trip" `Quick roundtrip_tiny_chunks;
      Alcotest.test_case "empty trace" `Quick empty_trace;
      Alcotest.test_case "empty input" `Quick empty_input;
      Alcotest.test_case "bad magic" `Quick bad_magic;
      Alcotest.test_case "future version" `Quick bad_version;
      Alcotest.test_case "trailing garbage" `Quick trailing_garbage;
      Alcotest.test_case "all prefixes truncated" `Quick all_prefixes_truncated;
      Alcotest.test_case "bytewise = whole" `Quick bytewise_equals_whole;
      Alcotest.test_case "bit flips stay total" `Quick bit_flips_total;
      qcheck "decode (encode t) = t" trace_gen (fun trace ->
          match decode (Wire.encode_trace trace) with
          | Ok events -> events = Trace.to_list trace
          | Error _ -> false);
      qcheck "incremental decode = whole decode" trace_gen (fun trace ->
          match decode_chunked ~chunk:1 (Wire.encode_trace trace) with
          | Ok events -> events = Trace.to_list trace
          | Error _ -> false);
      qcheck "strict prefixes are errors"
        Gen.(pair trace_gen (int_range 0 max_int))
        (fun (trace, n) ->
          let bin = Wire.encode_trace trace in
          let cut = n mod String.length bin in
          Result.is_error (decode (String.sub bin 0 cut)));
      qcheck "bit flips never raise"
        Gen.(triple trace_gen (int_range 0 max_int) (int_range 0 7))
        (fun (trace, n, bit) ->
          let b = Bytes.of_string (Wire.encode_trace trace) in
          let i = n mod Bytes.length b in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          match decode (Bytes.to_string b) with
          | Ok _ | Error _ -> true);
      qcheck "random bytes never raise" ~count:500
        Gen.(string_size ~gen:char (int_range 0 120))
        (fun s ->
          match decode s with Ok _ | Error _ -> true);
      Alcotest.test_case "resync: clean stream identity" `Quick
        resync_identity_on_clean_stream;
      Alcotest.test_case "resync: skips inter-frame garbage" `Quick
        resync_skips_interframe_garbage;
      Alcotest.test_case "resync: header and trailing errors stay fatal"
        `Quick resync_keeps_fatal_errors;
      Alcotest.test_case "decode_frame fault is fatal without resync" `Quick
        decode_frame_fault_fatal;
      Alcotest.test_case "decode_frame fault survivable with resync" `Quick
        decode_frame_fault_resync;
      qcheck "resync: clean streams decode identically" trace_gen
        (fun trace ->
          match decode ~resync:true (Wire.encode_trace trace) with
          | Ok events -> events = Trace.to_list trace
          | Error _ -> false);
      qcheck "resync: bit flips never raise, deterministically"
        Gen.(triple trace_gen (int_range 0 max_int) (int_range 0 7))
        (fun (trace, n, bit) ->
          let b = Bytes.of_string (Wire.encode_trace ~chunk_bytes:32 trace) in
          let i = n mod Bytes.length b in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          let s = Bytes.to_string b in
          let once = decode_chunked ~resync:true ~chunk:(String.length s) s in
          once = decode_chunked ~resync:true ~chunk:(String.length s) s);
      qcheck "resync: outcome independent of feed chunking"
        Gen.(triple trace_gen (int_range 0 max_int) (int_range 0 7))
        (fun (trace, n, bit) ->
          let b = Bytes.of_string (Wire.encode_trace ~chunk_bytes:32 trace) in
          let i = n mod Bytes.length b in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          let s = Bytes.to_string b in
          decode_chunked ~resync:true ~chunk:(String.length s) s
          = decode_chunked ~resync:true ~chunk:1 s);
      Alcotest.test_case "thread ids above Tid.max_id" `Quick tid_bound;
    ] )
