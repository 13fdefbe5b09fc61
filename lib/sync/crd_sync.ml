module Db = Crd_racedb.Db
module Entry = Crd_racedb.Entry
module Vv = Crd_racedb.Vv
module Varint = Crd_base.Varint

(* The exchange rides the CRDW varint framing (varint(len) payload)
   after its own magic; payloads open with a frame-kind byte. *)
let sync_magic = "CRDY"
let sync_version = 2
let sync_hello = 1
let sync_delta = 2
let sync_ack = 3
let sync_error = 4

(* --- observability ------------------------------------------------- *)

let m_exchanges =
  Crd_obs.counter ~help:"Sync exchanges completed" "sync_exchanges_total"

let m_failures =
  Crd_obs.counter ~help:"Sync exchanges failed (fault, I/O, protocol)"
    "sync_failures_total"

let m_sent =
  Crd_obs.counter ~help:"Racedb entries sent to peers" "sync_entries_sent_total"

let m_received =
  Crd_obs.counter ~help:"Racedb entries received from peers"
    "sync_entries_recv_total"

let m_applied =
  Crd_obs.counter ~help:"Received entries that changed local state"
    "sync_entries_applied_total"

let m_bytes_sent =
  Crd_obs.counter ~help:"Sync frame bytes written" "sync_bytes_sent_total"

let m_bytes_recv =
  Crd_obs.counter ~help:"Sync frame bytes read" "sync_bytes_recv_total"

let h_exchange =
  Crd_obs.histogram ~help:"Wall time of one sync exchange" "sync_seconds"

(* --- fault points --------------------------------------------------- *)

let fp_connect = Crd_fault.point "sync_connect"
let fp_read = Crd_fault.point "sync_read"
let fp_write = Crd_fault.point "sync_write"
let fp_merge = Crd_fault.point "sync_merge"

(* --- fd plumbing ---------------------------------------------------- *)

(* Sync frames are small by construction — the sender flushes a delta
   batch at [delta_batch] entries or [delta_soft_bytes], whichever
   comes first, so one frame never much exceeds the soft limit plus a
   single entry (fixed rings plus one sample record; an entry whose
   sample alone outgrows this limit cannot be replicated).
   16 MiB leaves an order of magnitude of slack while refusing the
   gigabyte length prefixes a hostile peer could otherwise make us
   allocate. *)
let max_frame_bytes = 1 lsl 24
let delta_batch = 64
let delta_soft_bytes = 1 lsl 20

(* Aggregate bounds on one exchange's buffered delta stream. The frames
   must be held until the closing ACK (the all-or-nothing apply), and
   the listener shares the unauthenticated session port — without a cap
   any peer could stream frames indefinitely and OOM the server before
   ever sending its ACK. *)
let max_exchange_entries = 1 lsl 20
let max_exchange_bytes = 1 lsl 26

let set_timeouts fd timeout =
  if timeout > 0. then begin
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    try Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
    with Unix.Unix_error _ | Invalid_argument _ -> ()
  end

(* The per-read socket timeout resets on every byte, so a peer dripping
   one byte per window could hold an exchange — and its buffered,
   capped-but-large delta stream — open indefinitely. [dl] is the
   absolute wall-clock deadline (Crd_obs.now_s) for the whole exchange:
   0. means none, and every read/write step checks it, so the exchange
   overruns the deadline by at most one socket-timeout window. *)
let check_deadline dl =
  if dl > 0. && Crd_obs.now_s () > dl then
    failwith "sync: exchange deadline exceeded"

let read_exact ~dl fd n ~what =
  let b = Bytes.create n in
  let rec go off =
    if off < n then begin
      check_deadline dl;
      match Crd_io.read_retry fd b off (n - off) with
      | 0 -> failwith (Printf.sprintf "sync: eof reading %s" what)
      | k -> go (off + k)
    end
  in
  go 0;
  Bytes.unsafe_to_string b

let read_varint_fd ~dl fd ~what =
  let b = Bytes.create 1 in
  let rec go acc shift n =
    if shift > 56 then failwith "sync: varint overflow";
    check_deadline dl;
    match Crd_io.read_retry fd b 0 1 with
    | 0 -> failwith (Printf.sprintf "sync: eof reading %s" what)
    | _ ->
        let c = Char.code (Bytes.get b 0) in
        let acc = acc lor ((c land 0x7f) lsl shift) in
        if c land 0x80 = 0 then (acc, n + 1) else go acc (shift + 7) (n + 1)
  in
  go 0 0 0

let write_frame ~dl fd payload =
  Crd_fault.inject fp_write;
  check_deadline dl;
  let b = Buffer.create (String.length payload + 4) in
  Varint.add b (String.length payload);
  Buffer.add_string b payload;
  let s = Buffer.contents b in
  Crd_io.write_all fd s;
  Crd_obs.Counter.add m_bytes_sent (String.length s)

let read_frame ~dl fd =
  Crd_fault.inject fp_read;
  check_deadline dl;
  let len, hdr = read_varint_fd ~dl fd ~what:"frame length" in
  if len <= 0 || len > max_frame_bytes then failwith "sync: bad frame length";
  let p = read_exact ~dl fd len ~what:"frame" in
  Crd_obs.Counter.add m_bytes_recv (len + hdr);
  p

(* --- frame payloads ------------------------------------------------- *)

type frame =
  | Hello of string * Vv.t
  | Delta of Entry.t list
  | Ack of Vv.t * int
  | Refused of string

let hello_payload ~node ~vv =
  let b = Buffer.create 64 in
  Buffer.add_char b (Char.chr sync_hello);
  Varint.add b (String.length node);
  Buffer.add_string b node;
  Vv.encode b vv;
  Buffer.contents b

let ack_payload ~vv ~applied =
  let b = Buffer.create 64 in
  Buffer.add_char b (Char.chr sync_ack);
  Vv.encode b vv;
  Varint.add b applied;
  Buffer.contents b

let error_payload msg =
  let msg =
    if String.length msg > 512 then String.sub msg 0 512 else msg
  in
  let b = Buffer.create (String.length msg + 4) in
  Buffer.add_char b (Char.chr sync_error);
  Varint.add b (String.length msg);
  Buffer.add_string b msg;
  Buffer.contents b

let parse_frame p =
  if p = "" then failwith "sync: empty frame";
  let kind = Char.code p.[0] in
  if kind = sync_hello then begin
    let n, pos = Varint.get p 1 in
    if n <= 0 || n > Vv.node_max_bytes || pos + n > String.length p then
      failwith "sync: bad peer node id";
    let node = String.sub p pos n in
    let vv, _ = Vv.decode p (pos + n) in
    Hello (node, vv)
  end
  else if kind = sync_delta then begin
    let n, pos = Varint.get p 1 in
    if n < 0 || n > 1 lsl 20 then failwith "sync: bad delta count";
    let rec go acc n pos =
      if n = 0 then Delta (List.rev acc)
      else
        let e, pos = Entry.decode p pos in
        go (e :: acc) (n - 1) pos
    in
    go [] n pos
  end
  else if kind = sync_ack then begin
    let vv, pos = Vv.decode p 1 in
    let applied, _ = Varint.get p pos in
    Ack (vv, applied)
  end
  else if kind = sync_error then begin
    let n, pos = Varint.get p 1 in
    if n < 0 || pos + n > String.length p then failwith "sync: bad error";
    Refused (String.sub p pos n)
  end
  else failwith (Printf.sprintf "sync: unknown frame kind %d" kind)

(* --- the exchange --------------------------------------------------- *)

type summary = {
  peer : string;
  sent : int;
  received : int;
  applied : int;
  peer_applied : int;
}

let pp_summary ppf s =
  Fmt.pf ppf "peer %s: sent %d, received %d, applied %d (peer applied %d)"
    s.peer s.sent s.received s.applied s.peer_applied

let refuse fd msg =
  try write_frame ~dl:0. fd (error_payload msg) with
  | Failure _ | Unix.Unix_error _ | Crd_fault.Injected _ -> ()

(* Stream every entry the peer (at [since]) has not seen, in batches
   bounded by entry count AND encoded size (so frames stay far under
   [max_frame_bytes]), closed by an ACK carrying our current vector and
   how many of the peer's entries we applied so far. *)
let send_deltas ~dl fd db ~since ~applied =
  let es = Db.delta db ~since in
  let entries_buf = Buffer.create 4096 in
  let count = ref 0 in
  let flush () =
    if !count > 0 then begin
      let b = Buffer.create (Buffer.length entries_buf + 8) in
      Buffer.add_char b (Char.chr sync_delta);
      Varint.add b !count;
      Buffer.add_buffer b entries_buf;
      write_frame ~dl fd (Buffer.contents b);
      Buffer.clear entries_buf;
      count := 0
    end
  in
  List.iter
    (fun e ->
      Entry.encode entries_buf e;
      incr count;
      if !count >= delta_batch || Buffer.length entries_buf >= delta_soft_bytes
      then flush ())
    es;
  flush ();
  write_frame ~dl fd (ack_payload ~vv:(Db.version db) ~applied);
  let n = List.length es in
  Crd_obs.Counter.add m_sent n;
  n

(* Buffer delta batches until the peer's ACK, then apply them in one
   merge. The all-or-nothing apply is load-bearing: the version vector
   is the pointwise max over stored entry [ver]s, so merging a prefix
   of the stream can advance it past entries never received — the next
   round's [delta ~since] would then silently skip them forever. A
   stream that dies early must therefore apply nothing; the retry
   re-sends the full delta and the merge stays idempotent. *)
let recv_deltas ~dl fd db =
  let rec go acc received bytes =
    let p = read_frame ~dl fd in
    match parse_frame p with
    | Delta es ->
        let received = received + List.length es in
        let bytes = bytes + String.length p in
        if received > max_exchange_entries || bytes > max_exchange_bytes
        then begin
          refuse fd "delta stream exceeds exchange limits";
          failwith "sync: delta stream exceeds exchange limits"
        end;
        go (es :: acc) received bytes
    | Ack (_vv, peer_applied) ->
        (List.concat (List.rev acc), received, peer_applied)
    | Refused m -> failwith ("sync: peer error: " ^ m)
    | Hello _ -> failwith "sync: unexpected hello"
  in
  let entries, received, peer_applied = go [] 0 0 in
  Crd_fault.inject fp_merge;
  let applied = Db.merge db entries in
  Crd_obs.Counter.add m_received received;
  Crd_obs.Counter.add m_applied applied;
  (received, applied, peer_applied)

let fail m =
  Crd_obs.Counter.incr m_failures;
  Error m

let run f =
  Crd_obs.time h_exchange @@ fun () ->
  match f () with
  | v ->
      Crd_obs.Counter.incr m_exchanges;
      Ok v
  | exception Failure m -> fail m
  | exception Crd_fault.Injected m -> fail ("fault injected: " ^ m)
  | exception Unix.Unix_error (e, fn, _) ->
      fail (Printf.sprintf "sync: %s(%s)" (Unix.error_message e) fn)

let expect_hello ~dl fd =
  match parse_frame (read_frame ~dl fd) with
  | Hello (node, vv) -> (node, vv)
  | Refused m -> failwith ("sync: peer refused: " ^ m)
  | Delta _ | Ack _ -> failwith "sync: expected hello"

(* The whole-exchange deadline, from the per-read timeout when the
   caller gives none: generous enough that a healthy exchange (a few
   round trips plus bounded delta streams) never trips it, tight
   enough that a dripping peer cannot pin the exchange for hours. *)
let deadline_of ~timeout ~deadline =
  match deadline with
  | Some d when d > 0. -> Crd_obs.now_s () +. d
  | Some _ -> 0.
  | None -> if timeout > 0. then Crd_obs.now_s () +. (10. *. timeout) else 0.

let client ?(timeout = 30.) ?deadline fd db =
  run
    (fun () ->
      let dl = deadline_of ~timeout ~deadline in
      set_timeouts fd timeout;
      (* A refusing peer (a server without a racedb) answers the
         preamble and closes, so a later write can fail while its
         refusal waits unread: read it, and report the reason rather
         than the broken pipe. *)
      (try
         Crd_fault.inject fp_write;
         Crd_io.write_all fd (sync_magic ^ String.make 1 (Char.chr sync_version));
         Crd_obs.Counter.add m_bytes_sent 5;
         write_frame ~dl fd
           (hello_payload ~node:(Db.node_id db) ~vv:(Db.version db))
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) as e -> (
         match parse_frame (read_frame ~dl fd) with
         | Refused m -> failwith ("sync: peer refused: " ^ m)
         | Hello _ | Delta _ | Ack _ -> raise e
         | exception _ -> raise e));
      let peer, peer_vv = expect_hello ~dl fd in
      (* the peer streams its missing entries first, then we answer
         with ours computed against the vector it advertised *)
      let received, applied, _ = recv_deltas ~dl fd db in
      let sent = send_deltas ~dl fd db ~since:peer_vv ~applied in
      match parse_frame (read_frame ~dl fd) with
      | Ack (_vv, peer_applied) -> { peer; sent; received; applied; peer_applied }
      | Refused m -> failwith ("sync: peer error: " ^ m)
      | Delta _ | Hello _ -> failwith "sync: expected final ack")


let serve ?(timeout = 30.) ?deadline ~version fd db =
  run
    (fun () ->
      let dl = deadline_of ~timeout ~deadline in
      if version <> sync_version then begin
        (try write_frame ~dl fd
           (error_payload (Printf.sprintf "unsupported sync version %d" version))
         with _ -> ());
        failwith (Printf.sprintf "sync: unsupported version %d" version)
      end;
      set_timeouts fd timeout;
      let peer, peer_vv = expect_hello ~dl fd in
      write_frame ~dl fd (hello_payload ~node:(Db.node_id db) ~vv:(Db.version db));
      let sent = send_deltas ~dl fd db ~since:peer_vv ~applied:0 in
      let received, applied, peer_applied = recv_deltas ~dl fd db in
      write_frame ~dl fd (ack_payload ~vv:(Db.version db) ~applied);
      { peer; sent; received; applied; peer_applied })
