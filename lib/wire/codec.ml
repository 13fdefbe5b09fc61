open Crd_base
open Crd_trace

let version = 1
let magic = "CRDW"

(* SYNC: the racedb replication exchange rides the same varint framing
   (varint(len) payload) after its own magic; payloads open with a
   frame-kind byte. Crd_sync owns the payload encodings. *)
let sync_magic = "CRDY"
let sync_version = 2
let sync_hello = 1
let sync_delta = 2
let sync_ack = 3
let sync_error = 4
let default_chunk_bytes = 32768

(* A frame longer than this is rejected rather than buffered: one
   corrupt varint must not make the decoder allocate unboundedly. *)
let max_frame_bytes = 1 lsl 24

type error =
  | Bad_magic
  | Unsupported_version of int
  | Truncated
  | Corrupt of string

(* Process-wide codec metrics: byte counters on the chunk granularity
   (one atomic add per feed/emit, never per event). *)
let tx_bytes_total =
  Crd_obs.counter ~help:"Bytes emitted by CRDW encoders" "wire_tx_bytes_total"

let rx_bytes_total =
  Crd_obs.counter ~help:"Bytes fed into CRDW decoders" "wire_rx_bytes_total"

let frames_total =
  Crd_obs.counter ~help:"CRDW frames decoded" "wire_frames_total"

let decode_errors_total =
  Crd_obs.counter ~help:"CRDW decoders entering the failed state"
    "wire_decode_errors_total"

let resync_total =
  Crd_obs.counter ~help:"Bytes skipped by resyncing CRDW decoders"
    "wire_resync_total"

(* Deterministic corruption for chaos runs: when armed, a frame parse
   fails as if the frame arrived corrupt. *)
let fp_decode_frame = Crd_fault.point "decode_frame"

let pp_error ppf = function
  | Bad_magic -> Fmt.string ppf "bad magic (not a CRDW stream)"
  | Unsupported_version v -> Fmt.pf ppf "unsupported wire version %d" v
  | Truncated -> Fmt.string ppf "truncated stream"
  | Corrupt msg -> Fmt.pf ppf "corrupt stream: %s" msg

let error_to_string e = Fmt.str "%a" pp_error e

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

(* LEB128 over the unsigned bit pattern of an OCaml int: [lsr] makes the
   loop terminate after at most 9 bytes (63 bits / 7). *)
let add_varint b n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let low = !n land 0x7f in
    let rest = !n lsr 7 in
    if rest = 0 then begin
      Buffer.add_char b (Char.chr low);
      continue := false
    end
    else begin
      Buffer.add_char b (Char.chr (low lor 0x80));
      n := rest
    end
  done

(* Zigzag so small negative ints stay small on the wire; a bijection on
   the 63-bit patterns, so every int round-trips. *)
let zigzag i = (i lsl 1) lxor (i asr 62)
let unzigzag u = (u lsr 1) lxor (- (u land 1))
let add_zigzag b i = add_varint b (zigzag i)

(* String-based reader for consumers that frame their own storage (the
   racedb segment files); the stream decoder below keeps its own copy
   operating on the reader record. *)
let get_varint s pos =
  let len = String.length s in
  let rec go acc shift pos =
    if pos >= len then failwith "varint: truncated"
    else if shift > 56 then failwith "varint: overflow"
    else
      let c = Char.code (String.unsafe_get s pos) in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then (acc, pos + 1) else go acc (shift + 7) (pos + 1)
  in
  go 0 0 pos

(* Record tags. *)
let tag_str_def = 0x01
let tag_obj_def = 0x02
let tag_lock_def = 0x03
let tag_call = 0x10
let tag_read = 0x11
let tag_write = 0x12
let tag_fork = 0x13
let tag_join = 0x14
let tag_acquire = 0x15
let tag_release = 0x16
let tag_begin = 0x17
let tag_end = 0x18

(* Location and value sub-tags. *)
let loc_global = 0x00
let loc_field = 0x01
let loc_slot = 0x02
let val_nil = 0x00
let val_false = 0x01
let val_true = 0x02
let val_int = 0x03
let val_str = 0x04
let val_ref = 0x05

(* ------------------------------------------------------------------ *)
(* Encoder                                                             *)
(* ------------------------------------------------------------------ *)

module Encoder = struct
  type t = {
    emit : string -> unit;
    chunk_bytes : int;
    chunk : Buffer.t;
    payload : Buffer.t;
        (* per-event scratch: interning definitions go straight into
           [chunk], the event record is assembled here and appended
           after them, so definitions always precede first use. *)
    strings : (string, int) Hashtbl.t;
    mutable next_string : int;
    objs : (int, unit) Hashtbl.t;
    locks : (int, unit) Hashtbl.t;
    mutable closed : bool;
  }

  let create ?(chunk_bytes = default_chunk_bytes) ~emit () =
    let emit s =
      Crd_obs.Counter.add tx_bytes_total (String.length s);
      emit s
    in
    let b = Buffer.create 8 in
    Buffer.add_string b magic;
    Buffer.add_char b (Char.chr version);
    emit (Buffer.contents b);
    {
      emit;
      chunk_bytes = max 64 chunk_bytes;
      chunk = Buffer.create (max 64 chunk_bytes);
      payload = Buffer.create 64;
      strings = Hashtbl.create 64;
      next_string = 0;
      objs = Hashtbl.create 64;
      locks = Hashtbl.create 16;
      closed = false;
    }

  let flush t =
    if Buffer.length t.chunk > 0 then begin
      let header = Buffer.create 10 in
      add_varint header (Buffer.length t.chunk);
      t.emit (Buffer.contents header);
      t.emit (Buffer.contents t.chunk);
      Buffer.clear t.chunk
    end

  let close t =
    if not t.closed then begin
      flush t;
      t.emit "\x00";
      t.closed <- true
    end

  let str_ref t s =
    match Hashtbl.find_opt t.strings s with
    | Some id -> id
    | None ->
        let id = t.next_string in
        t.next_string <- id + 1;
        Hashtbl.add t.strings s id;
        Buffer.add_char t.chunk (Char.chr tag_str_def);
        add_varint t.chunk (String.length s);
        Buffer.add_string t.chunk s;
        id

  let obj_ref t (o : Obj_id.t) =
    let id = Obj_id.id o in
    if not (Hashtbl.mem t.objs id) then begin
      let name = str_ref t (Obj_id.name o) in
      Hashtbl.add t.objs id ();
      Buffer.add_char t.chunk (Char.chr tag_obj_def);
      add_zigzag t.chunk id;
      add_varint t.chunk name
    end;
    id

  let lock_ref t (l : Lock_id.t) =
    let id = Lock_id.id l in
    if not (Hashtbl.mem t.locks id) then begin
      let name = str_ref t (Lock_id.name l) in
      Hashtbl.add t.locks id ();
      Buffer.add_char t.chunk (Char.chr tag_lock_def);
      add_zigzag t.chunk id;
      add_varint t.chunk name
    end;
    id

  (* The [add_*] helpers below write the event record into [t.payload]
     while any fresh interning definitions land in [t.chunk]. *)

  let add_value t (v : Value.t) =
    let p = t.payload in
    match v with
    | Value.Nil -> Buffer.add_char p (Char.chr val_nil)
    | Value.Bool false -> Buffer.add_char p (Char.chr val_false)
    | Value.Bool true -> Buffer.add_char p (Char.chr val_true)
    | Value.Int i ->
        Buffer.add_char p (Char.chr val_int);
        add_zigzag p i
    | Value.Str s ->
        let id = str_ref t s in
        Buffer.add_char p (Char.chr val_str);
        add_varint p id
    | Value.Ref r ->
        Buffer.add_char p (Char.chr val_ref);
        add_zigzag p r

  let add_values t vs =
    add_varint t.payload (List.length vs);
    List.iter (add_value t) vs

  let add_loc t (l : Mem_loc.t) =
    let p = t.payload in
    match l with
    | Mem_loc.Global g ->
        let g = str_ref t g in
        Buffer.add_char p (Char.chr loc_global);
        add_varint p g
    | Mem_loc.Field (o, f) ->
        let oid = obj_ref t o in
        let f = str_ref t f in
        Buffer.add_char p (Char.chr loc_field);
        add_zigzag p oid;
        add_varint p f
    | Mem_loc.Slot (o, f, v) ->
        let oid = obj_ref t o in
        let f = str_ref t f in
        Buffer.add_char p (Char.chr loc_slot);
        add_zigzag p oid;
        add_varint p f;
        add_value t v

  let event t (e : Event.t) =
    if t.closed then invalid_arg "Codec.Encoder.event: encoder is closed";
    if Buffer.length t.chunk >= t.chunk_bytes then flush t;
    let p = t.payload in
    Buffer.clear p;
    let tid = Tid.to_int e.tid in
    let tag op =
      Buffer.add_char p (Char.chr op);
      add_varint p tid
    in
    (match e.op with
    | Event.Call a ->
        let oid = obj_ref t a.Action.obj in
        let meth = str_ref t a.Action.meth in
        tag tag_call;
        add_zigzag p oid;
        add_varint p meth;
        add_values t a.Action.args;
        add_values t a.Action.rets
    | Event.Read l ->
        tag tag_read;
        add_loc t l
    | Event.Write l ->
        tag tag_write;
        add_loc t l
    | Event.Fork u ->
        tag tag_fork;
        add_varint p (Tid.to_int u)
    | Event.Join u ->
        tag tag_join;
        add_varint p (Tid.to_int u)
    | Event.Acquire l ->
        let lid = lock_ref t l in
        tag tag_acquire;
        add_zigzag p lid
    | Event.Release l ->
        let lid = lock_ref t l in
        tag tag_release;
        add_zigzag p lid
    | Event.Begin -> tag tag_begin
    | Event.End -> tag tag_end);
    Buffer.add_buffer t.chunk p
end

(* Caution: [add_loc]/[add_value] intern into [chunk] while the event
   body goes to [payload]; for [Read]/[Write] the loc sub-record is
   assembled after the tag, so the definitions still precede the whole
   event record in the chunk. *)

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

module Decoder = struct
  exception Fail of error

  let fail e = raise (Fail e)
  let corrupt fmt = Fmt.kstr (fun s -> fail (Corrupt s)) fmt

  type state = Header | Frames | Finished | Failed of error

  type t = {
    mutable state : state;
    resync : bool;  (* scan past corrupt regions instead of failing *)
    buf : Buffer.t;  (* unconsumed input *)
    mutable pos : int;  (* consumed prefix of [buf] *)
    mutable strings : (int, string) Hashtbl.t;
    mutable next_string : int;
    mutable objs : (int, Obj_id.t) Hashtbl.t;
    mutable locks : (int, Lock_id.t) Hashtbl.t;
  }

  let create ?(resync = false) () =
    {
      state = Header;
      resync;
      buf = Buffer.create 4096;
      pos = 0;
      strings = Hashtbl.create 64;
      next_string = 0;
      objs = Hashtbl.create 64;
      locks = Hashtbl.create 16;
    }

  let finished t = t.state = Finished

  (* --- frame-payload reader: overrun here means corruption, because
     the frame header promised [limit - pos] bytes. ------------------ *)

  type reader = { frame : string; mutable rpos : int; rlimit : int }

  let r_byte r =
    if r.rpos >= r.rlimit then corrupt "record overruns its frame";
    let c = Char.code r.frame.[r.rpos] in
    r.rpos <- r.rpos + 1;
    c

  let r_varint r =
    let acc = ref 0 in
    let shift = ref 0 in
    let continue = ref true in
    while !continue do
      let b = r_byte r in
      acc := !acc lor ((b land 0x7f) lsl !shift);
      if b < 0x80 then continue := false
      else begin
        shift := !shift + 7;
        if !shift > 56 then corrupt "varint longer than 9 bytes"
      end
    done;
    !acc

  let r_zigzag r = unzigzag (r_varint r)

  let r_string_def t r =
    let len = r_varint r in
    if len < 0 || len > r.rlimit - r.rpos then
      corrupt "string definition overruns its frame";
    let s = String.sub r.frame r.rpos len in
    r.rpos <- r.rpos + len;
    Hashtbl.add t.strings t.next_string s;
    t.next_string <- t.next_string + 1

  let r_str_ref t r =
    let id = r_varint r in
    match Hashtbl.find_opt t.strings id with
    | Some s -> s
    | None -> corrupt "reference to undefined string %d" id

  let r_obj_ref t r =
    let id = r_zigzag r in
    match Hashtbl.find_opt t.objs id with
    | Some o -> o
    | None -> corrupt "reference to undefined object %d" id

  let r_lock_ref t r =
    let id = r_zigzag r in
    match Hashtbl.find_opt t.locks id with
    | Some l -> l
    | None -> corrupt "reference to undefined lock %d" id

  let r_tid r =
    let v = r_varint r in
    if v < 0 then corrupt "negative thread id";
    if v > Tid.max_id then
      corrupt "thread id %d above the maximum %d" v Tid.max_id;
    Tid.of_int v

  let r_value t r =
    let tag = r_byte r in
    if tag = val_nil then Value.Nil
    else if tag = val_false then Value.Bool false
    else if tag = val_true then Value.Bool true
    else if tag = val_int then Value.Int (r_zigzag r)
    else if tag = val_str then Value.Str (r_str_ref t r)
    else if tag = val_ref then Value.Ref (r_zigzag r)
    else corrupt "unknown value tag 0x%02x" tag

  let r_values t r =
    let n = r_varint r in
    if n < 0 || n > r.rlimit - r.rpos then
      corrupt "value list longer than its frame";
    List.init n (fun _ -> r_value t r)

  let r_loc t r =
    let tag = r_byte r in
    if tag = loc_global then Mem_loc.Global (r_str_ref t r)
    else if tag = loc_field then
      let o = r_obj_ref t r in
      Mem_loc.Field (o, r_str_ref t r)
    else if tag = loc_slot then
      let o = r_obj_ref t r in
      let f = r_str_ref t r in
      Mem_loc.Slot (o, f, r_value t r)
    else corrupt "unknown location tag 0x%02x" tag

  (* One frame payload: interning definitions and events, in order. *)
  let r_frame t r push =
    while r.rpos < r.rlimit do
      let tag = r_byte r in
      if tag = tag_str_def then r_string_def t r
      else if tag = tag_obj_def then begin
        let id = r_zigzag r in
        let name = r_str_ref t r in
        if Hashtbl.mem t.objs id then corrupt "duplicate object %d" id;
        Hashtbl.add t.objs id (Obj_id.make ~name id)
      end
      else if tag = tag_lock_def then begin
        let id = r_zigzag r in
        let name = r_str_ref t r in
        if Hashtbl.mem t.locks id then corrupt "duplicate lock %d" id;
        Hashtbl.add t.locks id (Lock_id.make ~name id)
      end
      else begin
        let tid = r_tid r in
        let op =
          if tag = tag_call then begin
            let obj = r_obj_ref t r in
            let meth = r_str_ref t r in
            let args = r_values t r in
            let rets = r_values t r in
            Event.Call (Action.make ~obj ~meth ~args ~rets ())
          end
          else if tag = tag_read then Event.Read (r_loc t r)
          else if tag = tag_write then Event.Write (r_loc t r)
          else if tag = tag_fork then Event.Fork (r_tid r)
          else if tag = tag_join then Event.Join (r_tid r)
          else if tag = tag_acquire then Event.Acquire (r_lock_ref t r)
          else if tag = tag_release then Event.Release (r_lock_ref t r)
          else if tag = tag_begin then Event.Begin
          else if tag = tag_end then Event.End
          else corrupt "unknown record tag 0x%02x" tag
        in
        push { Event.tid; op }
      end
    done

  (* --- framing layer over the pending buffer ----------------------- *)

  let available t = Buffer.length t.buf - t.pos
  let peek t i = Buffer.nth t.buf (t.pos + i)

  (* Frame-header varint from the pending buffer: [None] means the
     varint itself is still incomplete (wait for more input). *)
  let try_varint t =
    let n = available t in
    let acc = ref 0 in
    let shift = ref 0 in
    let i = ref 0 in
    let result = ref None in
    (try
       while !result = None do
         if !i >= n then raise Exit;
         let b = Char.code (peek t !i) in
         incr i;
         acc := !acc lor ((b land 0x7f) lsl !shift);
         if b < 0x80 then result := Some (!acc, !i)
         else begin
           shift := !shift + 7;
           if !shift > 56 then corrupt "frame length varint longer than 9 bytes"
         end
       done
     with Exit -> ());
    !result

  let compact t =
    if t.pos > 65536 && t.pos * 2 > Buffer.length t.buf then begin
      let rest = Buffer.sub t.buf t.pos (available t) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.pos <- 0
    end

  let check_header t =
    (* Report a magic mismatch as soon as the prefix diverges, even on
       short input. *)
    let n = min (available t) (String.length magic) in
    for i = 0 to n - 1 do
      if peek t i <> magic.[i] then fail Bad_magic
    done;
    if available t >= String.length magic + 1 then begin
      let v = Char.code (peek t (String.length magic)) in
      if v <> version then fail (Unsupported_version v);
      t.pos <- t.pos + String.length magic + 1;
      t.state <- Frames
    end

  (* Parse one frame payload. In resync mode the intern tables are
     snapshotted first and restored on failure, so a corrupt frame
     cannot poison the references of the frames that follow it. *)
  let parse_frame t frame push =
    let r = { frame; rpos = 0; rlimit = String.length frame } in
    if not t.resync then r_frame t r push
    else begin
      let ss = Hashtbl.copy t.strings in
      let sn = t.next_string in
      let so = Hashtbl.copy t.objs in
      let sl = Hashtbl.copy t.locks in
      try r_frame t r push
      with e ->
        t.strings <- ss;
        t.next_string <- sn;
        t.objs <- so;
        t.locks <- sl;
        raise e
    end

  (* A resync can only recover mid-stream corruption: a bad header and
     data after a consumed end marker stay fatal even when scanning. *)
  let recoverable t = function
    | Corrupt _ -> t.state = Frames
    | Bad_magic | Unsupported_version _ | Truncated -> false

  let feed t ?(off = 0) ?len input =
    let len = match len with Some l -> l | None -> String.length input - off in
    if off < 0 || len < 0 || off + len > String.length input then
      invalid_arg "Codec.Decoder.feed: invalid slice";
    match t.state with
    | Failed e -> Error e
    | _ -> (
        Crd_obs.Counter.add rx_bytes_total len;
        Buffer.add_substring t.buf input off len;
        let events = ref [] in
        let push e = events := e :: !events in
        try
          if t.state = Header then check_header t;
          if t.state = Frames then begin
            let continue = ref true in
            while !continue do
              let saved_events = !events in
              try
                match try_varint t with
                | None -> continue := false
                | Some (frame_len, hdr_len) ->
                    if frame_len = 0 then begin
                      t.pos <- t.pos + hdr_len;
                      t.state <- Finished;
                      continue := false;
                      if available t > 0 then
                        corrupt "trailing data after end of stream"
                    end
                    else if frame_len < 0 || frame_len > max_frame_bytes then
                      corrupt "frame length %d out of bounds" frame_len
                    else if available t < hdr_len + frame_len then
                      continue := false
                    else begin
                      let frame =
                        Buffer.sub t.buf (t.pos + hdr_len) frame_len
                      in
                      if Crd_fault.fire fp_decode_frame then
                        corrupt "fault injected: decode_frame";
                      parse_frame t frame push;
                      (* Consume the frame only once it parsed: a resync
                         restarts its scan from the frame's first byte. *)
                      t.pos <- t.pos + hdr_len + frame_len;
                      Crd_obs.Counter.incr frames_total;
                      compact t
                    end
              with Fail e when t.resync && recoverable t e ->
                events := saved_events;
                t.pos <- t.pos + 1;
                Crd_obs.Counter.incr resync_total;
                compact t
            done
          end
          else if t.state = Finished && available t > 0 then
            corrupt "trailing data after end of stream";
          Ok (List.rev !events)
        with
        | Fail e ->
            t.state <- Failed e;
            Crd_obs.Counter.incr decode_errors_total;
            Error e
        | e ->
            (* Totality backstop: no parsing exception may escape. *)
            let err = Corrupt (Printexc.to_string e) in
            t.state <- Failed err;
            Crd_obs.Counter.incr decode_errors_total;
            Error err)

  let finish t =
    match t.state with
    | Finished -> Ok ()
    | Failed e -> Error e
    | Header | Frames -> Error Truncated
end

(* ------------------------------------------------------------------ *)
(* Whole-value convenience                                             *)
(* ------------------------------------------------------------------ *)

let encode_trace ?chunk_bytes trace =
  let out = Buffer.create (64 + (8 * Trace.length trace)) in
  let enc = Encoder.create ?chunk_bytes ~emit:(Buffer.add_string out) () in
  Trace.iter_events trace ~f:(Encoder.event enc);
  Encoder.close enc;
  Buffer.contents out

let decode_string ?resync s =
  let dec = Decoder.create ?resync () in
  match Decoder.feed dec s with
  | Error e -> Error e
  | Ok events -> (
      match Decoder.finish dec with
      | Error e -> Error e
      | Ok () -> Ok (Trace.of_list events))

let write_channel oc trace =
  let enc = Encoder.create ~emit:(Out_channel.output_string oc) () in
  Trace.iter_events trace ~f:(Encoder.event enc);
  Encoder.close enc

let to_file path trace =
  match Out_channel.with_open_bin path (fun oc -> write_channel oc trace) with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg
