(* The string CRDW decoder that [Bigcodec] replaced, kept as the
   reference oracle of the differential tests in test_bigwire.ml: an
   independent reading of the same grammar ([Codec]'s tags and errors),
   with a [Hashtbl] per intern table, a [Buffer] of pending input, a
   copied string per frame and a list of events per feed. It reports no
   metrics and consults no fault point. *)

open Crd_base
open Crd_trace
open Crd_wire.Codec

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

  let r_zigzag r = Varint.unzigzag (r_varint r)

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
      invalid_arg "Codec_oracle.Decoder.feed: invalid slice";
    match t.state with
    | Failed e -> Error e
    | _ -> (
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
                      parse_frame t frame push;
                      (* Consume the frame only once it parsed: a resync
                         restarts its scan from the frame's first byte. *)
                      t.pos <- t.pos + hdr_len + frame_len;
                      compact t
                    end
              with Fail e when t.resync && recoverable t e ->
                events := saved_events;
                t.pos <- t.pos + 1;
                compact t
            done
          end
          else if t.state = Finished && available t > 0 then
            corrupt "trailing data after end of stream";
          Ok (List.rev !events)
        with
        | Fail e ->
            t.state <- Failed e;
            Error e
        | e ->
            (* Totality backstop: no parsing exception may escape. *)
            let err = Corrupt (Printexc.to_string e) in
            t.state <- Failed err;
            Error err)

  let finish t =
    match t.state with
    | Finished -> Ok ()
    | Failed e -> Error e
    | Header | Frames -> Error Truncated
end

(* The whole stream at once: the trace, or the first error. *)
let decode_string ?resync s =
  let dec = Decoder.create ?resync () in
  match Decoder.feed dec s with
  | Error e -> Error e
  | Ok events -> (
      match Decoder.finish dec with
      | Error e -> Error e
      | Ok () -> Ok (Trace.of_list events))
