open Crd_base
open Crd_trace

(* The CRDW decoder ({!Codec} holds the grammar and the encoder), parsing
   in place over [Bytes.t] slices:

   - no per-frame [Buffer.sub] / [String.sub]: a frame is a (pos, limit)
     window over the input or the pending buffer;
   - interned strings materialize an OCaml string once per distinct
     content: a definition's slice is hashed and compared in place
     against the pool before any allocation;
   - object/lock references resolve through dense arrays (real encoders
     assign ids sequentially), not a hashtable probe per event;
   - when a feed arrives with nothing pending, frames decode straight
     from the caller's slice and only the incomplete tail is copied;
   - every entry point is push-based ([feed_bytes_iter], [iter_fd],
     [iter_file]): each event goes to the consumer as it is parsed, with
     no intermediate list, so in a streaming consumer the events die in
     the minor heap instead of being promoted twice;
   - an [Int] in [[0, 1024)] decodes to a box shared by every decoder,
     built by the first [Decoder.create] (not at start-up), so the
     common small argument allocates nothing and [Value.equal] settles
     it by identity.

   test/test_bigwire.ml checks it against an independent string decoder
   of the same grammar, test/codec_oracle.ml. *)

(* Process-wide decoder metrics: byte counters on the feed granularity
   (one atomic add per feed, never per event). *)
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

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

module Decoder = struct
  exception Fail of Codec.error

  let fail e = raise (Fail e)
  let corrupt fmt = Fmt.kstr (fun s -> fail (Codec.Corrupt s)) fmt

  (* Approximate bytes held by live decoders (pending buffers, intern
     pools, ref tables) — the [mem_intern_bytes] leg of the server's
     overload memory accounting. Charged incrementally as tables grow,
     released wholesale by {!release} (or the GC finalizer backstop);
     resync rollbacks keep their high-water charge, which errs toward
     shedding, never toward under-counting. *)
  let mem_intern_bytes =
    Crd_obs.gauge ~help:"Approximate bytes held by live CRDW decoder state"
      "mem_intern_bytes"

  type state = Header | Frames | Finished | Failed of Codec.error

  (* The shared [Int] boxes: [small_ints.(i) = Int i] for [0 <= i <
     small_int_limit], empty until the first [create]. Two domains
     creating their first decoders at once may each build a table; both
     are equal and either may win, so no lock is needed (and [Lazy] would
     raise [Undefined] in the loser). *)
  let small_int_limit = 1024
  let small_ints : Value.t array Atomic.t = Atomic.make [||]

  let shared_small_ints () =
    let ints = Atomic.get small_ints in
    if Array.length ints = small_int_limit then ints
    else begin
      (* Not [Array.init]: its first element is a young box, and
         [Array.make] of a major-heap length with a young value runs a
         minor collection first (~0.25 ms in a fresh process). *)
      let ints = Array.make small_int_limit Value.Nil in
      for i = 0 to small_int_limit - 1 do
        ints.(i) <- Value.Int i
      done;
      Atomic.set small_ints ints;
      ints
    end

  (* Ids above this bound (from a hand-crafted stream — real encoders
     count up from zero) spill to a hashtable instead of growing the
     dense array without limit. *)
  let dense_limit = 1 lsl 16

  (* The in-place string pool: content hash -> previously materialized
     strings with that hash. Never rolled back on resync — entries are
     content-addressed, so a string interned by a frame that later
     failed still denotes the same content if redefined. *)
  type t = {
    mutable state : state;
    resync : bool;
    mutable buf : Bytes.t;  (* pending unconsumed input *)
    mutable pos : int;  (* consumed prefix of [buf] *)
    mutable fill : int;  (* valid bytes in [buf] *)
    mutable strings : string array;  (* intern id -> string *)
    mutable next_string : int;
    pool : (int, string) Hashtbl.t;
    mutable objs : Obj_id.t option array;  (* dense id -> object *)
    mutable objs_spill : (int, Obj_id.t) Hashtbl.t;
    mutable locks : Lock_id.t option array;
    mutable locks_spill : (int, Lock_id.t) Hashtbl.t;
    mutable mem : int;  (* bytes charged to [mem_intern_bytes] *)
    mutable released : bool;
    ints : Value.t array;  (* [shared_small_ints] *)
  }

  let charge t n =
    if not t.released then begin
      t.mem <- t.mem + n;
      Crd_obs.Gauge.add mem_intern_bytes n
    end

  (* Give the decoder's whole charge back. Idempotent; called by the
     convenience wrappers, by server sessions when a decode ends, and
     as a GC-finalizer backstop for decoders dropped without one. *)
  let release t =
    if not t.released then begin
      t.released <- true;
      Crd_obs.Gauge.add mem_intern_bytes (-t.mem);
      t.mem <- 0
    end

  let mem t = t.mem

  let create ?(resync = false) () =
    let t =
      {
        state = Header;
        resync;
        buf = Bytes.create 65536;
        pos = 0;
        fill = 0;
        strings = Array.make 64 "";
        next_string = 0;
        pool = Hashtbl.create 64;
        objs = Array.make 64 None;
        objs_spill = Hashtbl.create 8;
        locks = Array.make 16 None;
        locks_spill = Hashtbl.create 8;
        mem = 0;
        released = false;
        ints = shared_small_ints ();
      }
    in
    charge t (65536 + (8 * (64 + 64 + 16)));
    Gc.finalise release t;
    t

  let finished t = t.state = Finished

  (* --- frame-payload reader over a [(buf, pos, limit)] window ------- *)

  (* [rpos]/[rlimit] bound the current frame; overrun means corruption,
     because the frame header promised the bytes. The window is plain
     mutable state (no per-frame record allocation). *)
  type cursor = { mutable cb : Bytes.t; mutable rpos : int; mutable rlimit : int }

  let r_byte c =
    if c.rpos >= c.rlimit then corrupt "record overruns its frame";
    let v = Char.code (Bytes.unsafe_get c.cb c.rpos) in
    c.rpos <- c.rpos + 1;
    v

  let r_varint c =
    (* Hot path: almost every varint is one byte; read it without the
       loop state. Multi-byte continuations fall through to the loop. *)
    if c.rpos < c.rlimit then begin
      let b0 = Char.code (Bytes.unsafe_get c.cb c.rpos) in
      if b0 < 0x80 then begin
        c.rpos <- c.rpos + 1;
        b0
      end
      else begin
        let acc = ref (b0 land 0x7f) in
        let shift = ref 7 in
        c.rpos <- c.rpos + 1;
        let continue = ref true in
        while !continue do
          let b = r_byte c in
          acc := !acc lor ((b land 0x7f) lsl !shift);
          if b < 0x80 then continue := false
          else begin
            shift := !shift + 7;
            if !shift > 56 then corrupt "varint longer than 9 bytes"
          end
        done;
        !acc
      end
    end
    else corrupt "record overruns its frame"

  let r_zigzag c = Varint.unzigzag (r_varint c)

  (* --- interning with in-place comparison --------------------------- *)

  (* FNV-1a over the slice (offset basis truncated to OCaml's 63-bit
     ints), folded non-negative. *)
  let hash_slice b pos len =
    let h = ref 0x4bf29ce484222325 in
    for i = pos to pos + len - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
    done;
    !h land max_int

  let slice_equal b pos len s =
    String.length s = len
    &&
    let i = ref 0 in
    while
      !i < len
      && Char.equal (Bytes.unsafe_get b (pos + !i))
           (String.unsafe_get s !i)
    do
      incr i
    done;
    !i = len

  (* Materialize the slice as an OCaml string, reusing a pooled string
     of identical content when one exists. *)
  let intern t b pos len =
    let h = hash_slice b pos len in
    let rec find = function
      | [] ->
          let s = Bytes.sub_string b pos len in
          Hashtbl.add t.pool h s;
          (* string header + content + a pool bucket, roughly *)
          charge t (len + 48);
          s
      | s :: rest -> if slice_equal b pos len s then s else find rest
    in
    find (Hashtbl.find_all t.pool h)

  let r_string_def t c =
    let len = r_varint c in
    if len < 0 || len > c.rlimit - c.rpos then
      corrupt "string definition overruns its frame";
    let s = intern t c.cb c.rpos len in
    c.rpos <- c.rpos + len;
    if t.next_string >= Array.length t.strings then begin
      let bigger = Array.make (2 * Array.length t.strings) "" in
      Array.blit t.strings 0 bigger 0 t.next_string;
      charge t (8 * (Array.length bigger - Array.length t.strings));
      t.strings <- bigger
    end;
    Array.unsafe_set t.strings t.next_string s;
    t.next_string <- t.next_string + 1

  let r_str_ref t c =
    let id = r_varint c in
    if id >= 0 && id < t.next_string then Array.unsafe_get t.strings id
    else corrupt "reference to undefined string %d" id

  (* --- object/lock reference tables --------------------------------- *)

  let grow_dense arr id =
    let cap = ref (2 * Array.length arr) in
    while id >= !cap do
      cap := 2 * !cap
    done;
    let bigger = Array.make !cap None in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger

  let def_obj t id o =
    if id >= 0 && id < dense_limit then begin
      if id >= Array.length t.objs then begin
        let old = Array.length t.objs in
        t.objs <- grow_dense t.objs id;
        charge t (8 * (Array.length t.objs - old))
      end;
      match Array.unsafe_get t.objs id with
      | Some _ -> corrupt "duplicate object %d" id
      | None -> Array.unsafe_set t.objs id (Some o)
    end
    else begin
      if Hashtbl.mem t.objs_spill id then corrupt "duplicate object %d" id;
      Hashtbl.add t.objs_spill id o;
      charge t 48
    end

  let def_lock t id l =
    if id >= 0 && id < dense_limit then begin
      if id >= Array.length t.locks then begin
        let old = Array.length t.locks in
        t.locks <- grow_dense t.locks id;
        charge t (8 * (Array.length t.locks - old))
      end;
      match Array.unsafe_get t.locks id with
      | Some _ -> corrupt "duplicate lock %d" id
      | None -> Array.unsafe_set t.locks id (Some l)
    end
    else begin
      if Hashtbl.mem t.locks_spill id then corrupt "duplicate lock %d" id;
      Hashtbl.add t.locks_spill id l;
      charge t 48
    end

  let r_obj_ref t c =
    let id = r_zigzag c in
    if id >= 0 && id < Array.length t.objs then
      match Array.unsafe_get t.objs id with
      | Some o -> o
      | None -> corrupt "reference to undefined object %d" id
    else
      match Hashtbl.find_opt t.objs_spill id with
      | Some o -> o
      | None -> corrupt "reference to undefined object %d" id

  let r_lock_ref t c =
    let id = r_zigzag c in
    if id >= 0 && id < Array.length t.locks then
      match Array.unsafe_get t.locks id with
      | Some l -> l
      | None -> corrupt "reference to undefined lock %d" id
    else
      match Hashtbl.find_opt t.locks_spill id with
      | Some l -> l
      | None -> corrupt "reference to undefined lock %d" id

  let r_tid c =
    let v = r_varint c in
    if v < 0 then corrupt "negative thread id";
    if v > Tid.max_id then
      corrupt "thread id %d above the maximum %d" v Tid.max_id;
    Tid.of_int v

  let r_value t c =
    let tag = r_byte c in
    if tag = Codec.val_nil then Value.Nil
    else if tag = Codec.val_false then Value.Bool false
    else if tag = Codec.val_true then Value.Bool true
    else if tag = Codec.val_int then
      let i = r_zigzag c in
      if i >= 0 && i < small_int_limit then Array.unsafe_get t.ints i
      else Value.Int i
    else if tag = Codec.val_str then Value.Str (r_str_ref t c)
    else if tag = Codec.val_ref then Value.Ref (r_zigzag c)
    else corrupt "unknown value tag 0x%02x" tag

  let[@tail_mod_cons] rec r_value_list t c n =
    if n = 0 then []
    else
      let v = r_value t c in
      v :: r_value_list t c (n - 1)

  let r_values t c =
    let n = r_varint c in
    if n < 0 || n > c.rlimit - c.rpos then
      corrupt "value list longer than its frame";
    r_value_list t c n

  let r_loc t c =
    let tag = r_byte c in
    if tag = Codec.loc_global then Mem_loc.Global (r_str_ref t c)
    else if tag = Codec.loc_field then
      let o = r_obj_ref t c in
      Mem_loc.Field (o, r_str_ref t c)
    else if tag = Codec.loc_slot then
      let o = r_obj_ref t c in
      let f = r_str_ref t c in
      Mem_loc.Slot (o, f, r_value t c)
    else corrupt "unknown location tag 0x%02x" tag

  (* One frame payload: interning definitions and events, in order. *)
  let r_frame t c push =
    while c.rpos < c.rlimit do
      let tag = r_byte c in
      if tag = Codec.tag_str_def then r_string_def t c
      else if tag = Codec.tag_obj_def then begin
        let id = r_zigzag c in
        let name = r_str_ref t c in
        def_obj t id (Obj_id.make ~name id)
      end
      else if tag = Codec.tag_lock_def then begin
        let id = r_zigzag c in
        let name = r_str_ref t c in
        def_lock t id (Lock_id.make ~name id)
      end
      else begin
        let tid = r_tid c in
        let op =
          if tag = Codec.tag_call then begin
            let obj = r_obj_ref t c in
            let meth = r_str_ref t c in
            let args = r_values t c in
            let rets = r_values t c in
            (* The record itself: [Action.make]'s optional arguments
               would box both lists. *)
            Event.Call { Action.obj; meth; args; rets }
          end
          else if tag = Codec.tag_read then Event.Read (r_loc t c)
          else if tag = Codec.tag_write then Event.Write (r_loc t c)
          else if tag = Codec.tag_fork then Event.Fork (r_tid c)
          else if tag = Codec.tag_join then Event.Join (r_tid c)
          else if tag = Codec.tag_acquire then Event.Acquire (r_lock_ref t c)
          else if tag = Codec.tag_release then Event.Release (r_lock_ref t c)
          else if tag = Codec.tag_begin then Event.Begin
          else if tag = Codec.tag_end then Event.End
          else corrupt "unknown record tag 0x%02x" tag
        in
        push { Event.tid; op }
      end
    done

  (* Parse one frame window. In resync mode the intern tables are
     snapshotted first and restored on failure, so a corrupt frame
     cannot poison the references of the frames that follow it. The
     string table rolls back by index alone (definitions are sequential
     appends); the content pool deliberately keeps orphaned entries. *)
  let parse_frame t c push =
    if not t.resync then r_frame t c push
    else begin
      let sn = t.next_string in
      let so = Array.copy t.objs in
      let sos = Hashtbl.copy t.objs_spill in
      let sl = Array.copy t.locks in
      let sls = Hashtbl.copy t.locks_spill in
      try r_frame t c push
      with e ->
        t.next_string <- sn;
        t.objs <- so;
        t.objs_spill <- sos;
        t.locks <- sl;
        t.locks_spill <- sls;
        raise e
    end

  (* A resync can only recover mid-stream corruption: a bad header and
     data after a consumed end marker stay fatal even when scanning. *)
  let recoverable t = function
    | Codec.Corrupt _ -> t.state = Frames
    | Codec.Bad_magic | Codec.Unsupported_version _ | Codec.Truncated -> false

  (* --- framing layer ------------------------------------------------ *)

  (* Frame-header varint at [pos] in [(buf, limit)]: [None] while the
     varint itself is incomplete (wait for more input). *)
  let try_varint buf pos limit =
    let acc = ref 0 in
    let shift = ref 0 in
    let i = ref pos in
    let result = ref None in
    (try
       while !result = None do
         if !i >= limit then raise Exit;
         let b = Char.code (Bytes.unsafe_get buf !i) in
         incr i;
         acc := !acc lor ((b land 0x7f) lsl !shift);
         if b < 0x80 then result := Some (!acc, !i - pos)
         else begin
           shift := !shift + 7;
           if !shift > 56 then corrupt "frame length varint longer than 9 bytes"
         end
       done
     with Exit -> ());
    !result

  (* Drain as many whole frames as possible from [(buf, !pos, limit)],
     advancing [!pos]; shared by the direct (caller's slice) and the
     pending-buffer paths. *)
  let drain t buf pos limit push =
    let magic = Codec.magic in
    let mlen = String.length magic in
    if t.state = Header then begin
      (* Report a magic mismatch as soon as the prefix diverges, even on
         short input. *)
      let n = min (limit - !pos) mlen in
      for i = 0 to n - 1 do
        if Bytes.unsafe_get buf (!pos + i) <> magic.[i] then
          fail Codec.Bad_magic
      done;
      if limit - !pos >= mlen + 1 then begin
        let v = Char.code (Bytes.unsafe_get buf (!pos + mlen)) in
        if v <> Codec.version then fail (Codec.Unsupported_version v);
        pos := !pos + mlen + 1;
        t.state <- Frames
      end
    end;
    if t.state = Frames then begin
      let c = { cb = buf; rpos = 0; rlimit = 0 } in
      (* Resync mode buffers each frame's events and commits them to
         [push] only once the whole frame succeeds, so a resync discards
         the partial output of the corrupt frame. Without resync a
         failure is fatal to the whole decode, so events push straight
         through — no per-event cons on the fast path. *)
      let frame_events = ref [] in
      let buffer =
        if t.resync then fun e -> frame_events := e :: !frame_events else push
      in
      let continue = ref true in
      while !continue do
        frame_events := [];
        try
          match try_varint buf !pos limit with
          | None -> continue := false
          | Some (frame_len, hdr_len) ->
              if frame_len = 0 then begin
                pos := !pos + hdr_len;
                t.state <- Finished;
                continue := false;
                if limit - !pos > 0 then
                  corrupt "trailing data after end of stream"
              end
              else if frame_len < 0 || frame_len > Codec.max_frame_bytes then
                corrupt "frame length %d out of bounds" frame_len
              else if limit - !pos < hdr_len + frame_len then continue := false
              else begin
                c.rpos <- !pos + hdr_len;
                c.rlimit <- !pos + hdr_len + frame_len;
                if Crd_fault.fire fp_decode_frame then
                  corrupt "fault injected: decode_frame";
                parse_frame t c buffer;
                (* Consume the frame only once it parsed: a resync
                   restarts its scan from the frame's first byte. *)
                pos := !pos + hdr_len + frame_len;
                Crd_obs.Counter.incr frames_total;
                if t.resync then List.iter push (List.rev !frame_events)
              end
        with Fail e when t.resync && recoverable t e ->
          pos := !pos + 1;
          Crd_obs.Counter.incr resync_total
      done
    end
    else if t.state = Finished && limit - !pos > 0 then
      corrupt "trailing data after end of stream"

  (* --- pending buffer management ------------------------------------ *)

  let pending t = t.fill - t.pos

  (* Make room for [extra] more bytes: shift the consumed prefix away
     first, grow only if the live bytes plus [extra] still don't fit. *)
  let reserve t extra =
    if t.fill + extra > Bytes.length t.buf then begin
      let live = pending t in
      if t.pos > 0 then begin
        Bytes.blit t.buf t.pos t.buf 0 live;
        t.pos <- 0;
        t.fill <- live
      end;
      if t.fill + extra > Bytes.length t.buf then begin
        let cap = ref (2 * Bytes.length t.buf) in
        while t.fill + extra > !cap do
          cap := 2 * !cap
        done;
        charge t (!cap - Bytes.length t.buf);
        let bigger = Bytes.create !cap in
        Bytes.blit t.buf 0 bigger 0 t.fill;
        t.buf <- bigger
      end
    end

  (* After a drain over the pending buffer: drop the consumed prefix
     once it dominates, so the buffer stays O(one frame). *)
  let compact t =
    if t.pos > 65536 && t.pos * 2 > t.fill then begin
      let live = pending t in
      Bytes.blit t.buf t.pos t.buf 0 live;
      t.pos <- 0;
      t.fill <- live
    end

  (* An exception raised by the consumer's callback, marked so the
     totality backstop below does not mistake it for a parser bug: it
     must propagate to the caller unchanged, without poisoning the
     decoder. *)
  exception Consumer of exn

  let guard_consumer f e = try f e with ex -> raise (Consumer ex)

  (* The state/error wrapper shared by every feed entry point: sticky
     failures, typed errors out of [Fail], and a totality backstop (no
     parsing exception may escape). *)
  let run_protected t k =
    match t.state with
    | Failed e -> Error e
    | _ -> (
        try
          k ();
          Ok ()
        with
        | Fail e ->
            t.state <- Failed e;
            Crd_obs.Counter.incr decode_errors_total;
            Error e
        | Consumer ex -> raise ex
        | e ->
            let err = Codec.Corrupt (Printexc.to_string e) in
            t.state <- Failed err;
            Crd_obs.Counter.incr decode_errors_total;
            Error err)

  let drain_pending t push =
    let pos = ref t.pos in
    (* On failure the consumed prefix up to the failure point is gone
       either way (errors are sticky), so updating [t.pos] in a
       [finally] keeps success and failure consistent. *)
    Fun.protect
      ~finally:(fun () ->
        t.pos <- !pos;
        compact t)
      (fun () -> drain t t.buf pos t.fill push)

  let feed_push t off len input push =
    Crd_obs.Counter.add rx_bytes_total len;
    if pending t = 0 then begin
      (* Fast path: parse the caller's slice in place and keep only what
         it could not parse yet. A failed parse keeps nothing: errors
         are sticky, so the rest would never be read. *)
      t.pos <- 0;
      t.fill <- 0;
      let pos = ref off in
      let limit = off + len in
      let keep_rest () =
        let rest = limit - !pos in
        if rest > 0 then begin
          reserve t rest;
          Bytes.blit input !pos t.buf t.fill rest;
          t.fill <- t.fill + rest
        end
      in
      match drain t input pos limit push with
      | () -> keep_rest ()
      | exception (Consumer _ as e) ->
          keep_rest ();
          raise e
    end
    else begin
      reserve t len;
      Bytes.blit input off t.buf t.fill len;
      t.fill <- t.fill + len;
      drain_pending t push
    end

  let feed_bytes_iter t ?(off = 0) ?len input ~f =
    let len = match len with Some l -> l | None -> Bytes.length input - off in
    (* A bad slice is the caller's error, not the stream's: it is raised
       here, outside [run_protected], which would make it a sticky
       [Corrupt]. *)
    if off < 0 || len < 0 || off > Bytes.length input - len then
      invalid_arg "Bigcodec.Decoder.feed_bytes_iter: invalid slice";
    let f = guard_consumer f in
    run_protected t (fun () -> feed_push t off len input f)

  let finish t =
    match t.state with
    | Finished -> Ok ()
    | Failed e -> Error e
    | Header | Frames -> Error Codec.Truncated
end

(* ------------------------------------------------------------------ *)
(* Whole-value convenience                                             *)
(* ------------------------------------------------------------------ *)

(* Events append straight into the trace's array — no intermediate
   list, so the only promoted data is the decoded trace itself. A
   failed decode discards the partially filled trace wholesale: the
   result is all or nothing. *)
let decode_string ?resync s =
  let dec = Decoder.create ?resync () in
  let trace = Trace.create () in
  Fun.protect
    ~finally:(fun () -> Decoder.release dec)
    (fun () ->
      match
        Decoder.feed_bytes_iter dec (Bytes.unsafe_of_string s)
          ~f:(Trace.append trace)
      with
      | Error e -> Error e
      | Ok () -> (
          match Decoder.finish dec with Error e -> Error e | Ok () -> Ok trace))

(* Stream a descriptor through the decoder over one reusable 64 KiB
   buffer, to EOF or through its next [len] bytes. *)
let iter_fd ?resync ?(len = max_int) fd ~f =
  let dec = Decoder.create ?resync () in
  let buf = Bytes.create 65536 in
  Fun.protect
    ~finally:(fun () -> Decoder.release dec)
    (fun () ->
      let rec go left =
        match
          if left = 0 then 0
          else Crd_io.read_retry fd buf 0 (min left (Bytes.length buf))
        with
        | 0 -> Decoder.finish dec
        | n -> (
            match Decoder.feed_bytes_iter dec ~len:n buf ~f with
            | Error e -> Error e
            | Ok () -> go (left - n))
      in
      go len)

(* Regular files, pipes and FIFOs alike stream through [iter_fd]: a
   64 KiB buffer is all a run holds of its input. *)
let iter_file ?resync path ~f =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match iter_fd ?resync fd ~f with
          | r -> Result.map_error Codec.error_to_string r
          | exception Unix.Unix_error (e, _, _) ->
              Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))

let of_file ?resync path =
  let trace = Trace.create () in
  match iter_file ?resync path ~f:(Trace.append trace) with
  | Ok () -> Ok trace
  | Error e -> Error e
