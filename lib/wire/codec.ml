open Crd_base
open Crd_trace

let version = 1
let magic = "CRDW"

let default_chunk_bytes = 32768

(* A frame longer than this is rejected rather than buffered: one
   corrupt varint must not make the decoder allocate unboundedly. *)
let max_frame_bytes = 1 lsl 24

type error =
  | Bad_magic
  | Unsupported_version of int
  | Truncated
  | Corrupt of string

(* Bytes on the chunk granularity (one atomic add per emit, never per
   event). *)
let tx_bytes_total =
  Crd_obs.counter ~help:"Bytes emitted by CRDW encoders" "wire_tx_bytes_total"

let pp_error ppf = function
  | Bad_magic -> Fmt.string ppf "bad magic (not a CRDW stream)"
  | Unsupported_version v -> Fmt.pf ppf "unsupported wire version %d" v
  | Truncated -> Fmt.string ppf "truncated stream"
  | Corrupt msg -> Fmt.pf ppf "corrupt stream: %s" msg

let error_to_string e = Fmt.str "%a" pp_error e

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
      Varint.add header (Buffer.length t.chunk);
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
        Varint.add t.chunk (String.length s);
        Buffer.add_string t.chunk s;
        id

  let obj_ref t (o : Obj_id.t) =
    let id = Obj_id.id o in
    if not (Hashtbl.mem t.objs id) then begin
      let name = str_ref t (Obj_id.name o) in
      Hashtbl.add t.objs id ();
      Buffer.add_char t.chunk (Char.chr tag_obj_def);
      Varint.add_zigzag t.chunk id;
      Varint.add t.chunk name
    end;
    id

  let lock_ref t (l : Lock_id.t) =
    let id = Lock_id.id l in
    if not (Hashtbl.mem t.locks id) then begin
      let name = str_ref t (Lock_id.name l) in
      Hashtbl.add t.locks id ();
      Buffer.add_char t.chunk (Char.chr tag_lock_def);
      Varint.add_zigzag t.chunk id;
      Varint.add t.chunk name
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
        Varint.add_zigzag p i
    | Value.Str s ->
        let id = str_ref t s in
        Buffer.add_char p (Char.chr val_str);
        Varint.add p id
    | Value.Ref r ->
        Buffer.add_char p (Char.chr val_ref);
        Varint.add_zigzag p r

  let add_values t vs =
    Varint.add t.payload (List.length vs);
    List.iter (add_value t) vs

  let add_loc t (l : Mem_loc.t) =
    let p = t.payload in
    match l with
    | Mem_loc.Global g ->
        let g = str_ref t g in
        Buffer.add_char p (Char.chr loc_global);
        Varint.add p g
    | Mem_loc.Field (o, f) ->
        let oid = obj_ref t o in
        let f = str_ref t f in
        Buffer.add_char p (Char.chr loc_field);
        Varint.add_zigzag p oid;
        Varint.add p f
    | Mem_loc.Slot (o, f, v) ->
        let oid = obj_ref t o in
        let f = str_ref t f in
        Buffer.add_char p (Char.chr loc_slot);
        Varint.add_zigzag p oid;
        Varint.add p f;
        add_value t v

  let event t (e : Event.t) =
    if t.closed then invalid_arg "Codec.Encoder.event: encoder is closed";
    if Buffer.length t.chunk >= t.chunk_bytes then flush t;
    let p = t.payload in
    Buffer.clear p;
    let tid = Tid.to_int e.tid in
    let tag op =
      Buffer.add_char p (Char.chr op);
      Varint.add p tid
    in
    (match e.op with
    | Event.Call a ->
        let oid = obj_ref t a.Action.obj in
        let meth = str_ref t a.Action.meth in
        tag tag_call;
        Varint.add_zigzag p oid;
        Varint.add p meth;
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
        Varint.add p (Tid.to_int u)
    | Event.Join u ->
        tag tag_join;
        Varint.add p (Tid.to_int u)
    | Event.Acquire l ->
        let lid = lock_ref t l in
        tag tag_acquire;
        Varint.add_zigzag p lid
    | Event.Release l ->
        let lid = lock_ref t l in
        tag tag_release;
        Varint.add_zigzag p lid
    | Event.Begin -> tag tag_begin
    | Event.End -> tag tag_end);
    Buffer.add_buffer t.chunk p
end

(* Caution: [add_loc]/[add_value] intern into [chunk] while the event
   body goes to [payload]; for [Read]/[Write] the loc sub-record is
   assembled after the tag, so the definitions still precede the whole
   event record in the chunk. *)

(* ------------------------------------------------------------------ *)
(* Whole-value convenience                                             *)
(* ------------------------------------------------------------------ *)

let encode_trace ?chunk_bytes trace =
  let out = Buffer.create (64 + (8 * Trace.length trace)) in
  let enc = Encoder.create ?chunk_bytes ~emit:(Buffer.add_string out) () in
  Trace.iter_events trace ~f:(Encoder.event enc);
  Encoder.close enc;
  Buffer.contents out

let write_channel oc trace =
  let enc = Encoder.create ~emit:(Out_channel.output_string oc) () in
  Trace.iter_events trace ~f:(Encoder.event enc);
  Encoder.close enc

let to_file path trace =
  match Out_channel.with_open_bin path (fun oc -> write_channel oc trace) with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg
