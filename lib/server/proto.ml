module Varint = Crd_base.Varint

let magic = "CRDS"
let version = 2
let max_spec_name = 4096
let max_nonce = 64

(* Nonces name journal files on the server, so the alphabet is locked
   down to filename-safe characters at the protocol layer. *)
let valid_nonce s =
  String.length s <= max_nonce
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
         | _ -> false)
       s

type handshake = { nonce : string; spec : string }
type reply = Accepted | Rejected of string | Busy of int

(* Re-exported for the protocol's clients. *)
let write_all = Crd_io.write_all

let read_exact fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    let r = Crd_io.read_retry fd b !off (n - !off) in
    if r = 0 then eof := true else off := !off + r
  done;
  if !eof then None else Some (Bytes.to_string b)

let read_varint fd =
  let acc = ref 0 in
  let shift = ref 0 in
  let result = ref None in
  while !result = None do
    match read_exact fd 1 with
    | None -> result := Some (Error "connection closed inside a varint")
    | Some s ->
        let b = Char.code s.[0] in
        acc := !acc lor ((b land 0x7f) lsl !shift);
        if b < 0x80 then result := Some (Ok !acc)
        else begin
          shift := !shift + 7;
          if !shift > 56 then result := Some (Error "varint longer than 9 bytes")
        end
  done;
  Option.get !result

let send_handshake fd ?(nonce = "") ~spec () =
  let b = Buffer.create 32 in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr version);
  Varint.add b (String.length nonce);
  Buffer.add_string b nonce;
  Varint.add b (String.length spec);
  Buffer.add_string b spec;
  write_all fd (Buffer.contents b)

let send_accept fd = write_all fd "\x00"

let send_reject fd msg =
  let b = Buffer.create (8 + String.length msg) in
  Buffer.add_char b '\x01';
  Varint.add b (String.length msg);
  Buffer.add_string b msg;
  write_all fd (Buffer.contents b)

let send_busy fd ~retry_ms =
  let b = Buffer.create 8 in
  Buffer.add_char b '\x02';
  Varint.add b (max 0 retry_ms);
  write_all fd (Buffer.contents b)

let read_lstring fd ~max ~what =
  match read_varint fd with
  | Error e -> Error e
  | Ok len when len < 0 || len > max ->
      Error (Printf.sprintf "%s too long" what)
  | Ok 0 -> Ok ""
  | Ok len -> (
      match read_exact fd len with
      | None -> Error "connection closed during handshake"
      | Some s -> Ok s)

type preamble = Session | Sync of int | Health

(* An operator or script asking for the one-line health summary sends
   the ASCII line "HEALTH\n"; its first five bytes land where the
   binary magic would. *)
let health_magic = "HEALT"

(* The session, sync and health protocols share the listener: the
   first five bytes (magic + version) say which one this connection
   speaks. *)
let read_preamble fd =
  match read_exact fd (String.length magic + 1) with
  | None -> Error "connection closed during handshake"
  | Some h ->
      let m = String.sub h 0 (String.length magic) in
      let v = Char.code h.[String.length magic] in
      if String.equal m magic then
        if v <> version then
          Error (Printf.sprintf "unsupported protocol version %d" v)
        else Ok Session
      else if String.equal m Crd_sync.sync_magic then Ok (Sync v)
      else if String.equal h health_magic then begin
        (* Consume the rest of the ASCII line ("H\n") so the close after
           the reply never RSTs unread probe bytes back at the client. *)
        let rec eat n =
          if n > 0 then
            match read_exact fd 1 with
            | Some c when not (String.equal c "\n") -> eat (n - 1)
            | _ -> ()
        in
        eat 8;
        Ok Health
      end
      else Error "bad handshake magic (not a CRDS client)"

let read_handshake_body fd =
  match read_lstring fd ~max:max_nonce ~what:"session nonce" with
  | Error e -> Error e
  | Ok nonce when not (valid_nonce nonce) ->
      Error "invalid session nonce (want [A-Za-z0-9_-]{0,64})"
  | Ok nonce -> (
      match read_lstring fd ~max:max_spec_name ~what:"spec name" with
      | Error e -> Error e
      | Ok spec -> Ok { nonce; spec })

let read_handshake_reply fd =
  match read_exact fd 1 with
  | None -> Error "connection closed before handshake reply"
  | Some "\x00" -> Ok Accepted
  | Some "\x01" -> (
      match read_lstring fd ~max:65536 ~what:"reject message" with
      | Error e -> Error e
      | Ok msg -> Ok (Rejected msg))
  | Some "\x02" -> (
      match read_varint fd with
      | Error e -> Error e
      | Ok ms when ms < 0 || ms > 3_600_000 -> Error "nonsense busy hint"
      | Ok ms -> Ok (Busy ms))
  | Some b ->
      Error (Printf.sprintf "unexpected handshake reply byte 0x%02x"
               (Char.code b.[0]))

let read_to_eof fd =
  let out = Buffer.create 1024 in
  let b = Bytes.create 4096 in
  let eof = ref false in
  while not !eof do
    match Crd_io.read_retry fd b 0 (Bytes.length b) with
    | 0 -> eof := true
    | n -> Buffer.add_subbytes out b 0 n
    (* A peer that closes with our bytes still unread (a crashed worker
       that replied ERR mid-stream) fails the read after its reply with
       ECONNRESET: the reply is already here, so that ends it like EOF. *)
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _)
      when Buffer.length out > 0 ->
        eof := true
  done;
  Buffer.contents out
