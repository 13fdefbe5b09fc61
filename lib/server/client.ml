open Crd

(* Jitter source: deliberately not deterministic — concurrent retrying
   clients must spread out, so the seed mixes pid and wall clock. *)
let rng =
  Random.State.make
    [| Unix.getpid (); int_of_float (Unix.gettimeofday () *. 1e6) |]

let jittered d = d *. (0.5 +. Random.State.float rng 1.)

let pp_host host = if String.contains host ':' then "[" ^ host ^ "]" else host

let connect addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match addr with
  | Server.Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_UNIX path);
         Ok fd
       with Unix.Unix_error (e, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         Error (Printf.sprintf "connect unix:%s: %s" path (Unix.error_message e)))
  | Server.Tcp (host, port) -> (
      match
        try Ok (Unix.inet_addr_of_string host)
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
              Error (Printf.sprintf "cannot resolve host %s" host)
          | h -> Ok h.Unix.h_addr_list.(0))
      with
      | Error e -> Error e
      | Ok ip ->
          (* [domain_of_sockaddr] picks PF_INET6 for IPv6 literals, so
             [tcp:[::1]:9000] connects over the right socket family. *)
          let sa = Unix.ADDR_INET (ip, port) in
          let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
          (try
             Unix.connect fd sa;
             Ok fd
           with Unix.Unix_error (e, _, _) ->
             (try Unix.close fd with Unix.Unix_error _ -> ());
             Error
               (Printf.sprintf "connect tcp:%s:%d: %s" (pp_host host) port
                  (Unix.error_message e))))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let is_err reply = String.length reply >= 3 && String.sub reply 0 3 = "ERR"

(* Transient server-side failures — a crashed worker, an injected
   fault — can succeed on a retry; decode and spec errors are
   deterministic and cannot. *)
let retryable_report reply =
  is_err reply
  && (contains ~sub:"internal:" reply
     || contains ~sub:"injected fault" reply
     || contains ~sub:"fault injected" reply)

(* One attempt's outcome: [Done] ends the call (success or a
   deterministic failure), [Retry] is worth another connection — with
   an optional server-supplied delay from a BUSY reply. *)
type attempt = Done of (string, string) result | Retry of string * float option

let attempt ~addr ~spec ~timeout ~nonce produce =
  match connect addr with
  | Error e -> Retry (e, None)
  | Ok fd -> (
      let cleanup () = try Unix.close fd with Unix.Unix_error _ -> () in
      try
        if timeout > 0. then begin
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
           with Unix.Unix_error _ -> ());
          try Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
          with Unix.Unix_error _ -> ()
        end;
        Proto.send_handshake fd ~nonce ~spec ();
        match Proto.read_handshake_reply fd with
        | Error e ->
            cleanup ();
            Retry (e, None)
        | Ok (Proto.Busy ms) ->
            cleanup ();
            Retry ("server busy", Some (float_of_int ms /. 1000.))
        | Ok (Proto.Rejected msg) ->
            cleanup ();
            Done (Error ("handshake rejected: " ^ msg))
        | Ok Proto.Accepted -> (
            let enc =
              Wire.Encoder.create ~emit:(fun s -> Proto.write_all fd s) ()
            in
            match produce (Wire.Encoder.event enc) with
            | Error e ->
                cleanup ();
                Done (Error e)
            | Ok () ->
                Wire.Encoder.close enc;
                let reply = Proto.read_to_eof fd in
                cleanup ();
                if reply = "" then
                  Retry ("connection closed before report", None)
                else if is_err reply then
                  if retryable_report reply then Retry (String.trim reply, None)
                  else Done (Error (String.trim reply))
                else Done (Ok reply))
      with Unix.Unix_error (e, fn, _) -> (
        (* A write that died mid-stream (EPIPE) usually means the server
           closed the connection after sending its reply — e.g. a clean
           ERR from a crashed worker. That reply is still in our receive
           buffer: salvage it so the caller sees the server's verdict,
           not just "broken pipe". *)
        let salvaged =
          try
            (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.
             with Unix.Unix_error _ -> ());
            Proto.read_to_eof fd
          with Unix.Unix_error _ -> ""
        in
        cleanup ();
        if is_err salvaged then
          if retryable_report salvaged then Retry (String.trim salvaged, None)
          else Done (Error (String.trim salvaged))
        else Retry (Printf.sprintf "%s: %s" fn (Unix.error_message e), None)))

let send_iter ~addr ?(spec = "std") ?(retries = 0) ?(backoff = 0.1)
    ?(timeout = 0.) ?nonce produce =
  (* Retries resend the whole stream under one session nonce, so the
     server folds every reconnect into a single logical session. *)
  let nonce =
    match nonce with
    | Some n -> n
    | None -> if retries > 0 then Journal.fresh_nonce () else ""
  in
  let rec go att =
    match attempt ~addr ~spec ~timeout ~nonce produce with
    | Done r -> r
    | Retry (err, hint) ->
        if att >= retries then
          Error
            (if retries > 0 then
               Printf.sprintf "%s (after %d attempts)" err (att + 1)
             else err)
        else begin
          let base = backoff *. (2. ** float_of_int att) in
          let base = match hint with Some h -> Float.max h base | None -> base in
          Unix.sleepf (jittered base);
          go (att + 1)
        end
  in
  go 0

let send_trace ~addr ?spec ?retries ?backoff ?timeout ?nonce trace =
  send_iter ~addr ?spec ?retries ?backoff ?timeout ?nonce (fun push ->
      Trace.iter_events trace ~f:push;
      Ok ())

(* The file is reopened on every attempt: a retry must restream from
   frame 0, not from wherever the previous attempt's channel stopped. *)
let send_file ~addr ?spec ?retries ?backoff ?timeout ?nonce ~format path =
  send_iter ~addr ?spec ?retries ?backoff ?timeout ?nonce (fun push ->
      try
        match format with
        | `Text ->
            In_channel.with_open_text path (fun ic ->
                Trace_text.iter_channel ic ~f:push)
        | `Bin ->
            (* Files, pipes and FIFOs alike are read in 64 KiB blocks
               and decoded in place. *)
            Bigwire.iter_file path ~f:push
      with Sys_error msg -> Error msg)
