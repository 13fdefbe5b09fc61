(** [Crd_server.Client] — stream traces into a running [rd2 serve].

    Connects, handshakes (choosing the server's specification set),
    streams events as a {!Crd_wire.Codec} stream, and returns the
    server's race report. Events are encoded incrementally, so sending
    from a file holds O(chunk) memory, never the whole trace.

    {2 Resilience}

    With [retries > 0] the client survives transient failures: refused
    connections, [BUSY] shed replies (honoring the server's retry-after
    hint), transport errors mid-stream, lost replies, and
    ["ERR internal: ..."] worker-crash reports. Each retry waits a
    jittered exponential backoff ([backoff * 2^attempt], scaled by a
    random factor in [0.5, 1.5)) and then resends the {e whole} stream
    from frame 0 under the same session [nonce], which the server
    treats as a fresh run of the same logical session — so retries are
    idempotent. Deterministic failures (handshake rejects, decode or
    spec errors in the trace itself) are never retried. *)

open Crd

val send_iter :
  addr:Server.addr ->
  ?spec:string ->
  ?retries:int ->
  ?backoff:float ->
  ?timeout:float ->
  ?nonce:string ->
  ((Event.t -> unit) -> (unit, string) result) ->
  (string, string) result
(** [send_iter ~addr produce] runs [produce push] where every [push e]
    streams one event to the server; returns the server's report text.
    [spec] is the handshake specification set (default ["std"]).
    [retries] (default 0) re-runs [produce] on transient failures — it
    must be re-runnable from the start. [backoff] (default 0.1 s) is
    the initial retry delay; [timeout] (default 0, disabled) bounds
    each socket read/write in seconds. [nonce] names the logical
    session ([A-Za-z0-9_-], at most 64 bytes); when omitted and
    [retries > 0] a fresh process-unique nonce is generated. *)

val send_trace :
  addr:Server.addr ->
  ?spec:string ->
  ?retries:int ->
  ?backoff:float ->
  ?timeout:float ->
  ?nonce:string ->
  Trace.t ->
  (string, string) result

val send_file :
  addr:Server.addr ->
  ?spec:string ->
  ?retries:int ->
  ?backoff:float ->
  ?timeout:float ->
  ?nonce:string ->
  format:[ `Text | `Bin ] ->
  string ->
  (string, string) result
(** Stream a trace file without materializing it: text files line by
    line ({!Trace_text.iter_channel}), binary files frame by frame
    ({!Bigwire.iter_file}). The file is reopened on every attempt. *)
