(* The degradation ladder. One controller per server instance turns
   live load signals into an admission tier:

     Normal -> online RD2, exactly as before;
     Spill  -> sessions are acked and streamed straight to the fsync'd
               journal at decoder speed; a catch-up drainer replays the
               committed segments later (server.ml);
     Shed   -> BUSY retry-after: memory-budget exhaustion, or the
               operator's explicit backlog bound.

   The signals are deliberately cheap: the accept backlog (how many
   admitted sessions no worker has picked up), worker occupancy, and
   the process-wide memory accounting gauges maintained by Bigcodec
   ([mem_intern_bytes]) and Metrics ([mem_vcpool_bytes],
   [mem_shard_bytes]). The registry's find-or-create semantics make
   those three names the cross-library contract — reading them here observes the same
   atomics the producers update. *)

type tier = Normal | Spill | Shed

let tier_name = function
  | Normal -> "normal"
  | Spill -> "spill"
  | Shed -> "shed"

let tier_rank = function Normal -> 0 | Spill -> 1 | Shed -> 2

type limits = {
  memory_budget : int;
  shed_backlog : int;
  spill_watermark : int;
  stall_timeout : float;
}

(* All zero: every degradation feature off — byte-for-byte the
   pre-ladder server behaviour. *)
let no_limits =
  { memory_budget = 0; shed_backlog = 0; spill_watermark = 0; stall_timeout = 0. }

(* ------------------------------------------------------------------ *)
(* Metrics and fault points                                            *)
(* ------------------------------------------------------------------ *)

let m_tier =
  Crd_obs.gauge ~help:"Current admission tier (0=normal 1=spill 2=shed)"
    "overload_tier"

let m_to_normal =
  Crd_obs.counter ~help:"Transitions into the normal tier"
    "overload_to_normal_total"

let m_to_spill =
  Crd_obs.counter ~help:"Transitions into the spill tier"
    "overload_to_spill_total"

let m_to_shed =
  Crd_obs.counter ~help:"Transitions into the shed tier"
    "overload_to_shed_total"

let m_mem_used =
  Crd_obs.gauge
    ~help:"Accounted memory at the last tier evaluation (sum of the \
           mem_* gauges)"
    "overload_mem_used_bytes"

let m_spill_backlog =
  Crd_obs.gauge ~help:"Committed journal segments awaiting catch-up"
    "overload_spill_backlog"

let m_spill_bytes =
  Crd_obs.gauge ~help:"Committed journal bytes awaiting catch-up"
    "overload_spill_bytes"

let m_spilled =
  Crd_obs.counter ~help:"Sessions acked via the journal-spill path"
    "overload_spilled_sessions_total"

let m_catchup =
  Crd_obs.counter ~help:"Spilled segments replayed by the catch-up drainer"
    "overload_catchup_total"

let m_catchup_lag =
  Crd_obs.histogram ~help:"Seconds from journal commit to catch-up publish"
    "overload_catchup_lag_seconds"

let m_stalls =
  Crd_obs.counter ~help:"Sessions ended by the stall watchdog"
    "server_stalls_total"

(* When fired inside a session body, the worker parks in a poll loop
   until the watchdog cancels its heartbeat, then raises — a
   deterministic handle on "worker wedged mid-session" for tests and
   chaos runs. *)
let fp_stall = Crd_fault.point "worker_stall"

(* ------------------------------------------------------------------ *)
(* Memory accounting                                                   *)
(* ------------------------------------------------------------------ *)

(* The two producer-side gauges, resolved by name (find-or-create is
   idempotent, so load order between libraries does not matter). *)
let g_intern = Crd_obs.gauge "mem_intern_bytes"
let g_vcpool = Crd_obs.gauge "mem_vcpool_bytes"
let g_shard = Crd_obs.gauge "mem_shard_bytes"

let mem_used () =
  Crd_obs.Gauge.get g_intern + Crd_obs.Gauge.get g_vcpool
  + Crd_obs.Gauge.get g_shard

(* ------------------------------------------------------------------ *)
(* Controller                                                          *)
(* ------------------------------------------------------------------ *)

type t = { limits : limits; mu : Mutex.t; mutable tier : tier }

let create limits =
  Crd_obs.Gauge.set m_tier 0;
  { limits; mu = Mutex.create (); tier = Normal }

let limits t = t.limits

let tier t =
  Mutex.lock t.mu;
  let x = t.tier in
  Mutex.unlock t.mu;
  x

let transition_counter = function
  | Normal -> m_to_normal
  | Spill -> m_to_spill
  | Shed -> m_to_shed

(* Tier choice from one snapshot of the load signals.

   Shed is entered on memory-budget exhaustion, or — only when the
   operator set [shed_backlog] — when every worker is busy and that
   many admitted sessions are already waiting. Without that explicit
   bound, queueing pressure degrades to spill, never to dropped
   evidence. Spill is entered when every worker is busy and the
   admitted-but-unclaimed backlog has reached the watermark, and —
   hysteresis — is left only once the backlog has drained to half the
   watermark with a free worker, so the ladder does not flap around
   the threshold. *)
let decide limits cur ~pending ~active ~workers ~mem =
  if limits.memory_budget > 0 && mem >= limits.memory_budget then Shed
  else if
    limits.shed_backlog > 0 && active >= workers && pending >= limits.shed_backlog
  then Shed
  else if limits.spill_watermark <= 0 then Normal
  else
    match cur with
    | Normal -> if active >= workers && pending >= limits.spill_watermark then Spill else Normal
    | Spill | Shed ->
        if active >= workers || pending > limits.spill_watermark / 2 then Spill
        else Normal

let evaluate t ~pending ~active ~workers =
  let mem = mem_used () in
  Crd_obs.Gauge.set m_mem_used mem;
  Mutex.lock t.mu;
  let cur = t.tier in
  let next = decide t.limits cur ~pending ~active ~workers ~mem in
  if next <> cur then begin
    t.tier <- next;
    Crd_obs.Gauge.set m_tier (tier_rank next);
    Crd_obs.Counter.incr (transition_counter next);
    Mutex.unlock t.mu;
    Crd_obs.Log.info "overload_tier"
      [
        ("from", tier_name cur);
        ("to", tier_name next);
        ("pending", string_of_int pending);
        ("active", string_of_int active);
        ("mem_used", string_of_int mem);
      ]
  end
  else Mutex.unlock t.mu;
  next

(* Spill bookkeeping: the backlog gauges move when a segment is
   committed for deferred analysis and back when the drainer publishes
   it (or finds it unreadable — either way it is no longer pending). *)
let note_spilled ~bytes =
  Crd_obs.Counter.incr m_spilled;
  Crd_obs.Gauge.incr m_spill_backlog;
  Crd_obs.Gauge.add m_spill_bytes bytes

let note_caught_up ~bytes ~lag_s =
  Crd_obs.Counter.incr m_catchup;
  Crd_obs.Gauge.decr m_spill_backlog;
  Crd_obs.Gauge.add m_spill_bytes (-bytes);
  Crd_obs.Histogram.observe m_catchup_lag lag_s

let spill_backlog () = Crd_obs.Gauge.get m_spill_backlog
let spill_bytes () = Crd_obs.Gauge.get m_spill_bytes

(* ------------------------------------------------------------------ *)
(* Worker heartbeats                                                   *)
(* ------------------------------------------------------------------ *)

module Heartbeat = struct
  (* One per worker slot. The worker stamps it as events drain; the
     watchdog thread compares stamps against the stall timeout. The
     session fd lives here so the watchdog can write a retryable ERR to
     the wedged client and shutdown() the socket — OCaml domains cannot
     be killed, so unwedging blocked I/O plus the cooperative
     [cancelled] flag is how a stuck worker is freed.

     Everything is guarded by [mu]: stalls are rare and the worker
     takes the lock a handful of times per batch, not per event. *)
  type t = {
    mu : Mutex.t;
    mutable in_session : bool;
    mutable fd : Unix.file_descr option;
    mutable stamp : float;  (* last progress, Crd_obs.now_s clock *)
    mutable events : int;  (* drained in the current session *)
    mutable cancelled : bool;
  }

  let create () =
    {
      mu = Mutex.create ();
      in_session = false;
      fd = None;
      stamp = 0.;
      events = 0;
      cancelled = false;
    }

  let start_session t fd =
    Mutex.lock t.mu;
    t.in_session <- true;
    t.fd <- Some fd;
    t.stamp <- Crd_obs.now_s ();
    t.events <- 0;
    t.cancelled <- false;
    Mutex.unlock t.mu

  let beat t n =
    Mutex.lock t.mu;
    t.stamp <- Crd_obs.now_s ();
    t.events <- t.events + n;
    Mutex.unlock t.mu

  (* Clear the fd before the session closes it: after this returns the
     watchdog can no longer shutdown() a descriptor number the kernel
     may be about to reuse. *)
  let end_session t =
    Mutex.lock t.mu;
    t.in_session <- false;
    t.fd <- None;
    Mutex.unlock t.mu

  let cancelled t =
    Mutex.lock t.mu;
    let c = t.cancelled in
    Mutex.unlock t.mu;
    c

  let events t =
    Mutex.lock t.mu;
    let n = t.events in
    Mutex.unlock t.mu;
    n

  (* Watchdog side: a worker mid-session whose last progress stamp is
     older than [timeout] is stalled. Marks it cancelled and hands the
     session fd back exactly once — the caller owns the ERR write and
     the shutdown. *)
  let check_stall t ~now ~timeout =
    Mutex.lock t.mu;
    let verdict =
      if t.in_session && (not t.cancelled) && now -. t.stamp > timeout then begin
        t.cancelled <- true;
        t.fd
      end
      else None
    in
    Mutex.unlock t.mu;
    verdict
end

(* The poll loop behind the [worker_stall] fault point: park until the
   watchdog cancels this worker's heartbeat, then raise into the
   worker's crash handling, which ends the session and frees the
   worker. The timeout cap keeps a misconfigured test (fault armed,
   watchdog off) from parking a worker forever. *)
let stall_until_cancelled hb =
  Crd_obs.Log.warn "worker_stall_injected" [];
  let deadline = Crd_obs.now_s () +. 60. in
  while (not (Heartbeat.cancelled hb)) && Crd_obs.now_s () < deadline do
    Unix.sleepf 0.01
  done;
  failwith "injected fault: worker_stall"
