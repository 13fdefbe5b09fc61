(** [Crd_obs] — a small dependency-free observability layer.

    Three metric kinds live in a named {!Registry}:

    - {!Counter}: a monotonically increasing atomic integer;
    - {!Gauge}: an atomic integer that can move both ways (with a
      high-water helper for queue depths);
    - {!Histogram}: fixed upper-bound buckets plus count and sum,
      intended for durations in seconds.

    Metrics are cheap enough for hot paths (one [Atomic.fetch_and_add]
    per update, no allocation) and are always on; the cost of {e not}
    measuring a race detector is mismeasuring the paper's headline
    overhead claim. {!Registry.dump} renders a Prometheus-style text
    exposition, which [rd2 serve --metrics] serves over HTTP and
    [rd2 check --stats] prints after a run.

    {!Span} and {!time} measure wall-clock stage durations into a
    histogram. {!Log} is a leveled structured logger writing one
    [key=value] line per event to stderr; it is off by default. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  (** Negative increments are ignored: counters only go up. *)

  val get : t -> int
  val name : t -> string
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val add : t -> int -> unit
  val incr : t -> unit
  val decr : t -> unit

  val set_max : t -> int -> unit
  (** [set_max g v] raises the gauge to [v] if [v] is larger — a
      lock-free high-water mark. *)

  val get : t -> int
  val name : t -> string
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Record one observation (typically a duration in seconds).
      Negative observations are clamped to 0. *)

  val count : t -> int
  val sum : t -> float
  (** Sum of observations, accumulated atomically in nanosecond units
      (exact for durations below ~292 years total). *)

  val name : t -> string
end

module Registry : sig
  type t

  val create : unit -> t

  val counter : ?help:string -> t -> string -> Counter.t
  (** Find-or-create; registration is thread-safe and idempotent.
      @raise Invalid_argument if [name] is already a different metric
      kind. *)

  val gauge : ?help:string -> t -> string -> Gauge.t

  val histogram : ?help:string -> ?buckets:float array -> t -> string -> Histogram.t
  (** [buckets] must be strictly increasing (default: upper
      bounds in seconds, 1 µs to 30 s); a final [+Inf] bucket is implicit.
      @raise Invalid_argument on unsorted buckets or a kind clash. *)

  val dump : t -> string
  (** Prometheus-style text exposition, metrics sorted by name:
      [# HELP]/[# TYPE] comments, plain samples for counters and
      gauges, [_bucket{le="..."}]/[_sum]/[_count] for histograms. *)
end

val default : Registry.t
(** The process-wide registry every [crd] subsystem registers into. *)

val counter : ?help:string -> string -> Counter.t
(** [counter name] is [Registry.counter default name]. *)

val gauge : ?help:string -> string -> Gauge.t
val histogram : ?help:string -> ?buckets:float array -> string -> Histogram.t

val dump : unit -> string
(** [Registry.dump default]. *)

val now_s : unit -> float
(** Wall-clock seconds made non-decreasing across the process: the
    stdlib exposes no monotonic clock, so [gettimeofday] is clamped to
    never step backwards. Good enough for stage timings; not for
    calendar time. *)

module Span : sig
  type t

  val start : Histogram.t -> t
  val finish : t -> unit
  (** Observe the elapsed seconds since {!start} into the histogram.
      Calling it again observes again. *)

  val elapsed_s : t -> float
end

val time : Histogram.t -> (unit -> 'a) -> 'a
(** [time h f] runs [f ()] and observes its duration, even on raise. *)

module Log : sig
  type level = Error | Warn | Info | Debug

  val set_level : level option -> unit
  (** [None] (the default) disables all logging. *)

  val level : unit -> level option
  val enabled : level -> bool

  val level_of_string : string -> (level option, string) result
  (** Accepts ["off"], ["error"], ["warn"], ["info"], ["debug"]. *)

  val msg : level -> string -> (string * string) list -> unit
  (** [msg lvl event kvs] writes one line to stderr when [lvl] is
      enabled: [ts=... level=... event=... k=v ...]. Values containing
      spaces, quotes or [=] are quoted. A single [output_string] call
      per line keeps concurrent writers from interleaving mid-line. *)

  val err : string -> (string * string) list -> unit
  val warn : string -> (string * string) list -> unit
  val info : string -> (string * string) list -> unit
  val debug : string -> (string * string) list -> unit
end
