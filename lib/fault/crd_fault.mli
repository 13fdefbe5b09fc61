(** [Crd_fault] — deterministic fault injection.

    A process-wide registry of named {e injection points}. Code under
    test declares a point once ([let fp = Crd_fault.point "sock_read"])
    and consults it on every hit ([if Crd_fault.fire fp then ...] or
    [Crd_fault.inject fp]); what the fault {e does} — a short read, a
    corrupt frame, a crashed worker — is decided at the site, so the
    framework stays dependency-free and the sites stay honest about the
    failure mode they simulate.

    Every point is driven by a SplitMix64-style generator evaluated
    {e statelessly} at the point's hit index: whether hit [n] of point
    [p] injects is a pure function of [(seed, p, n)]. Two runs with the
    same [CRD_FAULTS] spec therefore make identical per-hit decisions,
    independent of thread interleaving across points — the property the
    chaos soak relies on. Hit counters are atomic; with every policy
    [Off] (the default) a point costs one [Atomic.get] per hit.

    Points publish [fault_injected_total] and
    [fault_injected_<point>_total] counters into {!Crd_obs.default}.

    {2 Specification grammar}

    Configured from the [CRD_FAULTS] environment variable or
    [rd2 serve --faults SPEC]:

    {v
    spec    ::= clause ( ',' clause )*
    clause  ::= 'seed=' INT                  (stream seed, default 1)
              | point '=' policy
    policy  ::= 'p:' FLOAT                   (inject each hit with prob. p)
              | 'once'                       (inject the first hit only)
              | 'nth:' N                     (inject exactly the Nth hit)
              | 'every:' N                   (inject every Nth hit)
              | 'off'
    v}

    Example: [seed=42,sock_read=p:0.01,worker_body=nth:3,journal_append=once].
    Unknown point names are accepted (the point may be registered by a
    library loaded later); misspelled names simply never fire. *)

exception Injected of string
(** Raised by {!inject}; carries the point name. *)

type policy =
  | Off
  | Prob of float  (** inject each hit independently with this probability *)
  | Once  (** inject the first hit only *)
  | Nth of int  (** inject exactly the [n]th hit (1-based) *)
  | Every of int  (** inject every [n]th hit *)

type point

val point : string -> point
(** Find-or-create the named injection point (thread-safe, idempotent).
    Names are restricted to [A-Za-z0-9_] so they embed into metric
    names. @raise Invalid_argument on an empty or malformed name. *)

val name : point -> string

val fire : point -> bool
(** Count one hit of this point and decide — deterministically from
    [(seed, point, hit index)] — whether to inject. [false] without
    counting when the policy is [Off]. *)

val inject : point -> unit
(** [inject p] raises [Injected (name p)] when {!fire} says so. *)

val set_policy : point -> policy -> unit
val policy : point -> policy

val hits : point -> int
(** Hits counted since the last {!configure}/{!reset}. *)

val injected_count : point -> int

val seed : unit -> int64

val configure : string -> (unit, string) result
(** Parse a spec (grammar above) and apply it atomically: on success
    all counters reset, the seed is set, every registered point reverts
    to [Off] and the spec's policies are installed; on [Error] nothing
    changes. *)

val configure_env : unit -> (unit, string) result
(** {!configure} from [CRD_FAULTS]; [Ok ()] when unset or empty. *)

val reset : unit -> unit
(** Every policy [Off], all counters zero, seed back to the default. *)

val active : unit -> bool
(** At least one point has a policy other than [Off]. *)

val summary : unit -> (string * policy * int * int) list
(** [(name, policy, hits, injected)] per registered point, sorted by
    name — for logs and tests. *)
