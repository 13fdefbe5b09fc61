(** Synthetic trace generator for parallel-analysis benchmarking.

    The recorded workloads (Table 2, {!Mvstore}, {!Polepos}) top out at a
    few hundred thousand events — too small for domain fan-out to beat
    the cost of spawning domains. This generator emits multi-million-
    event traces with controllable thread count, object count, contention
    skew and specification mix, so `rd2 synth` and the bench harness can
    measure where {!Crd.Shard} parallelism actually wins.

    Every generated action is produced by a small executable model of its
    object, so arguments and returns are consistent with the stdspec
    semantics (the commutativity conditions are return-sensitive), and
    object names follow the [spec:suffix] convention understood by
    {!Crd_stdspecs.Stdspecs.spec_for}. Generation is deterministic: equal
    [seed] and config produce bit-identical traces. *)

open Crd_trace

type skew =
  | Uniform  (** every object equally likely *)
  | Zipf of float
      (** Zipf-distributed object popularity with the given exponent;
          rank 0 is the hottest object. [Zipf 0.9] approximates typical
          caching workloads. *)

type config = {
  threads : int;  (** worker threads forked by main (default 8) *)
  objects : int;  (** shared objects (default 1024) *)
  events : int;  (** exact total events, including forks/joins *)
  skew : skew;  (** contention skew over objects *)
  mix : (string * int) list;
      (** stdspec name -> weight; objects cycle through the mix in
          proportion (default [dictionary=6,set=3,counter=1]) *)
  sync_period : int;
      (** on average one in [sync_period] operations runs under a lock,
          creating happens-before edges (default 64) *)
  key_space : int;  (** distinct keys per keyed object (default 16) *)
}

val default : events:int -> config
val default_mix : (string * int) list

val known_specs : string list
(** Spec names accepted in a mix (the stdspecs). *)

val skew_of_string : string -> (skew, string) result
(** Parses ["uniform"], ["zipf"] (exponent 0.9) or ["zipf:THETA"]. *)

val skew_to_string : skew -> string

val mix_of_string : string -> ((string * int) list, string) result
(** Parses ["dictionary=6,set=3,counter=1"]. *)

val mix_to_string : (string * int) list -> string
val pp_config : config Fmt.t

val iter : ?seed:int64 -> config -> f:(Event.t -> unit) -> unit
(** The events {!generate} would record, streamed into [f]. *)

val generate : ?seed:int64 -> config -> Trace.t
(** [generate ~seed config] builds the trace: main forks the workers,
    the body interleaves lock-protected and plain operations (one in
    four plain slots is a raw [Read]/[Write] on the object's backing
    field, feeding the read-write detectors with the same skew), then
    main joins. [Trace.length] of the result equals [config.events]
    exactly. @raise Invalid_argument on a malformed config. *)
