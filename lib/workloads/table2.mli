(** The Table 2 harness: run every benchmark under the three
    configurations of the paper's evaluation — uninstrumented, FASTTRACK,
    and RD2 (which, like the paper's setup, also keeps the low-level
    memory instrumentation on) — and print the same rows Table 2 reports.

    Race counts are deterministic (seeded scheduler); throughput numbers
    are wall-clock and machine-dependent, so EXPERIMENTS.md compares
    relative overheads, not absolute qps. *)

type h2_row = {
  bench : string;
  queries : int;
  uninstrumented_qps : float;
  fasttrack_qps : float;
  rd2_qps : float;
  ft_total : int;
  ft_distinct : int;
  rd2_total : int;
  rd2_distinct : int;
}

type cassandra_row = {
  uninstrumented_s : float;
  fasttrack_s : float;
  rd2_s : float;
  c_ft_total : int;
  c_ft_distinct : int;
  c_rd2_total : int;
  c_rd2_distinct : int;
}

type t = { h2 : h2_row list; cassandra : cassandra_row }

val collect :
  ?seed:int64 -> ?scale:int -> ?repeats:int -> ?jobs:int -> unit -> t
(** [repeats] re-runs each timed configuration and keeps the best time
    (default 1). The FASTTRACK and RD2 configurations feed a live
    {!Crd.Analyzer} built with [jobs]; the timed region covers execution
    plus analysis, and race counts are identical at every [jobs]. *)

val print : t Fmt.t

val rd2_race_counts :
  ?seed:int64 -> ?scale:int -> string -> (int * int * int) option
(** [rd2_race_counts bench] runs one benchmark (an H2 circuit name or
    ["DynamicEndpointSnitch"]) under RD2 only and returns
    [(total, distinct, distinct_objects)] — total races, distinct race
    fingerprints ({!Crd.Report.distinct}, the per-race identity the
    table reports), and the coarser distinct racing objects — used by
    tests that pin the deterministic race counts. *)
