(* Process-wide analysis-pipeline metrics (internal to [crd]).

   Counter updates are one uncontended fetch_and_add; everything heavier
   (summaries, histograms) happens once per run, not per event, so the
   Table 2 overhead numbers stay honest. *)

let events_total =
  Crd_obs.counter ~help:"Events stepped through analyzers and shard passes"
    "analyzer_events_total"

let rd2_actions_total =
  Crd_obs.counter ~help:"Call actions processed by RD2" "rd2_actions_total"

let rd2_lookups_total =
  Crd_obs.counter ~help:"Phase-1 conflict-candidate inspections"
    "rd2_lookups_total"

let rd2_same_epoch_total =
  Crd_obs.counter ~help:"Actions short-circuited by the same-epoch cache"
    "rd2_same_epoch_total"

let rd2_promotions_total =
  Crd_obs.counter ~help:"Entries promoted from epoch to component clock"
    "rd2_promotions_total"

let rd2_deflations_total =
  Crd_obs.counter ~help:"Entries demoted back from component clock to epoch"
    "rd2_deflations_total"

let rd2_races_total =
  Crd_obs.counter ~help:"Commutativity races reported by RD2" "rd2_races_total"

let publish_rd2 (s : Crd_detector.Rd2.stats) =
  Crd_obs.Counter.add rd2_actions_total s.Crd_detector.Rd2.actions;
  Crd_obs.Counter.add rd2_lookups_total s.Crd_detector.Rd2.lookups;
  Crd_obs.Counter.add rd2_same_epoch_total s.Crd_detector.Rd2.same_epoch;
  Crd_obs.Counter.add rd2_promotions_total s.Crd_detector.Rd2.promotions;
  Crd_obs.Counter.add rd2_deflations_total s.Crd_detector.Rd2.deflations;
  Crd_obs.Counter.add rd2_races_total s.Crd_detector.Rd2.races

let shard_chunks_total =
  Crd_obs.counter ~help:"Event chunks handed to shard workers"
    "shard_chunks_total"

let shard_wall_seconds =
  Crd_obs.histogram ~help:"Per-shard detector wall time" "shard_wall_seconds"

let shard_merge_seconds =
  Crd_obs.histogram ~help:"Deterministic report-merge wall time"
    "shard_merge_seconds"

(* Bytes of shard chunk arrays, charged when a chunk is allocated or its
   value arena grows and released once a worker has drained it (or the
   engine shut down with it undrained): the sharded leg of the server's
   overload memory accounting. *)
let mem_shard_bytes =
  Crd_obs.gauge
    ~help:"Approximate bytes in shard chunks being filled, queued or drained"
    "mem_shard_bytes"

(* Vector-clock arena occupancy, published at the end of each detector
   run (per shard and per live analyzer). [in_use] is a high-water mark
   across shards of one run; [grown] counts acquisitions that outran the
   preallocated capacity — the "arena had to grow" signal. *)
let vc_pool_in_use =
  Crd_obs.gauge ~help:"Pooled vector clocks held by detector entries"
    "vc_pool_in_use"

let vc_pool_available =
  Crd_obs.gauge ~help:"Pooled vector clocks on the free list"
    "vc_pool_available"

let vc_pool_grown_total =
  Crd_obs.counter ~help:"Pool acquisitions that outran the preallocated arena"
    "vc_pool_grown_total"

let vc_pool_acquired_total =
  Crd_obs.counter ~help:"Total pool acquisitions (clock allocation pressure)"
    "vc_pool_acquired_total"

let default_pool_capacity = 1024

(* Approximate bytes per pooled clock (header + a small elems buffer) —
   the multiplier behind [mem_vcpool_bytes], the VC-arena leg of the
   server's overload memory accounting. Growth past the preallocated
   capacity is deliberately not charged: it is already surfaced by
   [vc_pool_grown_total], and under-charging there errs toward shedding
   later, never toward phantom memory. *)
let pool_clock_bytes = 160

let mem_vcpool_bytes =
  Crd_obs.gauge
    ~help:"Approximate bytes preallocated in live vector-clock arenas"
    "mem_vcpool_bytes"

(* Every detector pool must come from here and end in {!publish_pool}
   exactly once: the pair keeps the [mem_vcpool_bytes] charge/release
   symmetric (capacity is fixed at creation). *)
let create_pool () =
  Crd_obs.Gauge.add mem_vcpool_bytes (pool_clock_bytes * default_pool_capacity);
  Crd_vclock.Vclock.Pool.create ~capacity:default_pool_capacity ()

let publish_pool (p : Crd_vclock.Vclock.Pool.t) =
  Crd_obs.Gauge.set_max vc_pool_in_use (Crd_vclock.Vclock.Pool.in_use p);
  Crd_obs.Gauge.set_max vc_pool_available (Crd_vclock.Vclock.Pool.available p);
  Crd_obs.Counter.add vc_pool_grown_total (Crd_vclock.Vclock.Pool.grown p);
  Crd_obs.Counter.add vc_pool_acquired_total (Crd_vclock.Vclock.Pool.acquired p);
  Crd_obs.Gauge.add mem_vcpool_bytes
    (-pool_clock_bytes * Crd_vclock.Vclock.Pool.capacity p)
