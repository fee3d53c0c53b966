#ifndef PQSDA_CORE_ENGINE_CONFIG_H_
#define PQSDA_CORE_ENGINE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/multi_bipartite.h"
#include "log/sessionizer.h"
#include "suggest/pqsda_diversifier.h"
#include "topic/upm.h"

namespace pqsda {

class ThreadPool;

/// The degradation ladder: what the engine still does for a request as its
/// latency budget shrinks. Each rung trades answer quality for a hard cut in
/// work; the rung is chosen once at admission from the request's remaining
/// budget (and the configured floor), so degradation is a deterministic
/// function of configuration — not of wall-clock races mid-request.
enum class DegradationRung : size_t {
  /// Full PQS-DA: expansion, Eq. 15 solve, Algorithm 1, personalization.
  kFull = 0,
  /// Truncated solve: capped solver iterations at a relaxed tolerance (a
  /// non-converged iterate is served, loudly), fewer hitting-time sweeps.
  kTruncatedSolve = 1,
  /// Walk-only candidates: one mixing step of the cross-bipartite walk from
  /// F^0; no solve, no Algorithm 1, no personalization.
  kWalkOnly = 2,
  /// Cache-only: a cached result or NotFound — no pipeline work at all.
  kCacheOnly = 3,
};

/// Overload-hardening knobs: the degradation ladder's budget thresholds and
/// the admission controller's shedding gates.
struct RobustnessOptions {
  /// Floor rung: every request is served at least this degraded (the CLI's
  /// `--min_rung`; also how tests and the property harness pin a rung).
  size_t min_rung = 0;
  /// Remaining-budget thresholds (microseconds) that pick the rung: a
  /// request whose deadline leaves less than `truncated_below_us` runs the
  /// truncated solve, less than `walk_only_below_us` the walk-only path,
  /// less than `cache_only_below_us` only the cache lookup. Requests with no
  /// deadline always run at the floor rung.
  int64_t truncated_below_us = 250'000;
  int64_t walk_only_below_us = 25'000;
  int64_t cache_only_below_us = 2'000;
  /// Solver budget of the truncated rung (rung 1).
  size_t truncated_max_iterations = 12;
  double truncated_tolerance = 1e-4;
  /// Hitting-time sweep budget of the truncated rung (capped at the full
  /// configuration's horizon).
  size_t truncated_hitting_iterations = 6;
  /// Admission gates (0 disables each — see AdmissionOptions). Sharded, each
  /// shard gates on its own lane depth plus in-flight count and its own
  /// latency window, so one slow shard sheds alone.
  size_t shed_queue_depth = 0;
  double shed_p95_us = 0.0;
};

/// Live-ingestion knobs of the IndexManager: how much fresh query-log
/// traffic accumulates before an off-path rebuild is scheduled, and how deep
/// the delta buffer may grow before ingestion backpressures.
struct IngestOptions {
  /// Delta records that trigger an asynchronous rebuild. An ingest that
  /// brings the buffer to at least this depth schedules one rebuild task
  /// (coalescing: records arriving while it runs are absorbed by a single
  /// follow-up pass, not one rebuild each).
  size_t rebuild_min_records = 64;
  /// Bounded delta buffer: an IngestBatch that would push the buffer past
  /// this depth is rejected whole with kUnavailable (backpressure — the
  /// caller retries after the next swap drains the buffer).
  size_t max_delta_records = 1 << 16;
  /// Pool the rebuild tasks run on; null = ThreadPool::Shared().
  ThreadPool* rebuild_pool = nullptr;
  /// Recently-retired snapshots IndexManager keeps alive after a swap, so a
  /// logged request can be replayed against its pinned generation for a
  /// while (suggest_cli replay / PqsdaEngine::Replay). 0 keeps none: only
  /// the published generation is replayable.
  size_t retired_snapshots = 4;
};

/// Post-swap cache warmup: after a rebuild publishes, the rebuild thread
/// replays the tail of a sampled JSONL request log (obs::RequestLog format)
/// through the full pipeline against the new snapshot, off the serving
/// path, so head queries are already resident when traffic arrives.
struct CacheWarmupOptions {
  /// Path of the request log to replay; empty disables warmup.
  std::string log_path;
  /// Newest distinct requests replayed per swap.
  size_t max_requests = 256;
};

/// Scatter-gather serving over an N-way partition of the index. The build
/// stays global (the cfiqf weighting carries a global IQF term); sharding
/// partitions the *reads*: a request routes to its primary shard (admission
/// gate + single-threaded lane), and the §IV-A expansion fetches rows from
/// the shards that own them. Served lists are bitwise-identical to the
/// unsharded engine's at every shard count.
struct ShardingOptions {
  /// Number of shards. 0 serves unsharded (the index is still sliced into
  /// kCacheValidationComponents strict-ownership components, which only
  /// grade cache entries); N >= 1 serves scatter-gather over N shards, N = 1
  /// being the one-lane bridge case.
  size_t shards = 0;
  /// Hot-boundary replication threshold (see ShardPartitionOptions). 0
  /// disables replication.
  size_t hot_row_min_degree = 48;
  /// Per-fetch deadline floor (microseconds): a cross-shard fetch is not
  /// attempted once the request's remaining deadline budget falls below
  /// this — the owning shard is classified kShardDeadline on touch and its
  /// cold rows drop, spending what little budget remains on finishing the
  /// pipeline instead of on remote reads. The default matches
  /// RobustnessOptions::cache_only_below_us. 0 disables the floor (expired
  /// deadlines still refuse fetches). Requests without a deadline are
  /// unaffected.
  double fetch_budget_floor_us = 2'000.0;
};

/// End-to-end PQS-DA configuration.
struct PqsdaEngineConfig {
  EdgeWeighting weighting = EdgeWeighting::kCfIqf;
  SessionizerOptions sessionizer;
  PqsdaDiversifierOptions diversifier;
  UpmOptions upm;
  /// When false the engine skips UPM training and Suggest returns the
  /// diversified list as-is (diversification-only mode, as in §VI-B).
  bool personalize = true;
  /// Weighted-Borda multiplicity of the preference ranking (see
  /// Personalizer).
  size_t preference_borda_weight = 2;
  /// Capacity (entries) of the suggestion result cache; 0 disables caching.
  /// Served lists are cached after personalization, keyed by
  /// (query, context, user, k), so a hit is byte-identical to the miss that
  /// filled it. Each entry records the generation of every index component
  /// its request read (plus the UPM's when personalized); a snapshot swap
  /// invalidates exactly the entries whose components changed.
  size_t cache_capacity = 0;
  /// Mutex shards of the cache (see SuggestionCacheOptions).
  size_t cache_shards = 8;
  /// Capacity of the negative-result (NotFound) cache; 0 disables it.
  size_t negative_cache_capacity = 0;
  /// Post-swap warmup replay (see CacheWarmupOptions).
  CacheWarmupOptions cache_warmup;
  /// Overload hardening: degradation ladder thresholds and load shedding.
  RobustnessOptions robustness;
  /// Live ingestion: delta buffering and rebuild scheduling.
  IngestOptions ingest;
  /// Scatter-gather serving (shards = 0: unsharded).
  ShardingOptions sharding;
};

}  // namespace pqsda

#endif  // PQSDA_CORE_ENGINE_CONFIG_H_
