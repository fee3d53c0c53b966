#ifndef PQSDA_CORE_PQSDA_ENGINE_H_
#define PQSDA_CORE_PQSDA_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/admission.h"
#include "obs/explain.h"
#include "obs/request_log.h"
#include "core/engine_config.h"
#include "core/index_manager.h"
#include "core/personalizer.h"
#include "core/shard_router.h"
#include "graph/multi_bipartite.h"
#include "log/sessionizer.h"
#include "suggest/pqsda_diversifier.h"
#include "suggest/suggest_stats.h"
#include "suggest/suggestion_cache.h"
#include "topic/corpus.h"
#include "topic/upm.h"

namespace pqsda {

/// The complete PQS-DA system (Fig. 1): query-log representation +
/// diversification + personalization behind one Suggest call, served off
/// generation-numbered immutable IndexSnapshots so the index can absorb
/// fresh query-log traffic (ingest → off-path rebuild → atomic swap)
/// without ever blocking or tearing the request path.
///
/// With `config.sharding.shards = N >= 1` the same engine serves
/// scatter-gather: each request routes to a primary shard (its own
/// admission gate and single-threaded lane), the §IV-A expansion fetches
/// rows from the shards owning them (ShardedWalkBackend), and the merged
/// compact representation runs the unchanged solve/selection/
/// personalization pipeline — so served lists are bitwise-identical to the
/// unsharded engine's while admission capacity scales with N and a slow
/// shard degrades alone. Explain, replay, request logging and live ingest
/// work the same at every shard count.
class PqsdaEngine {
 public:
  /// Builds the generation-0 snapshot (representation + UPM training) and
  /// wires the components. `records` is the training log (cleaned; any order
  /// — it is re-sorted).
  static StatusOr<std::unique_ptr<PqsdaEngine>> Build(
      std::vector<QueryLogRecord> records, const PqsdaEngineConfig& config);
  ~PqsdaEngine();

  PqsdaEngine(const PqsdaEngine&) = delete;
  PqsdaEngine& operator=(const PqsdaEngine&) = delete;

  /// Diversified and (if enabled and the user is known) personalized
  /// suggestions.
  ///
  /// The request acquires the current IndexSnapshot once, right after
  /// admission, and reads only that snapshot for its whole lifetime: a
  /// rebuild publishing generation g+1 mid-request neither blocks this call
  /// nor changes what it computes, and generation g stays alive until its
  /// last in-flight request finishes.
  ///
  /// `stats`, when non-null, opts this request into detailed observability:
  /// it receives the end-to-end trace tree (stages "expansion",
  /// "regularization_solve", "hitting_time_selection" and — when the rerank
  /// ran — "personalization", each with microsecond durations and
  /// annotations) plus the expansion/solver/selection work counters. With a
  /// null pointer only the cheap always-on registry metrics are recorded.
  ///
  /// Every request additionally feeds the live serving telemetry
  /// (obs::ServingTelemetry::Default()): it gets a process-unique request
  /// id, its latency and outcome enter the 10s/1m/5m sliding windows, a
  /// head-sampled subset is traced into the /tracez ring, and — when a
  /// request log is attached — a sampled-or-slow subset is emitted as
  /// structured JSONL.
  /// `explain`, when non-null, opts this request into full decision
  /// observability: on return it holds the per-candidate score attribution
  /// (Eq. 15 relevance, Algorithm 1 selection round + hitting time + chain
  /// ranks, UPM preference and Borda points) plus the pinned generation,
  /// rung and result fingerprint. Explain is also head-sampled
  /// (ServingTelemetryOptions::explain_sample_every) into the /explainz
  /// ring; sampled requests pay extra per-chain hitting-time sweeps, all
  /// others one thread-local check per seam.
  StatusOr<std::vector<Suggestion>> Suggest(
      const SuggestionRequest& request, size_t k,
      SuggestStats* stats = nullptr,
      obs::ExplainRecord* explain = nullptr) const;

  /// Deterministic re-execution of a logged request: rebuilds the
  /// SuggestionRequest from `entry`, pins the snapshot generation the
  /// original pinned (the published one or a recently-retired one held in
  /// IndexManager's replay ring — NotFound when it aged out), re-runs the
  /// pipeline at the logged degradation rung with the cache bypassed, and
  /// returns the reproduced list. Bitwise determinism of the pipeline makes
  /// the result fingerprint-equal to the logged one (ctest-enforced). No
  /// telemetry, cache or log side effects; `explain`, when non-null,
  /// receives the replayed request's full attribution.
  StatusOr<std::vector<Suggestion>> Replay(
      const obs::RequestLogEntry& entry,
      obs::ExplainRecord* explain = nullptr) const;

  /// Serves a batch of independent requests concurrently, fanning them
  /// across `pool` (ThreadPool::Shared() when null). Each request pins its
  /// own snapshot, so batches run safely in parallel with each other and
  /// with index rebuilds; results arrive in request order and each slot
  /// holds exactly what the corresponding Suggest call would have returned.
  /// Per-request stats are not collected on the batch path.
  ///
  /// Sharded, `pool` is unused: each request is admitted at submit time
  /// against its primary shard's lane depth and runs on that lane, so N
  /// lanes shed independently at depth D instead of one gate shedding at
  /// depth D. A shed request's slot holds the kUnavailable status.
  std::vector<StatusOr<std::vector<Suggestion>>> SuggestBatch(
      std::span<const SuggestionRequest> requests, size_t k,
      ThreadPool* pool = nullptr) const;

  /// Live ingestion: appends one fresh query-log record to the delta buffer
  /// (kUnavailable on backpressure). Rebuilds trigger off-path per the
  /// configured IngestOptions; see index_manager() for batch ingest,
  /// RebuildNow and the rest of the surface.
  Status Ingest(QueryLogRecord record) const {
    return index_->Ingest(std::move(record));
  }

  /// The live-index owner: snapshot publication, delta buffering, rebuild
  /// scheduling, tail-session context.
  IndexManager& index_manager() const { return *index_; }

  /// The published snapshot, pinned: callers that walk the representation /
  /// corpus / records directly (benches, analytics) hold this shared_ptr for
  /// the duration instead of using the raw accessors below.
  std::shared_ptr<const IndexSnapshot> AcquireIndex() const {
    return index_->Acquire();
  }

  /// Generation of the snapshot a request issued now would serve from.
  uint64_t generation() const { return index_->generation(); }

  /// Null when caching is disabled.
  const SuggestionCache* cache() const { return cache_.get(); }
  /// Null when the negative-result (NotFound) cache is disabled.
  const NegativeSuggestionCache* negative_cache() const {
    return negative_cache_.get();
  }

  /// Scatter-gather shard count (0: unsharded).
  size_t shards() const { return shards_.size(); }

  /// The degradation rung this request would be served at right now: the
  /// larger of the configured floor and the rung its remaining deadline
  /// budget maps to. Fires the faults::kAdmission injection point. Public so
  /// tests and benches can assert the ladder decision directly.
  DegradationRung ChooseRung(const SuggestionRequest& request) const;

  /// Convenience accessors into the *current* snapshot. The returned
  /// references stay valid only while that snapshot is the published one
  /// (i.e. until the next rebuild swap); callers that may race an ingest
  /// use AcquireIndex() and hold the shared_ptr instead.
  const MultiBipartite& representation() const { return *index_->Acquire()->mb; }
  const PqsdaDiversifier& diversifier() const {
    return *index_->Acquire()->diversifier;
  }
  /// Null when personalization is disabled.
  const QueryLogCorpus* corpus() const {
    return index_->Acquire()->corpus.get();
  }
  const UpmModel* upm() const { return index_->Acquire()->upm.get(); }
  const Personalizer* personalizer() const {
    return index_->Acquire()->personalizer.get();
  }
  const std::vector<Session>& sessions() const {
    return index_->Acquire()->sessions;
  }
  const std::vector<QueryLogRecord>& records() const {
    return index_->Acquire()->records;
  }

 private:
  struct ShardState;

  PqsdaEngine();

  /// Admission at the request's gate: the engine-wide controller, or
  /// sharded the primary shard's. Counts the request; a shed one is
  /// recorded into the serving telemetry here.
  Status Admit(size_t primary) const;

  /// Everything after admission: snapshot pinning, rung selection, the
  /// pipeline, timing, tracing, explain, windowed recording and request-log
  /// emission. `primary` is the request's home shard (0 unsharded).
  StatusOr<std::vector<Suggestion>> SuggestAdmitted(
      const SuggestionRequest& request, size_t k, size_t primary,
      SuggestStats* stats, obs::ExplainRecord* explain) const;

  /// The cache-lookup + diversify + personalize pipeline at a given ladder
  /// rung over one pinned snapshot, free of telemetry concerns. Picks the
  /// walk backend: the plain walk, the lane-less tracking backend when a
  /// cache fill must record what the request read, or (sharded) the
  /// lane-backed scatter-gather backend. Resets a reused `stats` struct up
  /// front so no field of a previous request survives any exit path (error,
  /// cancel, deadline).
  /// `bypass_cache` (replay) skips both the lookup and the fill, so a
  /// replayed request always re-runs the pipeline and never pollutes the
  /// cache with a result keyed to a retired generation.
  StatusOr<std::vector<Suggestion>> SuggestImpl(
      const SuggestionRequest& request, size_t k, DegradationRung rung,
      const IndexSnapshot& snap, SuggestStats* stats, bool* cache_hit,
      bool bypass_cache = false) const;

  /// Sharded fetch classification of shard `s` on a request's first touch:
  /// kShardDegraded when its admission gate refuses, kShardDeadline once
  /// the request's remaining budget is below the fetch floor, else
  /// kShardFull.
  uint8_t ClassifyShard(size_t s, const CancelToken* cancel) const;

  /// Post-swap warmup (IndexManager's post-publish hook, rebuild thread):
  /// replays the tail of the configured JSONL request log through
  /// SuggestImpl against `snap`, filling the cache off the serving path.
  void WarmupCache(const IndexSnapshot& snap) const;

  std::unique_ptr<SuggestionCache> cache_;
  std::unique_ptr<NegativeSuggestionCache> negative_cache_;
  CacheWarmupOptions warmup_;

  RobustnessOptions robustness_;
  /// Unsharded admission gate; sharded, each ShardState carries its own.
  AdmissionController admission_;
  /// Query/user routing over the shards (shards = 0 routes everything to 0).
  ShardRouter router_{0};
  double fetch_budget_floor_us_ = 0.0;
  /// Per-shard lane, admission gate and counters; empty when unsharded.
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// Diversifier options of the degraded rungs, derived once at Build (they
  /// are config-only, so one copy serves every snapshot generation).
  PqsdaDiversifierOptions truncated_options_;
  PqsdaDiversifierOptions walk_only_options_;

  /// Declared last so it is destroyed first: ~IndexManager joins in-flight
  /// rebuilds, whose post-publish warmup hook touches the caches and shard
  /// gates above — they must outlive it.
  std::unique_ptr<IndexManager> index_;
};

}  // namespace pqsda

#endif  // PQSDA_CORE_PQSDA_ENGINE_H_
