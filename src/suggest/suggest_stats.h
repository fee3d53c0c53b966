#ifndef PQSDA_SUGGEST_SUGGEST_STATS_H_
#define PQSDA_SUGGEST_SUGGEST_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/compact_builder.h"
#include "obs/trace.h"
#include "solver/linear_solvers.h"

namespace pqsda {

/// Per-request pipeline breakdown, filled when a caller opts in by passing a
/// SuggestStats pointer to PqsdaEngine::Suggest or PqsdaDiversifier::
/// Diversify. Collection costs one trace tree per request; with no stats
/// pointer the instrumentation reduces to thread-local null checks and a
/// few relaxed atomics.
struct SuggestStats {
  /// Trace tree rooted at the whole call. The pipeline stages appear as
  /// descendants named "expansion", "regularization_solve",
  /// "hitting_time_selection" and (when personalization ran)
  /// "personalization".
  obs::SpanNode trace;

  /// §IV-A expansion work (queries expanded, walk steps).
  CompactBuildStats expansion;
  /// Number of queries in the compact representation the stages ran on.
  size_t compact_size = 0;

  /// Eq. 15 solver outcome (iterations, residual at exit, converged).
  SolverResult solve;

  /// Algorithm 1 selection: rounds run and candidates scored across rounds.
  size_t hitting_rounds = 0;
  size_t candidates_scored = 0;

  /// Whether the UPM rerank (§V-B) ran for this request.
  bool personalized = false;
  size_t suggestions_returned = 0;

  /// Degradation rung the request was served at (DegradationRung numeric
  /// value: 0 full PQS-DA, 1 truncated solve, 2 walk-only, 3 cache-only).
  size_t degradation_rung = 0;
  /// True when admission control shed the request before any pipeline work.
  bool shed = false;
  /// True when the NotFound was answered by the negative-result cache — the
  /// engine never touched the index for this request.
  bool negative_cache_hit = false;

  /// Per-shard serving rung of a scatter-gather request (one slot per
  /// shard when ShardingOptions::shards >= 1; empty unsharded). kShardFull:
  /// the shard served every row asked of it. kShardDegraded: its admission
  /// gate refused, so only its hot replicated rows were served.
  /// kShardDeadline: the request's remaining deadline budget had fallen
  /// below ShardingOptions::fetch_budget_floor_us (or the deadline had
  /// passed) when the shard was first touched, so the fetch was refused and
  /// cold rows dropped from then on; tests can also force it per shard via
  /// faults::kShardDeadlineShard. kShardUntouched: the request never needed
  /// the shard.
  static constexpr uint8_t kShardFull = 0;
  static constexpr uint8_t kShardDegraded = 1;
  static constexpr uint8_t kShardDeadline = 2;
  static constexpr uint8_t kShardUntouched = 255;
  std::vector<uint8_t> shard_rungs;
  /// Shards the request actually read rows from (or tried to).
  size_t shards_touched = 0;
  /// True when any touched shard served degraded — the merged pool is
  /// missing that shard's cold contributions. A partial merge is served
  /// (degrading one shard must not fail the request) but never silently:
  /// this flag, the per-shard rungs above and the
  /// pqsda.sharded.partial_merges_total counter all record it, and the
  /// result is never cached.
  bool partial_merge = false;

  int64_t total_us() const { return trace.duration_us(); }

  /// Multi-line human-readable breakdown (trace tree + counters), as
  /// printed by `suggest_cli --stats`.
  std::string Render() const;
};

}  // namespace pqsda

#endif  // PQSDA_SUGGEST_SUGGEST_STATS_H_
