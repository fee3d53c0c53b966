#include "core/sharded_engine.h"

#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/fault_injector.h"
#include "obs/stage_profiler.h"

namespace pqsda {

namespace {

// One frontier row's walk contributions, in canonical (k, k2) order, with
// the exact expression of the local walk (StepThroughBipartite in
// compact_builder.cc) — so a delta computed on behalf of any shard is
// bit-identical to the one the unsharded loop would have added in place.
void RowContributionInto(const CsrMatrix& q2o, const CsrMatrix& o2q,
                         StringId q, double p, double scale,
                         std::vector<std::pair<StringId, double>>& out) {
  double row_sum = q2o.RowSum(q);
  if (row_sum <= 0.0) return;
  auto obj_idx = q2o.RowIndices(q);
  auto obj_val = q2o.RowValues(q);
  for (size_t k = 0; k < obj_idx.size(); ++k) {
    double p_obj = obj_val[k] / row_sum;
    uint32_t obj = obj_idx[k];
    double obj_sum = o2q.RowSum(obj);
    if (obj_sum <= 0.0) continue;
    auto q_idx = o2q.RowIndices(obj);
    auto q_val = o2q.RowValues(obj);
    for (size_t k2 = 0; k2 < q_idx.size(); ++k2) {
      out.emplace_back(q_idx[k2], scale * p * p_obj * q_val[k2] / obj_sum);
    }
  }
}

}  // namespace

uint8_t ShardServingContext::Touch(size_t s) {
  if (rung[s] != SuggestStats::kShardUntouched) return rung[s];
  rung[s] = classify ? classify(s) : SuggestStats::kShardFull;
  if (rung[s] != SuggestStats::kShardFull) partial = true;
  return rung[s];
}

size_t ShardServingContext::TouchedShards() const {
  size_t n = 0;
  for (uint8_t r : rung) {
    if (r != SuggestStats::kShardUntouched) ++n;
  }
  return n;
}

Status ShardedWalkBackend::Step(BipartiteKind kind,
                                const FlatMap<StringId, double>& mass,
                                double scale,
                                FlatMap<StringId, double>& out) const {
  obs::StageScope stage(obs::ProfileStage::kScatterGather);
  const BipartiteGraph& g = ctx_->mb->graph(kind);
  const CsrMatrix& q2o = g.query_to_object();
  const CsrMatrix& o2q = g.object_to_query();
  const ShardPartition& part = *ctx_->partition;

  // Snapshot the frontier in FlatMap insertion order: slot i of `deltas`
  // belongs to frontier row i no matter which thread computes it, so the
  // gather below can replay the canonical accumulation order exactly.
  std::vector<std::pair<StringId, double>> frontier(mass.begin(), mass.end());
  std::vector<std::vector<std::pair<StringId, double>>> deltas(frontier.size());
  std::vector<std::vector<size_t>> per_shard(part.shards);
  for (size_t i = 0; i < frontier.size(); ++i) {
    const StringId q = frontier[i].first;
    const size_t owner = part.query_owner[q];
    if (owner == ctx_->primary || part.hot[q] != 0) {
      // Local rows: the home shard's own slice plus the replicated hot
      // boundary rows. Never a fetch, never subject to another shard's
      // degradation — which is why a degraded shard costs only cold rows.
      RowContributionInto(q2o, o2q, q, frontier[i].second, scale, deltas[i]);
    } else if (ctx_->Touch(owner) == SuggestStats::kShardFull) {
      per_shard[owner].push_back(i);
    }
    // Degraded/deadline owner: its cold rows contribute nothing, loudly
    // (Touch recorded the rung and raised the partial flag).
  }

  FaultInjector& injector = FaultInjector::Default();
  std::vector<size_t> involved;
  size_t fetched_rows = 0;
  for (size_t s = 0; s < part.shards; ++s) {
    if (per_shard[s].empty()) continue;
    involved.push_back(s);
    ctx_->shard_fetches[s] += static_cast<uint32_t>(per_shard[s].size());
    fetched_rows += per_shard[s].size();
  }
  auto fetch_shard = [&](size_t s) {
    injector.Hit(faults::kShardFetch);
    for (size_t i : per_shard[s]) {
      RowContributionInto(q2o, o2q, frontier[i].first, frontier[i].second,
                          scale, deltas[i]);
    }
  };
  // Scatter: one batched fetch per involved shard, on that shard's lane —
  // except on a pool worker thread (lane-routed batch requests, rebuild
  // tasks), where fetches run inline: nested parallelism degrades to
  // sequential instead of lane-vs-lane deadlock, mirroring ThreadPool's
  // documented ParallelFor behavior.
  const bool use_lanes =
      !lanes_.empty() && involved.size() > 1 && !ThreadPool::OnWorkerThread();
  if (!use_lanes) {
    for (size_t s : involved) fetch_shard(s);
  } else {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = involved.size();
    for (size_t s : involved) {
      lanes_[s]->Submit([&fetch_shard, &mu, &cv, &remaining, s] {
        fetch_shard(s);
        // Notify under the lock: the waiter destroys mu/cv the moment it
        // observes remaining == 0, so signaling after unlock would race
        // the destruction of the cv itself.
        std::lock_guard<std::mutex> lock(mu);
        --remaining;
        cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&remaining] { return remaining == 0; });
  }

  // Gather: merge per-row contribution lists back in frontier order. Where
  // a contribution was *computed* is free; where it is *summed* is the
  // bitwise contract, and this loop is the same (row, k, k2) nest as the
  // local walk.
  for (size_t i = 0; i < deltas.size(); ++i) {
    for (const auto& [target, delta] : deltas[i]) {
      out[target] += delta;
    }
  }
  obs::StageProfiler::AddWork(obs::ProfileStage::kScatterGather, fetched_rows);
  return Status::OK();
}

Status ShardedWalkBackend::QueryRow(BipartiteKind kind, StringId query,
                                    std::span<const uint32_t>& indices,
                                    std::span<const double>& values) const {
  const CsrMatrix& q2o = ctx_->mb->graph(kind).query_to_object();
  const ShardPartition& part = *ctx_->partition;
  const size_t owner = part.query_owner[query];
  if (owner != ctx_->primary && part.hot[query] == 0) {
    if (ctx_->Touch(owner) != SuggestStats::kShardFull) {
      // A degraded shard's cold row induces as empty — deterministically
      // for the whole request, since Touch caches the classification.
      indices = {};
      values = {};
      return Status::OK();
    }
    FaultInjector::Default().Hit(faults::kShardFetch);
    ++ctx_->shard_fetches[owner];
  }
  indices = q2o.RowIndices(query);
  values = q2o.RowValues(query);
  return Status::OK();
}

}  // namespace pqsda
