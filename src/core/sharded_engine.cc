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
// `emit(target, delta)` receives each contribution.
template <typename Emit>
void ForEachRowContribution(const CsrMatrix& q2o, const CsrMatrix& o2q,
                            StringId q, double p, double scale, Emit&& emit) {
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
      emit(q_idx[k2], scale * p * p_obj * q_val[k2] / obj_sum);
    }
  }
}

// How one frontier row reaches the gather: summed in place (a local row),
// dropped (a degraded shard's cold row), or replayed from a range of its
// owning shard's fetched contributions.
struct RowSlice {
  static constexpr uint32_t kLocal = UINT32_MAX;
  static constexpr uint32_t kDropped = UINT32_MAX - 1;
  uint32_t shard = kDropped;
  uint32_t begin = 0;
  uint32_t end = 0;
};

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

Status ShardedWalkBackend::Step(BipartiteKind kind, const WalkMass& mass,
                                double scale, WalkMass& out) const {
  obs::StageScope stage(obs::ProfileStage::kScatterGather);
  const BipartiteGraph& g = ctx_->mb->graph(kind);
  const CsrMatrix& q2o = g.query_to_object();
  const CsrMatrix& o2q = g.object_to_query();
  const ShardPartition& part = *ctx_->partition;

  // Slot i of `slices` belongs to frontier row i (first-touch order of
  // `mass`) no matter which thread computes it, so the gather below can
  // replay the canonical accumulation order exactly.
  const std::vector<StringId>& frontier = mass.order();
  std::vector<RowSlice> slices(frontier.size());
  std::vector<std::vector<uint32_t>> per_shard(part.shards);
  for (size_t i = 0; i < frontier.size(); ++i) {
    const StringId q = frontier[i];
    const size_t owner = part.query_owner[q];
    if (owner == ctx_->primary || part.hot[q] != 0) {
      // Local rows: the home shard's own slice plus the replicated hot
      // boundary rows. Never a fetch, never subject to another shard's
      // degradation — which is why a degraded shard costs only cold rows.
      slices[i].shard = RowSlice::kLocal;
    } else if (ctx_->Touch(owner) == SuggestStats::kShardFull) {
      per_shard[owner].push_back(static_cast<uint32_t>(i));
    }
    // Degraded/deadline owner: its cold rows contribute nothing, loudly
    // (Touch recorded the rung and raised the partial flag).
  }

  FaultInjector& injector = FaultInjector::Default();
  std::vector<size_t> involved;
  size_t fetched_rows = 0;
  for (size_t s = 0; s < part.shards; ++s) {
    const size_t rows = per_shard[s].size();
    if (rows == 0) continue;
    involved.push_back(s);
    ctx_->shard_fetches[s] += static_cast<uint32_t>(rows);
    fetched_rows += rows;
  }
  // Each involved shard's rows computed into that shard's own buffers, in
  // row order; a lane writes only its buffers and its rows' slices.
  struct Fetched {
    std::vector<StringId> targets;
    std::vector<double> deltas;
  };
  std::vector<Fetched> fetched(part.shards);
  for (size_t s : involved) {
    // One allocation each, on the coordinating thread (which frees them): a
    // row contributes at most the entries of its objects' rows.
    size_t bound = 0;
    for (uint32_t i : per_shard[s]) {
      for (uint32_t obj : q2o.RowIndices(frontier[i])) bound += o2q.RowNnz(obj);
    }
    fetched[s].targets.reserve(bound);
    fetched[s].deltas.reserve(bound);
  }
  auto fetch_shard = [&](size_t s) {
    injector.Hit(faults::kShardFetch);
    Fetched& buffer = fetched[s];
    for (uint32_t i : per_shard[s]) {
      RowSlice& slice = slices[i];
      slice.shard = static_cast<uint32_t>(s);
      slice.begin = static_cast<uint32_t>(buffer.targets.size());
      ForEachRowContribution(q2o, o2q, frontier[i], mass.value(frontier[i]),
                             scale, [&buffer](StringId t, double d) {
                               buffer.targets.push_back(t);
                               buffer.deltas.push_back(d);
                             });
      slice.end = static_cast<uint32_t>(buffer.targets.size());
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

  // Gather, in frontier order: local rows are summed in place, fetched rows
  // replayed from their shard's buffer. Where a contribution was *computed*
  // is free; where it is *summed* is the bitwise contract, and this loop is
  // the same (row, k, k2) nest as the local walk.
  auto add = [&out](StringId t, double d) { out.Add(t, d); };
  for (size_t i = 0; i < frontier.size(); ++i) {
    const RowSlice& slice = slices[i];
    if (slice.shard == RowSlice::kLocal) {
      ForEachRowContribution(q2o, o2q, frontier[i], mass.value(frontier[i]),
                             scale, add);
    } else if (slice.shard != RowSlice::kDropped) {
      const Fetched& buffer = fetched[slice.shard];
      for (uint32_t e = slice.begin; e < slice.end; ++e) {
        out.Add(buffer.targets[e], buffer.deltas[e]);
      }
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
