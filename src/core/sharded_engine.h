#ifndef PQSDA_CORE_SHARDED_ENGINE_H_
#define PQSDA_CORE_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/engine_config.h"
#include "core/index_manager.h"
#include "core/pqsda_engine.h"
#include "graph/compact_builder.h"
#include "graph/shard_partition.h"
#include "suggest/suggest_stats.h"

namespace pqsda {

/// Per-request scatter-gather state shared between PqsdaEngine's request
/// path and its walk backend. Public so the merge-correctness unit tests can
/// drive ShardedWalkBackend directly against adversarial inputs.
///
/// Unsharded, the engine instantiates it over the snapshot's validation
/// partition only to *track* which fingerprinted components a request read
/// (every shard classified kShardFull, no fetches) — which is how cache
/// entries learn their ValidationVector. Sharded, `classify` additionally
/// consults the per-shard admission gates and the fetch deadline floor.
struct ShardServingContext {
  static constexpr uint32_t kUpmComponent = 0xFFFFFFFFu;

  /// The representation and partition the walk reads.
  const MultiBipartite* mb = nullptr;
  const ShardPartition* partition = nullptr;
  /// The request's home shard (query-hash). Its rung is preset kShardFull:
  /// request-level admission already passed there.
  size_t primary = 0;
  /// Engine-supplied classification of a shard on first touch:
  /// SuggestStats::kShardFull or kShardDegraded/kShardDeadline (null: always
  /// kShardFull). Resolved once per shard per request (cached in `rung`),
  /// on the coordinating thread only.
  std::function<uint8_t(size_t)> classify;
  /// Per-shard serving rung, SuggestStats::kShardUntouched until touched.
  std::vector<uint8_t> rung;
  /// True when any touched shard served degraded (cold rows dropped).
  bool partial = false;
  /// Cross-shard row fetches served per shard (primary-local and hot-row
  /// reads are not fetches).
  std::vector<uint32_t> shard_fetches;

  /// Classification of shard `s` for this request, resolved and cached on
  /// first call. Must be called from the coordinating thread.
  uint8_t Touch(size_t s);
  size_t TouchedShards() const;
};

/// CompactWalkBackend over a ShardPartition: hot and primary-owned rows are
/// read locally; every other row is a fetch against its owning shard,
/// subject to that shard's admission/deadline state. Contributions are
/// *computed* wherever the row lives but *summed* in the exact canonical
/// order of the local walk (see the CompactWalkBackend bitwise contract), so
/// a fully-admitted scatter-gather request is bitwise-equal to the unsharded
/// engine — the property tests/sharding_test.cc enforces across shard
/// counts, thread counts and rebuild churn.
class ShardedWalkBackend final : public CompactWalkBackend {
 public:
  /// `lanes` (one pool per shard, may be empty) are used for cross-shard
  /// Step fetches only when the calling thread is not itself a pool worker;
  /// on any worker thread fetches run inline, mirroring the repo's
  /// nested-parallelism degradation (no lane-vs-lane deadlock by
  /// construction).
  ShardedWalkBackend(ShardServingContext* ctx, std::vector<ThreadPool*> lanes)
      : ctx_(ctx), lanes_(std::move(lanes)) {}

  Status Step(BipartiteKind kind, const WalkMass& mass, double scale,
              WalkMass& out) const override;

  Status QueryRow(BipartiteKind kind, StringId query,
                  std::span<const uint32_t>& indices,
                  std::span<const double>& values) const override;

 private:
  ShardServingContext* ctx_;
  std::vector<ThreadPool*> lanes_;
};

/// The sharding knobs under their historical name.
using ShardedEngineOptions = ShardingOptions;

/// A PqsdaEngine built with `config.sharding = options`, behind the call
/// surface the benchmark harness (perfbench/) still uses.
class ShardedEngine {
 public:
  static StatusOr<std::unique_ptr<ShardedEngine>> Build(
      std::vector<QueryLogRecord> records, PqsdaEngineConfig config,
      const ShardedEngineOptions& options) {
    config.sharding = options;
    auto engine = PqsdaEngine::Build(std::move(records), config);
    if (!engine.ok()) return engine.status();
    return std::unique_ptr<ShardedEngine>(
        new ShardedEngine(std::move(*engine)));
  }

  StatusOr<std::vector<Suggestion>> Suggest(
      const SuggestionRequest& request, size_t k,
      SuggestStats* stats = nullptr) const {
    return engine_->Suggest(request, k, stats);
  }
  Status Ingest(QueryLogRecord record) const {
    return engine_->Ingest(std::move(record));
  }
  Status RebuildNow() const { return engine_->index_manager().RebuildNow(); }
  void WaitForRebuilds() const { engine_->index_manager().WaitForRebuilds(); }

  /// The published snapshot, as `AcquireConsistent()->base`.
  struct Published { std::shared_ptr<const IndexSnapshot> base; };
  std::optional<Published> AcquireConsistent() const {
    return Published{engine_->AcquireIndex()};
  }

 private:
  explicit ShardedEngine(std::unique_ptr<PqsdaEngine> engine)
      : engine_(std::move(engine)) {}
  std::unique_ptr<PqsdaEngine> engine_;
};

}  // namespace pqsda

#endif  // PQSDA_CORE_SHARDED_ENGINE_H_
