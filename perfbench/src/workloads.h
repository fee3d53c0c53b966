#ifndef PQSDA_PERFBENCH_WORKLOADS_H_
#define PQSDA_PERFBENCH_WORKLOADS_H_

// The workloads: what each generates from its seed, how its engine is
// configured, and the engine under test behind the calls the timed phases
// may make (Build, Suggest, IngestBatch, RebuildNow).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine_config.h"
#include "core/index_manager.h"
#include "core/pqsda_engine.h"
#include "core/sharded_engine.h"
#include "suggest/engine.h"
#include "synthetic/generator.h"

namespace pqsda::perfbench {

/// Suggestions per request, as in the paper's figures (relevance/diversity
/// are read at 10).
inline constexpr size_t kListSize = 10;

struct WorkloadSpec {
  std::string name;
  /// Synthetic users of the base log.
  size_t users = 800;
  PqsdaEngineConfig config;
  /// Serve through a ShardedEngine with this many shards (0 = PqsdaEngine).
  size_t shards = 0;
  /// Open-loop arrival rate (requests/s).
  double open_rate = 100.0;
  /// Requests served before timing starts (fills caches, warms buffers).
  size_t warm_requests = 64;
  /// Engine builds per run; setup_s is their median.
  size_t setups = 5;
  /// Distinct request shapes recomputed by the output check, most served
  /// first.
  size_t check_shapes = 300;
};

/// The named workload, or nullopt for an unknown name.
std::optional<WorkloadSpec> SpecFor(const std::string& name);

/// Base log generator config at a user count (the bench dataset shape of
/// §VI-A: 48 facets in 16 ambiguous concepts).
GeneratorConfig LogConfig(size_t users, uint64_t seed);

/// Everything a run generates from its seed. The engine receives only
/// `base.records`, `fresh` and the requests.
struct Inputs {
  explicit Inputs(SyntheticDataset base_log) : base(std::move(base_log)) {}
  SyntheticDataset base;
  /// A second log with another generator seed: the rebuild probes' records.
  std::vector<QueryLogRecord> fresh;
  /// Distinct request shapes.
  std::vector<SuggestionRequest> shapes;
  /// stream[i] = shape index of request i.
  std::vector<uint32_t> stream;

  const SuggestionRequest& Request(size_t i) const {
    return shapes[stream[i % stream.size()]];
  }
  uint32_t ShapeOf(size_t i) const { return stream[i % stream.size()]; }
};

/// Generates the logs, the request shapes and the request stream.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// The engine under test: a PqsdaEngine or a ShardedEngine.
class Target {
 public:
  static StatusOr<std::unique_ptr<Target>> Build(
      const WorkloadSpec& spec, std::vector<QueryLogRecord> records);

  StatusOr<std::vector<Suggestion>> Suggest(const SuggestionRequest& request,
                                            SuggestStats* stats = nullptr) const;
  Status IngestBatch(std::vector<QueryLogRecord> records) const;
  Status RebuildNow() const;
  void WaitForRebuilds() const;

  /// The index a request issued now reads (for the sharded engine, the
  /// consistent cut's base snapshot).
  std::shared_ptr<const IndexSnapshot> Snapshot() const;

  bool sharded() const { return sharded_ != nullptr; }

 private:
  std::unique_ptr<PqsdaEngine> engine_;
  std::unique_ptr<ShardedEngine> sharded_;
};

}  // namespace pqsda::perfbench

#endif  // PQSDA_PERFBENCH_WORKLOADS_H_
