#ifndef PQSDA_PERFBENCH_LEDGER_H_
#define PQSDA_PERFBENCH_LEDGER_H_

// The traced decomposition: re-executes a request (or an index build)
// stage by stage through each layer's public functions, recording a span
// around every layer call. This is the only file of the benchmark that
// calls layer internals (CompactBuilder, BuildEq15Operator,
// BuildMergedChain, ...); the timed phases call only Build, Suggest,
// IngestBatch and RebuildNow, so a layer API refactor changes this file
// and never the end-to-end path.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine_config.h"
#include "core/index_manager.h"
#include "graph/compact_builder.h"
#include "log/record.h"
#include "suggest/engine.h"

namespace pqsda::perfbench {

/// One timed layer call. `parent` indexes the enclosing span in the same
/// SpanLog (-1 for a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// In-memory span store of one traced run, written out when the run ends.
class SpanLog {
 public:
  int32_t Open(const char* name, uint32_t request, int32_t parent);
  void Close(int32_t span);
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line; returns false when the file cannot be
  /// written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint32_t request, int32_t parent)
      : log_(log), index_(log.Open(name, request, parent)) {}
  ~ScopedSpan() { log_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanLog& log_;
  int32_t index_;
};

/// Outcome and work counters of one traced request.
struct TracedRequest {
  Status status;
  std::vector<Suggestion> list;
  /// Root span of the request in the SpanLog.
  int32_t root = -1;
  CompactBuildStats expansion;
  /// Stored entries of the compact matrices W, A, S and P (all three
  /// bipartites).
  size_t compact_nnz = 0;
  size_t solver_iterations = 0;
  /// Hitting-time sweeps run by Algorithm 1 (rounds x horizon).
  size_t sweeps = 0;
};

/// Re-executes the engine's full-rung pipeline over `snap` for one request:
/// expansion, Eq. 15 operator and solve, merged-chain build, the Algorithm 1
/// sweeps and the UPM rerank, each inside its own span. The list must equal
/// what the engine serves for the same request and snapshot.
TracedRequest TraceRequest(const IndexSnapshot& snap,
                           const SuggestionRequest& request, size_t k,
                           uint32_t request_id, SpanLog& spans);

/// Re-executes an index build stage by stage: sessionize, multi-bipartite
/// representation, corpus and (when personalization is on) UPM training.
void TraceBuild(std::vector<QueryLogRecord> records,
                const PqsdaEngineConfig& config, uint32_t request_id,
                SpanLog& spans);

/// Self time (span duration minus the time its child spans cover), summed
/// per request and layer name over the requests `include` accepts:
/// result[name] holds one entry (us) for every such request that has a span
/// of that name, in request order.
std::map<std::string, std::vector<double>> SelfTimesUs(
    const SpanLog& spans, const std::function<bool(uint32_t)>& include);

}  // namespace pqsda::perfbench

#endif  // PQSDA_PERFBENCH_LEDGER_H_
