// The PQS-DA benchmark. One run builds the engine for one workload from a
// seed, drives it through its public API and prints a report whose last
// line is one JSON object:
//
//   pqsda_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--spans <path>]
//
// --trace 0 (timed run): setup, open-loop phase, closed-loop phase, output
// checks; reports the end-to-end metrics.
// --trace 1 (traced run): an open-loop phase for queueing and cache
// counters, then a sequential phase that re-executes every request stage
// by stage (ledger.cc) beside the engine's own Suggest, and rebuild
// probes; reports the per-layer metrics. Spans go to --spans when given.
//
// The exit status is 0 only when every output check passed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "digest.h"
#include "eval/diversity.h"
#include "eval/relevance.h"
#include "eval/synthetic_adapters.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "timing.h"
#include "workloads.h"

namespace pqsda::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// A generator lag beyond this (p99, us) means the host could not keep the
// open-loop schedule: the latencies would measure the host, not the engine.
constexpr double kMaxGeneratorLagP99Us = 20'000.0;

// The timed phases run in pieces: the open loop in kOpenChunks chunks (each
// restarts its schedule, so a backlog never crosses chunks), the closed
// loop in kClosedSegments segments. The machine's other guests take CPU time
// from this one in bursts (steal), which stretch the requests they hit. A
// piece during which more than kMaxStealShare of all CPU time was stolen is
// run again with the next requests, while the timed phases have not overrun
// --seconds by more than kRetryShare of it; each phase then keeps its
// least-stolen pieces.
constexpr size_t kOpenChunks = 32;
constexpr size_t kClosedSegments = 3;
constexpr double kClosedSegmentS = 1.0;
constexpr double kMaxStealShare = 0.015;
constexpr double kRetryShare = 0.25;

// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    // Non-finite values are not JSON; a metric that could not be measured
    // is reported as -1 and the run is already marked incorrect.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name).Value();
}

// Cache counter deltas over a phase.
struct CacheCounters {
  uint64_t hits = 0, misses = 0, stale = 0;
  static CacheCounters Now() {
    return {CounterValue("pqsda.cache.hits_total"),
            CounterValue("pqsda.cache.misses_total"),
            CounterValue("pqsda.cache.stale_invalidations_total")};
  }
  CacheCounters Since(const CacheCounters& before) const {
    return {hits - before.hits, misses - before.misses, stale - before.stale};
  }
  double hit_ratio() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
  double stale_share() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(stale) / lookups;
  }
};

double Median(std::vector<double> v) {
  return v.empty() ? 0.0 : Summarize(std::move(v)).p50;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void Append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// Relevance (Eq. 34) and diversity (Eq. 32) of served lists against the
// synthetic ground truth, computed after timing.
class Quality {
 public:
  explicit Quality(const SyntheticDataset& data)
      : data_(data),
        categories_(data),
        pages_(ClickedPages::Build(data.records)),
        sim_(data.facets) {}

  double Relevance(const std::string& input,
                   const std::vector<Suggestion>& list) const {
    return ListRelevance(input, list, kListSize, data_.taxonomy, categories_);
  }
  double Diversity(const std::vector<Suggestion>& list) const {
    return ListDiversity(list, kListSize, pages_, sim_);
  }

 private:
  const SyntheticDataset& data_;
  SyntheticQueryCategories categories_;
  ClickedPages pages_;
  SyntheticPageSimilarity sim_;
};

size_t LoadThreads() {
  const size_t nproc =
      std::max<size_t>(std::thread::hardware_concurrency(), 1);
  return std::min<size_t>(nproc, 4);
}

StatusOr<std::unique_ptr<Target>> BuildReference(const WorkloadSpec& spec,
                                                 std::vector<QueryLogRecord>
                                                     records) {
  // The reference path: the unsharded engine with the cache off.
  WorkloadSpec ref = spec;
  ref.shards = 0;
  ref.config.cache_capacity = 0;
  return Target::Build(ref, std::move(records));
}

int RunTimed(const Args& args, const WorkloadSpec& spec, const Inputs& in) {
  const size_t threads = LoadThreads();

  // Setup: records in hand -> first servable engine, several times.
  std::vector<double> setup_s;
  std::unique_ptr<Target> target;
  for (size_t r = 0; r < spec.setups; ++r) {
    target.reset();
    const int64_t t0 = NowNs();
    auto built = Target::Build(spec, in.base.records);
    const int64_t t1 = NowNs();
    if (!built.ok()) {
      std::fprintf(stderr, "engine build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    target = std::move(*built);
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  }
  std::printf("setup: %zu builds, median %.3f s\n", setup_s.size(),
              Median(setup_s));

  // Warm-up from the far half of the stream (not timed, not checked).
  std::atomic<size_t> warm_failed{0};
  const size_t warm_base = in.stream.size() / 2;
  const int64_t warm_start = NowNs();
  ParallelIndex(spec.warm_requests, threads, [&](size_t i) {
    if (!target->Suggest(in.Request(warm_base + i)).ok()) warm_failed++;
  });
  const double warm_s = static_cast<double>(NowNs() - warm_start) * 1e-9;

  // Served lists by request index: the open-loop chunks in order (dropped
  // ones included), then the closed-loop segments.
  const size_t capacity = warm_base;
  std::vector<std::vector<Suggestion>> lists(capacity);
  std::vector<char> served(capacity, 0);
  auto serve = [&](size_t i) {
    auto result = target->Suggest(in.Request(i));
    if (!result.ok()) return false;
    if (i < capacity) {
      lists[i] = std::move(*result);
      served[i] = 1;
    }
    return true;
  };

  const double closed_s = kClosedSegments * kClosedSegmentS;
  const double open_s = args.seconds - closed_s;
  const size_t chunk = static_cast<size_t>(
      std::ceil(spec.open_rate * open_s / static_cast<double>(kOpenChunks)));
  // Requests [0, n_open) are served by every run whatever it keeps: the
  // digest and the quality metrics read them.
  const size_t n_open = chunk * kOpenChunks;
  const CacheCounters before = CacheCounters::Now();
  const int64_t timed_start = NowNs();
  const int64_t deadline =
      timed_start +
      static_cast<int64_t>(args.seconds * (1.0 + kRetryShare) * 1e9);
  size_t next = 0;  // next request index
  size_t failed_requests = 0;
  std::vector<OpenLoopResult> chunks;
  const std::vector<double> open_steal = RunPieces(
      kOpenChunks, kMaxStealShare,
      deadline - static_cast<int64_t>(closed_s * 1e9), [&](size_t) {
        const size_t base = next;
        chunks.push_back(RunOpenLoop(chunk, spec.open_rate, threads,
                                     [&](size_t i) { return serve(base + i); }));
        next += chunk;
        failed_requests += chunks.back().failed;
      });
  const std::vector<size_t> open_kept = LeastStolen(open_steal, kOpenChunks);
  OpenLoopResult open;  // samples of the kept chunks
  for (size_t k : open_kept) {
    Append(open.latency_us, chunks[k].latency_us);
    Append(open.queue_wait_us, chunks[k].queue_wait_us);
    Append(open.generator_lag_us, chunks[k].generator_lag_us);
    open.elapsed_s += chunks[k].elapsed_s;
  }
  std::vector<ClosedLoopResult> segments;
  const std::vector<double> closed_steal = RunPieces(
      kClosedSegments, kMaxStealShare, deadline, [&](size_t) {
        segments.push_back(
            RunClosedLoop(kClosedSegmentS, threads, next, serve));
        next += segments.back().attempted;
        failed_requests +=
            segments.back().attempted - segments.back().succeeded;
      });
  const std::vector<size_t> closed_kept =
      LeastStolen(closed_steal, kClosedSegments);
  ClosedLoopResult closed;  // the kept segments
  for (size_t k : closed_kept) {
    closed.attempted += segments[k].attempted;
    closed.succeeded += segments[k].succeeded;
    closed.elapsed_s += segments[k].elapsed_s;
  }
  const double timed_s = static_cast<double>(NowNs() - timed_start) * 1e-9;
  const CacheCounters cache = CacheCounters::Now().Since(before);
  // Peak memory of the engine under test, before the checks build their
  // reference engines.
  const double rss = PeakRssMb();

  const Summary latency = Summarize(open.latency_us);
  const Summary queue_wait = Summarize(open.queue_wait_us);
  const Summary lag = Summarize(open.generator_lag_us);
  const size_t attempted = spec.warm_requests + next;
  const size_t failed = warm_failed + failed_requests;

  // Output checks.
  const int64_t check_start = NowNs();
  bool correct = true;
  const size_t n_served = std::min(capacity, next);
  // Distinct shapes to recompute: the most served first (ties by first
  // appearance), capped per workload.
  std::vector<uint32_t> check_shapes;
  {
    std::unordered_map<uint32_t, std::pair<size_t, size_t>> seen;  // n, first
    for (size_t i = 0; i < n_served; ++i) {
      auto [it, inserted] = seen.try_emplace(in.ShapeOf(i), 0, i);
      ++it->second.first;
    }
    std::vector<std::pair<uint32_t, std::pair<size_t, size_t>>> order(
        seen.begin(), seen.end());
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      return a.second.first != b.second.first
                 ? a.second.first > b.second.first
                 : a.second.second < b.second.second;
    });
    for (size_t j = 0; j < std::min(order.size(), spec.check_shapes); ++j) {
      check_shapes.push_back(order[j].first);
    }
  }
  // Reference lists: the engine itself (cold_800 has no cache), an uncached
  // engine (zipf_cached), or the unsharded engine over the same records
  // (sharded_3200).
  std::unique_ptr<Target> reference;
  if (spec.shards > 0 || spec.config.cache_capacity > 0) {
    auto built = BuildReference(spec, in.base.records);
    if (!built.ok()) {
      std::fprintf(stderr, "reference build failed\n");
      return 1;
    }
    reference = std::move(*built);
  }
  const Target& ref = reference != nullptr ? *reference : *target;
  std::vector<uint64_t> ref_fp(check_shapes.size());
  ParallelIndex(check_shapes.size(), threads, [&](size_t j) {
    auto want = ref.Suggest(in.shapes[check_shapes[j]]);
    ref_fp[j] = want.ok() ? ListFingerprint(*want) : 1;
  });
  std::unordered_map<uint32_t, uint64_t> reference_fp;
  for (size_t j = 0; j < check_shapes.size(); ++j) {
    reference_fp[check_shapes[j]] = ref_fp[j];
  }
  // Every served list of a checked shape must equal its recompute, and all
  // lists of one shape must agree with each other.
  size_t mismatches = 0;
  std::vector<uint64_t> served_fp(n_served);
  std::unordered_map<uint32_t, uint64_t> first_fp;
  for (size_t i = 0; i < n_served; ++i) {
    served_fp[i] = ListFingerprint(lists[i]);
    if (!served[i]) continue;
    const uint32_t s = in.ShapeOf(i);
    auto [it, inserted] = first_fp.emplace(s, served_fp[i]);
    if (!inserted && it->second != served_fp[i]) ++mismatches;
    auto ref_it = reference_fp.find(s);
    if (ref_it != reference_fp.end() && ref_it->second != served_fp[i]) {
      ++mismatches;
    }
  }
  const uint64_t digest = DigestOf(
      std::vector<uint64_t>(served_fp.begin(), served_fp.begin() + n_open));
  std::vector<uint64_t> ref_by_request;
  std::vector<uint64_t> served_by_request;
  for (size_t i = 0; i < n_open; ++i) {
    auto it = reference_fp.find(in.ShapeOf(i));
    if (it == reference_fp.end()) continue;
    ref_by_request.push_back(it->second);
    served_by_request.push_back(served_fp[i]);
  }
  const uint64_t reference_digest = DigestOf(ref_by_request);
  if (DigestOf(served_by_request) != reference_digest) ++mismatches;
  if (mismatches > 0) {
    std::printf("CHECK FAILED: %zu served lists differ from the reference "
                "path\n",
                mismatches);
    correct = false;
  }

  // Relevance / diversity: one list per distinct shape of requests
  // [0, n_open), weighted by its request count (every list of a shape is
  // the same, checked above).
  const int64_t quality_start = NowNs();
  std::vector<size_t> scored;  // request index of each shape's first list
  std::unordered_map<uint32_t, double> open_count;
  for (size_t i = 0; i < n_open; ++i) {
    if ((open_count[in.ShapeOf(i)] += 1.0) == 1.0) scored.push_back(i);
  }
  Quality quality(in.base);
  std::vector<double> list_relevance(scored.size());
  std::vector<double> list_diversity(scored.size());
  ParallelIndex(scored.size(), threads, [&](size_t j) {
    const std::vector<Suggestion>& list = lists[scored[j]];
    list_relevance[j] = quality.Relevance(in.Request(scored[j]).query, list);
    list_diversity[j] = quality.Diversity(list);
  });
  double relevance = 0.0, diversity = 0.0, weight = 0.0;
  for (size_t j = 0; j < scored.size(); ++j) {
    const double w = open_count[in.ShapeOf(scored[j])];
    relevance += w * list_relevance[j];
    diversity += w * list_diversity[j];
    weight += w;
  }
  relevance /= weight;
  diversity /= weight;
  const int64_t quality_end = NowNs();

  if (!latency.p99_supported || !std::isfinite(latency.p99)) {
    std::printf("INVALID: open-loop p99 needs >=10 finite samples beyond it "
                "(n=%zu)\n",
                latency.count);
    correct = false;
  }
  if (lag.p99 > kMaxGeneratorLagP99Us) {
    std::printf("INVALID: the open-loop generator fell behind its schedule "
                "(lag p99 %.0f us)\n",
                lag.p99);
    correct = false;
  }

  const double failed_share =
      attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted;
  std::printf("workload %s seed %llu: %zu open-loop requests at %.0f req/s "
              "(%zu workers), %.1f s closed loop with %zu clients\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              latency.count, spec.open_rate, threads, closed.elapsed_s,
              threads);
  std::printf("  setup_s          %.3f s (median of %zu builds)\n",
              Median(setup_s), setup_s.size());
  std::printf("  latency          %s\n",
              FormatSummary(latency, "us").c_str());
  std::printf("  queue wait       %s\n",
              FormatSummary(queue_wait, "us").c_str());
  std::printf("  generator lag    %s\n", FormatSummary(lag, "us").c_str());
  std::printf("  throughput_rps   %.2f req/s (%zu ok of %zu in %.2f s)\n",
              closed.throughput_rps(), closed.succeeded, closed.attempted,
              closed.elapsed_s);
  std::printf("  failed_share     %.6f ratio (%zu of %zu operations)\n",
              failed_share, failed, attempted);
  std::printf("  peak_rss_mb      %.1f MB\n", rss);
  std::printf("  relevance_at10   %.6f score (%zu lists, %.0f requests)\n",
              relevance, scored.size(), weight);
  std::printf("  diversity_at10   %.6f score (%zu lists, %.0f requests)\n",
              diversity, scored.size(), weight);
  if (spec.config.cache_capacity > 0) {
    std::printf("  cache            hit ratio %.4f, stale share %.4f "
                "(%llu lookups)\n",
                cache.hit_ratio(), cache.stale_share(),
                static_cast<unsigned long long>(cache.hits + cache.misses));
  }
  std::printf("  output check     %zu shapes recomputed, %zu mismatches; "
              "digest %s (reference %s)\n",
              check_shapes.size(), mismatches, Hex(digest).c_str(),
              Hex(reference_digest).c_str());
  std::vector<double> kept_steal;
  for (size_t k : open_kept) kept_steal.push_back(open_steal[k]);
  for (size_t k : closed_kept) kept_steal.push_back(closed_steal[k]);
  std::vector<double> all_steal = open_steal;
  Append(all_steal, closed_steal);
  const size_t kept_over = static_cast<size_t>(
      std::count_if(kept_steal.begin(), kept_steal.end(),
                    [](double s) { return s > kMaxStealShare; }));
  std::printf("  host steal       %zu of %zu timed pieces kept, %zu of them "
              "over the %.1f%% limit; steal share median %.2f%%, max %.2f%% "
              "(kept max %.2f%%)\n",
              kept_steal.size(), all_steal.size(), kept_over,
              100.0 * kMaxStealShare, 100.0 * Median(all_steal),
              100.0 * *std::max_element(all_steal.begin(), all_steal.end()),
              100.0 * *std::max_element(kept_steal.begin(), kept_steal.end()));
  std::printf("  phases           warm %.2f s, timed %.2f s (open %.2f s, "
              "closed %.2f s kept), check %.2f s, quality %.2f s\n",
              warm_s, timed_s, open.elapsed_s, closed.elapsed_s,
              static_cast<double>(quality_start - check_start) * 1e-9,
              static_cast<double>(quality_end - quality_start) * 1e-9);

  PrintResult(correct, attempted, failed,
              {{"setup_s", Median(setup_s), "s"},
               {"latency_p50_us", latency.p50, "us"},
               {"latency_p99_us", latency.p99, "us"},
               {"throughput_rps", closed.throughput_rps(), "1/s"},
               {"peak_rss_mb", rss, "MB"},
               {"relevance_at10", relevance, "score"},
               {"diversity_at10", diversity, "score"}});
  return correct ? 0 : 1;
}

int RunTraced(const Args& args, const WorkloadSpec& spec, const Inputs& in) {
  const size_t threads = LoadThreads();

  const int64_t t0 = NowNs();
  auto built = Target::Build(spec, in.base.records);
  const double setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  if (!built.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Target> target = std::move(*built);
  const size_t warm_base = in.stream.size() / 2;
  std::atomic<size_t> failed{0};
  ParallelIndex(spec.warm_requests, threads, [&](size_t i) {
    if (!target->Suggest(in.Request(warm_base + i)).ok()) failed++;
  });
  size_t attempted = spec.warm_requests;

  // Phase 1: open loop, untraced, for queueing and cache counters.
  const double open_s = args.seconds * 0.5;
  const size_t n_open =
      static_cast<size_t>(std::ceil(spec.open_rate * open_s));
  const CacheCounters before = CacheCounters::Now();
  OpenLoopResult open =
      RunOpenLoop(n_open, spec.open_rate, threads,
                  [&](size_t i) { return target->Suggest(in.Request(i)).ok(); });
  const CacheCounters cache = CacheCounters::Now().Since(before);
  attempted += n_open;
  failed += open.failed;

  // Phase 2: sequential. Each request runs through the engine's Suggest
  // (untraced, timed) and through the traced decomposition over the same
  // snapshot, in alternating order; the two lists must be equal.
  SpanLog spans;
  std::vector<double> engine_us, traced_us, coverage, overhead, hit_us;
  std::vector<double> candidates, rounds, nnz, iterations, sweeps, touched;
  std::vector<char> traced_miss;
  size_t mismatches = 0;
  const std::shared_ptr<const IndexSnapshot> snap = target->Snapshot();
  const int64_t phase_end =
      NowNs() + static_cast<int64_t>(args.seconds * 0.5 * 1e9);
  for (uint32_t j = 0; NowNs() < phase_end; ++j) {
    const SuggestionRequest& request = in.Request(n_open + j);
    StatusOr<std::vector<Suggestion>> got = Status::Internal("unset");
    double untraced = 0.0;
    bool hit = false;
    auto run_engine = [&] {
      const uint64_t hits = CounterValue("pqsda.cache.hits_total");
      const int64_t a = NowNs();
      got = target->Suggest(request);
      untraced = static_cast<double>(NowNs() - a) * 1e-3;
      hit = CounterValue("pqsda.cache.hits_total") != hits;
    };
    TracedRequest traced;
    auto run_ledger = [&] {
      traced = TraceRequest(*snap, request, kListSize, j, spans);
    };
    if (j % 2 == 0) {
      run_engine();
      run_ledger();
    } else {
      run_ledger();
      run_engine();
    }
    ++attempted;
    if (!got.ok()) ++failed;
    const bool same = got.ok() == traced.status.ok() &&
                      (!got.ok() || *got == traced.list);
    if (!same) {
      if (mismatches < 3) {
        std::printf("LEDGER MISMATCH on request %u (%s)\n", j,
                    request.query.c_str());
      }
      ++mismatches;
    }
    traced_miss.push_back(!hit && got.ok());
    if (hit) {
      hit_us.push_back(untraced);
      continue;
    }
    if (!got.ok()) continue;
    const Span& root = spans.spans()[traced.root];
    const double root_us =
        static_cast<double>(root.end_ns - root.start_ns) * 1e-3;
    double layers_us = 0.0;
    for (size_t s = traced.root + 1; s < spans.spans().size(); ++s) {
      const Span& child = spans.spans()[s];
      if (child.parent == traced.root) {
        layers_us += static_cast<double>(child.end_ns - child.start_ns) * 1e-3;
      }
    }
    engine_us.push_back(untraced);
    traced_us.push_back(root_us);
    coverage.push_back(layers_us / untraced);
    overhead.push_back(root_us / untraced - 1.0);
    candidates.push_back(static_cast<double>(traced.expansion.candidates_scored));
    rounds.push_back(static_cast<double>(traced.expansion.rounds));
    nnz.push_back(static_cast<double>(traced.compact_nnz));
    iterations.push_back(static_cast<double>(traced.solver_iterations));
    sweeps.push_back(static_cast<double>(traced.sweeps));
    if (target->sharded()) {
      SuggestStats stats;
      (void)target->Suggest(request, &stats);
      touched.push_back(static_cast<double>(stats.shards_touched));
    }
  }
  const size_t traced_requests = traced_miss.size();

  // Phase 3: rebuild probes through IngestBatch and RebuildNow, then the
  // build re-executed stage by stage. Freshness: a batch of exactly the
  // engine's rebuild threshold, so the engine's own trigger schedules the
  // rebuild, timed from IngestBatch returning until the published snapshot
  // holds the batch. Rebuild: a batch below the threshold, then RebuildNow.
  // A personalized build retrains UPM (the dominant cost), so each probe
  // runs once; otherwise three times.
  std::vector<double> ingest_us, rebuild_us, fresh_ms;
  const size_t probes = spec.config.personalize ? 1 : 3;
  const size_t trigger = spec.config.ingest.rebuild_min_records;
  constexpr size_t kRebuildRecords = 32;
  constexpr int64_t kPublishTimeoutNs = 60'000'000'000;
  size_t fresh_pos = 0;
  auto take_fresh = [&](size_t n) {
    const size_t from = std::min(fresh_pos, in.fresh.size());
    fresh_pos = std::min(from + n, in.fresh.size());
    return std::vector<QueryLogRecord>(in.fresh.begin() + from,
                                       in.fresh.begin() + fresh_pos);
  };
  for (size_t p = 0; p < probes; ++p) {
    target->WaitForRebuilds();
    const size_t want = target->Snapshot()->records.size() + trigger;
    const int64_t a = NowNs();
    Status ingested = target->IngestBatch(take_fresh(trigger));
    const int64_t b = NowNs();
    ++attempted;
    if (!ingested.ok()) {
      ++failed;
      continue;
    }
    ingest_us.push_back(static_cast<double>(b - a) * 1e-3);
    int64_t published = 0;
    while (NowNs() - b < kPublishTimeoutNs) {
      if (target->Snapshot()->records.size() >= want) {
        published = NowNs();
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ++attempted;
    if (published == 0) {
      std::printf("rebuild probe: the triggered rebuild did not publish\n");
      ++failed;
      continue;
    }
    fresh_ms.push_back(static_cast<double>(published - b) * 1e-6);

    target->WaitForRebuilds();
    Status below = target->IngestBatch(take_fresh(kRebuildRecords));
    const int64_t c = NowNs();
    Status rebuilt = target->RebuildNow();
    const int64_t d = NowNs();
    attempted += 2;
    if (!below.ok() || !rebuilt.ok()) {
      ++failed;
      continue;
    }
    rebuild_us.push_back(static_cast<double>(d - c) * 1e-3);
  }
  const uint32_t build_id = 1u << 30;
  TraceBuild(target->Snapshot()->records, spec.config, build_id, spans);

  if (!args.spans_path.empty() && !spans.WriteJsonl(args.spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 args.spans_path.c_str());
  }

  // The ledger: per-layer self time over the traced misses.
  auto layers = SelfTimesUs(spans, [&](uint32_t id) {
    return id < traced_miss.size() && traced_miss[id];
  });
  auto build_layers =
      SelfTimesUs(spans, [&](uint32_t id) { return id == build_id; });
  for (auto& [name, v] : build_layers) layers[name] = v;
  auto layer = [&](const char* name) { return Summarize(layers[name]); };
  const double upm_train_s = Median(layers["topic.upm_train"]) * 1e-6;

  const Summary engine = Summarize(engine_us);
  const Summary lag = Summarize(open.generator_lag_us);
  const Summary queue_wait = Summarize(open.queue_wait_us);

  std::printf("workload %s seed %llu (traced): setup %.3f s; %zu open-loop "
              "requests at %.0f req/s; %zu traced requests (%zu misses)\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              setup_s, n_open, spec.open_rate, traced_requests,
              engine.count);
  std::printf("  layer self time per request (misses):\n");
  for (const char* name :
       {"graph.compact_build", "suggest.term_match", "solver.seed",
        "solver.operator_build", "solver.solve", "suggest.chain_build",
        "suggest.sweep", "core.personalizer.rerank", "request"}) {
    if (layers[name].empty()) continue;
    std::printf("    %-28s %s\n", name,
                FormatSummary(layer(name), "us").c_str());
  }
  std::printf("  engine Suggest (untraced)    %s\n",
              FormatSummary(engine, "us").c_str());
  if (target->sharded()) {
    std::printf("  core.sharded_engine.suggest_us  %s\n",
                FormatSummary(engine, "us").c_str());
  }
  std::printf("  traced total                 %s\n",
              FormatSummary(Summarize(traced_us), "us").c_str());
  std::printf("  trace.coverage %.4f, trace.overhead_share %.4f (n=%zu)\n",
              Median(coverage), Median(overhead), coverage.size());
  std::printf("  suggest.cache.hit_path_us    %s\n",
              FormatSummary(Summarize(hit_us), "us").c_str());
  std::printf("  cache (open loop): hit ratio %.4f, stale share %.4f\n",
              cache.hit_ratio(), cache.stale_share());
  std::printf("  queue wait %s\n  generator lag %s\n",
              FormatSummary(queue_wait, "us").c_str(),
              FormatSummary(lag, "us").c_str());
  std::printf("  ingest    %s (batches of %zu)\n",
              FormatSummary(Summarize(ingest_us), "us").c_str(), trigger);
  std::printf("  freshness %s (IngestBatch return to publication)\n",
              FormatSummary(Summarize(fresh_ms), "ms").c_str());
  std::printf("  rebuild   %s (RebuildNow after %zu records)\n",
              FormatSummary(Summarize(rebuild_us), "us").c_str(),
              kRebuildRecords);
  std::printf("  build ledger:");
  for (const char* name : {"log.sessionize", "graph.representation_build",
                           "topic.corpus_build", "topic.upm_train"}) {
    if (!layers[name].empty()) {
      std::printf(" %s %.0f us", name, layers[name].front());
    }
  }
  std::printf("\n");
  std::printf("  topic.upm_train_s %.3f s\n", upm_train_s);
  std::printf("  ledger check: %zu of %zu traced lists differ from the "
              "engine's\n",
              mismatches, traced_requests);

  const bool correct = mismatches == 0 && engine.count > 0;
  PrintResult(
      correct, attempted, failed,
      {{"graph.compact_build_us", layer("graph.compact_build").p50, "us"},
       {"graph.compact_build_p99_us", layer("graph.compact_build").p99, "us"},
       {"graph.candidates_scored", Mean(candidates), "count"},
       {"graph.walk_rounds", Mean(rounds), "count"},
       {"graph.compact_nnz", Mean(nnz), "count"},
       {"solver.operator_build_us", layer("solver.operator_build").p50, "us"},
       {"solver.solve_us", layer("solver.solve").p50, "us"},
       {"solver.iterations", Mean(iterations), "count"},
       {"suggest.chain_build_us", layer("suggest.chain_build").p50, "us"},
       {"suggest.sweep_us", layer("suggest.sweep").p50, "us"},
       {"suggest.sweeps", Mean(sweeps), "count"},
       {"core.personalizer.rerank_us", layer("core.personalizer.rerank").p50,
        "us"},
       {"suggest.cache.hit_ratio", cache.hit_ratio(), "ratio"},
       {"suggest.cache.hit_path_us", Median(hit_us), "us"},
       {"suggest.cache.stale_share", cache.stale_share(), "ratio"},
       {"core.engine.suggest_us", engine.p50, "us"},
       {"core.sharded_engine.shards_touched", Mean(touched), "count"},
       {"core.index_manager.ingest_us", Median(ingest_us), "us"},
       {"core.index_manager.rebuild_us", Median(rebuild_us), "us"},
       {"core.index_manager.freshness_ms", Median(fresh_ms), "ms"},
       {"log.sessionize_us", Median(layers["log.sessionize"]), "us"},
       {"graph.representation_build_us",
        Median(layers["graph.representation_build"]), "us"},
       {"topic.upm_train_s", upm_train_s, "s"},
       {"bench.queue_wait_p99_us", queue_wait.p99, "us"},
       {"bench.generator_lag_p99_us", lag.p99, "us"},
       {"trace.coverage", Median(coverage), "ratio"},
       {"trace.overhead_share", Median(overhead), "ratio"}});
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pqsda::perfbench

int main(int argc, char** argv) {
  using namespace pqsda::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pqsda_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  std::optional<WorkloadSpec> spec = SpecFor(args.workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const int64_t t0 = NowNs();
  const Inputs in = MakeInputs(*spec, args.seed);
  std::printf("inputs: %zu records, %zu request shapes, %zu fresh records "
              "(%.2f s to generate); host nproc %u\n",
              in.base.records.size(), in.shapes.size(), in.fresh.size(),
              static_cast<double>(NowNs() - t0) * 1e-9,
              std::thread::hardware_concurrency());
  return args.trace ? RunTraced(args, *spec, in) : RunTimed(args, *spec, in);
}
