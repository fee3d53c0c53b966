// Microbenchmarks of the core computational kernels. Two parts:
//
// 1. A before/after kernel comparison (custom timing, no google-benchmark)
//    that emits BENCH_kernels.json: the legacy CSR Jacobi row sweep (re-walk
//    the assembled system's rows, diagonal found by search) against the
//    packed Eq. 15 operator sweep; the pre-SIMD sequential sparse dot
//    against the dispatched kernel; the reference interleaved hitting-time
//    sweep against the merged-chain sweep (both references link from
//    tests/reference/); and an end-to-end serving pass at
//    scalar vs best SIMD level, gated on the suggestion lists being bitwise
//    identical. run_benches.sh greps the emitted gates.
//
// 2. The original google-benchmark suite: CSR SpMV, SpGEMM (W W^T), the
//    regularization solve, the cross-bipartite hitting-time iteration and
//    one Gibbs sweep of the UPM.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/simd.h"
#include "core/pqsda_engine.h"
#include "graph/compact_builder.h"
#include "reference/hitting_time.h"
#include "reference/solvers.h"
#include "solver/eq15_operator.h"
#include "solver/regularization.h"
#include "suggest/hitting_time_suggester.h"
#include "topic/corpus.h"
#include "topic/upm.h"

namespace pqsda::bench {
namespace {

const BenchEnv& Env() {
  static BenchEnv* env = new BenchEnv(EnvSize("USERS", 150));
  return *env;
}

const CompactRepresentation& Rep() {
  static CompactRepresentation* rep = [] {
    const BenchEnv& env = Env();
    CompactBuilder builder(env.mb_weighted);
    StringId q = env.mb_weighted.QueryId(
        env.data.facets.concept_tokens()[0]);
    auto r = builder.Build(q, {}, CompactBuilderOptions{400, 6});
    return new CompactRepresentation(std::move(r).value());
  }();
  return *rep;
}

// ------------------------------------------------- before/after section --

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Minimum of `repeats` timed runs of `fn` (seconds) — min, not mean, so a
// scheduler hiccup cannot inflate one side of a comparison.
template <typename Fn>
double MinTime(size_t repeats, Fn&& fn) {
  double best = 1e300;
  for (size_t r = 0; r < repeats; ++r) {
    double begin = Now();
    fn();
    best = std::min(best, Now() - begin);
  }
  return best;
}

// The legacy Jacobi row sweep this PR replaced: walk the assembled CSR row,
// pick the diagonal out of it by comparison, accumulate the off-diagonal
// terms sequentially. Kept here verbatim as the before-side of the
// comparison (the production solvers now run on the split Eq15Operator).
void LegacyJacobiSweeps(const CsrMatrix& a, const std::vector<double>& b,
                        std::vector<double>& x, std::vector<double>& next,
                        size_t sweeps) {
  const size_t n = b.size();
  for (size_t s = 0; s < sweeps; ++s) {
    for (size_t i = 0; i < n; ++i) {
      auto idx = a.RowIndices(i);
      auto val = a.RowValues(i);
      double diag = 0.0, acc = 0.0;
      for (size_t k = 0; k < idx.size(); ++k) {
        if (idx[k] == i) {
          diag = val[k];
        } else {
          acc += val[k] * x[idx[k]];
        }
      }
      next[i] = diag != 0.0 ? (b[i] - acc) / diag : 0.0;
    }
    x.swap(next);
  }
}

// Operator-form Jacobi sweeps: same math on the split diag + packed
// off-diagonal through the fused per-level sweep kernel, exactly as
// JacobiSolve runs it.
void OperatorJacobiSweeps(const Eq15Operator& op, const std::vector<double>& b,
                          std::vector<double>& x, std::vector<double>& next,
                          size_t sweeps) {
  const size_t n = op.n;
  const auto sweep = simd::ActiveJacobiSweep();
  for (size_t s = 0; s < sweeps; ++s) {
    sweep(op.off.val.data(), op.off.col.data(), op.off.row_ptr.data(),
          b.data(), op.inv_diag.data(), x.data(), next.data(), 0, n);
    x.swap(next);
  }
}

struct KernelVerdict {
  double jacobi_before_ns = 0.0, jacobi_after_ns = 0.0;
  double dot_before_ns = 0.0, dot_after_ns = 0.0;
  double hit_before_ns = 0.0, hit_after_ns = 0.0;
  double e2e_p95_scalar_us = 0.0, e2e_p95_simd_us = 0.0;
  bool e2e_bitwise_equal = false;
  bool e2e_ran = false;
  /// Requests that failed in either serving pass.
  size_t e2e_failed = 0;
  double checksum = 0.0;  // defeats dead-code elimination; printed
};

void CompareJacobiSweep(KernelVerdict& v) {
  const auto& rep = Rep();
  const std::array<double, 3> alpha = RegularizationOptions{}.alpha;
  CsrMatrix a = AssembleRegularizationSystem(rep, alpha);
  Eq15Operator op = BuildEq15Operator(rep, alpha);
  const size_t n = rep.size();
  std::vector<double> b(n, 0.0);
  b[0] = 1.0;
  std::vector<double> x(n, 0.0), next(n, 0.0);
  const size_t sweeps = 200;
  const double rows = static_cast<double>(sweeps) * static_cast<double>(n);

  double before = MinTime(5, [&] {
    std::fill(x.begin(), x.end(), 0.0);
    LegacyJacobiSweeps(a, b, x, next, sweeps);
  });
  v.checksum += x[0];
  double after = MinTime(5, [&] {
    std::fill(x.begin(), x.end(), 0.0);
    OperatorJacobiSweeps(op, b, x, next, sweeps);
  });
  v.checksum += x[0];
  v.jacobi_before_ns = before / rows * 1e9;
  v.jacobi_after_ns = after / rows * 1e9;
}

void CompareSparseDot(KernelVerdict& v) {
  const auto& rep = Rep();
  const std::array<double, 3> alpha = RegularizationOptions{}.alpha;
  Eq15Operator op = BuildEq15Operator(rep, alpha);
  std::vector<double> x(op.n);
  for (size_t i = 0; i < op.n; ++i) x[i] = 1.0 + 1e-3 * static_cast<double>(i);
  const size_t passes = 200;
  const double rows =
      static_cast<double>(passes) * static_cast<double>(op.off.rows);

  double acc = 0.0;
  double before = MinTime(5, [&] {
    for (size_t p = 0; p < passes; ++p) {
      for (uint32_t i = 0; i < op.off.rows; ++i) {
        const uint32_t begin = op.off.row_ptr[i];
        acc += simd::SparseDotSequential(op.off.val.data() + begin,
                                         op.off.col.data() + begin,
                                         op.off.row_ptr[i + 1] - begin,
                                         x.data());
      }
    }
  });
  const auto dot = simd::ActiveSparseDot();
  double after = MinTime(5, [&] {
    for (size_t p = 0; p < passes; ++p) {
      for (uint32_t i = 0; i < op.off.rows; ++i) {
        const uint32_t begin = op.off.row_ptr[i];
        acc += dot(op.off.val.data() + begin, op.off.col.data() + begin,
                   op.off.row_ptr[i + 1] - begin, x.data());
      }
    }
  });
  v.checksum += acc;
  v.dot_before_ns = before / rows * 1e9;
  v.dot_after_ns = after / rows * 1e9;
}

void CompareHittingSweep(KernelVerdict& v) {
  const auto& rep = Rep();
  std::vector<const CsrMatrix*> chains = {&rep.P(BipartiteKind::kUrl),
                                          &rep.P(BipartiteKind::kSession),
                                          &rep.P(BipartiteKind::kTerm)};
  std::vector<double> weights = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  std::vector<uint32_t> seeds = {0};
  const size_t iterations = 20;
  const double rows = static_cast<double>(iterations) *
                      static_cast<double>(rep.size());

  HittingTimeWorkspace ws;
  double before = MinTime(5, [&] {
    ChainHittingTimeInto(chains, weights, seeds, iterations, nullptr, ws);
  });
  v.checksum += ws.h.empty() ? 0.0 : ws.h.back();
  // The merge happens once per request, then K-1 selection rounds sweep it;
  // time the sweep (the build is reported separately in the suite output).
  MergedChain merged = BuildMergedChain(chains, weights);
  double after = MinTime(5, [&] {
    MergedChainHittingTimeInto(merged, seeds, iterations, nullptr, ws);
  });
  v.checksum += ws.h.empty() ? 0.0 : ws.h.back();
  v.hit_before_ns = before / rows * 1e9;
  v.hit_after_ns = after / rows * 1e9;
}

double Percentile(std::vector<double> us, size_t pct) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  size_t idx = (us.size() * pct + 99) / 100;
  if (idx > 0) --idx;
  if (idx >= us.size()) idx = us.size() - 1;
  return us[idx];
}

// End-to-end: the same serving pass with the vector units forced off, then
// at the best supported level. The kernels share one canonical accumulation
// order, so the suggestion lists must be bitwise identical — the JSON gate
// records it and run_benches.sh fails when it doesn't hold.
void CompareEndToEnd(KernelVerdict& v) {
  const BenchEnv& env = Env();
  const size_t num_tests = EnvSize("TESTS", 120);
  std::vector<TestQuery> tests = SampleTestQueries(env.data, num_tests, 17);
  std::vector<SuggestionRequest> requests;
  requests.reserve(tests.size());
  for (const TestQuery& t : tests) requests.push_back(t.request);
  const size_t k = 10;

  PqsdaEngineConfig config;
  config.personalize = false;
  config.cache_capacity = 0;  // every request must run the kernels
  auto engine_or = PqsdaEngine::Build(env.data.records, config);
  if (!engine_or.ok()) {
    std::printf("  e2e engine build failed: %s\n",
                engine_or.status().ToString().c_str());
    return;
  }
  const PqsdaEngine& engine = **engine_or;

  auto pass = [&](std::vector<std::vector<Suggestion>>* lists) {
    std::vector<double> us;
    us.reserve(requests.size());
    for (const SuggestionRequest& request : requests) {
      double begin = Now();
      auto result = engine.Suggest(request, k);
      us.push_back((Now() - begin) * 1e6);
      if (!result.ok()) ++v.e2e_failed;
      if (lists != nullptr) {
        lists->push_back(result.ok() ? std::move(*result)
                                     : std::vector<Suggestion>{});
      }
    }
    return us;
  };

  const simd::Level best = simd::ActiveLevel();
  std::vector<std::vector<Suggestion>> scalar_lists, simd_lists;
  simd::SetLevel(simd::Level::kScalar);
  pass(nullptr);  // warmup
  std::vector<double> scalar_us = pass(&scalar_lists);
  simd::SetLevel(best);
  pass(nullptr);
  std::vector<double> simd_us = pass(&simd_lists);

  v.e2e_ran = true;
  v.e2e_p95_scalar_us = Percentile(scalar_us, 95);
  v.e2e_p95_simd_us = Percentile(simd_us, 95);
  v.e2e_bitwise_equal = scalar_lists == simd_lists;
}

void KernelComparison() {
  KernelVerdict v;
  std::printf("===== kernel before/after (simd level: %s) =====\n",
              simd::LevelName(simd::ActiveLevel()));
  CompareJacobiSweep(v);
  CompareSparseDot(v);
  CompareHittingSweep(v);
  CompareEndToEnd(v);

  auto speedup = [](double before, double after) {
    return after > 0.0 ? before / after : 0.0;
  };
  const double jacobi_speedup = speedup(v.jacobi_before_ns, v.jacobi_after_ns);
  const bool jacobi_gate = jacobi_speedup >= 2.0;
  // The equality gate passes only on a comparison that ran in full: a pass
  // that never ran, or lists padded with failed requests, proves nothing.
  const bool equal_gate =
      v.e2e_ran && v.e2e_failed == 0 && v.e2e_bitwise_equal;
  if (!v.e2e_ran) {
    std::printf("SIMD equality gate: end-to-end pass did not run\n");
  } else if (v.e2e_failed > 0) {
    std::printf("SIMD equality gate: %zu end-to-end requests failed\n",
                v.e2e_failed);
  }

  std::printf("jacobi_row_sweep : %7.2f -> %7.2f ns/row  (%.2fx)\n",
              v.jacobi_before_ns, v.jacobi_after_ns, jacobi_speedup);
  std::printf("sparse_dot       : %7.2f -> %7.2f ns/row  (%.2fx)\n",
              v.dot_before_ns, v.dot_after_ns,
              speedup(v.dot_before_ns, v.dot_after_ns));
  std::printf("hitting_sweep    : %7.2f -> %7.2f ns/row  (%.2fx)\n",
              v.hit_before_ns, v.hit_after_ns,
              speedup(v.hit_before_ns, v.hit_after_ns));
  if (v.e2e_ran) {
    std::printf("e2e suggest p95  : %7.1f -> %7.1f us  (bitwise equal: %s)\n",
                v.e2e_p95_scalar_us, v.e2e_p95_simd_us,
                v.e2e_bitwise_equal ? "yes" : "NO");
  }
  std::printf("(checksum %g)\n\n", v.checksum);

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"simd_level\": \"%s\",\n"
      "  \"jacobi_row_sweep\": {\"before_ns_per_row\": %.3f, "
      "\"after_ns_per_row\": %.3f, \"speedup\": %.3f},\n"
      "  \"sparse_dot\": {\"before_ns_per_row\": %.3f, "
      "\"after_ns_per_row\": %.3f, \"speedup\": %.3f},\n"
      "  \"hitting_sweep\": {\"before_ns_per_row\": %.3f, "
      "\"after_ns_per_row\": %.3f, \"speedup\": %.3f},\n"
      "  \"e2e_suggest\": {\"p95_us_scalar\": %.1f, \"p95_us_simd\": %.1f, "
      "\"results_bitwise_equal\": %s},\n"
      "  \"jacobi_gate_pass\": %s\n"
      "}\n",
      simd::LevelName(simd::ActiveLevel()), v.jacobi_before_ns,
      v.jacobi_after_ns, jacobi_speedup, v.dot_before_ns, v.dot_after_ns,
      speedup(v.dot_before_ns, v.dot_after_ns), v.hit_before_ns,
      v.hit_after_ns, speedup(v.hit_before_ns, v.hit_after_ns),
      v.e2e_p95_scalar_us, v.e2e_p95_simd_us,
      equal_gate ? "true" : "false", jacobi_gate ? "true" : "false");
  if (std::FILE* f = std::fopen("BENCH_kernels.json", "w")) {
    std::fwrite(buf, 1, std::strlen(buf), f);
    std::fclose(f);
    std::printf("wrote BENCH_kernels.json\n\n");
  } else {
    std::printf("could not write BENCH_kernels.json\n\n");
  }
}

// ------------------------------------------------ google-benchmark suite --

void BM_CsrMatVec(benchmark::State& state) {
  const auto& m = Env().mb_weighted.graph(BipartiteKind::kTerm)
                      .query_to_object();
  std::vector<double> x(m.cols(), 1.0), y;
  for (auto _ : state) {
    m.MatVec(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.nnz()));
}
BENCHMARK(BM_CsrMatVec);

void BM_SpGemmSelfTranspose(benchmark::State& state) {
  const auto& w = Rep().W(BipartiteKind::kTerm);
  for (auto _ : state) {
    auto a = w.MultiplySelfTranspose();
    benchmark::DoNotOptimize(a.nnz());
  }
}
BENCHMARK(BM_SpGemmSelfTranspose);

void BM_RegularizationSolve(benchmark::State& state) {
  const auto& rep = Rep();
  std::vector<double> f0(rep.size(), 0.0);
  f0[0] = 1.0;
  RegularizationOptions options;
  for (auto _ : state) {
    auto f = SolveRegularization(rep, f0, options);
    benchmark::DoNotOptimize(f.ok());
  }
}
BENCHMARK(BM_RegularizationSolve);

void BM_BuildEq15Operator(benchmark::State& state) {
  const auto& rep = Rep();
  const std::array<double, 3> alpha = RegularizationOptions{}.alpha;
  for (auto _ : state) {
    auto op = BuildEq15Operator(rep, alpha);
    benchmark::DoNotOptimize(op.off.nnz());
  }
}
BENCHMARK(BM_BuildEq15Operator);

void BM_BuildMergedChain(benchmark::State& state) {
  const auto& rep = Rep();
  std::vector<const CsrMatrix*> chains = {&rep.P(BipartiteKind::kUrl),
                                          &rep.P(BipartiteKind::kSession),
                                          &rep.P(BipartiteKind::kTerm)};
  std::vector<double> weights = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  for (auto _ : state) {
    auto merged = BuildMergedChain(chains, weights);
    benchmark::DoNotOptimize(merged.m.nnz());
  }
}
BENCHMARK(BM_BuildMergedChain);

void BM_CrossBipartiteHittingTime(benchmark::State& state) {
  const auto& rep = Rep();
  std::vector<const CsrMatrix*> chains = {&rep.P(BipartiteKind::kUrl),
                                          &rep.P(BipartiteKind::kSession),
                                          &rep.P(BipartiteKind::kTerm)};
  std::vector<double> weights = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  for (auto _ : state) {
    auto h = ChainHittingTime(chains, weights, {0}, 20);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_CrossBipartiteHittingTime);

void BM_MergedChainHittingTime(benchmark::State& state) {
  const auto& rep = Rep();
  std::vector<const CsrMatrix*> chains = {&rep.P(BipartiteKind::kUrl),
                                          &rep.P(BipartiteKind::kSession),
                                          &rep.P(BipartiteKind::kTerm)};
  std::vector<double> weights = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  MergedChain merged = BuildMergedChain(chains, weights);
  HittingTimeWorkspace ws;
  for (auto _ : state) {
    MergedChainHittingTimeInto(merged, {0}, 20, nullptr, ws);
    benchmark::DoNotOptimize(ws.h.data());
  }
}
BENCHMARK(BM_MergedChainHittingTime);

void BM_CompactBuild(benchmark::State& state) {
  const BenchEnv& env = Env();
  CompactBuilder builder(env.mb_weighted);
  StringId q =
      env.mb_weighted.QueryId(env.data.facets.concept_tokens()[0]);
  CompactBuilderOptions options;
  options.target_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto rep = builder.Build(q, {}, options);
    benchmark::DoNotOptimize(rep.ok());
  }
}
BENCHMARK(BM_CompactBuild)->Arg(100)->Arg(400)->Arg(800);

void BM_UpmGibbsSweep(benchmark::State& state) {
  static QueryLogCorpus* corpus = [] {
    auto* c = new QueryLogCorpus(
        QueryLogCorpus::Build(Env().data.records, Env().sessions));
    return c;
  }();
  UpmOptions options;
  options.base.num_topics = 16;
  options.base.gibbs_iterations = 1;
  options.learn_hyperparameters = false;
  for (auto _ : state) {
    UpmModel model(options);
    model.Train(*corpus);
    benchmark::DoNotOptimize(model.num_topics());
  }
}
BENCHMARK(BM_UpmGibbsSweep)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pqsda::bench

int main(int argc, char** argv) {
  pqsda::bench::KernelComparison();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
