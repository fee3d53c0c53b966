// Deterministic fault-injection harness for the overload-hardened serving
// path: deadlines, cancellation, load shedding and the degradation ladder.
// Every fault here is injected at an exact named point (FaultInjector) on a
// fake clock — no sleeps, no wall-clock races — so "the deadline expires on
// the 2nd solver iteration" is a reproducible statement.
//
// The invariants under test, across the whole {stage x fault x rung} matrix:
//   - a faulted request returns a well-formed Status (kDeadlineExceeded /
//     kCancelled / kUnavailable / kNotFound), never a partial suggestion
//     list and never a crash;
//   - a reused SuggestStats never carries a previous request's numbers out
//     of any fault path;
//   - interruption is honored within one iteration-check granularity.
//
// This file also carries the deadline-storm batch test the TSAN verify step
// of run_benches.sh re-runs, and the regression test for silently-accepted
// non-convergence (now only the truncated rung accepts it, loudly).

#include <atomic>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/pqsda_engine.h"
#include "core/shard_router.h"
#include "obs/metrics.h"
#include "obs/sliding_window.h"
#include "obs/telemetry.h"
#include "reference/solvers.h"

namespace pqsda {
namespace {

constexpr int64_t kMs = 1'000'000;
constexpr int64_t kSec = 1'000'000'000;

// Same 14-record log the serving suite uses: three topic clusters around
// "sun" plus per-user click history.
std::vector<QueryLogRecord> FaultLog() {
  return {
      {1, "sun", "www.java.com", 100},
      {1, "sun java", "java.sun.com", 150},
      {1, "java download", "www.java.com", 200},
      {4, "sun java", "www.java.com", 100},
      {4, "java download", "java.sun.com", 130},
      {2, "sun", "www.nasa.gov", 100},
      {2, "solar system", "www.nasa.gov", 160},
      {2, "solar energy", "www.energy.gov", 220},
      {5, "solar system", "www.nasa.gov", 90},
      {5, "solar energy", "www.nasa.gov", 140},
      {3, "sun", "www.thesun.co.uk", 100},
      {3, "sun daily uk", "www.thesun.co.uk", 150},
      {6, "sun daily uk", "www.thesun.co.uk", 110},
      {6, "uk news", "www.thesun.co.uk", 170},
  };
}

std::unique_ptr<PqsdaEngine> BuildFaultEngine(
    RobustnessOptions robustness = {}, size_t cache_capacity = 0) {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.cache_capacity = cache_capacity;
  config.robustness = robustness;
  auto built = PqsdaEngine::Build(FaultLog(), config);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

SuggestionRequest FaultRequest(const std::string& query,
                               UserId user = kNoUser) {
  SuggestionRequest request;
  request.query = query;
  request.timestamp = 400;
  request.user = user;
  return request;
}

// A stats struct full of junk: after any request — served, shed, faulted —
// none of these sentinels may survive.
SuggestStats PoisonedStats() {
  SuggestStats stats;
  stats.compact_size = 999;
  stats.hitting_rounds = 999;
  stats.candidates_scored = 999;
  stats.suggestions_returned = 999;
  stats.personalized = true;
  stats.shed = true;
  stats.degradation_rung = 7;
  stats.solve.iterations = 999;
  stats.solve.relative_residual = 123.0;
  stats.solve.converged = true;
  return stats;
}

void ExpectStatsReset(const SuggestStats& stats) {
  EXPECT_NE(stats.compact_size, 999u);
  EXPECT_NE(stats.hitting_rounds, 999u);
  EXPECT_NE(stats.candidates_scored, 999u);
  EXPECT_NE(stats.suggestions_returned, 999u);
  EXPECT_NE(stats.degradation_rung, 7u);
  EXPECT_NE(stats.solve.iterations, 999u);
}

// Resets the process-wide injector around every test so armed faults and
// hit counts never leak between tests (the suite runs in one process).
class FaultInjectionTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Default().Reset(); }
  void TearDown() override { FaultInjector::Default().Reset(); }
};

// ------------------------------------------------- CancelToken unit ----

TEST_F(FaultInjectionTest, CancelTokenDefaultIsUnbounded) {
  CancelToken token;
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.expired());
  EXPECT_EQ(token.RemainingNanos(), CancelToken::kNoDeadline);
  EXPECT_TRUE(token.Check().ok());
}

TEST_F(FaultInjectionTest, CancelTokenDeadlineOnFakeClock) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(1000 * kSec);
  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(10 * kMs);
  EXPECT_TRUE(token.Check().ok());
  EXPECT_EQ(token.RemainingNanos(), 10 * kMs);

  injector.AdvanceClock(9 * kMs);
  EXPECT_TRUE(token.Check().ok());
  injector.AdvanceClock(2 * kMs);
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, CancellationWinsOverExpiry) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);
  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(1);
  injector.AdvanceClock(5 * kSec);
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

// ----------------------------------------------- FaultInjector unit ----

TEST_F(FaultInjectionTest, ArmTriggersOnExactHit) {
  FaultInjector& injector = FaultInjector::Default();
  CancelToken token;
  FaultAction action;
  action.at_hit = 3;
  action.cancel = &token;
  injector.Arm("unit.point", action);

  injector.Hit("unit.point");
  injector.Hit("unit.point");
  EXPECT_FALSE(token.cancelled());
  injector.Hit("unit.point");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(injector.Hits("unit.point"), 3u);
}

TEST_F(FaultInjectionTest, ValueOverrideAndReset) {
  FaultInjector& injector = FaultInjector::Default();
  EXPECT_EQ(injector.Value("unit.value", 42), 42);
  injector.SetValue("unit.value", 7);
  EXPECT_EQ(injector.Value("unit.value", 42), 7);
  injector.Reset();
  EXPECT_EQ(injector.Value("unit.value", 42), 42);
  EXPECT_EQ(injector.Hits("unit.value"), 0u);
}

// ------------------------------------------------ solver interrupt ----

TEST_F(FaultInjectionTest, PreCancelledTokenStopsSolveBeforeFirstSweep) {
  auto a = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 4.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 4.0}});
  std::vector<double> b = {1.0, 2.0};
  CancelToken token;
  token.Cancel();
  SolverOptions options;
  options.cancel = &token;
  std::vector<double> x;
  auto result = GaussSeidelSolve(a, b, x, options);
  EXPECT_EQ(result.interrupt.code(), StatusCode::kCancelled);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
}

// ------------------------------------------- {stage x fault x rung} ----

struct MatrixCase {
  const char* stage;    // injection point to arm
  uint64_t at_hit;      // which hit triggers the fault
  size_t rung;          // engine min_rung the case runs at
};

// Every pipeline stage that polls the token, at every ladder rung where the
// stage still runs. kExpansionDone fires once per request; the iteration /
// round points get hit 2 so the fault lands mid-stream.
const MatrixCase kMatrix[] = {
    {faults::kExpansionDone, 1, 0},
    {faults::kExpansionDone, 1, 1},
    {faults::kExpansionDone, 1, 2},
    {faults::kSolverIteration, 2, 0},
    {faults::kSolverIteration, 2, 1},
    {faults::kHittingIteration, 2, 0},
    {faults::kHittingIteration, 2, 1},
    {faults::kHittingRound, 2, 0},
    {faults::kHittingRound, 2, 1},
};

// One pass over the matrix per fault kind. The request runs with a 10s
// budget on the frozen fake clock, so the rung decision at admission is
// "plenty of budget" and the only thing that unwinds it is the injected
// fault at the armed point.
void RunFaultMatrix(bool deadline_fault) {
  FaultInjector& injector = FaultInjector::Default();
  for (const MatrixCase& c : kMatrix) {
    SCOPED_TRACE(std::string(c.stage) + " rung " + std::to_string(c.rung) +
                 (deadline_fault ? " deadline" : " cancel"));
    injector.Reset();
    injector.SetClock(0);

    RobustnessOptions robustness;
    robustness.min_rung = c.rung;
    auto engine = BuildFaultEngine(robustness);

    CancelToken token(injector.ClockFn());
    token.SetDeadlineAfter(10 * kSec);
    FaultAction action;
    action.at_hit = c.at_hit;
    if (deadline_fault) {
      action.advance_clock_ns = 20 * kSec;
    } else {
      action.cancel = &token;
    }
    injector.Arm(c.stage, action);

    SuggestionRequest request = FaultRequest("sun", /*user=*/1);
    request.cancel = &token;
    SuggestStats stats = PoisonedStats();
    auto result = engine->Suggest(request, 5, &stats);

    // Never a partial list: the faulted request carries a status, not a
    // truncated answer.
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), deadline_fault
                                          ? StatusCode::kDeadlineExceeded
                                          : StatusCode::kCancelled);
    // The reused stats struct reflects this request only.
    ExpectStatsReset(stats);
    EXPECT_EQ(stats.degradation_rung, c.rung);
    EXPECT_FALSE(stats.shed);
    EXPECT_FALSE(stats.personalized);
    EXPECT_EQ(stats.suggestions_returned, 0u);
  }
}

TEST_F(FaultInjectionTest, DeadlineExpiryAtEveryStageAndRung) {
  RunFaultMatrix(/*deadline_fault=*/true);
}

TEST_F(FaultInjectionTest, CancellationAtEveryStageAndRung) {
  RunFaultMatrix(/*deadline_fault=*/false);
}

// Acceptance criterion: a deadline that hits zero mid-solve unwinds within
// one iteration-check granularity — the solver takes no further sweep after
// the poll that observed expiry.
TEST_F(FaultInjectionTest, MidSolveExpiryStopsWithinOneIterationCheck) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);
  auto engine = BuildFaultEngine();

  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(10 * kSec);
  FaultAction action;
  action.at_hit = 3;  // clock jumps at the top of solver iteration 3
  action.advance_clock_ns = 20 * kSec;
  injector.Arm(faults::kSolverIteration, action);

  SuggestionRequest request = FaultRequest("sun");
  request.cancel = &token;
  auto result = engine->Suggest(request, 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The poll at the very iteration that advanced the clock observed the
  // expiry: the solver never started another sweep.
  EXPECT_EQ(injector.Hits(faults::kSolverIteration), 3u);
}

// A clock jump at admission shapes the budget the ladder reads: the request
// degrades (here all the way to cache-only) instead of erroring.
TEST_F(FaultInjectionTest, BudgetExhaustedAtAdmissionDegradesToCacheOnly) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);
  auto engine = BuildFaultEngine({}, /*cache_capacity=*/16);

  // Warm the cache with a full-quality answer.
  SuggestStats stats;
  auto warm = engine->Suggest(FaultRequest("sun"), 5, &stats);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(stats.degradation_rung, 0u);

  // Zero the hit counts the warm request accumulated (Reset keeps the
  // clock), then arm the admission-time clock jump.
  injector.Reset();
  injector.SetClock(0);
  FaultAction action;
  action.advance_clock_ns = 10 * kSec - 1 * kMs;  // leaves 1ms of budget
  injector.Arm(faults::kAdmission, action);

  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(10 * kSec);
  SuggestionRequest request = FaultRequest("sun");
  request.cancel = &token;
  SuggestStats degraded = PoisonedStats();
  auto hit = engine->Suggest(request, 5, &degraded);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, *warm);  // cache-only rung serves the cached full answer
  EXPECT_EQ(degraded.degradation_rung, 3u);

  // The same starved budget on an uncached query is a fast NotFound.
  injector.Reset();
  injector.SetClock(0);
  injector.Arm(faults::kAdmission, action);
  CancelToken token2(injector.ClockFn());
  token2.SetDeadlineAfter(10 * kSec);
  SuggestionRequest miss = FaultRequest("solar energy");
  miss.cancel = &token2;
  SuggestStats miss_stats = PoisonedStats();
  auto result = engine->Suggest(miss, 5, &miss_stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(miss_stats.degradation_rung, 3u);
  ExpectStatsReset(miss_stats);
}

// ------------------------------------------------------ load shedding ----

TEST_F(FaultInjectionTest, QueueDepthOverLimitShedsWithUnavailable) {
  FaultInjector& injector = FaultInjector::Default();
  RobustnessOptions robustness;
  robustness.shed_queue_depth = 4;
  auto engine = BuildFaultEngine(robustness);
  obs::Counter& shed_total =
      obs::MetricsRegistry::Default().GetCounter("pqsda.robust.shed_total");
  const uint64_t shed_before = shed_total.Value();

  // Fake pool saturation: no actual storm needed.
  injector.SetValue(faults::kQueueDepth, 1000);
  SuggestStats stats = PoisonedStats();
  auto result = engine->Suggest(FaultRequest("sun"), 5, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(stats.shed);
  ExpectStatsReset(stats);
  EXPECT_EQ(stats.suggestions_returned, 0u);
  EXPECT_EQ(shed_total.Value(), shed_before + 1);

  // Back under the limit, the same request is served.
  injector.SetValue(faults::kQueueDepth, 2);
  auto served = engine->Suggest(FaultRequest("sun"), 5, &stats);
  EXPECT_TRUE(served.ok());
  EXPECT_FALSE(stats.shed);
}

TEST_F(FaultInjectionTest, WindowedP95OverLimitShedsWithUnavailable) {
  FaultInjector& injector = FaultInjector::Default();
  RobustnessOptions robustness;
  robustness.shed_p95_us = 50'000.0;
  auto engine = BuildFaultEngine(robustness);

  injector.SetValue(faults::kP95Us, 400'000);
  auto result = engine->Suggest(FaultRequest("sun"), 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);

  injector.SetValue(faults::kP95Us, 1'000);
  EXPECT_TRUE(engine->Suggest(FaultRequest("sun"), 5).ok());
}

// --------------------------------------------------- ladder behavior ----

TEST_F(FaultInjectionTest, WalkOnlyRungServesBoundedDeterministicAnswer) {
  RobustnessOptions robustness;
  robustness.min_rung = 2;
  auto engine = BuildFaultEngine(robustness);

  SuggestStats stats = PoisonedStats();
  auto first = engine->Suggest(FaultRequest("sun", /*user=*/1), 5, &stats);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->empty());
  EXPECT_EQ(stats.degradation_rung, 2u);
  EXPECT_EQ(stats.hitting_rounds, 0u);     // Algorithm 1 skipped
  EXPECT_EQ(stats.solve.iterations, 0u);   // Eq. 15 solve skipped
  EXPECT_FALSE(stats.personalized);        // rerank skipped on this rung

  auto second = engine->Suggest(FaultRequest("sun", /*user=*/1), 5);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

// Regression: SolveRegularization must not silently accept a non-converged
// iterate. The full rung errors (NotConverged); only the truncated rung
// serves it — and then the outcome stays visible in stats and metrics.
TEST_F(FaultInjectionTest, TruncatedRungServesNonConvergedSolveLoudly) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& nonconverged =
      reg.GetCounter("pqsda.solver.nonconverged_total");
  obs::Counter& served =
      reg.GetCounter("pqsda.robust.nonconverged_served_total");

  RobustnessOptions starved;
  starved.min_rung = 1;
  starved.truncated_max_iterations = 1;   // cannot converge in one sweep
  starved.truncated_tolerance = 1e-14;
  auto truncated = BuildFaultEngine(starved);

  const uint64_t nonconverged_before = nonconverged.Value();
  const uint64_t served_before = served.Value();
  SuggestStats stats = PoisonedStats();
  auto result = truncated->Suggest(FaultRequest("sun"), 5, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->empty());
  EXPECT_EQ(stats.degradation_rung, 1u);
  EXPECT_FALSE(stats.solve.converged);    // loud in per-request stats
  EXPECT_EQ(stats.solve.iterations, 1u);
  EXPECT_EQ(nonconverged.Value(), nonconverged_before + 1);  // loud counter
  EXPECT_EQ(served.Value(), served_before + 1);

  // The same starvation at the full rung is an error, not a silent serve:
  // drive the full pipeline with the impossible solver budget by calling
  // the diversifier directly.
  auto full_engine = BuildFaultEngine();
  PqsdaDiversifierOptions hard = full_engine->diversifier().options();
  hard.regularization.solver_options.max_iterations = 1;
  hard.regularization.solver_options.tolerance = 1e-14;
  auto direct = full_engine->diversifier().DiversifyWith(
      FaultRequest("sun"), 5, hard);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kNotConverged);
}

// Degraded answers must not poison the full-quality cache: a walk-only
// serve leaves no entry behind for the same key.
TEST_F(FaultInjectionTest, DegradedResultsAreNotCached) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);
  auto engine = BuildFaultEngine({}, /*cache_capacity=*/16);

  // Budget in the walk-only band: remaining 10ms < walk_only_below_us.
  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(10 * kMs);
  SuggestionRequest request = FaultRequest("sun");
  request.cancel = &token;
  SuggestStats stats;
  auto degraded = engine->Suggest(request, 5, &stats);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(stats.degradation_rung, 2u);

  // The follow-up full-budget request misses the cache and runs the full
  // pipeline (rung 0) — the degraded answer was not stored.
  SuggestStats full_stats;
  auto full = engine->Suggest(FaultRequest("sun"), 5, &full_stats);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full_stats.degradation_rung, 0u);
  EXPECT_GT(full_stats.hitting_rounds, 0u);  // pipeline actually ran
}

// ------------------------------------------------- negative cache ----

// A storm of lookups for an unknown query is absorbed by the negative
// cache: the first request runs the pipeline and records the NotFound,
// every repeat answers from the remembered verdict without invoking the
// engine again.
TEST_F(FaultInjectionTest, NegativeCacheAbsorbsNotFoundStorm) {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.cache_capacity = 16;
  config.negative_cache_capacity = 16;
  auto built = PqsdaEngine::Build(FaultLog(), config);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PqsdaEngine> engine = std::move(built).value();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& neg_hits = reg.GetCounter("pqsda.cache.negative_hits_total");
  obs::Counter& neg_inserts =
      reg.GetCounter("pqsda.cache.negative_insertions_total");
  const uint64_t hits0 = neg_hits.Value();
  const uint64_t inserts0 = neg_inserts.Value();

  SuggestStats stats = PoisonedStats();
  auto first = engine->Suggest(FaultRequest("quantum flux capacitor"), 5,
                               &stats);
  EXPECT_EQ(first.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(stats.negative_cache_hit);
  EXPECT_EQ(neg_inserts.Value(), inserts0 + 1);

  for (int i = 0; i < 8; ++i) {
    SuggestStats storm = PoisonedStats();
    auto repeat = engine->Suggest(FaultRequest("quantum flux capacitor"), 5,
                                  &storm);
    EXPECT_EQ(repeat.status().code(), StatusCode::kNotFound);
    EXPECT_TRUE(storm.negative_cache_hit);
    EXPECT_EQ(storm.hitting_rounds, 0u);  // the pipeline never ran
  }
  EXPECT_EQ(neg_hits.Value(), hits0 + 8);
  EXPECT_EQ(neg_inserts.Value(), inserts0 + 1);  // remembered once
}

// An ingested delta can make a remembered-NotFound query known. The
// negative entry is stamped with the owning component's generation, so the
// rebuild that absorbs the delta grades it stale: the entry is erased
// (counted), the pipeline re-runs, and the query now serves.
TEST_F(FaultInjectionTest, NegativeCacheInvalidatedWhenIngestMakesQueryKnown) {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.cache_capacity = 16;
  config.negative_cache_capacity = 16;
  config.ingest.rebuild_min_records = SIZE_MAX;  // rebuilds only on demand
  auto built = PqsdaEngine::Build(FaultLog(), config);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PqsdaEngine> engine = std::move(built).value();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& neg_invalidations =
      reg.GetCounter("pqsda.cache.negative_invalidations_total");

  const std::string query = "meteor shower";  // unknown at build time
  auto miss = engine->Suggest(FaultRequest(query), 5);
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  SuggestStats storm;
  auto absorbed = engine->Suggest(FaultRequest(query), 5, &storm);
  EXPECT_EQ(absorbed.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(storm.negative_cache_hit);

  std::vector<QueryLogRecord> delta = {
      {7, "meteor shower", "www.nasa.gov", 500},
      {8, "meteor shower", "www.nasa.gov", 510},
      {7, "solar system", "www.nasa.gov", 520}};
  for (QueryLogRecord& record : delta) {
    ASSERT_TRUE(engine->Ingest(std::move(record)).ok());
  }
  ASSERT_TRUE(engine->index_manager().RebuildNow().ok());

  const uint64_t invalidations0 = neg_invalidations.Value();
  SuggestStats after;
  auto known = engine->Suggest(FaultRequest(query), 5, &after);
  ASSERT_TRUE(known.ok()) << known.status().ToString();
  EXPECT_FALSE(after.negative_cache_hit);
  EXPECT_FALSE(known->empty());
  // The stale entry was erased on lookup, not silently bypassed.
  EXPECT_EQ(neg_invalidations.Value(), invalidations0 + 1);
}

// A NotFound served on a degraded rung proves nothing about the query —
// the walk-only path may simply not have looked hard enough — so it must
// never be remembered. Only the full rung's verdict is cached.
TEST_F(FaultInjectionTest, DegradedNotFoundIsNeverCachedNegatively) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.cache_capacity = 16;
  config.negative_cache_capacity = 16;
  auto built = PqsdaEngine::Build(FaultLog(), config);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PqsdaEngine> engine = std::move(built).value();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& neg_inserts =
      reg.GetCounter("pqsda.cache.negative_insertions_total");
  const uint64_t inserts0 = neg_inserts.Value();

  // Budget in the walk-only band: the degraded NotFound is not recorded.
  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(10 * kMs);
  SuggestionRequest request = FaultRequest("quantum flux capacitor");
  request.cancel = &token;
  SuggestStats stats;
  auto degraded = engine->Suggest(request, 5, &stats);
  EXPECT_EQ(degraded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(stats.degradation_rung, 2u);
  EXPECT_EQ(neg_inserts.Value(), inserts0);

  // The full-budget request is a genuine miss — nothing was remembered —
  // and only this full-rung verdict enters the negative cache.
  SuggestStats full;
  auto confirmed = engine->Suggest(FaultRequest("quantum flux capacitor"), 5,
                                   &full);
  EXPECT_EQ(confirmed.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(full.negative_cache_hit);
  EXPECT_EQ(neg_inserts.Value(), inserts0 + 1);
}

// ------------------------------------------------- TSAN deadline storm ----

// Batched serving under a storm of tight real-clock deadlines and
// mid-flight cancellations from another thread. Run under ThreadSanitizer
// by run_benches.sh: the assertions here are weak (any well-formed outcome
// is fine) — the point is that tokens, fault points, workspaces and the
// ladder race-free under concurrent cancellation.
TEST_F(FaultInjectionTest, DeadlineStormUnderBatchStaysWellFormed) {
  RobustnessOptions robustness;
  auto engine = BuildFaultEngine(robustness, /*cache_capacity=*/32);

  const char* queries[] = {"sun", "sun java", "solar energy", "solar system",
                           "java download", "sun daily uk"};
  std::vector<SuggestionRequest> requests;
  std::deque<CancelToken> tokens;
  for (int i = 0; i < 48; ++i) {
    SuggestionRequest request =
        FaultRequest(queries[i % 6], i % 3 == 0 ? (i % 6) + 1 : kNoUser);
    tokens.emplace_back();  // real steady_clock tokens
    // A third get a deadline so tight it lands in a degraded rung or
    // expires mid-flight; the rest run unbounded and get cancelled (or
    // not) by the canceller thread below.
    if (i % 3 == 1) tokens.back().SetDeadlineAfter((i % 5) * kMs);
    request.cancel = &tokens.back();
    requests.push_back(std::move(request));
  }

  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    // Cancel every 4th token, racing the in-flight batch.
    for (size_t i = 0; i < tokens.size() && !stop.load(); i += 4) {
      tokens[i].Cancel();
      std::this_thread::yield();
    }
  });

  ThreadPool pool(4);
  auto results = engine->SuggestBatch(requests, 5, &pool);
  stop.store(true);
  canceller.join();

  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) continue;
    const StatusCode code = results[i].status().code();
    EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
                code == StatusCode::kCancelled ||
                code == StatusCode::kNotFound ||
                code == StatusCode::kUnavailable)
        << "request " << i << ": " << results[i].status().ToString();
  }
}

// --------------------------------------- per-shard fault matrix ----

// The sharded scatter-gather path under per-shard faults: one shard past
// its fetch deadline, one shard shedding. The invariants: only the affected
// shard degrades (every other touched shard stays kShardFull), and a
// partial merge is always loud (SuggestStats rungs + partial_merge +
// counters, never a cache fill).

PqsdaEngineConfig ShardedFaultConfig(size_t cache_capacity = 0) {
  PqsdaEngineConfig config;
  config.personalize = false;
  config.cache_capacity = cache_capacity;
  config.sharding.shards = 4;
  config.sharding.hot_row_min_degree = 0;  // strict ownership: faults bite
  return config;
}

std::unique_ptr<PqsdaEngine> BuildShardedFaultEngine(
    size_t cache_capacity = 0) {
  auto built =
      PqsdaEngine::Build(FaultLog(), ShardedFaultConfig(cache_capacity));
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

// A probe whose expansion crosses shards, plus one touched non-primary
// shard to play the victim. The 14-record log is one connected cluster, so
// such a probe always exists at 4 shards with strict ownership.
struct ShardedProbe {
  SuggestionRequest request;
  size_t victim = 0;
};

ShardedProbe FindCrossShardProbe(const PqsdaEngine& engine) {
  const char* queries[] = {"sun",          "sun java",     "solar energy",
                           "solar system", "java download", "sun daily uk"};
  for (const char* q : queries) {
    SuggestStats stats;
    auto result = engine.Suggest(FaultRequest(q), 5, &stats);
    if (!result.ok() || stats.shards_touched < 2) continue;
    const size_t primary = ShardRouter{engine.shards()}.QueryShardOf(q);
    for (size_t s = 0; s < stats.shard_rungs.size(); ++s) {
      if (s != primary && stats.shard_rungs[s] == SuggestStats::kShardFull) {
        return {FaultRequest(q), s};
      }
    }
  }
  ADD_FAILURE() << "no cross-shard probe found";
  return {FaultRequest("sun"), 1};
}

TEST_F(FaultInjectionTest, ShardDeadlineDegradesOnlyThatShard) {
  auto engine = BuildShardedFaultEngine();
  const ShardedProbe probe = FindCrossShardProbe(*engine);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& deadline_total = reg.GetCounter(
      "pqsda.shard." + std::to_string(probe.victim) + ".deadline_total");
  obs::Counter& partial_total =
      reg.GetCounter("pqsda.sharded.partial_merges_total");
  const uint64_t deadline0 = deadline_total.Value();
  const uint64_t partial0 = partial_total.Value();

  FaultInjector::Default().SetValue(faults::kShardDeadlineShard,
                                    static_cast<int64_t>(probe.victim));
  SuggestStats stats;
  auto result = engine->Suggest(probe.request, 5, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Loud, and surgical: the victim carries kShardDeadline, everyone else
  // is untouched-or-full, the request-level rung is still kFull.
  EXPECT_TRUE(stats.partial_merge);
  EXPECT_EQ(stats.degradation_rung, 0u);
  EXPECT_EQ(stats.shard_rungs[probe.victim], SuggestStats::kShardDeadline);
  for (size_t s = 0; s < stats.shard_rungs.size(); ++s) {
    if (s == probe.victim) continue;
    EXPECT_TRUE(stats.shard_rungs[s] == SuggestStats::kShardFull ||
                stats.shard_rungs[s] == SuggestStats::kShardUntouched)
        << "shard " << s;
  }
  EXPECT_EQ(deadline_total.Value(), deadline0 + 1);
  EXPECT_EQ(partial_total.Value(), partial0 + 1);
}

TEST_F(FaultInjectionTest, ShardShedDegradesOnlyThatShard) {
  auto engine = BuildShardedFaultEngine();
  const ShardedProbe probe = FindCrossShardProbe(*engine);
  obs::Counter& degraded_total = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.shard." + std::to_string(probe.victim) + ".degraded_total");
  const uint64_t degraded0 = degraded_total.Value();

  FaultInjector::Default().SetValue(faults::kShardShedShard,
                                    static_cast<int64_t>(probe.victim));
  SuggestStats stats;
  auto result = engine->Suggest(probe.request, 5, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(stats.partial_merge);
  EXPECT_EQ(stats.shard_rungs[probe.victim], SuggestStats::kShardDegraded);
  EXPECT_EQ(degraded_total.Value(), degraded0 + 1);

  // With the fault cleared the same request merges fully again.
  FaultInjector::Default().Reset();
  SuggestStats clean;
  ASSERT_TRUE(engine->Suggest(probe.request, 5, &clean).ok());
  EXPECT_FALSE(clean.partial_merge);
}

TEST_F(FaultInjectionTest, ShardPartialMergeIsNeverCached) {
  auto engine = BuildShardedFaultEngine(/*cache_capacity=*/16);
  // Probe discovery serves requests — run it on a cache-less twin (same
  // records, same partition geometry) so this engine's cache stays cold.
  const ShardedProbe probe = FindCrossShardProbe(*BuildShardedFaultEngine());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& hits = reg.GetCounter("pqsda.cache.hits_total");
  obs::Counter& misses = reg.GetCounter("pqsda.cache.misses_total");

  // Partial serve on a cold key: computed, served loudly, NOT stored.
  FaultInjector::Default().SetValue(faults::kShardShedShard,
                                    static_cast<int64_t>(probe.victim));
  const uint64_t hits0 = hits.Value();
  const uint64_t misses0 = misses.Value();
  SuggestStats stats;
  auto partial = engine->Suggest(probe.request, 5, &stats);
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(stats.partial_merge);
  EXPECT_EQ(misses.Value(), misses0 + 1);

  // Fault cleared: the same key must MISS (nothing was cached) and the
  // full merge then fills the cache for the third call.
  FaultInjector::Default().Reset();
  SuggestStats full;
  ASSERT_TRUE(engine->Suggest(probe.request, 5, &full).ok());
  EXPECT_FALSE(full.partial_merge);
  EXPECT_EQ(misses.Value(), misses0 + 2);
  EXPECT_EQ(hits.Value(), hits0);
  ASSERT_TRUE(engine->Suggest(probe.request, 5).ok());
  EXPECT_EQ(hits.Value(), hits0 + 1);
}

TEST_F(FaultInjectionTest, ShardAdmissionShedsAtPrimaryGateWithCleanStats) {
  PqsdaEngineConfig config;
  config.personalize = false;
  config.sharding.shards = 4;
  config.robustness.shed_queue_depth = 4;  // armed per shard
  auto built = PqsdaEngine::Build(FaultLog(), config);
  ASSERT_TRUE(built.ok());
  auto& engine = *built;

  const ShardRouter router{4};
  const SuggestionRequest request = FaultRequest("sun");
  const size_t primary = router.QueryShardOf(request.query);
  obs::Counter& shed_total = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.shard." + std::to_string(primary) + ".shed_total");
  const uint64_t shed0 = shed_total.Value();

  // Overload exactly the primary shard's scoped queue-depth point: the
  // request sheds at its gate; a query homed on any other shard still
  // serves.
  FaultInjector::Default().SetValue(
      "shard." + std::to_string(primary) + ".queue_depth", 100);
  SuggestStats stats = PoisonedStats();
  auto shed = engine->Suggest(request, 5, &stats);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(stats.shed);
  ExpectStatsReset(stats);
  EXPECT_EQ(shed_total.Value(), shed0 + 1);

  for (const char* q :
       {"sun java", "solar energy", "solar system", "uk news"}) {
    if (router.QueryShardOf(q) == primary) continue;
    EXPECT_TRUE(engine->Suggest(FaultRequest(q), 5).ok()) << q;
    break;
  }
}

// The p95 gate's live signal must be scoped to the controller's own
// latency window when one is wired — a per-shard gate reading process-wide
// latency would trip on every shard the moment one shard is slow.
TEST_F(FaultInjectionTest, AdmissionGatesOnItsOwnLatencyWindow) {
  obs::SlidingWindowHistogram slow;
  obs::SlidingWindowHistogram fast;
  for (int i = 0; i < 64; ++i) slow.Record(400'000.0);
  for (int i = 0; i < 64; ++i) fast.Record(1'000.0);

  AdmissionOptions options;
  options.max_p95_us = 50'000.0;
  options.latency = &slow;
  AdmissionController overloaded(options);
  EXPECT_EQ(overloaded.Admit().code(), StatusCode::kUnavailable);

  options.latency = &fast;
  AdmissionController healthy(options);
  EXPECT_TRUE(healthy.Admit().ok());
}

// Single-request serving executes on the calling thread and never enqueues
// on a lane, so the depth gate counts the wired in-flight counter on top of
// the pool's queue depth.
TEST_F(FaultInjectionTest, AdmissionCountsInflightRequestsInTheDepthGate) {
  ThreadPool pool(1);  // idle: queue depth 0
  std::atomic<uint64_t> inflight{0};
  AdmissionOptions options;
  options.max_queue_depth = 2;
  options.pool = &pool;
  options.inflight = &inflight;
  AdmissionController gate(options);

  EXPECT_TRUE(gate.Admit().ok());
  inflight.store(3, std::memory_order_relaxed);
  EXPECT_EQ(gate.Admit().code(), StatusCode::kUnavailable);
  inflight.store(2, std::memory_order_relaxed);  // at the limit, not over
  EXPECT_TRUE(gate.Admit().ok());
}

// Regression: a sharded shed_p95_us must scope each shard's live signal
// to that shard's own latency window. Poison the *global* serving-telemetry
// histogram with a storm of slow samples; every shard gate must keep
// admitting (the old behavior — reading the global percentile — shed every
// request on every shard, so one slow shard degraded the whole engine).
TEST_F(FaultInjectionTest, ShardP95GateReadsPerShardWindowNotGlobalLatency) {
  obs::ServingTelemetry& poisoned = obs::ServingTelemetry::Install({});
  for (int i = 0; i < 256; ++i) poisoned.latency().Record(5'000'000.0);

  PqsdaEngineConfig config = ShardedFaultConfig();
  config.robustness.shed_p95_us = 1'000'000.0;  // global window reads 5x this
  auto built = PqsdaEngine::Build(FaultLog(), config);
  ASSERT_TRUE(built.ok());

  SuggestStats stats = PoisonedStats();
  auto result = (*built)->Suggest(FaultRequest("sun"), 5, &stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(stats.shed);
  // Cross-shard fetches pass their gates too: no shard refused.
  EXPECT_FALSE(stats.partial_merge);

  // Leave a clean global surface for the rest of the suite.
  obs::ServingTelemetry::Install({});
}

// The real per-fetch deadline floor (no injector override): a request whose
// remaining budget has collapsed below fetch_budget_floor_us by the time
// the expansion first touches a non-primary shard gets that shard
// classified kShardDeadline — the fetch is refused and cold rows drop,
// loudly — while the request itself still completes: the budget has not
// expired, it is merely too thin to pay for remote reads.
TEST_F(FaultInjectionTest, BudgetCollapseMidRequestRefusesFetchesLoudly) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);

  PqsdaEngineConfig config = ShardedFaultConfig();
  // Budget rungs off: any remaining budget > 0 keeps the full pipeline, so
  // the degradation below is attributable to the fetch floor alone.
  config.robustness.truncated_below_us = 0;
  config.robustness.walk_only_below_us = 0;
  config.robustness.cache_only_below_us = 0;
  config.sharding.fetch_budget_floor_us = 2'000.0;
  auto built = PqsdaEngine::Build(FaultLog(), config);
  ASSERT_TRUE(built.ok());
  auto& engine = *built;
  const ShardedProbe probe = FindCrossShardProbe(*engine);

  obs::Counter& partial_total = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.sharded.partial_merges_total");
  const uint64_t partial0 = partial_total.Value();

  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(1 * kMs);  // 1ms remaining: under the 2ms floor
  SuggestionRequest request = probe.request;
  request.cancel = &token;
  SuggestStats stats;
  auto result = engine->Suggest(request, 5, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(stats.degradation_rung, 0u);
  EXPECT_TRUE(stats.partial_merge);
  size_t deadline_shards = 0;
  for (size_t s = 0; s < stats.shard_rungs.size(); ++s) {
    EXPECT_NE(stats.shard_rungs[s], SuggestStats::kShardDegraded)
        << "shard " << s;
    if (stats.shard_rungs[s] == SuggestStats::kShardDeadline) {
      ++deadline_shards;
    }
  }
  EXPECT_GT(deadline_shards, 0u);
  EXPECT_EQ(partial_total.Value(), partial0 + 1);

  // With a budget comfortably above the floor the same probe merges fully.
  CancelToken roomy(injector.ClockFn());
  roomy.SetDeadlineAfter(10 * kSec);
  request.cancel = &roomy;
  SuggestStats clean;
  ASSERT_TRUE(engine->Suggest(request, 5, &clean).ok());
  EXPECT_FALSE(clean.partial_merge);
}

}  // namespace
}  // namespace pqsda
