// Tests for the concurrent serving layer: the ThreadPool, the reusable
// solver/hitting-time workspaces, PqsdaEngine::SuggestBatch and the sharded
// CAR SuggestionCache — plus regression tests for the request-path crash and
// stats bugs. This file is also the concurrency suite run_benches.sh
// re-runs under ThreadSanitizer.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/pqsda_engine.h"
#include "log/sessionizer.h"
#include "obs/metrics.h"
#include "reference/hitting_time.h"
#include "reference/solvers.h"
#include "suggest/hitting_time_suggester.h"
#include "suggest/pqsda_diversifier.h"
#include "suggest/suggestion_cache.h"

namespace pqsda {
namespace {

// ------------------------------------------------------- ThreadPool ----

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1537);
  pool.ParallelFor(0, hits.size(), 1, [&hits](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(0, 1, 64, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), 16);
}

// A ParallelFor issued from inside a pool worker must complete (inline)
// rather than deadlock on a fully occupied pool.
TEST(ThreadPoolTest, NestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(0, 4, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(0, 100, 1, [&](size_t b, size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 400);
}

// ------------------------------------- JacobiSolveParallel workspace ----

CsrMatrix ServingTestSystem() {
  return CsrMatrix::FromTriplets(
      4, 4, {{0, 0, 5.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 5.0},
             {1, 2, -2.0}, {2, 1, -2.0}, {2, 2, 6.0}, {2, 3, -1.0},
             {3, 2, -1.0}, {3, 3, 4.0}});
}

TEST(ServingSolverTest, ParallelJacobiMatchesSerialAcrossThreadCounts) {
  auto a = ServingTestSystem();
  std::vector<double> b = {1.0, -2.0, 3.0, 0.5};
  std::vector<double> xs;
  auto rs = JacobiSolve(a, b, xs, SolverOptions{});
  ASSERT_TRUE(rs.converged);

  ThreadPool pool(3);
  SolverWorkspace workspace;  // reused across every thread count below
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{16}}) {
    std::vector<double> xp;
    auto rp = JacobiSolveParallel(a, b, xp, SolverOptions{}, threads, &pool,
                                  &workspace);
    EXPECT_TRUE(rp.converged) << "threads=" << threads;
    EXPECT_EQ(rs.iterations, rp.iterations) << "threads=" << threads;
    for (size_t i = 0; i < xs.size(); ++i) {
      EXPECT_DOUBLE_EQ(xs[i], xp[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ServingSolverTest, WorkspaceReuseAcrossDifferentSystems) {
  ThreadPool pool(2);
  SolverWorkspace workspace;
  auto a1 = ServingTestSystem();
  std::vector<double> b1 = {1.0, -2.0, 3.0, 0.5};
  std::vector<double> x1;
  JacobiSolveParallel(a1, b1, x1, SolverOptions{}, 0, &pool, &workspace);

  // A smaller system next: the workspace must shrink-to-fit correctly.
  auto a2 = CsrMatrix::FromTriplets(2, 2, {{0, 0, 2.0}, {1, 1, 4.0}});
  std::vector<double> b2 = {2.0, 8.0};
  std::vector<double> x2;
  auto r2 = JacobiSolveParallel(a2, b2, x2, SolverOptions{}, 0, &pool,
                                &workspace);
  EXPECT_TRUE(r2.converged);
  EXPECT_NEAR(x2[0], 1.0, 1e-9);
  EXPECT_NEAR(x2[1], 2.0, 1e-9);
}

// ----------------------------------------- hitting-time workspaces ----

TEST(ServingHittingTimeTest, ChainParallelWorkspaceMatchesSerial) {
  // A 5-node row-stochastic ring-ish chain.
  auto chain = CsrMatrix::FromTriplets(
      5, 5, {{0, 1, 0.5}, {0, 2, 0.5}, {1, 0, 1.0}, {2, 3, 0.7},
             {2, 0, 0.3}, {3, 4, 1.0}, {4, 2, 1.0}});
  std::vector<const CsrMatrix*> chains = {&chain};
  std::vector<double> weights = {1.0};

  auto serial = ChainHittingTime(chains, weights, {0}, 12);

  ThreadPool pool(3);
  HittingTimeWorkspace ws;
  for (int round = 0; round < 3; ++round) {  // workspace reuse across calls
    ChainHittingTimeInto(chains, weights, {0}, 12, &pool, ws);
    ASSERT_EQ(ws.h.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_DOUBLE_EQ(serial[i], ws.h[i]) << "round=" << round << " i=" << i;
    }
  }
}

// Regression (release-build OOB write): an out-of-range seed id must be
// skipped unconditionally, not filtered only by a compiled-out assert —
// in the served merged-chain sweep and in the reference sweep alike.
TEST(ServingHittingTimeTest, ChainOutOfRangeSeedIsSkipped) {
  auto chain = CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}});
  auto valid = ChainHittingTime({&chain}, {1.0}, {0}, 8);
  auto with_bad = ChainHittingTime({&chain}, {1.0}, {0, 999999}, 8);
  ASSERT_EQ(valid.size(), with_bad.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    EXPECT_DOUBLE_EQ(valid[i], with_bad[i]);
  }
  const MergedChain merged = BuildMergedChain({&chain}, {1.0});
  HittingTimeWorkspace ws;
  MergedChainHittingTimeInto(merged, {0, 999999}, 8, nullptr, ws);
  ASSERT_EQ(ws.h.size(), valid.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    EXPECT_DOUBLE_EQ(valid[i], ws.h[i]);
  }
}

TEST(ServingHittingTimeTest, BipartiteOutOfRangeSeedIsSkipped) {
  // 3 queries x 2 urls.
  auto q2u = CsrMatrix::FromTriplets(
      3, 2, {{0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}, {2, 1, 1.0}});
  auto u2q = q2u.Transpose();
  auto valid = BipartiteHittingTime(q2u, u2q, {0}, 8);
  auto with_bad = BipartiteHittingTime(q2u, u2q, {0, 77}, 8);
  ASSERT_EQ(valid.size(), with_bad.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    EXPECT_DOUBLE_EQ(valid[i], with_bad[i]);
  }
}

TEST(ServingHittingTimeTest, BipartiteParallelMatchesSerial) {
  auto q2u = CsrMatrix::FromTriplets(
      3, 2, {{0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}, {2, 1, 1.0}});
  auto u2q = q2u.Transpose();
  auto serial = BipartiteHittingTime(q2u, u2q, {0}, 10);
  ThreadPool pool(3);
  auto parallel = BipartiteHittingTime(q2u, u2q, {0}, 10, nullptr, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]);
  }
}

// --------------------------------------- diversifier regressions ----

// Regression (request-path crash): an input query the compact-budget walk
// failed to admit used to throw std::out_of_range via local_index.at().
TEST(ExcludedCandidatesTest, InputMissingFromRepresentationIsNotExcluded) {
  CompactRepresentation rep;
  rep.queries = {5, 7};
  rep.local_index = {{5, 0u}, {7, 1u}};
  std::vector<bool> excluded = ExcludedCandidates(rep, /*input=*/42, {7});
  EXPECT_FALSE(excluded[0]);
  EXPECT_TRUE(excluded[1]);
}

TEST(ExcludedCandidatesTest, UnknownInputSentinelExcludesNothing) {
  CompactRepresentation rep;
  rep.queries = {5};
  rep.local_index = {{5, 0u}};
  std::vector<bool> excluded = ExcludedCandidates(rep, kInvalidStringId, {});
  EXPECT_FALSE(excluded[0]);
}

// Regression (stale stats): the empty-candidate-pool early return used to
// skip suggestions_returned / hitting_rounds, leaving a reused SuggestStats
// reporting the previous request's values.
TEST(DiversifierStatsTest, EmptyCandidatePoolResetsStats) {
  // A log with a single distinct query: the input is the whole compact
  // representation and is excluded, so the candidate pool is empty.
  std::vector<QueryLogRecord> records = {
      {1, "solo", "www.a.com", 100},
      {2, "solo", "www.b.com", 200},
  };
  SortByUserAndTime(records);
  auto sessions = Sessionize(records, {});
  MultiBipartite mb =
      MultiBipartite::Build(records, sessions, EdgeWeighting::kRaw);
  PqsdaDiversifier diversifier(mb);

  SuggestionRequest request;
  request.query = "solo";
  request.timestamp = 300;

  SuggestStats stats;
  stats.hitting_rounds = 99;
  stats.candidates_scored = 99;
  stats.suggestions_returned = 99;
  auto out = diversifier.Diversify(request, 5, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->candidates.empty());
  EXPECT_EQ(stats.hitting_rounds, 0u);
  EXPECT_EQ(stats.candidates_scored, 0u);
  EXPECT_EQ(stats.suggestions_returned, 0u);
}

// ------------------------------------------------ engine serving ----

std::vector<QueryLogRecord> ServingLog() {
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

std::unique_ptr<PqsdaEngine> BuildServingEngine(size_t cache_capacity = 0) {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.cache_capacity = cache_capacity;
  auto built = PqsdaEngine::Build(ServingLog(), config);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

SuggestionRequest ServingRequest(const std::string& query,
                                 UserId user = kNoUser) {
  SuggestionRequest request;
  request.query = query;
  request.timestamp = 400;
  request.user = user;
  return request;
}

TEST(SuggestBatchTest, MatchesSequentialSuggestLoop) {
  auto engine = BuildServingEngine();
  std::vector<SuggestionRequest> requests = {
      ServingRequest("sun"),
      ServingRequest("sun", 1),
      ServingRequest("solar energy", 2),
      ServingRequest("zzzz qqqq"),  // no term overlap -> NotFound
      ServingRequest("sun daily uk", 6),
  };

  std::vector<StatusOr<std::vector<Suggestion>>> sequential;
  for (const auto& request : requests) {
    sequential.push_back(engine->Suggest(request, 5));
  }

  ThreadPool pool(4);
  auto batched = engine->SuggestBatch(requests, 5, &pool);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(sequential[i].ok(), batched[i].ok()) << "request " << i;
    if (sequential[i].ok()) {
      EXPECT_EQ(*sequential[i], *batched[i]) << "request " << i;
    } else {
      EXPECT_EQ(sequential[i].status().code(), batched[i].status().code());
    }
  }
}

TEST(SuggestBatchTest, SharedPoolDefaultWorks) {
  auto engine = BuildServingEngine();
  std::vector<SuggestionRequest> requests = {ServingRequest("sun"),
                                             ServingRequest("solar system")};
  auto batched = engine->SuggestBatch(requests, 3);
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_TRUE(batched[0].ok());
  EXPECT_TRUE(batched[1].ok());
}

// Regression (alert hygiene): a cold query must count as not_found, not as
// an internal error.
TEST(ServingMetricsTest, NotFoundDoesNotCountAsError) {
  auto engine = BuildServingEngine();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& errors = reg.GetCounter("pqsda.suggest.errors_total");
  obs::Counter& not_found = reg.GetCounter("pqsda.suggest.not_found_total");
  const uint64_t errors_before = errors.Value();
  const uint64_t not_found_before = not_found.Value();

  auto out = engine->Suggest(ServingRequest("zzzz qqqq"), 5);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(errors.Value(), errors_before);
  EXPECT_EQ(not_found.Value(), not_found_before + 1);
}

// --------------------------------------------------------- cache ----

TEST(SuggestionCacheTest, HitReturnsByteIdenticalSuggestions) {
  auto engine = BuildServingEngine(/*cache_capacity=*/64);
  obs::Counter& hits =
      obs::MetricsRegistry::Default().GetCounter("pqsda.cache.hits_total");
  const uint64_t hits_before = hits.Value();

  auto first = engine->Suggest(ServingRequest("sun", 1), 5);
  ASSERT_TRUE(first.ok());
  auto second = engine->Suggest(ServingRequest("sun", 1), 5);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(hits.Value(), hits_before + 1);
}

// Regression: a cache hit skips the pipeline, so a reused SuggestStats must
// not keep the previous request's trace/solver/selection numbers.
TEST(SuggestionCacheTest, HitResetsReusedStats) {
  auto engine = BuildServingEngine(/*cache_capacity=*/64);
  SuggestStats stats;

  auto first = engine->Suggest(ServingRequest("sun", 1), 5, &stats);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(stats.personalized);
  EXPECT_GT(stats.hitting_rounds, 0u);
  EXPECT_GT(stats.trace.TotalSpans(), 1u);

  auto second = engine->Suggest(ServingRequest("sun", 1), 5, &stats);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(stats.personalized);
  EXPECT_EQ(stats.hitting_rounds, 0u);
  EXPECT_EQ(stats.candidates_scored, 0u);
  EXPECT_EQ(stats.trace.TotalSpans(), 1u);  // empty root, no stage spans
  EXPECT_EQ(stats.total_us(), 0);
  EXPECT_EQ(stats.suggestions_returned, second->size());
}

TEST(SuggestionCacheTest, KeyDistinguishesQueryUserContextAndK) {
  SuggestionRequest base = ServingRequest("sun", 1);
  SuggestionRequest other_user = ServingRequest("sun", 2);
  SuggestionRequest with_context = ServingRequest("sun", 1);
  with_context.context = {{"solar system", 350}};

  EXPECT_NE(SuggestionCache::KeyOf(base, 5),
            SuggestionCache::KeyOf(other_user, 5));
  EXPECT_NE(SuggestionCache::KeyOf(base, 5),
            SuggestionCache::KeyOf(base, 10));
  EXPECT_NE(SuggestionCache::KeyOf(base, 5),
            SuggestionCache::KeyOf(with_context, 5));

  // Decay depends only on relative age: the same request shifted in time
  // shares an entry.
  SuggestionRequest shifted = with_context;
  shifted.timestamp += 1000;
  shifted.context[0].second += 1000;
  EXPECT_EQ(SuggestionCache::KeyOf(with_context, 5),
            SuggestionCache::KeyOf(shifted, 5));
}

// Regression: the key used to embed only a 64-bit hash of the context, so
// two colliding contexts shared one entry and a user could be served
// another session's suggestions. The hash now routes to a shard only;
// entries are stored and compared under the full serialized key. Force two
// distinct keys onto the same hash and check they never alias.
TEST(SuggestionCacheTest, HashCollisionDoesNotAliasEntries) {
  SuggestionCache cache;

  SuggestionCache::CacheKey first("session-one\x1f" "ctx-a");
  SuggestionCache::CacheKey second("session-two\x1f" "ctx-b");
  second.hash = first.hash;  // worst case: a full 64-bit collision

  cache.Insert(first, {{"alpha", 1.0}});
  cache.Insert(second, {{"beta", 2.0}});
  EXPECT_EQ(cache.size(), 2u);

  std::vector<Suggestion> out;
  ASSERT_TRUE(cache.Lookup(first, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, "alpha");
  ASSERT_TRUE(cache.Lookup(second, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, "beta");
}

// The serialization must keep distinct contexts distinct even when the
// pairs only differ in how the bytes split between query and offset.
TEST(SuggestionCacheTest, KeySeparatesContextQueryFromOffset) {
  SuggestionRequest a = ServingRequest("sun", 1);
  a.context = {{"solar1", 300}};
  SuggestionRequest b = ServingRequest("sun", 1);
  b.context = {{"solar", 1300}};
  EXPECT_NE(SuggestionCache::KeyOf(a, 5), SuggestionCache::KeyOf(b, 5));

  // Two single-entry contexts vs one two-entry context with the same bytes.
  SuggestionRequest c = ServingRequest("sun", 1);
  c.context = {{"x", 300}, {"y", 300}};
  SuggestionRequest d = ServingRequest("sun", 1);
  d.context = {{"x", 300}};
  EXPECT_NE(SuggestionCache::KeyOf(c, 5), SuggestionCache::KeyOf(d, 5));
}

TEST(SuggestionCacheTest, EvictsUnreferencedAndKeepsHitEntry) {
  SuggestionCacheOptions options;
  options.capacity = 2;
  options.shards = 1;
  SuggestionCache cache(options);
  obs::Counter& evictions = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.cache.evictions_total");
  const uint64_t evictions_before = evictions.Value();

  cache.Insert("a", {{"a1", 1.0}});
  cache.Insert("b", {{"b1", 1.0}});
  ASSERT_TRUE(cache.Lookup("a", nullptr));  // "a" referenced; "b" is not
  cache.Insert("c", {{"c1", 1.0}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(evictions.Value(), evictions_before + 1);
  EXPECT_TRUE(cache.Lookup("a", nullptr));
  EXPECT_FALSE(cache.Lookup("b", nullptr));
  EXPECT_TRUE(cache.Lookup("c", nullptr));
}

TEST(SuggestionCacheTest, ConcurrentMixedAccessIsSafe) {
  SuggestionCacheOptions options;
  options.capacity = 32;
  options.shards = 4;
  SuggestionCache cache(options);
  ThreadPool pool(4);
  pool.ParallelFor(0, 512, 1, [&cache](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      std::string key = "k" + std::to_string(i % 48);
      if (i % 3 == 0) {
        cache.Insert(key, {{key, static_cast<double>(i)}});
      } else {
        std::vector<Suggestion> out;
        cache.Lookup(key, &out);
      }
    }
  });
  EXPECT_LE(cache.size(), 32u);
}

// Concurrent batched serving against one engine — the TSAN audit of the
// whole read path (expansion, solve, selection, personalization, cache).
TEST(SuggestBatchTest, ConcurrentBatchesShareOneEngineSafely) {
  auto engine = BuildServingEngine(/*cache_capacity=*/16);
  std::vector<SuggestionRequest> requests;
  const char* queries[] = {"sun", "solar system", "sun java",
                           "uk news", "solar energy"};
  for (int i = 0; i < 20; ++i) {
    requests.push_back(ServingRequest(queries[i % 5], (i % 3 == 0) ? 1 : kNoUser));
  }
  ThreadPool pool(4);
  auto first = engine->SuggestBatch(requests, 5, &pool);
  auto second = engine->SuggestBatch(requests, 5, &pool);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].ok(), second[i].ok());
    if (first[i].ok()) {
      EXPECT_EQ(*first[i], *second[i]);
    }
  }
}

}  // namespace
}  // namespace pqsda
