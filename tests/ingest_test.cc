// The live-ingestion correctness harness: proves the incremental path
// (ingest deltas → off-path rebuild → snapshot swap) is indistinguishable
// from a one-shot batch build, and that snapshot lifetimes hold up under
// concurrent swap/reclaim. Four clusters:
//
//  1. StreamSessionizer == batch Sessionize on sorted streams, including the
//     exact max_gap_seconds boundary, the lexical-overlap extension window,
//     and the flush-on-swap tail semantics.
//  2. The headline equivalence property: ingesting a log in arbitrary chunk
//     splits then swapping serves *bitwise-identical* suggestion lists
//     (queries, scores, order) to an engine built once on the concatenated
//     log — across kRaw/kCfIqf weightings, serving thread counts, and with
//     personalization on.
//  3. Cache/backpressure/scheduling semantics: generation-keyed cache
//     invalidation, all-or-nothing delta-buffer backpressure, and the
//     rebuild threshold.
//  4. A snapshot-lifetime stress: readers keep serving out of generation g
//     while a writer swaps in g+1, g+2, ... and old generations are
//     reclaimed. Every response must be consistent with exactly one
//     generation that was plausibly current during the request. This file is
//     part of the TSAN/ASan suites run_benches.sh re-runs.

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/index_manager.h"
#include "core/pqsda_engine.h"
#include "log/sessionizer.h"
#include "log/stream_sessionizer.h"
#include "obs/metrics.h"
#include "synthetic/generator.h"

namespace pqsda {
namespace {

// ----------------------------------------------- stream sessionizer ----

std::vector<QueryLogRecord> SessionizerLog() {
  // Per user: in-gap extensions, a boundary-exact gap, a lexical-overlap
  // reformulation past the gap, and clean splits.
  std::vector<QueryLogRecord> records = {
      {1, "sun", "a.com", 1000},
      {1, "sun java", "b.com", 1000 + 100},
      {1, "java download", "c.com", 1000 + 100 + 30 * 60},  // exact boundary
      {1, "totally new need", "d.com", 50'000},
      {2, "solar system", "e.com", 2000},
      // Past max_gap but within extended_gap and sharing "solar".
      {2, "solar energy", "f.com", 2000 + 31 * 60},
      // Past extended_gap even with overlap: must split.
      {2, "solar panels", "g.com", 2000 + 31 * 60 + 61 * 60},
      {3, "uk news", "h.com", 3000},
      // Past max_gap, inside extended window, but no shared term: split.
      {3, "weather", "i.com", 3000 + 31 * 60},
  };
  SortByUserAndTime(records);
  return records;
}

void ExpectSameSessions(const std::vector<Session>& batch,
                        const std::vector<Session>& stream) {
  ASSERT_EQ(batch.size(), stream.size());
  for (size_t s = 0; s < batch.size(); ++s) {
    EXPECT_EQ(batch[s].id, stream[s].id) << "session " << s;
    EXPECT_EQ(batch[s].user_id, stream[s].user_id) << "session " << s;
    EXPECT_EQ(batch[s].record_indices, stream[s].record_indices)
        << "session " << s;
  }
}

TEST(StreamSessionizerTest, MatchesBatchOnSortedLogWithBoundaryCases) {
  const auto records = SessionizerLog();
  SessionizerOptions options;
  const auto batch = Sessionize(records, options);

  StreamSessionizer stream(options);
  for (size_t i = 0; i < records.size(); ++i) stream.Push(records[i], i);
  ExpectSameSessions(batch, stream.Sessions());

  // Sanity-pin the boundary semantics themselves (not just stream==batch):
  // user 1's exact-gap record extends, user 2's overlap reformulation
  // extends, user 3's no-overlap gap splits.
  EXPECT_EQ(batch[0].record_indices.size(), 3u);  // user 1 first session
  EXPECT_EQ(batch[2].record_indices.size(), 2u);  // user 2 overlap extension
  EXPECT_EQ(batch[4].record_indices.size(), 1u);  // user 3 split
}

TEST(StreamSessionizerTest, MatchesBatchWithLexicalOverlapDisabled) {
  const auto records = SessionizerLog();
  SessionizerOptions options;
  options.use_lexical_overlap = false;
  const auto batch = Sessionize(records, options);
  StreamSessionizer stream(options);
  for (size_t i = 0; i < records.size(); ++i) stream.Push(records[i], i);
  ExpectSameSessions(batch, stream.Sessions());
  // Without the extension rule, user 2's reformulation now splits.
  EXPECT_GT(batch.size(), Sessionize(records, SessionizerOptions{}).size());
}

TEST(StreamSessionizerTest, InterleavedStreamKeepsEveryUsersTailOpen) {
  // Live arrival order interleaves users; the per-user keying must keep both
  // tails open where the back()-only batch scan would split user 1.
  StreamSessionizer stream;
  stream.Push({1, "sun", "a.com", 100}, 0);
  stream.Push({2, "solar system", "b.com", 110}, 1);
  stream.Push({1, "sun java", "c.com", 120}, 2);
  stream.Push({2, "solar energy", "d.com", 130}, 3);
  EXPECT_EQ(stream.num_sessions(), 2u);
  EXPECT_EQ(stream.open_tails(), 2u);
  EXPECT_EQ(stream.Sessions()[0].record_indices,
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(stream.Sessions()[1].record_indices,
            (std::vector<size_t>{1, 3}));
}

TEST(StreamSessionizerTest, FlushOnSwapClosesTailsWithoutLosingSessions) {
  StreamSessionizer stream;
  stream.Push({1, "sun", "a.com", 100}, 0);
  stream.Push({1, "sun java", "b.com", 150}, 1);
  auto tail = stream.TailContext(1);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].first, "sun");
  EXPECT_EQ(tail[1].first, "sun java");

  stream.FlushAll();  // the swap hook
  EXPECT_EQ(stream.open_tails(), 0u);
  EXPECT_TRUE(stream.TailContext(1).empty());
  EXPECT_EQ(stream.num_sessions(), 1u);  // the session itself survives

  // The user's next record — however close in time — opens a fresh session:
  // its predecessors live in the immutable index now.
  stream.Push({1, "java download", "c.com", 160}, 2);
  EXPECT_EQ(stream.num_sessions(), 2u);
  EXPECT_EQ(stream.TailContext(1).size(), 1u);
}

TEST(StreamSessionizerTest, FlushUserClosesOnlyThatTail) {
  StreamSessionizer stream;
  stream.Push({1, "sun", "a.com", 100}, 0);
  stream.Push({2, "uk news", "b.com", 100}, 1);
  stream.FlushUser(1);
  EXPECT_TRUE(stream.TailContext(1).empty());
  EXPECT_EQ(stream.TailContext(2).size(), 1u);
  EXPECT_EQ(stream.open_tails(), 1u);
  stream.FlushUser(7);  // no tail: no-op
  EXPECT_EQ(stream.open_tails(), 1u);
}

TEST(StreamSessionizerTest, MatchesBatchOnSyntheticLog) {
  GeneratorConfig config;
  config.num_users = 25;
  config.seed = 11;
  auto data = GenerateLog(config);
  SortByUserAndTime(data.records);
  SessionizerOptions options;
  const auto batch = Sessionize(data.records, options);
  StreamSessionizer stream(options);
  for (size_t i = 0; i < data.records.size(); ++i) {
    stream.Push(data.records[i], i);
  }
  ExpectSameSessions(batch, stream.Sessions());
}

// --------------------------------- incremental-vs-batch equivalence ----

// A small but structured log: enough co-session/co-click signal for the
// walk + solve + selection pipeline to produce multi-entry lists.
std::vector<QueryLogRecord> EquivalenceLog() {
  GeneratorConfig config;
  config.num_users = 20;
  config.sessions_per_user_min = 6;
  config.sessions_per_user_max = 12;
  config.seed = 23;
  return GenerateLog(config).records;
}

PqsdaEngineConfig EquivalenceConfig(EdgeWeighting weighting,
                                    bool personalize) {
  PqsdaEngineConfig config;
  config.weighting = weighting;
  config.personalize = personalize;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 8;
  config.upm.hyper_rounds = 1;
  return config;
}

// Fixed probe requests drawn from the log (plus one personalized form each).
std::vector<SuggestionRequest> ProbeRequests(
    const std::vector<QueryLogRecord>& records) {
  std::vector<SuggestionRequest> requests;
  std::vector<std::string> seen;
  int64_t max_ts = 0;
  for (const auto& r : records) max_ts = std::max(max_ts, r.timestamp);
  for (const auto& r : records) {
    if (std::find(seen.begin(), seen.end(), r.query) != seen.end()) continue;
    seen.push_back(r.query);
    SuggestionRequest request;
    request.query = r.query;
    request.timestamp = max_ts + 100;
    requests.push_back(request);
    SuggestionRequest personalized = request;
    personalized.user = r.user_id;
    requests.push_back(std::move(personalized));
    if (requests.size() >= 12) break;
  }
  return requests;
}

// Serves every probe and returns the outcomes; NotFound is recorded as an
// empty list (it must then be NotFound on the other engine too).
std::vector<std::vector<Suggestion>> ServeProbes(
    const PqsdaEngine& engine, const std::vector<SuggestionRequest>& probes,
    ThreadPool* pool = nullptr) {
  std::vector<std::vector<Suggestion>> lists;
  auto results = engine.SuggestBatch(probes, 10, pool);
  for (auto& result : results) {
    if (result.ok()) {
      lists.push_back(std::move(result).value());
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
          << result.status().ToString();
      lists.emplace_back();
    }
  }
  return lists;
}

// Bitwise equality: query strings, double scores (no tolerance), order.
void ExpectIdenticalLists(const std::vector<std::vector<Suggestion>>& a,
                          const std::vector<std::vector<Suggestion>>& b,
                          const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << label << " probe " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].query, b[i][j].query)
          << label << " probe " << i << " rank " << j;
      // EXPECT_EQ on doubles is exact — bitwise, not within-epsilon.
      EXPECT_EQ(a[i][j].score, b[i][j].score)
          << label << " probe " << i << " rank " << j;
    }
  }
}

// Splits `tail` into chunks at positions drawn from `rng`.
std::vector<std::vector<QueryLogRecord>> RandomChunks(
    std::vector<QueryLogRecord> tail, std::mt19937& rng) {
  std::vector<std::vector<QueryLogRecord>> chunks;
  size_t pos = 0;
  while (pos < tail.size()) {
    std::uniform_int_distribution<size_t> dist(1, tail.size() - pos);
    const size_t n = dist(rng);
    chunks.emplace_back(tail.begin() + pos, tail.begin() + pos + n);
    pos += n;
  }
  return chunks;
}

// The property itself, parameterized over weighting / personalization /
// split seed: build on a prefix, ingest the rest chunk by chunk with a swap
// per chunk, and the final generation must serve bit-for-bit what a one-shot
// build over the whole log serves.
void RunEquivalenceProperty(EdgeWeighting weighting, bool personalize,
                            uint32_t split_seed) {
  const auto all_records = EquivalenceLog();
  const auto config = EquivalenceConfig(weighting, personalize);
  auto batch_engine = PqsdaEngine::Build(all_records, config);
  ASSERT_TRUE(batch_engine.ok()) << batch_engine.status().ToString();
  const auto probes = ProbeRequests(all_records);
  const auto expected = ServeProbes(**batch_engine, probes);

  const size_t prefix = all_records.size() / 2;
  std::vector<QueryLogRecord> base(all_records.begin(),
                                   all_records.begin() + prefix);
  std::vector<QueryLogRecord> tail(all_records.begin() + prefix,
                                   all_records.end());
  auto live_engine = PqsdaEngine::Build(std::move(base), config);
  ASSERT_TRUE(live_engine.ok()) << live_engine.status().ToString();

  std::mt19937 rng(split_seed);
  IndexManager& index = (*live_engine)->index_manager();
  uint64_t generation = 0;
  for (auto& chunk : RandomChunks(std::move(tail), rng)) {
    ASSERT_TRUE(index.IngestBatch(std::move(chunk)).ok());
    ASSERT_TRUE(index.RebuildNow().ok());
    index.WaitForRebuilds();  // drain any threshold-scheduled async pass
    ASSERT_TRUE(index.RebuildNow().ok());
    EXPECT_GT(index.generation(), generation);
    generation = index.generation();
    EXPECT_EQ(index.delta_depth(), 0u);
  }
  ASSERT_EQ((*live_engine)->records().size(), all_records.size());

  const std::string label =
      std::string(weighting == EdgeWeighting::kCfIqf ? "cfiqf" : "raw") +
      (personalize ? "+upm" : "") + " seed=" + std::to_string(split_seed);
  ExpectIdenticalLists(expected, ServeProbes(**live_engine, probes), label);

  // The equivalence must be independent of serving parallelism too.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    ExpectIdenticalLists(expected, ServeProbes(**live_engine, probes, &pool),
                         label + " threads=" + std::to_string(threads));
  }
}

TEST(IngestEquivalenceTest, ChunkedIngestMatchesBatchCfIqf) {
  RunEquivalenceProperty(EdgeWeighting::kCfIqf, /*personalize=*/false, 101);
}

TEST(IngestEquivalenceTest, ChunkedIngestMatchesBatchRaw) {
  RunEquivalenceProperty(EdgeWeighting::kRaw, /*personalize=*/false, 202);
}

TEST(IngestEquivalenceTest, ChunkedIngestMatchesBatchAcrossSplits) {
  for (uint32_t seed : {7u, 19u}) {
    RunEquivalenceProperty(EdgeWeighting::kCfIqf, /*personalize=*/false,
                           seed);
  }
}

TEST(IngestEquivalenceTest, ChunkedIngestMatchesBatchWithPersonalization) {
  // The UPM is retrained from scratch each rebuild with a fixed seed, so the
  // personalized rerank is part of the bitwise contract too.
  RunEquivalenceProperty(EdgeWeighting::kCfIqf, /*personalize=*/true, 303);
}

TEST(IngestEquivalenceTest, OneByOneIngestReachesThresholdAndMatches) {
  // Drive the *threshold* path (async scheduling) instead of RebuildNow:
  // every rebuild_min_records-th record triggers an off-path rebuild.
  const auto all_records = EquivalenceLog();
  auto config = EquivalenceConfig(EdgeWeighting::kCfIqf, false);
  config.ingest.rebuild_min_records = 32;
  auto batch_engine = PqsdaEngine::Build(all_records, config);
  ASSERT_TRUE(batch_engine.ok());
  const auto probes = ProbeRequests(all_records);
  const auto expected = ServeProbes(**batch_engine, probes);

  const size_t prefix = all_records.size() - 150;
  auto live_engine = PqsdaEngine::Build(
      std::vector<QueryLogRecord>(all_records.begin(),
                                  all_records.begin() + prefix),
      config);
  ASSERT_TRUE(live_engine.ok());
  for (size_t i = prefix; i < all_records.size(); ++i) {
    ASSERT_TRUE((*live_engine)->Ingest(all_records[i]).ok());
  }
  IndexManager& index = (*live_engine)->index_manager();
  index.WaitForRebuilds();
  ASSERT_TRUE(index.RebuildNow().ok());  // absorb the sub-threshold remainder
  // Coalescing: crossings that happen while a rebuild runs are absorbed by
  // its follow-up drain pass, so the rebuild count is >= 1 but typically far
  // below the 150/32 threshold crossings.
  EXPECT_GE(index.rebuilds_total(), 1u);
  ExpectIdenticalLists(expected, ServeProbes(**live_engine, probes),
                       "one-by-one threshold path");
}

// ------------------------------ cache, backpressure, scheduling ----

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

SuggestionRequest ProbeRequest(const std::string& query) {
  SuggestionRequest request;
  request.query = query;
  request.timestamp = 400;
  return request;
}

TEST(IngestCacheTest, SwapTurnsPreSwapHitIntoPostSwapMiss) {
  PqsdaEngineConfig config;
  config.personalize = false;
  config.cache_capacity = 64;
  auto engine = PqsdaEngine::Build(ServingLog(), config);
  ASSERT_TRUE(engine.ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& hits = reg.GetCounter("pqsda.cache.hits_total");
  obs::Counter& misses = reg.GetCounter("pqsda.cache.misses_total");

  const auto request = ProbeRequest("sun");
  const uint64_t hits0 = hits.Value();
  const uint64_t misses0 = misses.Value();

  auto first = (*engine)->Suggest(request, 5);  // miss, fills gen-0 entry
  ASSERT_TRUE(first.ok());
  auto second = (*engine)->Suggest(request, 5);  // hit on the gen-0 entry
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(hits.Value(), hits0 + 1);
  EXPECT_EQ(misses.Value(), misses0 + 1);
  EXPECT_EQ(*first, *second);

  // Ingest fresh signal and swap: the same request must now MISS (the delta
  // changed components the gen-0 entry read, so it grades stale) and
  // recompute against the new index — no explicit cache flush anywhere.
  IndexManager& index = (*engine)->index_manager();
  ASSERT_TRUE(index
                  .IngestBatch({{7, "sun", "www.nasa.gov", 500},
                                {7, "sun spots", "www.nasa.gov", 520},
                                {8, "sun spots", "www.nasa.gov", 510}})
                  .ok());
  ASSERT_TRUE(index.RebuildNow().ok());
  EXPECT_EQ((*engine)->generation(), 1u);

  auto third = (*engine)->Suggest(request, 5);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(hits.Value(), hits0 + 1);     // no stale hit
  EXPECT_EQ(misses.Value(), misses0 + 2);  // recomputed
  // And the recomputed list is cached against the new generation.
  auto fourth = (*engine)->Suggest(request, 5);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(hits.Value(), hits0 + 2);
  EXPECT_EQ(*third, *fourth);
}

TEST(IngestBackpressureTest, OverfullBatchRejectedWholeAndRetryable) {
  PqsdaEngineConfig config;
  config.personalize = false;
  config.ingest.max_delta_records = 4;
  config.ingest.rebuild_min_records = 100;  // never auto-schedule
  auto built = BuildIndexSnapshot(ServingLog(), config, 0);
  ASSERT_TRUE(built.ok());
  IndexManager index(std::move(built).value(), config);

  obs::Counter& dropped =
      obs::MetricsRegistry::Default().GetCounter("pqsda.ingest.dropped_total");
  const uint64_t dropped0 = dropped.Value();

  std::vector<QueryLogRecord> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back({9, "q" + std::to_string(i), "x.com", 1000 + i});
  }
  // 5 > 4: rejected whole — not truncated to the 4 that would fit.
  Status status = index.IngestBatch(batch);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(index.delta_depth(), 0u);
  EXPECT_EQ(dropped.Value(), dropped0 + 5);

  batch.pop_back();
  ASSERT_TRUE(index.IngestBatch(batch).ok());  // 4 fits exactly
  EXPECT_EQ(index.delta_depth(), 4u);
  EXPECT_EQ(index.Ingest({9, "one more", "x.com", 2000}).code(),
            StatusCode::kUnavailable);

  // A rebuild drains the buffer; the rejected work is retryable verbatim.
  ASSERT_TRUE(index.RebuildNow().ok());
  EXPECT_EQ(index.delta_depth(), 0u);
  EXPECT_TRUE(index.Ingest({9, "one more", "x.com", 2000}).ok());
  EXPECT_EQ(index.ingested_total(), 5u);
}

TEST(IngestSchedulingTest, BelowThresholdBuffersAboveThresholdRebuilds) {
  ThreadPool rebuild_pool(2);
  PqsdaEngineConfig config;
  config.personalize = false;
  config.ingest.rebuild_min_records = 3;
  config.ingest.rebuild_pool = &rebuild_pool;
  auto built = BuildIndexSnapshot(ServingLog(), config, 0);
  ASSERT_TRUE(built.ok());
  IndexManager index(std::move(built).value(), config);

  ASSERT_TRUE(index.Ingest({9, "qa", "x.com", 1000}).ok());
  ASSERT_TRUE(index.Ingest({9, "qb", "x.com", 1010}).ok());
  index.WaitForRebuilds();
  EXPECT_EQ(index.rebuilds_total(), 0u);  // below threshold: buffered only
  EXPECT_EQ(index.generation(), 0u);
  EXPECT_EQ(index.delta_depth(), 2u);

  ASSERT_TRUE(index.Ingest({9, "qc", "x.com", 1020}).ok());  // hits 3
  index.WaitForRebuilds();
  EXPECT_GE(index.rebuilds_total(), 1u);
  EXPECT_GE(index.generation(), 1u);
  EXPECT_EQ(index.delta_depth(), 0u);
  EXPECT_EQ(index.Acquire()->records.size(), ServingLog().size() + 3);

  // RebuildNow on an empty buffer is an OK no-op that swaps nothing.
  const uint64_t generation = index.generation();
  ASSERT_TRUE(index.RebuildNow().ok());
  EXPECT_EQ(index.generation(), generation);
}

// ---------------------------------------- snapshot lifetime stress ----

// Readers keep serving while a writer swaps generations in and old ones are
// reclaimed. Each response must be bitwise-identical to the precomputed
// expected list of SOME generation that was plausibly current during the
// request ([generation observed before, generation observed after]) — i.e.
// every request is served by exactly one coherent snapshot, never a torn
// mix, and never freed memory (the TSAN/ASan suites re-run this test).
TEST(IngestLifetimeStressTest, InFlightRequestsPinTheirGeneration) {
  const auto all_records = EquivalenceLog();
  PqsdaEngineConfig config;
  config.personalize = false;
  config.cache_capacity = 0;  // every request walks the full pipeline

  constexpr size_t kGenerations = 4;
  const size_t prefix = all_records.size() - 160;
  const size_t chunk_size = 160 / kGenerations;

  // Expected list per generation, from independent one-shot builds.
  const auto probe = ProbeRequests(all_records)[0];
  std::vector<std::vector<Suggestion>> expected;
  for (size_t g = 0; g <= kGenerations; ++g) {
    std::vector<QueryLogRecord> slice(
        all_records.begin(),
        all_records.begin() + prefix + g * chunk_size);
    auto engine = PqsdaEngine::Build(std::move(slice), config);
    ASSERT_TRUE(engine.ok());
    auto suggestions = (*engine)->Suggest(probe, 10);
    ASSERT_TRUE(suggestions.ok()) << suggestions.status().ToString();
    expected.push_back(std::move(suggestions).value());
  }

  auto live = PqsdaEngine::Build(
      std::vector<QueryLogRecord>(all_records.begin(),
                                  all_records.begin() + prefix),
      config);
  ASSERT_TRUE(live.ok());
  PqsdaEngine& engine = **live;

  std::atomic<bool> done{false};
  std::atomic<size_t> mismatches{0};
  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t gen_before = engine.generation();
      auto suggestions = engine.Suggest(probe, 10);
      const uint64_t gen_after = engine.generation();
      if (!suggestions.ok()) {
        mismatches.fetch_add(1);
        continue;
      }
      bool matched = false;
      for (uint64_t g = gen_before; g <= gen_after && g < expected.size();
           ++g) {
        if (*suggestions == expected[g]) {
          matched = true;
          break;
        }
      }
      if (!matched) mismatches.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) readers.emplace_back(reader);

  // Writer: ingest + synchronous swap per generation. Acquire() before and
  // after proves old generations are actually reclaimed (use-after-free
  // would be caught by the sanitizer suites, torn reads by the matching).
  IndexManager& index = engine.index_manager();
  for (size_t g = 0; g < kGenerations; ++g) {
    std::vector<QueryLogRecord> chunk(
        all_records.begin() + prefix + g * chunk_size,
        all_records.begin() + prefix + (g + 1) * chunk_size);
    ASSERT_TRUE(index.IngestBatch(std::move(chunk)).ok());
    ASSERT_TRUE(index.RebuildNow().ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(engine.generation(), kGenerations);
  EXPECT_EQ(engine.records().size(), all_records.size());
  // The final generation serves the batch-identical list.
  auto final_list = engine.Suggest(probe, 10);
  ASSERT_TRUE(final_list.ok());
  EXPECT_EQ(*final_list, expected[kGenerations]);
}

}  // namespace
}  // namespace pqsda
