// The shard-count-invariance differential harness for the scatter-gather
// serving path: a sharded PqsdaEngine must serve *bitwise-identical*
// suggestion lists (queries, double scores, order — checked both
// element-wise and via Fingerprint64) to the unsharded one, for every shard
// count, with and without personalization, under concurrent serving
// threads, and under rebuild churn. Clusters:
//
//  1. Routing/partition units: query-hash routing is deterministic and
//     in-range; ownership covers every query exactly once; hot-row
//     replication honors its threshold; per-shard content fingerprints are
//     id-renumbering-proof and move only for shards whose slice changed.
//  2. The headline differential property: shards=N == unsharded
//     for N in {1,2,4,8}, personalization on and off, including NotFound
//     probes and term-match-seeded unknown queries, sequentially and from
//     concurrent threads (this file is part of the TSAN/ASan suites
//     run_benches.sh re-runs).
//  3. Merge-correctness units: the ShardedWalkBackend gather pinned against
//     the scalar (null-backend) reference on adversarial inputs — every
//     possible primary (duplicates across shards, empty per-shard pools),
//     all rows remote, score ties at the merge boundary whose admission
//     order is decided purely by accumulation order, and a degraded shard
//     dropping exactly its cold rows (pinned against a censoring reference
//     backend).
//  4. Rebuild churn: equivalence after chunked ingest, and a
//     serve-during-churn stress where every response must match exactly one
//     published generation.
//  5. The cache regression: validation vectors make a single-shard swap
//     invalidate only entries that touched that shard.
//  6. The one request path: sharded ingest feeds the live tail context and
//     the ingest metrics, a failed sharded rebuild is counted, and a
//     sharded request explains itself and replays bitwise from the request
//     log.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/index_manager.h"
#include "core/pqsda_engine.h"
#include "core/sharded_engine.h"
#include "graph/compact_builder.h"
#include "graph/shard_partition.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/telemetry.h"
#include "synthetic/generator.h"

namespace pqsda {
namespace {

// ------------------------------------------------------- shared rig ----

// Same structured synthetic log the ingest equivalence suite uses: enough
// co-session/co-click signal for multi-entry lists.
std::vector<QueryLogRecord> ShardLog() {
  GeneratorConfig config;
  config.num_users = 20;
  config.sessions_per_user_min = 6;
  config.sessions_per_user_max = 12;
  config.seed = 23;
  return GenerateLog(config).records;
}

PqsdaEngineConfig ShardConfig(bool personalize) {
  PqsdaEngineConfig config;
  config.personalize = personalize;
  config.cache_capacity = 0;  // every request walks the full pipeline
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 8;
  config.upm.hyper_rounds = 1;
  return config;
}

// The engine under `config`, served scatter-gather over `shards` shards.
std::unique_ptr<PqsdaEngine> BuildSharded(
    const std::vector<QueryLogRecord>& records, PqsdaEngineConfig config,
    size_t shards, size_t hot_row_min_degree = 48) {
  config.sharding.shards = shards;
  config.sharding.hot_row_min_degree = hot_row_min_degree;
  auto built = PqsdaEngine::Build(records, config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? std::move(built).value() : nullptr;
}

// Fixed probes drawn from the log (plus one personalized form each), then
// the adversarial extras: a query no engine knows (must be NotFound on
// both sides) and an unknown query sharing a term with the corpus (the
// term-match seeding path, which expands from cross-shard seeds).
std::vector<SuggestionRequest> ShardProbes(
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
  SuggestionRequest unknown;
  unknown.query = "zz unknown zz probe";
  unknown.timestamp = max_ts + 100;
  requests.push_back(unknown);
  SuggestionRequest term_match;
  // First token of a known query + an unknown one: seeds via the term rows.
  term_match.query =
      records.front().query.substr(0, records.front().query.find(' ')) +
      " zzunknownzz";
  term_match.timestamp = max_ts + 100;
  requests.push_back(std::move(term_match));
  return requests;
}

uint64_t FingerprintOfList(const std::vector<Suggestion>& list) {
  obs::Fingerprint64 fp;
  for (const auto& s : list) {
    fp.Mix(s.query);
    fp.MixDouble(s.score);
  }
  return fp.value();
}

// NotFound is recorded as an empty list (it must then be NotFound on the
// other engine too — any other status fails the probe).
template <typename Engine>
std::vector<std::vector<Suggestion>> ServeProbes(
    const Engine& engine, const std::vector<SuggestionRequest>& probes) {
  std::vector<std::vector<Suggestion>> lists;
  for (const auto& probe : probes) {
    auto result = engine.Suggest(probe, 10);
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

// Bitwise equality: query strings, double scores (no tolerance), order —
// and the Fingerprint64 the request log would record.
void ExpectIdenticalLists(const std::vector<std::vector<Suggestion>>& a,
                          const std::vector<std::vector<Suggestion>>& b,
                          const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << label << " probe " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].query, b[i][j].query)
          << label << " probe " << i << " rank " << j;
      EXPECT_EQ(a[i][j].score, b[i][j].score)
          << label << " probe " << i << " rank " << j;
    }
    EXPECT_EQ(FingerprintOfList(a[i]), FingerprintOfList(b[i]))
        << label << " probe " << i;
  }
}

// Finds a query string the router places on `shard` (the tests craft
// corpora with known shard geometry this way — hashes are opaque but
// queryable).
std::string QueryOnShard(const ShardRouter& router, size_t shard,
                         const std::string& stem) {
  for (int i = 0;; ++i) {
    std::string q = stem + std::to_string(i);
    if (router.QueryShardOf(q) == shard) return q;
  }
}

// Resets the process-wide injector around every test: the rebuild-failure
// experiment arms a value override that must never leak between tests.
class ShardingTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Default().Reset(); }
  void TearDown() override { FaultInjector::Default().Reset(); }
};

// ------------------------------------------- routing / partitioning ----

TEST_F(ShardingTest, RouterIsDeterministicAndInRange) {
  ShardRouter router{4};
  std::vector<size_t> hits(4, 0);
  for (int i = 0; i < 64; ++i) {
    const std::string q = "probe query " + std::to_string(i);
    const size_t s = router.QueryShardOf(q);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, router.QueryShardOf(q));  // stable
    ++hits[s];
    ASSERT_LT(router.UserShardOf(static_cast<UserId>(i)), 4u);
  }
  // Not degenerate: 64 distinct strings must spread over >1 shard.
  EXPECT_GT(std::count_if(hits.begin(), hits.end(),
                          [](size_t h) { return h > 0; }),
            1);
  // N=1 routes everything to shard 0 (the differential bridge case).
  ShardRouter single{1};
  EXPECT_EQ(single.QueryShardOf("anything"), 0u);
  EXPECT_EQ(single.UserShardOf(7), 0u);
}

TEST_F(ShardingTest, PartitionOwnershipCoversEveryQueryExactlyOnce) {
  auto snap = BuildIndexSnapshot(ShardLog(), ShardConfig(false), 0);
  ASSERT_TRUE(snap.ok());
  const MultiBipartite& mb = *(*snap)->mb;

  ShardPartitionOptions options;
  options.shards = 4;
  options.hot_row_min_degree = 0;  // strict ownership
  const ShardPartition part = BuildShardPartition(mb, options);

  size_t owned = 0;
  for (const auto& shard : part.shard) owned += shard.owned_queries;
  EXPECT_EQ(owned, mb.num_queries());
  EXPECT_EQ(part.replicated_rows, 0u);

  ShardRouter router{4};
  for (StringId q = 0; q < mb.num_queries(); ++q) {
    const size_t owner = part.query_owner[q];
    EXPECT_EQ(owner, router.QueryShardOf(mb.QueryString(q)));
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(part.Owns(s, q), s == owner);
      EXPECT_EQ(part.HasRow(s, q), s == owner);  // no hot rows
    }
  }

  // With a low threshold, hot rows exist and are readable everywhere while
  // ownership (and the owned_queries accounting) is unchanged.
  options.hot_row_min_degree = 2;
  const ShardPartition hot = BuildShardPartition(mb, options);
  EXPECT_GT(hot.replicated_rows, 0u);
  size_t hot_owned = 0;
  for (const auto& shard : hot.shard) hot_owned += shard.owned_queries;
  EXPECT_EQ(hot_owned, mb.num_queries());
  for (StringId q = 0; q < mb.num_queries(); ++q) {
    if (!hot.hot[q]) continue;
    for (size_t s = 0; s < 4; ++s) EXPECT_TRUE(hot.HasRow(s, q));
  }
}

// Two disjoint query clusters with known shard geometry (queries crafted
// onto shard 0 / shard 1 of a 2-way router), raw weighting so there is no
// global IQF coupling between them.
struct ClusterRig {
  ShardRouter router{2};
  std::vector<std::string> a;  // shard-0 cluster
  std::vector<std::string> b;  // shard-1 cluster
  std::vector<QueryLogRecord> records;
};

ClusterRig MakeClusterRig() {
  ClusterRig rig;
  for (int i = 0; i < 3; ++i) {
    rig.a.push_back(QueryOnShard(rig.router, 0, "alpha" + std::to_string(i)));
    rig.b.push_back(QueryOnShard(rig.router, 1, "beta" + std::to_string(i)));
  }
  // Co-session + co-click structure inside each cluster, nothing across.
  rig.records = {
      {1, rig.a[0], "ua0.com", 100},  {1, rig.a[1], "ua1.com", 150},
      {2, rig.a[1], "ua1.com", 100},  {2, rig.a[2], "ua2.com", 140},
      {7, rig.a[0], "ua0.com", 300},  {7, rig.a[2], "ua2.com", 360},
      {3, rig.b[0], "ub0.com", 100},  {3, rig.b[1], "ub1.com", 150},
      {4, rig.b[1], "ub1.com", 100},  {4, rig.b[2], "ub2.com", 140},
      {8, rig.b[0], "ub0.com", 300},  {8, rig.b[2], "ub2.com", 360},
  };
  return rig;
}

PqsdaEngineConfig ClusterConfig() {
  PqsdaEngineConfig config;
  config.personalize = false;
  config.weighting = EdgeWeighting::kRaw;
  config.cache_capacity = 0;
  return config;
}

TEST_F(ShardingTest, ContentFingerprintMovesOnlyForTheChangedShard) {
  ClusterRig rig = MakeClusterRig();
  const auto config = ClusterConfig();
  ShardPartitionOptions options;
  options.shards = 2;
  options.hot_row_min_degree = 0;

  auto base = BuildIndexSnapshot(rig.records, config, 0);
  ASSERT_TRUE(base.ok());
  const ShardPartition part0 = BuildShardPartition(*(*base)->mb, options);

  // Same records again: fingerprints are a pure function of content.
  auto again = BuildIndexSnapshot(rig.records, config, 1);
  ASSERT_TRUE(again.ok());
  const ShardPartition part0b = BuildShardPartition(*(*again)->mb, options);
  EXPECT_EQ(part0.shard[0].content_fingerprint,
            part0b.shard[0].content_fingerprint);
  EXPECT_EQ(part0.shard[1].content_fingerprint,
            part0b.shard[1].content_fingerprint);

  // Add a shard-0 record: interned ids renumber globally, but shard 1's
  // slice is untouched content — its fingerprint must survive while
  // shard 0's moves. This is the property the cache validation vectors
  // stand on.
  auto grown = rig.records;
  grown.push_back({9, QueryOnShard(rig.router, 0, "alphadelta"),
                   "ua9.com", 500});
  auto next = BuildIndexSnapshot(grown, config, 1);
  ASSERT_TRUE(next.ok());
  const ShardPartition part1 = BuildShardPartition(*(*next)->mb, options);
  EXPECT_NE(part0.shard[0].content_fingerprint,
            part1.shard[0].content_fingerprint);
  EXPECT_EQ(part0.shard[1].content_fingerprint,
            part1.shard[1].content_fingerprint);
}

TEST_F(ShardingTest, EdgeCountChangeThroughSharedObjectMovesAdjacentShards) {
  // Regression (stale-cache hazard): Step() reads the *full* object->query
  // row — values and RowSum — of every object adjacent to a frontier row.
  // A change to an edge count c_zu on a query owned by shard 1 therefore
  // changes the contributions flowing through the shared object into
  // shard 0's rows, and shard 0's fingerprint must move even though no
  // shard-0 row was edited; otherwise shard 0's generation would survive
  // the rebuild and the cache's validation vector would pass on entries
  // whose served content the delta changed.
  ShardRouter router{2};
  const std::string a = QueryOnShard(router, 0, "alphaq");
  const std::string b = QueryOnShard(router, 1, "betaq");
  std::vector<QueryLogRecord> records = {
      {1, a, "shared.com", 100},
      {2, b, "shared.com", 100},
  };
  const auto config = ClusterConfig();
  ShardPartitionOptions options;
  options.shards = 2;
  options.hot_row_min_degree = 0;

  auto base = BuildIndexSnapshot(records, config, 0);
  ASSERT_TRUE(base.ok());
  const ShardPartition part0 = BuildShardPartition(*(*base)->mb, options);

  // A duplicate of b's click: no new query, URL, term or user — the only
  // content delta is the edge count c_{b,shared.com} (plus b's session
  // row), exactly the under-captured dependency.
  auto grown = records;
  grown.push_back({2, b, "shared.com", 130});
  auto next = BuildIndexSnapshot(grown, config, 1);
  ASSERT_TRUE(next.ok());
  const ShardPartition part1 = BuildShardPartition(*(*next)->mb, options);

  EXPECT_NE(part0.shard[1].content_fingerprint,
            part1.shard[1].content_fingerprint);
  // The crux: a's walk reads shared.com's whole o2q row, so shard 0's
  // served content changed too.
  EXPECT_NE(part0.shard[0].content_fingerprint,
            part1.shard[0].content_fingerprint);
}

// ------------------------------------ the differential property ----

void RunInvarianceProperty(bool personalize) {
  const auto records = ShardLog();
  const auto config = ShardConfig(personalize);
  auto unsharded = PqsdaEngine::Build(records, config);
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
  const auto probes = ShardProbes(records);
  const auto expected = ServeProbes(**unsharded, probes);

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    auto sharded = BuildSharded(records, config, shards);
    ASSERT_NE(sharded, nullptr);
    const std::string label = std::string("shards=") +
                              std::to_string(shards) +
                              (personalize ? " +upm" : "");
    ExpectIdenticalLists(expected, ServeProbes(*sharded, probes), label);
  }
}

TEST_F(ShardingTest, MatchesUnshardedAcrossShardCounts) {
  RunInvarianceProperty(/*personalize=*/false);
}

TEST_F(ShardingTest, MatchesUnshardedWithPersonalization) {
  RunInvarianceProperty(/*personalize=*/true);
}

TEST_F(ShardingTest, ScatterGatherActuallyCrossesShards) {
  // Guard against the property passing vacuously: at 4 shards with strict
  // ownership, some probe must touch more than one shard, serve remote
  // fetches, and still merge fully (no partial flag anywhere).
  const auto records = ShardLog();
  auto sharded = BuildSharded(records, ShardConfig(false), 4,
                              /*hot_row_min_degree=*/0);
  ASSERT_NE(sharded, nullptr);
  size_t multi_shard_probes = 0;
  for (const auto& probe : ShardProbes(records)) {
    SuggestStats stats;
    auto result = sharded->Suggest(probe, 10, &stats);
    if (!result.ok()) continue;
    EXPECT_FALSE(stats.partial_merge);
    ASSERT_EQ(stats.shard_rungs.size(), 4u);
    for (uint8_t rung : stats.shard_rungs) {
      EXPECT_TRUE(rung == SuggestStats::kShardFull ||
                  rung == SuggestStats::kShardUntouched);
    }
    if (stats.shards_touched > 1) ++multi_shard_probes;
  }
  EXPECT_GT(multi_shard_probes, 0u);
}

TEST_F(ShardingTest, MatchesUnshardedFromConcurrentThreads) {
  const auto records = ShardLog();
  const auto config = ShardConfig(false);
  auto unsharded = PqsdaEngine::Build(records, config);
  ASSERT_TRUE(unsharded.ok());
  const auto probes = ShardProbes(records);
  const auto expected = ServeProbes(**unsharded, probes);

  auto sharded = BuildSharded(records, config, 4);
  ASSERT_NE(sharded, nullptr);

  // Concurrent callers (the TSAN suite re-runs this): every thread must see
  // the exact expected lists, and the lane-routed batch path must agree.
  std::vector<std::vector<std::vector<Suggestion>>> served(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < served.size(); ++t) {
    threads.emplace_back([&, t] { served[t] = ServeProbes(*sharded, probes); });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < served.size(); ++t) {
    ExpectIdenticalLists(expected, served[t],
                         "thread " + std::to_string(t));
  }

  auto batch = sharded->SuggestBatch(probes, 10);
  std::vector<std::vector<Suggestion>> batch_lists;
  for (auto& result : batch) {
    if (result.ok()) {
      batch_lists.push_back(std::move(result).value());
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
          << result.status().ToString();
      batch_lists.emplace_back();
    }
  }
  ExpectIdenticalLists(expected, batch_lists, "lane-routed batch");
}

// --------------------------------------- merge-correctness units ----

// A snapshot built with `shards` serving shards: its partition is the one
// a sharded engine would route over.
std::shared_ptr<const IndexSnapshot> MakeShardedSnapshot(
    const std::vector<QueryLogRecord>& records, PqsdaEngineConfig config,
    size_t shards, size_t hot_row_min_degree) {
  config.sharding.shards = shards;
  config.sharding.hot_row_min_degree = hot_row_min_degree;
  auto snap = BuildIndexSnapshot(records, config, 0);
  EXPECT_TRUE(snap.ok());
  return std::move(snap).value();
}

ShardServingContext MakeContext(const IndexSnapshot& snap, size_t primary,
                                std::function<uint8_t(size_t)> classify) {
  ShardServingContext ctx;
  ctx.mb = snap.mb.get();
  ctx.partition = &snap.partition;
  ctx.primary = primary;
  ctx.classify = std::move(classify);
  ctx.rung.assign(snap.partition.shards, SuggestStats::kShardUntouched);
  ctx.rung[primary] = SuggestStats::kShardFull;
  ctx.shard_fetches.assign(snap.partition.shards, 0);
  return ctx;
}

void ExpectSameCsr(const CsrMatrix& a, const CsrMatrix& b,
                   const std::string& label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  for (size_t r = 0; r < a.rows(); ++r) {
    auto ai = a.RowIndices(r);
    auto bi = b.RowIndices(r);
    ASSERT_EQ(std::vector<uint32_t>(ai.begin(), ai.end()),
              std::vector<uint32_t>(bi.begin(), bi.end()))
        << label << " row " << r;
    auto av = a.RowValues(r);
    auto bv = b.RowValues(r);
    ASSERT_EQ(av.size(), bv.size()) << label << " row " << r;
    for (size_t k = 0; k < av.size(); ++k) {
      EXPECT_EQ(av[k], bv[k]) << label << " row " << r << " nz " << k;
    }
  }
}

// The compact representation, compared bitwise: member queries in admission
// order (the tie-sensitive part — equal-mass candidates are ordered purely
// by accumulation order), then every derived matrix.
void ExpectSameRepresentation(const CompactRepresentation& ref,
                              const CompactRepresentation& got,
                              const std::string& label) {
  ASSERT_EQ(ref.queries, got.queries) << label;
  for (BipartiteKind kind :
       {BipartiteKind::kUrl, BipartiteKind::kSession, BipartiteKind::kTerm}) {
    const auto k = static_cast<size_t>(kind);
    ExpectSameCsr(ref.w[k], got.w[k], label + " W[" + std::to_string(k) + "]");
    ExpectSameCsr(ref.affinity[k], got.affinity[k],
                  label + " A[" + std::to_string(k) + "]");
    ExpectSameCsr(ref.sym_norm[k], got.sym_norm[k],
                  label + " S[" + std::to_string(k) + "]");
    ExpectSameCsr(ref.row_norm[k], got.row_norm[k],
                  label + " P[" + std::to_string(k) + "]");
  }
}

TEST_F(ShardingTest, GatherMatchesScalarReferenceForEveryPrimary) {
  // Every choice of primary shard re-draws the local/remote boundary: rows
  // served locally for one primary are duplicated-across-shards fetches for
  // another, and shards owning nothing on the frontier contribute empty
  // pools. All of them must induce the bit-identical representation.
  const auto records = ShardLog();
  auto snap = MakeShardedSnapshot(records, ShardConfig(false), 4,
                                  /*hot_row_min_degree=*/0);
  const MultiBipartite& mb = *snap->mb;
  CompactBuilderOptions options;
  options.target_size = 60;

  CompactBuilder local(mb);
  const StringId seed = mb.QueryId(records.front().query);
  ASSERT_NE(seed, kInvalidStringId);
  auto ref = local.Build(seed, {}, options);
  ASSERT_TRUE(ref.ok());

  auto always_full = [](size_t) -> uint8_t { return SuggestStats::kShardFull; };
  for (size_t primary = 0; primary < 4; ++primary) {
    ShardServingContext ctx = MakeContext(*snap, primary, always_full);
    ShardedWalkBackend backend(&ctx, {});
    CompactBuilder sharded(mb, &backend);
    auto got = sharded.Build(seed, {}, options);
    ASSERT_TRUE(got.ok());
    ExpectSameRepresentation(*ref, *got,
                             "primary=" + std::to_string(primary));
    EXPECT_FALSE(ctx.partial);
  }
}

TEST_F(ShardingTest, TiedMassAtTheMergeBoundaryKeepsAccumulationOrder) {
  // "left" and "right" are exactly symmetric around the seed (same session
  // and click structure), so their expansion mass is bit-identical — the
  // admission order between them is decided purely by accumulation order.
  // They are crafted onto *different* shards and the primary owns neither:
  // both arrive as gathered contributions, and must still admit in the
  // scalar reference's order.
  ShardRouter router{2};
  const std::string root = "rootquery0";
  const std::string left = QueryOnShard(router, 0, "leftq");
  const std::string right = QueryOnShard(router, 1, "rightq");
  std::vector<QueryLogRecord> records = {
      {1, root, "ushare.com", 100},  {1, left, "ushare.com", 150},
      {2, root, "ushare.com", 100},  {2, right, "ushare.com", 150},
  };
  auto snap = MakeShardedSnapshot(records, ClusterConfig(), 2,
                                  /*hot_row_min_degree=*/0);
  const MultiBipartite& mb = *snap->mb;
  const StringId seed = mb.QueryId(root);
  ASSERT_NE(seed, kInvalidStringId);

  CompactBuilderOptions options;
  CompactBuilder local(mb);
  auto ref = local.Build(seed, {}, options);
  ASSERT_TRUE(ref.ok());
  ASSERT_GE(ref->queries.size(), 3u);  // root + both tied candidates

  const size_t primary = snap->partition.query_owner[seed];
  auto always_full = [](size_t) -> uint8_t { return SuggestStats::kShardFull; };
  ShardServingContext ctx = MakeContext(*snap, primary, always_full);
  ShardedWalkBackend backend(&ctx, {});
  CompactBuilder sharded(mb, &backend);
  auto got = sharded.Build(seed, {}, options);
  ASSERT_TRUE(got.ok());
  ExpectSameRepresentation(*ref, *got, "tied merge boundary");
  // The tie really crossed shards: the non-primary shard served fetches.
  EXPECT_GT(ctx.shard_fetches[1 - primary], 0u);
}

// Scalar reference for the degraded case: a backend that computes
// everything locally, in canonical order, but censors the rows a chosen
// shard owns — exactly what the real coordinator must reduce to when that
// shard refuses service.
class CensoringBackend final : public CompactWalkBackend {
 public:
  CensoringBackend(const MultiBipartite& mb, const ShardPartition& part,
                   size_t primary, size_t censored)
      : mb_(&mb), part_(&part), primary_(primary), censored_(censored) {}

  bool Served(StringId q) const {
    return part_->HasRow(primary_, q) ||
           part_->query_owner[q] != censored_;
  }

  Status Step(BipartiteKind kind, const WalkMass& mass, double scale,
              WalkMass& out) const override {
    const auto& g = mb_->graph(kind);
    const CsrMatrix& q2o = g.query_to_object();
    const CsrMatrix& o2q = g.object_to_query();
    for (StringId q : mass.order()) {
      if (!Served(q)) continue;
      const double p = mass.value(q);
      double row_sum = q2o.RowSum(q);
      if (row_sum <= 0.0) continue;
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
          out.Add(q_idx[k2], scale * p * p_obj * q_val[k2] / obj_sum);
        }
      }
    }
    return Status::OK();
  }

  Status QueryRow(BipartiteKind kind, StringId query,
                  std::span<const uint32_t>& indices,
                  std::span<const double>& values) const override {
    if (!Served(query)) {
      indices = {};
      values = {};
      return Status::OK();
    }
    const CsrMatrix& q2o = mb_->graph(kind).query_to_object();
    indices = q2o.RowIndices(query);
    values = q2o.RowValues(query);
    return Status::OK();
  }

 private:
  const MultiBipartite* mb_;
  const ShardPartition* part_;
  size_t primary_;
  size_t censored_;
};

TEST_F(ShardingTest, DegradedShardDropsExactlyItsColdRows) {
  const auto records = ShardLog();
  auto snap = MakeShardedSnapshot(records, ShardConfig(false), 4,
                                  /*hot_row_min_degree=*/0);
  const MultiBipartite& mb = *snap->mb;
  CompactBuilderOptions options;
  options.target_size = 60;
  const StringId seed = mb.QueryId(records.front().query);
  ASSERT_NE(seed, kInvalidStringId);

  const size_t primary = snap->partition.query_owner[seed];
  const size_t censored = (primary + 1) % 4;

  CensoringBackend censor(mb, snap->partition, primary, censored);
  CompactBuilder reference(mb, &censor);
  auto ref = reference.Build(seed, {}, options);
  ASSERT_TRUE(ref.ok());

  ShardServingContext ctx = MakeContext(
      *snap, primary, [censored](size_t s) -> uint8_t {
        return s == censored ? SuggestStats::kShardDegraded
                             : SuggestStats::kShardFull;
      });
  ShardedWalkBackend backend(&ctx, {});
  CompactBuilder sharded(mb, &backend);
  auto got = sharded.Build(seed, {}, options);
  ASSERT_TRUE(got.ok());
  ExpectSameRepresentation(*ref, *got, "censored shard");
  EXPECT_TRUE(ctx.partial);
  EXPECT_EQ(ctx.rung[censored], SuggestStats::kShardDegraded);
  EXPECT_EQ(ctx.shard_fetches[censored], 0u);  // nothing served from it
}

// ----------------------------------------------- rebuild churn ----

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

TEST_F(ShardingTest, ChunkedIngestKeepsEquivalenceWithBatchBuild) {
  const auto all_records = ShardLog();
  const auto config = ShardConfig(false);
  auto batch = PqsdaEngine::Build(all_records, config);
  ASSERT_TRUE(batch.ok());
  const auto probes = ShardProbes(all_records);
  const auto expected = ServeProbes(**batch, probes);

  const size_t prefix = all_records.size() / 2;
  auto sharded = BuildSharded(
      std::vector<QueryLogRecord>(all_records.begin(),
                                  all_records.begin() + prefix),
      config, 4);
  ASSERT_NE(sharded, nullptr);
  IndexManager& index = sharded->index_manager();

  std::mt19937 rng(404);
  for (auto& chunk : RandomChunks(
           std::vector<QueryLogRecord>(all_records.begin() + prefix,
                                       all_records.end()),
           rng)) {
    for (auto& record : chunk) {
      ASSERT_TRUE(sharded->Ingest(std::move(record)).ok());
    }
    index.WaitForRebuilds();  // drain threshold-scheduled passes
    ASSERT_TRUE(index.RebuildNow().ok());
    EXPECT_EQ(index.delta_depth(), 0u);
  }
  ExpectIdenticalLists(expected, ServeProbes(*sharded, probes),
                       "chunked ingest, shards=4");
}

TEST_F(ShardingTest, ServingDuringChurnStaysOnOnePublishedGeneration) {
  // Readers hammer one probe while the writer publishes generations; every
  // response must fingerprint-match exactly one precomputed generation
  // (torn merges match nothing; stale memory is the sanitizer suites' job —
  // both re-run this test).
  const auto all_records = ShardLog();
  auto config = ShardConfig(false);
  config.ingest.rebuild_min_records = 100000;  // only explicit RebuildNow
  constexpr size_t kGenerations = 3;
  const size_t prefix = all_records.size() - 120;
  const size_t chunk_size = 120 / kGenerations;

  const auto probe = ShardProbes(all_records)[0];
  std::vector<uint64_t> expected_fp;
  for (size_t g = 0; g <= kGenerations; ++g) {
    auto engine = PqsdaEngine::Build(
        std::vector<QueryLogRecord>(
            all_records.begin(),
            all_records.begin() + prefix + g * chunk_size),
        config);
    ASSERT_TRUE(engine.ok());
    auto list = (*engine)->Suggest(probe, 10);
    ASSERT_TRUE(list.ok());
    expected_fp.push_back(FingerprintOfList(*list));
  }

  auto sharded = BuildSharded(
      std::vector<QueryLogRecord>(all_records.begin(),
                                  all_records.begin() + prefix),
      config, 2);
  ASSERT_NE(sharded, nullptr);

  std::atomic<bool> done{false};
  std::atomic<size_t> mismatches{0};
  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      auto list = sharded->Suggest(probe, 10);
      if (!list.ok()) {
        mismatches.fetch_add(1);
        continue;
      }
      const uint64_t fp = FingerprintOfList(*list);
      if (std::find(expected_fp.begin(), expected_fp.end(), fp) ==
          expected_fp.end()) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);

  for (size_t g = 0; g < kGenerations; ++g) {
    for (size_t i = prefix + g * chunk_size;
         i < prefix + (g + 1) * chunk_size; ++i) {
      ASSERT_TRUE(sharded->Ingest(all_records[i]).ok());
    }
    ASSERT_TRUE(sharded->index_manager().RebuildNow().ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  auto final_list = sharded->Suggest(probe, 10);
  ASSERT_TRUE(final_list.ok());
  EXPECT_EQ(FingerprintOfList(*final_list), expected_fp[kGenerations]);
}

// ------------------------------------------- cache validation ----

TEST_F(ShardingTest, SingleShardSwapInvalidatesOnlyEntriesTouchingIt) {
  ClusterRig rig = MakeClusterRig();
  auto config = ClusterConfig();
  config.cache_capacity = 32;
  // Strict ownership: the clusters stay apart.
  auto engine = BuildSharded(rig.records, config, 2, /*hot_row_min_degree=*/0);
  ASSERT_NE(engine, nullptr);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& hits = reg.GetCounter("pqsda.cache.hits_total");
  obs::Counter& misses = reg.GetCounter("pqsda.cache.misses_total");
  obs::Counter& stale =
      reg.GetCounter("pqsda.cache.stale_invalidations_total");

  SuggestionRequest probe_a;
  probe_a.query = rig.a[0];
  probe_a.timestamp = 1000;
  SuggestionRequest probe_b;
  probe_b.query = rig.b[0];
  probe_b.timestamp = 1000;

  // Each cluster's expansion stays on its own shard (the precondition the
  // crafted corpus exists for).
  SuggestStats stats;
  ASSERT_TRUE(engine->Suggest(probe_a, 5, &stats).ok());
  ASSERT_EQ(stats.shards_touched, 1u);
  ASSERT_TRUE(engine->Suggest(probe_b, 5, &stats).ok());
  ASSERT_EQ(stats.shards_touched, 1u);

  const uint64_t hits0 = hits.Value();
  const uint64_t misses0 = misses.Value();
  const uint64_t stale0 = stale.Value();
  ASSERT_TRUE(engine->Suggest(probe_a, 5).ok());  // hit
  ASSERT_TRUE(engine->Suggest(probe_b, 5).ok());  // hit
  ASSERT_EQ(hits.Value(), hits0 + 2);

  // A shard-0-only delta: a fresh query crafted onto shard 0 (raw
  // weighting, so no global IQF coupling can reach shard 1's rows).
  ASSERT_TRUE(engine
                  ->Ingest({9, QueryOnShard(rig.router, 0, "alphadelta"),
                            "ua9.com", 5000})
                  .ok());
  ASSERT_TRUE(engine->index_manager().RebuildNow().ok());

  // Shard 1's generation survived the swap: probe_b's entry is still
  // valid. Shard 0 moved: probe_a's entry is stale — detected at lookup,
  // erased, recomputed against the new build.
  ASSERT_TRUE(engine->Suggest(probe_b, 5).ok());
  EXPECT_EQ(hits.Value(), hits0 + 3);
  EXPECT_EQ(stale.Value(), stale0);

  const uint64_t misses_before_a = misses.Value();
  ASSERT_TRUE(engine->Suggest(probe_a, 5).ok());
  EXPECT_EQ(stale.Value(), stale0 + 1);
  EXPECT_EQ(misses.Value(), misses_before_a + 1);
  EXPECT_EQ(hits.Value(), hits0 + 3);  // no stale hit served

  // The recomputed entry caches under the new validation vector.
  ASSERT_TRUE(engine->Suggest(probe_a, 5).ok());
  EXPECT_EQ(hits.Value(), hits0 + 4);
  (void)misses0;
}

// ------------------------------------------- the one request path ----

// Ingest through a sharded engine is the engine's ingest: records enter the
// stream sessionizer (a user's open tail session is live serving context)
// and the pqsda.ingest.* surface counts them.
TEST_F(ShardingTest, ShardedIngestFeedsTailContextAndIngestMetrics) {
  const auto records = ShardLog();
  auto config = ShardConfig(false);
  config.ingest.rebuild_min_records = SIZE_MAX;  // keep the tail open
  auto engine = BuildSharded(records, config, 4);
  ASSERT_NE(engine, nullptr);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& ingested = reg.GetCounter("pqsda.ingest.records_total");
  const uint64_t ingested0 = ingested.Value();

  int64_t max_ts = 0;
  for (const auto& r : records) max_ts = std::max(max_ts, r.timestamp);
  const UserId fresh_user = 9'001;
  ASSERT_TRUE(engine
                  ->Ingest({fresh_user, records.front().query, "fresh.com",
                            max_ts + 10})
                  .ok());
  ASSERT_TRUE(engine
                  ->Ingest({fresh_user, records.back().query, "fresh.com",
                            max_ts + 20})
                  .ok());

  const auto tail = engine->index_manager().TailContext(fresh_user);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].first, records.front().query);
  EXPECT_EQ(tail[1].first, records.back().query);
  EXPECT_EQ(ingested.Value(), ingested0 + 2);
  EXPECT_EQ(reg.GetGauge("pqsda.ingest.delta_depth").Value(), 2.0);
  EXPECT_EQ(engine->index_manager().delta_depth(), 2u);
}

// A sharded rebuild that fails — on the threshold-scheduled path and on
// RebuildNow — is counted, keeps the published generation, and leaves the
// engine able to rebuild once the fault clears.
TEST_F(ShardingTest, FailedShardedRebuildIsCounted) {
  const auto records = ShardLog();
  auto config = ShardConfig(false);
  config.ingest.rebuild_min_records = 2;
  auto engine = BuildSharded(records, config, 4);
  ASSERT_NE(engine, nullptr);
  IndexManager& index = engine->index_manager();

  obs::Counter& failures = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.ingest.rebuild_failures_total");
  const uint64_t failures0 = failures.Value();

  FaultInjector::Default().SetValue(faults::kRebuildFailure, 1);
  ASSERT_TRUE(engine->Ingest(records[0]).ok());
  ASSERT_TRUE(engine->Ingest(records[1]).ok());  // schedules the rebuild
  index.WaitForRebuilds();
  EXPECT_EQ(failures.Value(), failures0 + 1);
  EXPECT_EQ(engine->generation(), 0u);

  ASSERT_TRUE(engine->Ingest(records[2]).ok());
  EXPECT_FALSE(index.RebuildNow().ok());
  EXPECT_EQ(failures.Value(), failures0 + 2);
  EXPECT_EQ(engine->generation(), 0u);

  FaultInjector::Default().Reset();
  ASSERT_TRUE(engine->Ingest(records[3]).ok());
  ASSERT_TRUE(index.RebuildNow().ok());
  EXPECT_EQ(engine->generation(), 1u);
  EXPECT_EQ(failures.Value(), failures0 + 2);
}

// A request served at 4 shards explains itself, is written to the request
// log, and replays fingerprint-equal from its log entry through
// PqsdaEngine::Replay — also after a swap retired its generation.
TEST_F(ShardingTest, ShardedRequestExplainsAndReplaysFromTheRequestLog) {
  const std::string log_path =
      testing::TempDir() + "/sharded_replay_requests.jsonl";
  std::remove(log_path.c_str());
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Install({});
  obs::RequestLogOptions log_options;
  log_options.path = log_path;
  log_options.sample_every = 1;
  log_options.slow_us = INT64_MAX;
  auto log = obs::RequestLog::Open(log_options);
  ASSERT_TRUE(log.ok());
  telemetry.AttachRequestLog(std::move(log).value());

  const auto records = ShardLog();
  auto engine = BuildSharded(records, ShardConfig(/*personalize=*/true), 4,
                             /*hot_row_min_degree=*/0);
  ASSERT_NE(engine, nullptr);

  // A personalized probe whose expansion crosses shards.
  const auto probes = ShardProbes(records);
  std::vector<obs::ExplainRecord> explained;
  std::vector<std::vector<Suggestion>> served;
  for (const auto& probe : probes) {
    if (probe.user == kNoUser) continue;
    SuggestStats stats;
    ASSERT_TRUE(engine->Suggest(probe, 10, &stats).ok());
    if (stats.shards_touched < 2) continue;
    obs::ExplainRecord record;
    auto list = engine->Suggest(probe, 10, nullptr, &record);
    ASSERT_TRUE(list.ok());
    explained.push_back(std::move(record));
    served.push_back(std::move(list).value());
    break;
  }
  ASSERT_EQ(explained.size(), 1u) << "no cross-shard personalized probe";
  const obs::ExplainRecord& record = explained[0];
  EXPECT_TRUE(record.ok);
  EXPECT_EQ(record.generation, 0u);
  EXPECT_EQ(record.fingerprint, FingerprintOfList(served[0]));
  ASSERT_FALSE(record.candidates.empty());
  EXPECT_EQ(record.candidates.front().query, served[0].front().query);

  // Swap: the logged request's generation moves into the replay ring.
  ASSERT_TRUE(engine->Ingest(records.front()).ok());
  ASSERT_TRUE(engine->index_manager().RebuildNow().ok());
  ASSERT_EQ(engine->generation(), 1u);

  telemetry.request_log()->Flush();
  auto entries = obs::ReadRequestLog(log_path, /*max_entries=*/0);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  const obs::RequestLogEntry* logged = nullptr;
  for (const auto& entry : *entries) {
    if (entry.request_id == record.request_id) logged = &entry;
  }
  ASSERT_NE(logged, nullptr);
  EXPECT_EQ(logged->fingerprint, record.fingerprint);
  EXPECT_EQ(logged->generation, 0u);

  obs::ExplainRecord replay_record;
  auto replayed = engine->Replay(*logged, &replay_record);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectIdenticalLists({served[0]}, {*replayed}, "sharded replay");
  EXPECT_EQ(replay_record.fingerprint, record.fingerprint);

  telemetry.AttachRequestLog(nullptr);
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace pqsda
