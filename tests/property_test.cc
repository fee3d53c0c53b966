// Property-style tests: parameterized sweeps asserting invariants that must
// hold for every configuration, not just the defaults.

#include <cmath>
#include <memory>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/zipf.h"
#include "graph/compact_builder.h"
#include "graph/multi_bipartite.h"
#include "log/sessionizer.h"
#include "reference/solvers.h"
#include "solver/regularization.h"
#include "suggest/hitting_time_suggester.h"
#include "synthetic/generator.h"

namespace pqsda {
namespace {

// ---------------------------------------------- Zipf sweep ----

class ZipfProperty : public testing::TestWithParam<double> {};

TEST_P(ZipfProperty, PmfNormalizedAndMonotone) {
  ZipfSampler z(64, GetParam());
  double total = 0.0;
  for (size_t i = 0; i < z.size(); ++i) {
    total += z.Pmf(i);
    if (i > 0) {
      EXPECT_LE(z.Pmf(i), z.Pmf(i - 1) + 1e-15);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfProperty,
                         testing::Values(0.0, 0.5, 1.0, 1.5, 2.5));

// ----------------------------------- Regularization alpha sweep ----

class AlphaProperty : public testing::TestWithParam<double> {
 protected:
  static const SyntheticDataset& data() {
    static SyntheticDataset* d = [] {
      GeneratorConfig config;
      config.num_users = 25;
      config.sessions_per_user_min = 5;
      config.sessions_per_user_max = 8;
      config.facet_config.num_facets = 10;
      return new SyntheticDataset(GenerateLog(config));
    }();
    return *d;
  }
};

TEST_P(AlphaProperty, SystemSolvableAndBounded) {
  const double alpha = GetParam();
  auto sessions = Sessionize(data().records);
  auto mb = MultiBipartite::Build(data().records, sessions,
                                  EdgeWeighting::kCfIqf);
  CompactBuilder builder(mb);
  StringId q = mb.QueryId(data().records[0].query);
  ASSERT_NE(q, kInvalidStringId);
  auto rep = builder.Build(q, {}, CompactBuilderOptions{80, 4});
  ASSERT_TRUE(rep.ok());
  auto f0 = BuildF0(*rep, q, 0, {}, 0.001);
  RegularizationOptions opts;
  opts.alpha = {alpha, alpha, alpha};
  auto f = SolveRegularization(*rep, f0, opts);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  // F* entries stay within [0, 1]-ish bounds (diffusion of a unit seed).
  for (double v : *f) {
    EXPECT_GE(v, -1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
  // The input query keeps the maximum.
  uint32_t local = rep->local_index.at(q);
  for (double v : *f) EXPECT_LE(v, (*f)[local] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaProperty,
                         testing::Values(0.1, 0.4, 0.8, 1.5, 3.0));

// ----------------------------------------- Hitting time horizon ----

class HorizonProperty : public testing::TestWithParam<size_t> {};

TEST_P(HorizonProperty, HittingTimeMonotoneInHorizonAndBounded) {
  // Chain 0 <- 1 <- 2 ... line graph over URL hops.
  std::vector<QueryLogRecord> recs;
  for (int i = 0; i < 6; ++i) {
    recs.push_back({0, "q" + std::to_string(i),
                    "u" + std::to_string(i) + ".com", i * 10});
    recs.push_back({0, "q" + std::to_string(i + 1),
                    "u" + std::to_string(i) + ".com", i * 10 + 5});
  }
  auto cg = ClickGraph::Build(recs, EdgeWeighting::kRaw);
  StringId q0 = cg.QueryId("q0");
  const size_t horizon = GetParam();
  auto h = BipartiteHittingTime(cg.graph().query_to_object(),
                                cg.graph().object_to_query(), {q0}, horizon);
  for (size_t i = 0; i < h.size(); ++i) {
    EXPECT_GE(h[i], 0.0);
    EXPECT_LE(h[i], static_cast<double>(horizon));
  }
  EXPECT_DOUBLE_EQ(h[q0], 0.0);
  // Monotone: longer horizons only increase the (truncated) hitting time.
  auto h2 = BipartiteHittingTime(cg.graph().query_to_object(),
                                 cg.graph().object_to_query(), {q0},
                                 horizon * 2);
  for (size_t i = 0; i < h.size(); ++i) EXPECT_GE(h2[i] + 1e-9, h[i]);
}

INSTANTIATE_TEST_SUITE_P(Horizons, HorizonProperty,
                         testing::Values(2, 8, 16, 40));

// --------------------------------------- Compact size sweep ----

class CompactSizeProperty : public testing::TestWithParam<size_t> {
 protected:
  static const SyntheticDataset& data() {
    static SyntheticDataset* d = [] {
      GeneratorConfig config;
      config.num_users = 30;
      config.sessions_per_user_min = 5;
      config.sessions_per_user_max = 8;
      return new SyntheticDataset(GenerateLog(config));
    }();
    return *d;
  }
};

TEST_P(CompactSizeProperty, SizeRespectedAndStochastic) {
  auto sessions = Sessionize(data().records);
  auto mb =
      MultiBipartite::Build(data().records, sessions, EdgeWeighting::kRaw);
  CompactBuilder builder(mb);
  StringId q = mb.QueryId(data().facets.concept_tokens()[0]);
  ASSERT_NE(q, kInvalidStringId);
  auto rep = builder.Build(q, {}, CompactBuilderOptions{GetParam(), 5});
  ASSERT_TRUE(rep.ok());
  EXPECT_LE(rep->size(), GetParam());
  EXPECT_GE(rep->size(), 1u);
  for (BipartiteKind kind : kAllBipartites) {
    const CsrMatrix& p = rep->P(kind);
    for (size_t i = 0; i < p.rows(); ++i) {
      double s = p.RowSum(i);
      EXPECT_TRUE(std::abs(s - 1.0) < 1e-9 || s == 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompactSizeProperty,
                         testing::Values(10, 50, 150, 400));

// -------------------------------------------- Weighting invariance ----

class WeightingProperty
    : public testing::TestWithParam<EdgeWeighting> {};

TEST_P(WeightingProperty, GraphStructurePreservedUnderWeighting) {
  GeneratorConfig config;
  config.num_users = 20;
  config.sessions_per_user_min = 4;
  config.sessions_per_user_max = 6;
  auto data = GenerateLog(config);
  auto sessions = Sessionize(data.records);
  auto mb = MultiBipartite::Build(data.records, sessions, GetParam());
  // Weighting changes values, never structure: every query keeps the same
  // neighbor count in each bipartite as the raw build.
  auto raw = MultiBipartite::Build(data.records, sessions,
                                   EdgeWeighting::kRaw);
  ASSERT_EQ(mb.num_queries(), raw.num_queries());
  for (BipartiteKind kind : kAllBipartites) {
    for (size_t qid = 0; qid < mb.num_queries(); ++qid) {
      EXPECT_EQ(mb.graph(kind).query_to_object().RowNnz(qid),
                raw.graph(kind).query_to_object().RowNnz(qid));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Weightings, WeightingProperty,
                         testing::Values(EdgeWeighting::kRaw,
                                         EdgeWeighting::kCfIqf));

// ------------------------------------------------- Solver sweep ----

class SolverProperty : public testing::TestWithParam<int> {};

TEST_P(SolverProperty, RandomDominantSystemsSolve) {
  Rng rng(GetParam());
  const size_t n = 30;
  std::vector<Triplet> triplets;
  std::vector<double> row_off(n, 0.0);
  for (uint32_t i = 0; i < n; ++i) {
    for (int e = 0; e < 4; ++e) {
      uint32_t j = static_cast<uint32_t>(rng.NextBounded(n));
      if (j == i) continue;
      double w = -rng.NextDouble();
      triplets.push_back({i, j, w});
      row_off[i] += std::abs(w);
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, row_off[i] + 1.0 + rng.NextDouble()});
  }
  auto a = CsrMatrix::FromTriplets(n, n, triplets);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.NextDouble() * 2.0 - 1.0;
  std::vector<double> x;
  auto result = GaussSeidelSolve(a, b, x, SolverOptions{});
  EXPECT_TRUE(result.converged);
  EXPECT_LT(RelativeResidual(a, x, b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverProperty, testing::Range(1, 9));

// ------------------------------------------- Generator scaling ----

class GeneratorScaleProperty : public testing::TestWithParam<uint32_t> {};

TEST_P(GeneratorScaleProperty, InvariantsHoldAcrossScales) {
  GeneratorConfig config;
  config.num_users = GetParam();
  config.sessions_per_user_min = 3;
  config.sessions_per_user_max = 6;
  auto data = GenerateLog(config);
  EXPECT_EQ(data.records.size(), data.record_facet.size());
  EXPECT_EQ(data.records.size(), data.record_session.size());
  // Every user in range; every facet in range.
  for (size_t i = 0; i < data.records.size(); ++i) {
    EXPECT_LT(data.records[i].user_id, config.num_users);
    EXPECT_LT(data.record_facet[i], data.facets.num_facets());
  }
  // Sessions are contiguous runs.
  std::unordered_set<uint32_t> closed;
  uint32_t current = UINT32_MAX;
  for (uint32_t s : data.record_session) {
    if (s != current) {
      EXPECT_EQ(closed.count(s), 0u) << "session id reappeared";
      if (current != UINT32_MAX) closed.insert(current);
      current = s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, GeneratorScaleProperty,
                         testing::Values(5, 20, 60));

}  // namespace
}  // namespace pqsda
