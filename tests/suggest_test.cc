#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "reference/hitting_time.h"
#include "suggest/concept_suggester.h"
#include "suggest/dqs_suggester.h"
#include "suggest/engine.h"
#include "suggest/hitting_time_suggester.h"
#include "suggest/pqsda_diversifier.h"
#include "suggest/random_walk_suggester.h"

namespace pqsda {
namespace {

// A richer ambiguous log: "sun" has three facets (java, cellular/solar, uk
// newspaper), each with its own URL cluster.
std::vector<QueryLogRecord> AmbiguousLog() {
  return {
      // Facet A: java, user 1 + 4.
      {1, "sun", "www.java.com", 100},
      {1, "sun java", "java.sun.com", 150},
      {1, "java download", "www.java.com", 200},
      {4, "sun java", "www.java.com", 100},
      {4, "java download", "java.sun.com", 130},
      // Facet B: solar, user 2 + 5.
      {2, "sun", "www.nasa.gov", 100},
      {2, "solar system", "www.nasa.gov", 160},
      {2, "solar energy", "www.energy.gov", 220},
      {5, "solar system", "www.nasa.gov", 90},
      {5, "solar energy", "www.nasa.gov", 140},
      // Facet C: newspaper, user 3 + 6.
      {3, "sun", "www.thesun.co.uk", 100},
      {3, "sun daily uk", "www.thesun.co.uk", 150},
      {6, "sun daily uk", "www.thesun.co.uk", 110},
      {6, "uk news", "www.thesun.co.uk", 170},
  };
}

class SuggestTest : public testing::Test {
 protected:
  SuggestTest()
      : records_(AmbiguousLog()),
        cg_(ClickGraph::Build(records_, EdgeWeighting::kRaw)) {}

  SuggestionRequest SunRequest() const {
    SuggestionRequest r;
    r.query = "sun";
    r.timestamp = 300;
    r.user = kNoUser;
    return r;
  }

  std::vector<QueryLogRecord> records_;
  ClickGraph cg_;
};

// --------------------------------------------------------- Finalize ----

TEST(FinalizeSuggestionsTest, SortsAndExcludes) {
  SuggestionRequest r;
  r.query = "input";
  r.context = {{"ctx", 0}};
  std::vector<Suggestion> cands = {
      {"low", 0.1}, {"input", 9.0}, {"high", 0.9}, {"ctx", 5.0}};
  auto out = FinalizeSuggestions(r, cands, 10);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].query, "high");
  EXPECT_EQ(out[1].query, "low");
}

TEST(FinalizeSuggestionsTest, TruncatesToK) {
  SuggestionRequest r;
  r.query = "x";
  std::vector<Suggestion> cands = {{"a", 3}, {"b", 2}, {"c", 1}};
  auto out = FinalizeSuggestions(r, cands, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].query, "a");
}

// ------------------------------------------------------- FRW / BRW ----

TEST_F(SuggestTest, FrwSuggestsRelatedQueries) {
  RandomWalkSuggester frw(cg_, WalkDirection::kForward);
  auto out = frw.Suggest(SunRequest(), 5);
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out->empty());
  // All suggestions reachable from "sun"; no self-suggestion.
  for (const auto& s : *out) EXPECT_NE(s.query, "sun");
}

TEST_F(SuggestTest, FrwUnknownQueryNotFound) {
  RandomWalkSuggester frw(cg_, WalkDirection::kForward);
  SuggestionRequest r;
  r.query = "never seen";
  auto out = frw.Suggest(r, 5);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST_F(SuggestTest, BrwDiffersFromFrw) {
  RandomWalkSuggester frw(cg_, WalkDirection::kForward);
  RandomWalkSuggester brw(cg_, WalkDirection::kBackward);
  auto df = frw.WalkDistribution("sun");
  auto db = brw.WalkDistribution("sun");
  ASSERT_TRUE(df.ok() && db.ok());
  bool differs = false;
  for (size_t i = 0; i < df->size(); ++i) {
    if (std::abs((*df)[i] - (*db)[i]) > 1e-9) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST_F(SuggestTest, WalkDistributionSumsToOne) {
  RandomWalkSuggester frw(cg_, WalkDirection::kForward);
  auto d = frw.WalkDistribution("sun");
  ASSERT_TRUE(d.ok());
  double total = 0.0;
  for (double v : *d) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(SuggestTest, EngineNames) {
  RandomWalkSuggester frw(cg_, WalkDirection::kForward);
  RandomWalkSuggester brw(cg_, WalkDirection::kBackward);
  EXPECT_EQ(frw.name(), "FRW");
  EXPECT_EQ(brw.name(), "BRW");
}

// ----------------------------------------------------- Hitting time ----

TEST_F(SuggestTest, HittingTimeZeroOnSeeds) {
  StringId sun = cg_.QueryId("sun");
  auto h = BipartiteHittingTime(cg_.graph().query_to_object(),
                                cg_.graph().object_to_query(), {sun}, 16);
  EXPECT_DOUBLE_EQ(h[sun], 0.0);
}

TEST_F(SuggestTest, HittingTimeGrowsWithChainDistance) {
  // A clean line graph: q0 -u0- q1 -u1- q2 -u2- q3.
  std::vector<QueryLogRecord> recs;
  for (int i = 0; i < 3; ++i) {
    recs.push_back({0, "q" + std::to_string(i),
                    "u" + std::to_string(i) + ".com", i * 10});
    recs.push_back({0, "q" + std::to_string(i + 1),
                    "u" + std::to_string(i) + ".com", i * 10 + 5});
  }
  auto cg = ClickGraph::Build(recs, EdgeWeighting::kRaw);
  auto h = BipartiteHittingTime(cg.graph().query_to_object(),
                                cg.graph().object_to_query(),
                                {cg.QueryId("q0")}, 64);
  EXPECT_LT(h[cg.QueryId("q1")], h[cg.QueryId("q2")]);
  EXPECT_LT(h[cg.QueryId("q2")], h[cg.QueryId("q3")]);
}

TEST_F(SuggestTest, HittingTimeUnreachableSaturates) {
  std::vector<QueryLogRecord> recs = AmbiguousLog();
  recs.push_back({9, "isolated island", "www.lonely.com", 100});
  auto cg = ClickGraph::Build(recs, EdgeWeighting::kRaw);
  StringId sun = cg.QueryId("sun");
  auto h = BipartiteHittingTime(cg.graph().query_to_object(),
                                cg.graph().object_to_query(), {sun}, 16);
  EXPECT_DOUBLE_EQ(h[cg.QueryId("isolated island")], 16.0);
}

TEST_F(SuggestTest, HtRanksByProximity) {
  HittingTimeSuggester ht(cg_);
  auto out = ht.Suggest(SunRequest(), 10);
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out->size(), 2u);
  for (size_t i = 1; i < out->size(); ++i) {
    EXPECT_GE((*out)[i - 1].score, (*out)[i].score);
  }
}

TEST_F(SuggestTest, ChainHittingTimeMixesChains) {
  // Single chain: 0 -> 1 -> 2 (deterministic), seed {0}.
  auto chain = CsrMatrix::FromTriplets(3, 3, {{1, 0, 1.0}, {2, 1, 1.0}});
  auto h = ChainHittingTime({&chain}, {1.0}, {0}, 10);
  EXPECT_DOUBLE_EQ(h[0], 0.0);
  EXPECT_DOUBLE_EQ(h[1], 1.0);
  EXPECT_DOUBLE_EQ(h[2], 2.0);
}

TEST_F(SuggestTest, PhtPersonalizesTowardHistory) {
  PersonalizedHittingTimeSuggester pht(cg_, records_);
  EXPECT_EQ(pht.name(), "PHT");
  // User 1 (java history) vs user 2 (solar history).
  SuggestionRequest r1 = SunRequest();
  r1.user = 1;
  SuggestionRequest r2 = SunRequest();
  r2.user = 2;
  auto out1 = pht.Suggest(r1, 3);
  auto out2 = pht.Suggest(r2, 3);
  ASSERT_TRUE(out1.ok() && out2.ok());
  ASSERT_FALSE(out1->empty());
  ASSERT_FALSE(out2->empty());
  // Different users yield different top suggestions.
  EXPECT_NE((*out1)[0].query, (*out2)[0].query);
}

// ---------------------------------------------------------- DQS ----

TEST_F(SuggestTest, DqsCoversMultipleFacets) {
  DqsSuggester dqs(cg_);
  EXPECT_EQ(dqs.name(), "DQS");
  auto out = dqs.Suggest(SunRequest(), 6);
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out->size(), 3u);
  // The suggestions should touch at least 2 of the 3 URL clusters.
  std::set<std::string> facets;
  for (const auto& s : *out) {
    if (s.query.find("java") != std::string::npos) facets.insert("java");
    if (s.query.find("solar") != std::string::npos) facets.insert("solar");
    if (s.query.find("uk") != std::string::npos) facets.insert("uk");
  }
  EXPECT_GE(facets.size(), 2u);
}

// ------------------------------------------------------------- CM ----

class MapContentProvider : public PageContentProvider {
 public:
  void Add(const std::string& url,
           std::vector<std::pair<uint32_t, double>> vec) {
    map_[url] = std::move(vec);
  }
  const std::vector<std::pair<uint32_t, double>>* TermVector(
      const std::string& url) const override {
    auto it = map_.find(url);
    return it == map_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<std::string, std::vector<std::pair<uint32_t, double>>>
      map_;
};

TEST_F(SuggestTest, CmUsesUserProfile) {
  MapContentProvider pages;
  // Concepts: java pages share dims {0,1}; solar {2,3}; uk {4,5}.
  pages.Add("www.java.com", {{0, 1.0}, {1, 0.5}});
  pages.Add("java.sun.com", {{0, 0.8}, {1, 1.0}});
  pages.Add("www.nasa.gov", {{2, 1.0}, {3, 0.5}});
  pages.Add("www.energy.gov", {{2, 0.5}, {3, 1.0}});
  pages.Add("www.thesun.co.uk", {{4, 1.0}, {5, 1.0}});
  ConceptSuggester cm(cg_, records_, pages);
  EXPECT_EQ(cm.name(), "CM");

  SuggestionRequest r1 = SunRequest();
  r1.user = 1;  // java user
  auto out = cm.Suggest(r1, 3);
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out->empty());
  // Top suggestion aligns with the java concept for the java user.
  EXPECT_TRUE((*out)[0].query.find("java") != std::string::npos)
      << (*out)[0].query;
}

// -------------------------------------------------- PQS-DA diversify ----

class PqsdaSuggestTest : public SuggestTest {
 protected:
  PqsdaSuggestTest()
      : sessions_(Sessionize(records_)),
        mb_(MultiBipartite::Build(records_, sessions_,
                                  EdgeWeighting::kCfIqf)) {}

  std::vector<Session> sessions_;
  MultiBipartite mb_;
};

TEST_F(PqsdaSuggestTest, DiversifierReturnsRankedList) {
  PqsdaDiversifier diversifier(mb_);
  EXPECT_EQ(diversifier.name(), "PQS-DA");
  auto out = diversifier.Suggest(SunRequest(), 5);
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out->size(), 3u);
  for (size_t i = 1; i < out->size(); ++i) {
    EXPECT_GT((*out)[i - 1].score, (*out)[i].score);
  }
  for (const auto& s : *out) EXPECT_NE(s.query, "sun");
}

TEST_F(PqsdaSuggestTest, DiversifierCoversFacets) {
  PqsdaDiversifier diversifier(mb_);
  auto out = diversifier.Suggest(SunRequest(), 6);
  ASSERT_TRUE(out.ok());
  std::set<std::string> facets;
  for (const auto& s : *out) {
    if (s.query.find("java") != std::string::npos) facets.insert("java");
    if (s.query.find("solar") != std::string::npos) facets.insert("solar");
    if (s.query.find("uk") != std::string::npos) facets.insert("uk");
  }
  EXPECT_GE(facets.size(), 2u);
}

TEST_F(PqsdaSuggestTest, DiversifyExposesRelevance) {
  PqsdaDiversifier diversifier(mb_);
  auto out = diversifier.Diversify(SunRequest(), 4);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->relevance.size(), out->compact_queries.size());
  EXPECT_FALSE(out->candidates.empty());
}

TEST_F(PqsdaSuggestTest, ContextSteersFirstCandidate) {
  PqsdaDiversifier diversifier(mb_);
  SuggestionRequest with_ctx = SunRequest();
  with_ctx.context = {{"java download", 250}};
  auto ctx_out = diversifier.Suggest(with_ctx, 3);
  ASSERT_TRUE(ctx_out.ok());
  ASSERT_FALSE(ctx_out->empty());
  // With a java context, the top suggestion should be a java query.
  EXPECT_TRUE((*ctx_out)[0].query.find("java") != std::string::npos)
      << (*ctx_out)[0].query;
}

TEST_F(PqsdaSuggestTest, UnknownQueryWithNoTermOverlapNotFound) {
  PqsdaDiversifier diversifier(mb_);
  SuggestionRequest r;
  r.query = "zzz unknown";
  auto out = diversifier.Suggest(r, 5);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST_F(PqsdaSuggestTest, UnknownQueryAnsweredThroughTermBipartite) {
  PqsdaDiversifier diversifier(mb_);
  // "solar power" never occurs in the log, but "solar" does: the term
  // bipartite must carry the request (the coverage advantage of §III, which
  // no click-graph baseline has).
  SuggestionRequest r;
  r.query = "solar power";
  r.timestamp = 400;
  auto out = diversifier.Suggest(r, 5);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_FALSE(out->empty());
  // The top suggestion shares the known term.
  EXPECT_NE((*out)[0].query.find("solar"), std::string::npos)
      << (*out)[0].query;
}

TEST_F(PqsdaSuggestTest, TermMatchSeedsRankedByWeight) {
  PqsdaDiversifier diversifier(mb_);
  auto seeds = diversifier.TermMatchSeeds("solar power");
  ASSERT_FALSE(seeds.empty());
  EXPECT_LE(seeds.size(), 8u);
  for (size_t i = 1; i < seeds.size(); ++i) {
    EXPECT_GE(seeds[i - 1].second, seeds[i].second);
  }
  // Every seed contains the matched term.
  for (const auto& [q, w] : seeds) {
    (void)w;
    EXPECT_NE(mb_.QueryString(q).find("solar"), std::string::npos);
  }
  EXPECT_TRUE(diversifier.TermMatchSeeds("zzz unknown").empty());
}

TEST_F(PqsdaSuggestTest, SuggestionsSortedByDescendingRelevance) {
  PqsdaDiversifier diversifier(mb_);
  auto out = diversifier.Diversify(SunRequest(), 5);
  ASSERT_TRUE(out.ok());
  // The selected list is F*-sorted; scores encode the ranking.
  for (size_t i = 1; i < out->candidates.size(); ++i) {
    EXPECT_GT(out->candidates[i - 1].score, out->candidates[i].score);
  }
}

}  // namespace
}  // namespace pqsda
