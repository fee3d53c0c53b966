// Robustness tests: random and adversarial inputs must produce clean Status
// errors (or safe empty results), never crashes or undefined behavior —
// plus the degradation-ladder determinism property (a rung reached by
// budget is bitwise the rung reached by configuration).

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "core/pqsda_engine.h"
#include "log/cleaner.h"
#include "log/log_io.h"
#include "log/sessionizer.h"
#include "synthetic/generator.h"
#include "text/tokenizer.h"

namespace pqsda {
namespace {

std::string RandomBytes(Rng& rng, size_t max_len) {
  size_t len = rng.NextBounded(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Printable-ish plus tabs/newlines to stress field splitting.
    const char* alphabet =
        "abc123 \t\\|/.:-_~!@#$%^&*()";
    s.push_back(alphabet[rng.NextBounded(27)]);
  }
  return s;
}

TEST(RobustnessTest, ParseLogLineNeverCrashes) {
  Rng rng(1);
  int ok_count = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string line = RandomBytes(rng, 60);
    auto rec = ParseLogLine(line);
    if (rec.ok()) {
      ++ok_count;
      EXPECT_FALSE(rec->query.find('\n') != std::string::npos);
    } else {
      EXPECT_FALSE(rec.status().message().empty());
    }
  }
  // Random text parses only rarely; the point is that both paths are clean.
  EXPECT_LT(ok_count, 2000);
}

TEST(RobustnessTest, TokenizerHandlesArbitraryBytes) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    std::string text = RandomBytes(rng, 80);
    auto tokens = Tokenize(text);
    for (const auto& t : tokens) {
      EXPECT_FALSE(t.empty());
      for (char c : t) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
      }
    }
  }
}

TEST(RobustnessTest, ReadLogTsvRejectsGarbageFile) {
  std::string path = testing::TempDir() + "/garbage.tsv";
  {
    std::ofstream out(path);
    out << "complete\tgarbage\nwith\x01binary\x02bytes\tand\ttabs\teverywhere\n";
  }
  auto read = ReadLogTsv(path);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(RobustnessTest, CleanerHandlesAdversarialRecords) {
  std::vector<QueryLogRecord> records;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    QueryLogRecord rec;
    rec.user_id = static_cast<UserId>(rng.NextBounded(5));
    rec.query = RandomBytes(rng, 150);
    rec.clicked_url = rng.NextDouble() < 0.5 ? RandomBytes(rng, 30) : "";
    rec.timestamp = static_cast<int64_t>(rng.NextBounded(1000000));
    records.push_back(std::move(rec));
  }
  CleanerStats stats;
  auto cleaned = CleanLog(records, CleanerOptions{}, &stats);
  EXPECT_EQ(stats.input_records, 500u);
  EXPECT_EQ(stats.output_records, cleaned.size());
  for (const auto& rec : cleaned) {
    EXPECT_FALSE(rec.query.empty());
    EXPECT_LE(rec.query.size(), 100u);
  }
  // Sessionizing arbitrary cleaned output must partition all records.
  auto sessions = Sessionize(cleaned);
  size_t covered = 0;
  for (const auto& s : sessions) covered += s.size();
  EXPECT_EQ(covered, cleaned.size());
}

TEST(RobustnessTest, SessionizerHandlesTimestampEdges) {
  std::vector<QueryLogRecord> records = {
      {0, "a", "", INT64_MIN / 2},
      {0, "b", "", 0},
      {0, "c", "", INT64_MAX / 2},
  };
  SortByUserAndTime(records);
  auto sessions = Sessionize(records);
  EXPECT_EQ(sessions.size(), 3u);  // enormous gaps split everything
}

// ------------------------------------ degradation-ladder determinism ----

// Property: the degradation ladder is a pure function of configuration and
// budget, never of wall-clock races. A request whose deadline budget lands
// in rung r's band (on a frozen fake clock, so nothing actually elapses)
// must return a list bitwise identical to the same request served by an
// engine configured with min_rung = r and no deadline at all.
TEST(LadderDeterminismProperty, BudgetRungMatchesConfiguredRungBitwise) {
  FaultInjector& injector = FaultInjector::Default();
  injector.Reset();
  injector.SetClock(0);

  // Deterministic build: personalization off (no Gibbs sampling), same
  // records for both engines.
  GeneratorConfig gen;
  gen.num_users = 40;
  auto data = GenerateLog(gen);

  PqsdaEngineConfig base;
  base.personalize = false;
  auto budget_engine = PqsdaEngine::Build(data.records, base);
  ASSERT_TRUE(budget_engine.ok());

  // Budgets (on the frozen clock) landing squarely inside each rung's band
  // of the default thresholds: rung 1 below 250ms, rung 2 below 25ms.
  const struct {
    size_t rung;
    int64_t budget_ns;
  } kBands[] = {
      {1, 100'000'000},  // 100ms -> truncated solve
      {2, 10'000'000},   // 10ms  -> walk-only
  };

  Rng rng(7);
  std::vector<SuggestionRequest> requests;
  for (int i = 0; i < 10; ++i) {
    const QueryLogRecord& rec =
        data.records[rng.NextBounded(data.records.size())];
    SuggestionRequest request;
    request.query = rec.query;
    request.timestamp = rec.timestamp + 60;
    requests.push_back(std::move(request));
  }

  for (const auto& band : kBands) {
    PqsdaEngineConfig floored = base;
    floored.robustness.min_rung = band.rung;
    auto floored_engine = PqsdaEngine::Build(data.records, floored);
    ASSERT_TRUE(floored_engine.ok());

    for (size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE("rung " + std::to_string(band.rung) + " request " +
                   std::to_string(i) + " \"" + requests[i].query + "\"");
      // Budget path: fake-clock token with the band's remaining budget. The
      // clock never advances, so the token shapes the rung decision but
      // never expires mid-request.
      CancelToken token(injector.ClockFn());
      token.SetDeadlineAfter(band.budget_ns);
      SuggestionRequest budget_request = requests[i];
      budget_request.cancel = &token;
      SuggestStats budget_stats;
      auto by_budget = (*budget_engine)->Suggest(budget_request, 8,
                                                 &budget_stats);

      // Configuration path: no deadline, rung pinned by min_rung.
      SuggestStats floored_stats;
      auto by_config = (*floored_engine)->Suggest(requests[i], 8,
                                                  &floored_stats);

      ASSERT_EQ(by_budget.ok(), by_config.ok());
      if (!by_budget.ok()) {
        EXPECT_EQ(by_budget.status().code(), by_config.status().code());
        continue;
      }
      EXPECT_EQ(budget_stats.degradation_rung, band.rung);
      EXPECT_EQ(floored_stats.degradation_rung, band.rung);
      // Bitwise: same queries, same scores, same order.
      EXPECT_EQ(*by_budget, *by_config);
    }
  }
  injector.Reset();
}

}  // namespace
}  // namespace pqsda
