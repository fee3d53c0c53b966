#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "log/cleaner.h"
#include "log/log_io.h"
#include "log/record.h"
#include "log/sessionizer.h"
#include "text/tokenizer.h"

namespace pqsda {
namespace {

// -------------------------------------------------------- Tokenizer ----

TEST(TokenizerTest, SplitsAndLowercases) {
  auto t = Tokenize("Sun Java  Download");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "sun");
  EXPECT_EQ(t[1], "java");
  EXPECT_EQ(t[2], "download");
}

TEST(TokenizerTest, NonAlnumAreSeparators) {
  auto t = Tokenize("c++ how-to: FAQ?");
  std::vector<std::string> expected = {"c", "how", "to", "faq"};
  EXPECT_EQ(t, expected);
}

TEST(TokenizerTest, EmptyAndPunctOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("!!! ---").empty());
}

TEST(TokenizerTest, KeepsDigits) {
  auto t = Tokenize("windows 7 download");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], "7");
}

TEST(TokenizerTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("MiXeD Case"), "mixed case");
}

TEST(TokenizerTest, Stopwords) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("of"));
  EXPECT_FALSE(IsStopword("java"));
}

// ----------------------------------------------------------- Record ----

TEST(RecordTest, SortByUserAndTime) {
  std::vector<QueryLogRecord> recs = {
      {2, "b", "", 100},
      {1, "c", "", 300},
      {1, "a", "", 100},
  };
  SortByUserAndTime(recs);
  EXPECT_EQ(recs[0].user_id, 1u);
  EXPECT_EQ(recs[0].query, "a");
  EXPECT_EQ(recs[1].query, "c");
  EXPECT_EQ(recs[2].user_id, 2u);
}

TEST(RecordTest, HasClick) {
  QueryLogRecord r;
  EXPECT_FALSE(r.has_click());
  r.clicked_url = "www.example.com";
  EXPECT_TRUE(r.has_click());
}

// ------------------------------------------------------------ LogIo ----

TEST(LogIoTest, WriteReadRoundTrip) {
  std::vector<QueryLogRecord> recs = {
      {1, "sun java", "java.sun.com", 1355270400},
      {2, "solar cell", "", 1355356800},
  };
  std::string path = testing::TempDir() + "/log_roundtrip.tsv";
  ASSERT_TRUE(WriteLogTsv(path, recs).ok());
  auto read = ReadLogTsv(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, recs);
  std::remove(path.c_str());
}

TEST(LogIoTest, SanitizesTabsInQuery) {
  std::vector<QueryLogRecord> recs = {{1, "a\tb", "", 5}};
  std::string path = testing::TempDir() + "/log_tabs.tsv";
  ASSERT_TRUE(WriteLogTsv(path, recs).ok());
  auto read = ReadLogTsv(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)[0].query, "a b");
  std::remove(path.c_str());
}

TEST(LogIoTest, ParseLineErrors) {
  EXPECT_FALSE(ParseLogLine("only\ttwo").ok());
  EXPECT_FALSE(ParseLogLine("x\tq\tu\t123").ok());   // bad user id
  EXPECT_FALSE(ParseLogLine("1\tq\tu\tnotanum").ok());
  auto ok = ParseLogLine("7\tsun\twww.x.com\t42");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->user_id, 7u);
  EXPECT_EQ(ok->timestamp, 42);
}

TEST(LogIoTest, ReadMissingFileIsIoError) {
  auto r = ReadLogTsv("/nonexistent/dir/file.tsv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------- Cleaner ----

TEST(CleanerTest, DropsEmptyAndOverlong) {
  CleanerOptions opts;
  opts.max_terms = 3;
  std::vector<QueryLogRecord> recs = {
      {1, "", "", 1},
      {1, "a b c d e", "", 2},
      {1, "good query", "", 3},
  };
  CleanerStats stats;
  auto out = CleanLog(recs, opts, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, "good query");
  EXPECT_EQ(stats.dropped_empty, 1u);
  EXPECT_EQ(stats.dropped_length, 1u);
}

TEST(CleanerTest, CollapsesAdjacentDuplicatesKeepingClick) {
  std::vector<QueryLogRecord> recs = {
      {1, "sun", "", 10},
      {1, "sun", "www.sun.com", 20},
      {1, "moon", "", 30},
  };
  CleanerStats stats;
  auto out = CleanLog(recs, CleanerOptions{}, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].query, "sun");
  EXPECT_EQ(out[0].clicked_url, "www.sun.com");
  EXPECT_EQ(stats.collapsed_duplicates, 1u);
}

TEST(CleanerTest, DropsRobotUsers) {
  CleanerOptions opts;
  opts.max_records_per_user = 2;
  std::vector<QueryLogRecord> recs = {
      {1, "a", "", 1}, {1, "b", "", 2}, {1, "c", "", 3},
      {2, "d", "", 1},
  };
  auto out = CleanLog(recs, opts, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].user_id, 2u);
}

TEST(CleanerTest, MaxCharsLimit) {
  CleanerOptions opts;
  opts.max_chars = 5;
  std::vector<QueryLogRecord> recs = {{1, "abcdef", "", 1}, {1, "abc", "", 2}};
  auto out = CleanLog(recs, opts, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, "abc");
}

// ------------------------------------------------------ Sessionizer ----

TEST(SessionizerTest, SplitsOnTimeGap) {
  std::vector<QueryLogRecord> recs = {
      {1, "a", "", 0},
      {1, "b", "", 100},
      {1, "c", "", 100 + 3 * 3600},  // far beyond any gap
  };
  auto sessions = Sessionize(recs);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].size(), 2u);
  EXPECT_EQ(sessions[1].size(), 1u);
}

TEST(SessionizerTest, SplitsOnUserChange) {
  std::vector<QueryLogRecord> recs = {
      {1, "a", "", 0},
      {2, "a", "", 10},
  };
  auto sessions = Sessionize(recs);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].user_id, 1u);
  EXPECT_EQ(sessions[1].user_id, 2u);
}

TEST(SessionizerTest, LexicalOverlapExtendsSession) {
  SessionizerOptions opts;
  opts.max_gap_seconds = 60;
  opts.extended_gap_seconds = 600;
  std::vector<QueryLogRecord> recs = {
      {1, "sun java", "", 0},
      {1, "java download", "", 300},  // > 60s but shares "java"
      {1, "unrelated stuff", "", 700},
  };
  auto sessions = Sessionize(recs, opts);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].size(), 2u);
}

TEST(SessionizerTest, NoLexicalExtensionWhenDisabled) {
  SessionizerOptions opts;
  opts.max_gap_seconds = 60;
  opts.extended_gap_seconds = 600;
  opts.use_lexical_overlap = false;
  std::vector<QueryLogRecord> recs = {
      {1, "sun java", "", 0},
      {1, "java download", "", 300},
  };
  auto sessions = Sessionize(recs, opts);
  EXPECT_EQ(sessions.size(), 2u);
}

TEST(SessionizerTest, RecordToSessionInverse) {
  std::vector<QueryLogRecord> recs = {
      {1, "a", "", 0}, {1, "b", "", 10}, {2, "c", "", 0}};
  auto sessions = Sessionize(recs);
  auto map = RecordToSession(sessions, recs.size());
  EXPECT_EQ(map[0], map[1]);
  EXPECT_NE(map[0], map[2]);
}

TEST(SessionizerTest, EmptyLog) {
  auto sessions = Sessionize({});
  EXPECT_TRUE(sessions.empty());
}

}  // namespace
}  // namespace pqsda
