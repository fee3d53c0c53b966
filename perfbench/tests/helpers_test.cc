// Tests of the benchmark's own helpers: the percentile rule, digest
// stability, the open-loop schedule and the choice of timed pieces by host
// steal. Run with ctest from the benchmark's build directory.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "digest.h"
#include "timing.h"

namespace pqsda::perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

void PercentilesAreNearestRank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Summary s = Summarize(v);
  EXPECT(s.count == 100);
  EXPECT(s.p50 == 50.0);
  EXPECT(s.p99 == 99.0);
  // Only one sample lies beyond p99 of 100: not a supported tail.
  EXPECT(!s.p99_supported);
  EXPECT(SamplesBeyond(100, 99.0) == 1);
  EXPECT(s.tail_percentile == 90.0);
  EXPECT(s.tail == 90.0);

  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  EXPECT(NearestRank(sorted, 99.0) == 990.0);
  EXPECT(NearestRank(sorted, 99.9) == 999.0);
  EXPECT(NearestRank(sorted, 0.0) == 1.0);
  EXPECT(NearestRank(sorted, 100.0) == 1000.0);
  EXPECT(SamplesBeyond(1000, 99.0) == 10);
  EXPECT(HighestSupportedPercentile(1000) == 99.0);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
  EXPECT(HighestSupportedPercentile(10) == 0.0);
  EXPECT(Summarize(sorted).p99_supported);
}

void FailuresMissEveryLimit() {
  std::vector<double> v(1000, 5.0);
  for (int i = 0; i < 20; ++i) v[i] = kMissed;  // 2% failed
  const Summary s = Summarize(v);
  EXPECT(s.p50 == 5.0);
  EXPECT(std::isinf(s.p99));
}

void DigestIsStable() {
  const std::vector<Suggestion> list = {{"amb7", 3.0}, {"w12x9 w12x4", 2.0}};
  // Golden value: the fingerprint definition must not drift between
  // commits, or digests printed by two commits stop being comparable.
  EXPECT(Hex(ListFingerprint(list)) == "2db0d3de7813e491");
  EXPECT(ListFingerprint(list) == ListFingerprint(list));
  std::vector<Suggestion> reordered = {list[1], list[0]};
  EXPECT(ListFingerprint(reordered) != ListFingerprint(list));
  std::vector<Suggestion> rescored = list;
  rescored[0].score = std::nextafter(3.0, 4.0);  // one ulp
  EXPECT(ListFingerprint(rescored) != ListFingerprint(list));
  EXPECT(ListFingerprint({{"ab", 1.0}, {"c", 1.0}}) !=
         ListFingerprint({{"a", 1.0}, {"bc", 1.0}}));
  const std::vector<uint64_t> fps = {1, 2, 3};
  EXPECT(DigestOf(fps) == DigestOf({1, 2, 3}));
  EXPECT(DigestOf(fps) != DigestOf({3, 2, 1}));
}

void OpenLoopTimesFromIntendedSendTime() {
  // One worker, one request per ms; request 0 stalls for 20 ms. Requests
  // 1..19 were due during the stall: each must be charged the wait from its
  // due time, not just its (instant) service time.
  const auto result = RunOpenLoop(40, 1000.0, 1, [](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return i != 30;  // request 30 fails
  });
  EXPECT(result.latency_us[0] >= 20'000.0);
  EXPECT(result.queue_wait_us[1] >= 18'000.0);
  EXPECT(result.latency_us[1] >= 18'000.0);
  EXPECT(result.latency_us[10] >= 9'000.0);
  EXPECT(result.latency_us[1] > result.latency_us[10]);
  // The backlog drains: a request due well after the stall runs on time.
  EXPECT(result.queue_wait_us[39] < 5'000.0);
  EXPECT(std::isinf(result.latency_us[30]));
  EXPECT(result.failed == 1);
  // The run cannot end before the last request was due.
  EXPECT(result.elapsed_s >= 0.039);
}

void ClosedLoopCountsCompletions() {
  const auto result = RunClosedLoop(0.05, 2, 0, [](size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return i % 2 == 0;
  });
  EXPECT(result.attempted > 10);
  EXPECT(result.succeeded * 2 + 2 >= result.attempted);
  EXPECT(result.elapsed_s >= 0.05);
  EXPECT(result.throughput_rps() > 0.0);
}

void StolenPiecesAreRepeatedWhileTimeAllows() {
  // A fake steal counter: piece k adds stolen[k] seconds (1 s is far above
  // 2% of a 10 ms piece).
  const std::vector<double> stolen = {0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 1.0};
  double steal = 0.0;
  auto piece = [&](size_t k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    steal += stolen[k];
  };
  auto counter = [&] { return steal; };
  // Time enough: runs until three pieces stayed within the limit.
  std::vector<double> shares =
      RunPieces(3, 0.02, NowNs() + 10'000'000'000, piece, counter);
  EXPECT(shares.size() == 5);
  EXPECT(shares[0] == 0.0 && shares[2] == 0.0 && shares[4] == 0.0);
  EXPECT(shares[1] > 0.02 && shares[3] > 0.02);
  EXPECT((LeastStolen(shares, 3) == std::vector<size_t>{0, 2, 4}));

  // Past the deadline: stops once three pieces ran, stolen or not, and the
  // least-stolen of them are kept.
  steal = 0.0;
  shares = RunPieces(
      3, 0.02, NowNs(),
      [&](size_t k) { piece(k + 3); }, counter);  // stolen 1, 0, 2
  EXPECT(shares.size() == 3);
  EXPECT((LeastStolen(shares, 2) == std::vector<size_t>{0, 1}));
  EXPECT((LeastStolen({0.5, 0.1, 0.5, 0.1}, 3) ==
          std::vector<size_t>{0, 1, 3}));  // ties: the earlier piece
}

}  // namespace
}  // namespace pqsda::perfbench

int main() {
  using namespace pqsda::perfbench;
  PercentilesAreNearestRank();
  FailuresMissEveryLimit();
  DigestIsStable();
  OpenLoopTimesFromIntendedSendTime();
  ClosedLoopCountsCompletions();
  StolenPiecesAreRepeatedWhileTimeAllows();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("all helper tests passed\n");
  return 0;
}
