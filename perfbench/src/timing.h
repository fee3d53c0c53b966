#ifndef PQSDA_PERFBENCH_TIMING_H_
#define PQSDA_PERFBENCH_TIMING_H_

// Timing helpers of the benchmark: nearest-rank percentiles over raw
// samples, the open-loop and closed-loop load loops, host steal (and the
// timed pieces chosen by it) and process memory. Nothing here knows about the engine; the load loops call a
// `serve(i)` callback for request index i.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace pqsda::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A failed or refused request: later than every latency limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it. `sorted` ascending, non-empty.
double NearestRank(const std::vector<double>& sorted, double p);

/// Samples strictly above the nearest-rank position of `p` among `n`.
size_t SamplesBeyond(size_t n, double p);

/// The highest of the standard percentiles (99.99, 99.9, 99, 95, 90, 75, 50)
/// that has at least 10 samples above it; 0 when not even the median has.
double HighestSupportedPercentile(size_t n);

/// Median and tail of one set of raw samples, with the sample count.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// True when at least 10 samples lie beyond the p99 rank.
  bool p99_supported = false;
  /// The highest supported standard percentile and its value.
  double tail_percentile = 0.0;
  double tail = 0.0;
};

/// Summarizes raw samples (any order; kMissed entries sort last and make
/// the percentiles that reach them infinite).
Summary Summarize(std::vector<double> samples);

/// "p50 X / p99 Y (n=N)" for reports; `scale` converts the sample unit.
std::string FormatSummary(const Summary& s, const char* unit,
                          double scale = 1.0);

/// Outcome of an open-loop phase. Index i of each vector is request i.
struct OpenLoopResult {
  /// Completion minus the request's intended send time (us); kMissed when
  /// serve() reported failure.
  std::vector<double> latency_us;
  /// How long a due request waited for a free worker (us); 0 when a worker
  /// was already waiting for it.
  std::vector<double> queue_wait_us;
  /// How late an idle worker woke for its request (us): the load
  /// generator's own lag behind the schedule. 0 for requests that queued.
  std::vector<double> generator_lag_us;
  double elapsed_s = 0.0;
  size_t failed = 0;
};

/// Serves `count` requests at a fixed `rate` (requests/s, constant spacing)
/// with `workers` threads. Request i is due at start + i / rate and is
/// timed from that instant, so a stalled worker inflates the latency of
/// every request that waited behind it (no coordinated omission).
/// `serve(i)` returns false for a failed request.
OpenLoopResult RunOpenLoop(size_t count, double rate, size_t workers,
                           const std::function<bool(size_t)>& serve);

/// Outcome of a closed-loop phase.
struct ClosedLoopResult {
  size_t attempted = 0;
  size_t succeeded = 0;
  double elapsed_s = 0.0;
  double throughput_rps() const {
    return elapsed_s > 0.0 ? static_cast<double>(succeeded) / elapsed_s : 0.0;
  }
};

/// `clients` threads each send their next request as soon as the previous
/// one returns, for `seconds`. Request indices start at `first_index` and
/// are handed out in order across clients.
ClosedLoopResult RunClosedLoop(double seconds, size_t clients,
                               size_t first_index,
                               const std::function<bool(size_t)>& serve);

/// Runs fn(i) for i in [0, n) on `threads` threads (work-stealing by index).
void ParallelIndex(size_t n, size_t threads,
                   const std::function<void(size_t)>& fn);

/// Peak resident set of this process (VmHWM) in MB; 0 when unavailable.
double PeakRssMb();

/// CPU time the hypervisor gave to other guests (steal), summed over all
/// CPUs since boot, in seconds; 0 when unavailable. The delta over a phase
/// shows how much of the host a run did not get.
double StealSeconds();

/// Runs `piece(k)` for k = 0, 1, ... and measures the share of all CPU time
/// the hypervisor gave to other guests while each ran. Stops once `needed`
/// pieces lost at most `max_share`, or once at least `needed` ran and
/// another, lasting as long as the last one, would end past `deadline_ns`.
/// Returns the steal share of every piece run, in run order.
std::vector<double> RunPieces(
    size_t needed, double max_share, int64_t deadline_ns,
    const std::function<void(size_t)>& piece,
    const std::function<double()>& steal_seconds = StealSeconds);

/// Indices of the `needed` least-stolen pieces, in run order (the earlier
/// piece wins a tie).
std::vector<size_t> LeastStolen(const std::vector<double>& shares,
                                size_t needed);

}  // namespace pqsda::perfbench

#endif  // PQSDA_PERFBENCH_TIMING_H_
