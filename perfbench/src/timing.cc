#include "timing.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include <unistd.h>

namespace pqsda::perfbench {

namespace {

// Sleeps until `due_ns` on the steady clock: a coarse sleep to shortly
// before it, then a short spin, so wake-up slack does not become schedule
// lag. Returns the wake instant.
int64_t SleepUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 150'000;
  int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while ((now = NowNs()) < due_ns) {
  }
  return now;
}

// Smallest 1-based rank r with r / n >= p / 100. The small epsilon keeps
// exact products (99 * 1000 / 100) from rounding up to the next rank.
size_t RankOf(size_t n, double p) {
  double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double p) {
  return sorted[RankOf(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - RankOf(n, p);
}

double HighestSupportedPercentile(size_t n) {
  for (double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0.0;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 50.0);
  s.p99 = NearestRank(samples, 99.0);
  s.p99_supported = SamplesBeyond(s.count, 99.0) >= 10;
  s.tail_percentile = HighestSupportedPercentile(s.count);
  s.tail = s.tail_percentile > 0.0 ? NearestRank(samples, s.tail_percentile)
                                   : samples.back();
  return s;
}

std::string FormatSummary(const Summary& s, const char* unit, double scale) {
  char tail[32] = "max";
  if (s.tail_percentile > 0.0) {
    std::snprintf(tail, sizeof(tail), "p%g", s.tail_percentile);
  }
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "p50 %.1f %s / p99 %.1f %s%s / %s %.1f %s (n=%zu)",
                s.p50 * scale, unit, s.p99 * scale, unit,
                s.p99_supported ? "" : " [<10 beyond]", tail, s.tail * scale,
                unit, s.count);
  return buf;
}

OpenLoopResult RunOpenLoop(size_t count, double rate, size_t workers,
                           const std::function<bool(size_t)>& serve) {
  OpenLoopResult out;
  out.latency_us.assign(count, 0.0);
  out.queue_wait_us.assign(count, 0.0);
  out.generator_lag_us.assign(count, 0.0);
  const double period_ns = 1e9 / rate;
  std::atomic<size_t> next{0};
  std::atomic<size_t> failed{0};
  // Start slightly in the future so every worker is parked on request 0..w
  // before the first one is due.
  const int64_t start_ns = NowNs() + 2'000'000;
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < count;) {
      const int64_t due =
          start_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
      const int64_t now = NowNs();
      if (now < due) {
        out.generator_lag_us[i] = static_cast<double>(SleepUntil(due) - due) *
                                  1e-3;
      } else {
        out.queue_wait_us[i] = static_cast<double>(now - due) * 1e-3;
      }
      const bool ok = serve(i);
      const int64_t end = NowNs();
      out.latency_us[i] = ok ? static_cast<double>(end - due) * 1e-3 : kMissed;
      if (!ok) failed.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < std::max<size_t>(workers, 1); ++w) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) t.join();
  out.elapsed_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
  out.failed = failed.load();
  return out;
}

ClosedLoopResult RunClosedLoop(double seconds, size_t clients,
                               size_t first_index,
                               const std::function<bool(size_t)>& serve) {
  std::atomic<size_t> next{first_index};
  std::atomic<size_t> attempted{0};
  std::atomic<size_t> succeeded{0};
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  std::atomic<int64_t> latest_end{start};
  auto client = [&] {
    while (NowNs() < stop) {
      const size_t i = next.fetch_add(1);
      attempted.fetch_add(1);
      if (serve(i)) succeeded.fetch_add(1);
    }
    const int64_t end = NowNs();
    int64_t prev = latest_end.load();
    while (end > prev && !latest_end.compare_exchange_weak(prev, end)) {
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < std::max<size_t>(clients, 1); ++c) {
    threads.emplace_back(client);
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult out;
  out.attempted = attempted.load();
  out.succeeded = succeeded.load();
  // Requests in flight at the stop instant finish and count, so the
  // denominator runs to the last completion.
  out.elapsed_s = static_cast<double>(latest_end.load() - start) * 1e-9;
  return out;
}

void ParallelIndex(size_t n, size_t threads,
                   const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(threads, 1); ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

double StealSeconds() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal ...", in clock ticks.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};
  stat >> cpu;
  for (double& f : field) stat >> f;
  if (!stat || cpu != "cpu") return 0.0;
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<double> RunPieces(size_t needed, double max_share,
                              int64_t deadline_ns,
                              const std::function<void(size_t)>& piece,
                              const std::function<double()>& steal_seconds) {
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> shares;
  size_t clean = 0;
  for (size_t k = 0; clean < needed; ++k) {
    const double steal_before = steal_seconds();
    const int64_t start = NowNs();
    piece(k);
    const int64_t end = NowNs();
    const double wall_ns = static_cast<double>(end - start);
    const double share =
        wall_ns > 0.0
            ? (steal_seconds() - steal_before) * 1e9 / (cpus * wall_ns)
            : 0.0;
    shares.push_back(share);
    if (share <= max_share) ++clean;
    if (shares.size() >= needed &&
        end + static_cast<int64_t>(wall_ns) > deadline_ns) {
      break;
    }
  }
  return shares;
}

std::vector<size_t> LeastStolen(const std::vector<double>& shares,
                                size_t needed) {
  std::vector<size_t> order(shares.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shares[a] < shares[b];
  });
  order.resize(std::min(needed, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace pqsda::perfbench
