#ifndef PQSDA_COMMON_FAULT_INJECTOR_H_
#define PQSDA_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"

namespace pqsda {

/// Names of the injection points instrumented on the request path. A point
/// fires once per pass through the instrumented site (e.g. once per solver
/// iteration), so a test can target "the 3rd Jacobi sweep of the request"
/// exactly.
namespace faults {
/// Top of every iteration in the linear solvers (all four kinds).
inline constexpr char kSolverIteration[] = "solver.iteration";
/// Top of every hitting-time sweep iteration (chain and bipartite).
inline constexpr char kHittingIteration[] = "hitting.iteration";
/// Top of every Algorithm 1 selection round in the diversifier.
inline constexpr char kHittingRound[] = "suggest.hitting_round";
/// End of the §IV-A expansion stage, before the solve starts.
inline constexpr char kExpansionDone[] = "suggest.expansion_done";
/// Engine admission: fired once per request before rung selection.
inline constexpr char kAdmission[] = "suggest.admission";
/// Value override: observed pool queue depth at admission (pool
/// saturation without actually saturating a pool).
inline constexpr char kQueueDepth[] = "admission.queue_depth";
/// Value override: observed windowed p95 latency (us) at admission.
inline constexpr char kP95Us[] = "admission.p95_us";
/// Fired once per per-shard fetch of the scatter-gather coordinator
/// (ShardedWalkBackend), before the fetch computes anything.
inline constexpr char kShardFetch[] = "shard.fetch";
/// Value override: shard id whose fetches report a per-fetch deadline
/// expiry (a slow shard, without a wall-clock race). -1/unset = none.
inline constexpr char kShardDeadlineShard[] = "shard.deadline_shard";
/// Value override: shard id whose admission gate sheds its fetches (that
/// shard degrades alone; the request survives). -1/unset = none.
inline constexpr char kShardShedShard[] = "shard.shed_shard";
/// Value override: nonzero makes every index rebuild fail before it builds
/// (the batch is dropped and counted as a rebuild failure).
inline constexpr char kRebuildFailure[] = "index.rebuild_failure";
}  // namespace faults

/// What an armed injection point does when it fires.
struct FaultAction {
  /// Trigger on the Nth hit of the point (1-based) ...
  uint64_t at_hit = 1;
  /// ... and, when true, on every hit from then on.
  bool repeat = false;
  /// Step the injector's fake clock forward by this much (expiring any
  /// deadline computed against FaultInjector clock time).
  int64_t advance_clock_ns = 0;
  /// Cancel this token.
  CancelToken* cancel = nullptr;
};

/// Deterministic fault injection for the robustness test harness: tests arm
/// named points with actions (advance the fake clock, cancel a token) and
/// numeric overrides (fake pool saturation), then drive the engine normally.
/// Production cost is one relaxed atomic load per instrumented site while
/// nothing is armed.
///
/// The injector owns a fake monotonic clock (ClockFn() hands it to
/// CancelToken / obs::WindowOptions, reusing the PR 3 injectable-clock
/// pattern), so "the deadline expires during iteration 3 of the solve" is a
/// deterministic statement, not a sleep-based race.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Process-wide instance the instrumented sites consult.
  static FaultInjector& Default();

  // --- fake clock -------------------------------------------------------
  int64_t NowNs() const { return fake_now_ns_.load(std::memory_order_acquire); }
  void SetClock(int64_t now_ns) {
    fake_now_ns_.store(now_ns, std::memory_order_release);
  }
  void AdvanceClock(int64_t delta_ns) {
    fake_now_ns_.fetch_add(delta_ns, std::memory_order_acq_rel);
  }
  /// A clock function reading the fake clock (for CancelToken and the
  /// telemetry windows).
  std::function<int64_t()> ClockFn();

  // --- arming -----------------------------------------------------------
  /// Arms `action` on `point`; multiple actions per point stack.
  void Arm(const std::string& point, FaultAction action);
  /// Sets a numeric override consulted via Value().
  void SetValue(const std::string& point, int64_t value);
  /// Disarms everything and zeroes hit counts (the clock keeps its value).
  void Reset();

  // --- instrumented-site API -------------------------------------------
  /// Fires `point`: counts the hit and applies any armed actions whose
  /// trigger matches. A single relaxed load when nothing is armed.
  void Hit(const char* point);
  /// Numeric override for `point`, or `fallback` when none is set.
  int64_t Value(const char* point, int64_t fallback) const;
  /// Hits recorded for `point` since the last Reset.
  uint64_t Hits(const std::string& point) const;

 private:
  std::atomic<bool> armed_{false};
  std::atomic<int64_t> fake_now_ns_{0};
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<FaultAction>> actions_;
  std::unordered_map<std::string, uint64_t> hits_;
  std::unordered_map<std::string, int64_t> values_;
};

}  // namespace pqsda

#endif  // PQSDA_COMMON_FAULT_INJECTOR_H_
