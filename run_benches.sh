#!/bin/bash
# Regenerates every figure of the paper plus the ablations.
# Scales are chosen to finish on a 2-core laptop in ~20 minutes; raise
# PQSDA_USERS / PQSDA_TESTS toward the paper's sizes on bigger machines.
set -u
cd "$(dirname "$0")"
B=build/bench
run() { echo "===== $* ====="; env "${@:2}" timeout 1200 "$B/$1"; echo; }

# Verify step: race-check the concurrent layers — the observability layer
# (thread-local span stacks, atomic counters), the serving layer
# (ThreadPool, SuggestBatch, the sharded result cache), the live telemetry
# surface (sliding windows, the HTTP exporter, the request log), the
# overload-hardening path (CancelToken, FaultInjector, the degradation
# ladder under a mid-flight cancellation storm), the live-ingestion path
# (snapshot publication/reclaim racing in-flight requests), the stage
# profiler (thread-local accumulators folding into the shared epoch ring),
# the explain layer (thread-local sinks, the /explainz ring, replay
# racing rebuilds), the sharded scatter-gather path (per-shard lanes and
# cross-shard fetches racing rebuild swaps) and the cache (validation
# vectors graded under swap churn and warmup fills) — plus the SIMD kernel
# dispatch (kernel_equivalence_test) — by running obs_test, serving_test,
# telemetry_test, fault_injection_test, ingest_test, profiler_test,
# explain_test, sharding_test, cache_policy_test and
# kernel_equivalence_test under ThreadSanitizer before spending 20 minutes
# on figures. Skip with PQSDA_TSAN_VERIFY=0.
if [ "${PQSDA_TSAN_VERIFY:-1}" = "1" ]; then
  echo "===== verify: obs + serving + telemetry + fault_injection + ingest + profiler + explain + sharding + cache_policy + kernel_equivalence tests under ThreadSanitizer ====="
  cmake -B build-tsan -S . -DPQSDA_ENABLE_TSAN=ON >/dev/null &&
    cmake --build build-tsan --target obs_test serving_test telemetry_test fault_injection_test ingest_test profiler_test explain_test sharding_test cache_policy_test kernel_equivalence_test -j >/dev/null &&
    timeout 600 ./build-tsan/tests/obs_test &&
    timeout 600 ./build-tsan/tests/serving_test &&
    timeout 600 ./build-tsan/tests/telemetry_test &&
    timeout 600 ./build-tsan/tests/fault_injection_test &&
    timeout 600 ./build-tsan/tests/ingest_test &&
    timeout 600 ./build-tsan/tests/profiler_test &&
    timeout 600 ./build-tsan/tests/explain_test &&
    timeout 600 ./build-tsan/tests/sharding_test &&
    timeout 600 ./build-tsan/tests/cache_policy_test &&
    timeout 600 ./build-tsan/tests/kernel_equivalence_test || {
      echo "TSAN verify failed" >&2
      exit 1
    }
  echo
fi

# Lifetime half of the verify: AddressSanitizer (+UBSan) over the suites
# that stress snapshot reclamation and the fault-injection request path — a
# request serving out of generation g while g+1 swaps in must never touch
# freed memory. Skip with PQSDA_ASAN_VERIFY=0.
if [ "${PQSDA_ASAN_VERIFY:-1}" = "1" ]; then
  echo "===== verify: ingest + serving + fault_injection + profiler + explain + sharding + cache_policy + kernel_equivalence tests under AddressSanitizer ====="
  cmake -B build-asan -S . -DPQSDA_ENABLE_ASAN=ON >/dev/null &&
    cmake --build build-asan --target ingest_test serving_test fault_injection_test profiler_test explain_test sharding_test cache_policy_test kernel_equivalence_test -j >/dev/null &&
    timeout 600 ./build-asan/tests/ingest_test &&
    timeout 600 ./build-asan/tests/serving_test &&
    timeout 600 ./build-asan/tests/fault_injection_test &&
    timeout 600 ./build-asan/tests/profiler_test &&
    timeout 600 ./build-asan/tests/explain_test &&
    timeout 600 ./build-asan/tests/sharding_test &&
    timeout 600 ./build-asan/tests/cache_policy_test &&
    timeout 600 ./build-asan/tests/kernel_equivalence_test || {
      echo "ASan verify failed" >&2
      exit 1
    }
  echo
fi

run fig3_diversity_relevance PQSDA_USERS=200 PQSDA_TESTS=120
run fig4_perplexity PQSDA_USERS=250 PQSDA_TOPICS=16 PQSDA_GIBBS=80
run fig5_personalized PQSDA_USERS=200 PQSDA_MAX_EVAL=300 PQSDA_TOPICS=32 PQSDA_GIBBS=60
run fig6_hpr PQSDA_USERS=200 PQSDA_MAX_EVAL=300 PQSDA_TOPICS=32 PQSDA_GIBBS=60
run fig7_efficiency PQSDA_TESTS=25
run ablation_representation PQSDA_USERS=150 PQSDA_TESTS=100
run ablation_context_decay PQSDA_USERS=150 PQSDA_TESTS=120
run ablation_rank_aggregation PQSDA_USERS=150 PQSDA_MAX_EVAL=250 PQSDA_TOPICS=32 PQSDA_GIBBS=60
run ablation_upm PQSDA_USERS=150 PQSDA_GIBBS=50
run bench_serving PQSDA_USERS=150 PQSDA_TESTS=150
# The stage profiler must be free on the request path: bench_serving just
# measured p95 with the profiler off vs on and wrote the verdict to
# BENCH_profile.json. More than 2% (plus a 50us noise floor) fails the run.
if ! grep -q '"gate_pass": true' BENCH_profile.json 2>/dev/null; then
  echo "profiling-overhead gate FAILED (see BENCH_profile.json)" >&2
  exit 1
fi
# Same contract for the explain layer: bench_serving measured the storm p95
# with explain disabled before vs after the subsystem was armed and wrote
# the verdict to BENCH_explain.json. The disabled path costing more than 1%
# (plus a 50us noise floor) fails the run.
if ! grep -q '"gate_pass": true' BENCH_explain.json 2>/dev/null; then
  echo "explain-overhead gate FAILED (see BENCH_explain.json)" >&2
  exit 1
fi
# Overload hardening: shedding must admit requests at a lower end-to-end
# p99 than the no-shedding baseline under the same burst (bench_serving
# prints "lower, as required"; BENCH_robustness.json's p99_ratio < 1).
if ! awk -F': ' '/"p99_ratio"/ { found = 1; ok = ($2 + 0 < 1) }
                END { exit !(found && ok) }' BENCH_robustness.json 2>/dev/null; then
  echo "overload shedding gate FAILED (see BENCH_robustness.json)" >&2
  exit 1
fi
# Live ingestion: every request of the storm must be served while the churn
# thread ingests, and the index must actually have swapped during it.
if ! grep -q '"all_served": true' BENCH_ingest.json 2>/dev/null ||
   ! grep -Eq '"swaps": [1-9][0-9]*' BENCH_ingest.json; then
  echo "ingest-while-serving gate FAILED (see BENCH_ingest.json)" >&2
  exit 1
fi
# Adaptive cache, both halves of its promise: CAR's hit rate under scan
# pollution must reach the floor LRU scored on the same schedule, and
# delta-aware validation must keep at least the retained-hits floor
# across the swap-churn schedule.
if ! grep -q '"gate_pass": true' BENCH_cache.json 2>/dev/null; then
  echo "adaptive-cache gate FAILED (see BENCH_cache.json)" >&2
  exit 1
fi
# Sharded scatter-gather, both halves of its promise: admitted capacity
# under a burst must scale (>= 1.6x at 4 shards vs 1), and every shard
# count must serve bitwise-identical lists on the sequential probes.
if ! grep -q '"gate_pass": true' BENCH_sharding.json 2>/dev/null; then
  echo "shard-scaling gate FAILED (see BENCH_sharding.json)" >&2
  exit 1
fi
if ! grep -q '"invariance_pass": true' BENCH_sharding.json 2>/dev/null; then
  echo "shard-invariance gate FAILED (see BENCH_sharding.json)" >&2
  exit 1
fi
# The kernel numbers below are only worth publishing if the vectorized
# kernels actually compute what the scalar references compute — run the
# equivalence suite unconditionally (it is cheap) before timing anything.
echo "===== verify: kernel equivalence (vectorized vs scalar reference) ====="
timeout 600 build/tests/kernel_equivalence_test || {
  echo "kernel equivalence FAILED — not running kernel benchmarks" >&2
  exit 1
}
echo
echo "===== micro_kernels ====="
PQSDA_USERS=120 timeout 900 "$B/micro_kernels" --benchmark_min_time=0.2
# The tentpole's promise, enforced: the packed-operator Jacobi row sweep
# must be at least 2x the legacy CSR sweep, and the SIMD serving pass must
# return bitwise-identical suggestion lists to the scalar pass.
if ! grep -q '"jacobi_gate_pass": true' BENCH_kernels.json 2>/dev/null; then
  echo "jacobi row-sweep speedup gate FAILED (see BENCH_kernels.json)" >&2
  exit 1
fi
if ! grep -q '"results_bitwise_equal": true' BENCH_kernels.json 2>/dev/null; then
  echo "SIMD-vs-scalar result equality gate FAILED (see BENCH_kernels.json)" >&2
  exit 1
fi
