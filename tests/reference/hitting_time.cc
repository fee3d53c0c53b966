#include "reference/hitting_time.h"

#include <cassert>

namespace pqsda {

void ChainHittingTimeInto(const std::vector<const CsrMatrix*>& chains,
                          const std::vector<double>& weights,
                          const std::vector<uint32_t>& seeds,
                          size_t iterations, ThreadPool* pool,
                          HittingTimeWorkspace& ws) {
  assert(!chains.empty() && chains.size() == weights.size());
  const size_t n = chains[0]->rows();
  ws.is_seed.assign(n, 0);
  for (uint32_t s : seeds) {
    if (s < n) ws.is_seed[s] = 1;
  }
  std::vector<double>& h = ws.h;
  std::vector<double>& next = ws.next;
  h.assign(n, 0.0);
  next.assign(n, 0.0);
  for (size_t t = 0; t < iterations; ++t) {
    auto sweep = [&](size_t begin, size_t end) {
      for (size_t v = begin; v < end; ++v) {
        if (ws.is_seed[v] != 0) {
          next[v] = 0.0;
          continue;
        }
        double acc = 0.0;
        double mass = 0.0;
        for (size_t x = 0; x < chains.size(); ++x) {
          auto idx = chains[x]->RowIndices(v);
          auto val = chains[x]->RowValues(v);
          for (size_t k = 0; k < idx.size(); ++k) {
            acc += weights[x] * val[k] * h[idx[k]];
            mass += weights[x] * val[k];
          }
        }
        if (mass <= 0.0) {
          next[v] = static_cast<double>(t + 1);
        } else {
          // Sub-stochastic rows (drop-tolerance pruning) would leak mass
          // into an implicit absorbing state; renormalize instead.
          next[v] = 1.0 + acc / mass;
        }
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, n, /*grain=*/128, sweep);
    } else {
      sweep(0, n);
    }
    h.swap(next);
  }
}

std::vector<double> ChainHittingTime(
    const std::vector<const CsrMatrix*>& chains,
    const std::vector<double>& weights, const std::vector<uint32_t>& seeds,
    size_t iterations, ThreadPool* pool) {
  HittingTimeWorkspace ws;
  ChainHittingTimeInto(chains, weights, seeds, iterations, pool, ws);
  return std::move(ws.h);
}

}  // namespace pqsda
