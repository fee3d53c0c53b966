#ifndef PQSDA_TESTS_REFERENCE_HITTING_TIME_H_
#define PQSDA_TESTS_REFERENCE_HITTING_TIME_H_

// Reference form of the §IV-C cross-bipartite hitting time (Eq. 17), kept
// as an oracle for the tests and bench/micro_kernels: every sweep row walks
// each chain in turn and accumulates the weighted terms and the row mass
// interleaved. Serving merges the chains once (BuildMergedChain) and sweeps
// the mixture with MergedChainHittingTimeInto instead.

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "graph/csr_matrix.h"
#include "suggest/hitting_time_suggester.h"

namespace pqsda {

/// Truncated expected hitting time on a mixture of query-level chains
/// M = sum_x weight[x] * chain[x], each chain row-stochastic (or
/// sub-stochastic, renormalized per row). Seeds get 0, rows without mass
/// saturate at the horizon, out-of-range seeds are skipped. `pool`
/// parallelizes the row sweeps without changing the result.
std::vector<double> ChainHittingTime(const std::vector<const CsrMatrix*>& chains,
                                     const std::vector<double>& weights,
                                     const std::vector<uint32_t>& seeds,
                                     size_t iterations,
                                     ThreadPool* pool = nullptr);

/// ChainHittingTime computing into `ws.h`, allocation-free when warm.
void ChainHittingTimeInto(const std::vector<const CsrMatrix*>& chains,
                          const std::vector<double>& weights,
                          const std::vector<uint32_t>& seeds,
                          size_t iterations, ThreadPool* pool,
                          HittingTimeWorkspace& ws);

}  // namespace pqsda

#endif  // PQSDA_TESTS_REFERENCE_HITTING_TIME_H_
