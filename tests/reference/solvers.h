#ifndef PQSDA_TESTS_REFERENCE_SOLVERS_H_
#define PQSDA_TESTS_REFERENCE_SOLVERS_H_

// Reference forms of the §IV-B Eq. 15 solve, kept as oracles for the tests
// and bench/micro_kernels: the triplet-assembled CSR coefficient matrix and
// the generic CSR iterative solvers. Serving runs the packed split-diagonal
// operator and its solvers (solver/eq15_operator.h) instead; the
// kernel_equivalence suite gates the two forms against each other.

#include <array>
#include <cstddef>
#include <vector>

#include "common/thread_pool.h"
#include "graph/compact_builder.h"
#include "graph/csr_matrix.h"
#include "solver/linear_solvers.h"

namespace pqsda {

/// Relative residual ||Ax - b|| / ||b||.
double RelativeResidual(const CsrMatrix& a, const std::vector<double>& x,
                        const std::vector<double>& b);

/// Jacobi iteration on A x = b. Converges for strictly diagonally dominant
/// A — which Eq. 15's matrix is by construction. `x` is the initial guess on
/// entry and the solution on exit.
SolverResult JacobiSolve(const CsrMatrix& a, const std::vector<double>& b,
                         std::vector<double>& x, const SolverOptions& options);

/// Gauss–Seidel iteration; same requirements as Jacobi, usually ~2x faster.
SolverResult GaussSeidelSolve(const CsrMatrix& a, const std::vector<double>& b,
                              std::vector<double>& x,
                              const SolverOptions& options);

/// Conjugate gradients; requires symmetric positive-definite A.
SolverResult ConjugateGradientSolve(const CsrMatrix& a,
                                    const std::vector<double>& b,
                                    std::vector<double>& x,
                                    const SolverOptions& options);

/// Multi-threaded Jacobi: each sweep's rows are computed from the previous
/// iterate, so rows partition perfectly across threads. Sweeps run on
/// `pool` (default ThreadPool::Shared()); `threads` caps how many chunks a
/// sweep is split into (0 = pool size) and never changes the result.
/// `workspace`, when non-null, supplies the scratch buffers.
SolverResult JacobiSolveParallel(const CsrMatrix& a,
                                 const std::vector<double>& b,
                                 std::vector<double>& x,
                                 const SolverOptions& options,
                                 size_t threads = 0,
                                 ThreadPool* pool = nullptr,
                                 SolverWorkspace* workspace = nullptr);

/// Assembles the Eq. 15 coefficient matrix
/// (1 + sum_X alpha^X) I - sum_X alpha^X S^X over the compact
/// representation from triplets. The result is strictly diagonally dominant
/// (S^X row sums are <= 1), so the classic iterative solvers converge.
CsrMatrix AssembleRegularizationSystem(const CompactRepresentation& rep,
                                       const std::array<double, 3>& alpha);

}  // namespace pqsda

#endif  // PQSDA_TESTS_REFERENCE_SOLVERS_H_
