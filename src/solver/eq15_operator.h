#ifndef PQSDA_SOLVER_EQ15_OPERATOR_H_
#define PQSDA_SOLVER_EQ15_OPERATOR_H_

#include <array>
#include <cstddef>
#include <vector>

#include "common/aligned.h"
#include "common/thread_pool.h"
#include "graph/compact_builder.h"
#include "graph/packed_csr.h"
#include "solver/linear_solvers.h"

namespace pqsda {

/// The Eq. 15 coefficient matrix (1 + sum_X alpha^X) I - sum_X alpha^X S^X
/// in solver-ready form: the diagonal split out into its own dense array
/// and the merged off-diagonal entries packed as 32-bit-id CSR with
/// 64-byte-aligned values. Built once per solve by merging the three
/// sorted S^X rows directly — no triplet buffer, no sort, no hash
/// accumulator — after which the row sweeps stop re-walking W^U/W^S/W^T
/// (or re-searching each row for its diagonal) every iteration and become
/// a single SIMD sparse dot per row.
struct Eq15Operator {
  size_t n = 0;
  /// diag[i] = (1 + sum alpha) - sum_x alpha[x] * S^X(i, i).
  AlignedVector<double> diag;
  /// 1 / diag[i] (0 for a zero diagonal), precomputed so the Jacobi /
  /// Gauss–Seidel row updates multiply instead of divide — the division was
  /// the longest dependency in the sweep. Solutions differ from the
  /// divide-form CSR reference solvers (tests/reference/solvers.h) by
  /// ulps; the kernel_equivalence suite gates the agreement at 1e-9.
  AlignedVector<double> inv_diag;
  /// Merged strictly-off-diagonal part: off(i, j) = -sum_x alpha[x] *
  /// S^X(i, j), j != i, columns ascending.
  PackedCsr off;
};

/// Builds the operator from a compact representation's sym_norm matrices.
/// Entry values accumulate per column in bipartite order (U, S, T). This
/// fixes a deterministic summation order where the triplet-based reference
/// assembly (tests/reference/solvers.h) leaves the order of equal-keyed
/// triplets to std::sort; the two assemblies agree to ~1 ulp per entry (the
/// kernel_equivalence suite gates on 1e-12 relative).
Eq15Operator BuildEq15Operator(const CompactRepresentation& rep,
                               const std::array<double, 3>& alpha);

/// y = A x over the split form: y[i] = diag[i] * x[i] + off_row_i . x.
void Eq15MatVec(const Eq15Operator& op, const std::vector<double>& x,
                std::vector<double>& y);

/// ||A x - b|| / max(||b||, eps) with a caller-owned product buffer.
double Eq15RelativeResidual(const Eq15Operator& op,
                            const std::vector<double>& x,
                            const std::vector<double>& b,
                            std::vector<double>& ax);

/// The iterative solvers of Eq. 15 on the split operator (options, result
/// and workspace types in linear_solvers.h), with the row sweeps running on
/// the packed layout via the SIMD kernels. Each polls SolverOptions::cancel
/// at the configured granularity and attributes its iterations to the
/// profiled request. An exact all-zero b returns a converged zero iterate
/// immediately (iterations = 0).
SolverResult JacobiSolve(const Eq15Operator& op, const std::vector<double>& b,
                         std::vector<double>& x, const SolverOptions& options);

SolverResult GaussSeidelSolve(const Eq15Operator& op,
                              const std::vector<double>& b,
                              std::vector<double>& x,
                              const SolverOptions& options);

SolverResult JacobiSolveParallel(const Eq15Operator& op,
                                 const std::vector<double>& b,
                                 std::vector<double>& x,
                                 const SolverOptions& options, size_t threads,
                                 ThreadPool* pool,
                                 SolverWorkspace* workspace = nullptr);

SolverResult ConjugateGradientSolve(const Eq15Operator& op,
                                    const std::vector<double>& b,
                                    std::vector<double>& x,
                                    const SolverOptions& options);

}  // namespace pqsda

#endif  // PQSDA_SOLVER_EQ15_OPERATOR_H_
