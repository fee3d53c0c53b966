#include "reference/solvers.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math_util.h"
#include "solver/solver_hooks.h"

namespace pqsda {

namespace {

using solver_detail::SolveInterrupted;
using solver_detail::SolveTrivialZeroRhs;
using solver_detail::SolveWorkAttribution;

// RelativeResidual with a caller-owned product buffer (allocation-free when
// the buffer is already sized).
double RelativeResidualInto(const CsrMatrix& a, const std::vector<double>& x,
                            const std::vector<double>& b,
                            std::vector<double>& ax) {
  a.MatVec(x, ax);
  double num = 0.0;
  for (size_t i = 0; i < b.size(); ++i) {
    double d = ax[i] - b[i];
    num += d * d;
  }
  double den = Norm2(b);
  return std::sqrt(num) / std::max(den, 1e-300);
}

}  // namespace

double RelativeResidual(const CsrMatrix& a, const std::vector<double>& x,
                        const std::vector<double>& b) {
  std::vector<double> ax;
  return RelativeResidualInto(a, x, b, ax);
}

SolverResult JacobiSolve(const CsrMatrix& a, const std::vector<double>& b,
                         std::vector<double>& x,
                         const SolverOptions& options) {
  assert(a.rows() == a.cols() && b.size() == a.rows());
  if (x.size() != b.size()) x.assign(b.size(), 0.0);
  const size_t n = b.size();
  std::vector<double> next(n, 0.0);
  SolverResult result;
  SolveWorkAttribution work_attribution{result};
  if (SolveTrivialZeroRhs(b, x, result)) return result;
  for (size_t it = 0; it < options.max_iterations; ++it) {
    if (SolveInterrupted(options, it, result)) return result;
    for (size_t i = 0; i < n; ++i) {
      double diag = 0.0;
      double off = 0.0;
      auto idx = a.RowIndices(i);
      auto val = a.RowValues(i);
      for (size_t k = 0; k < idx.size(); ++k) {
        if (idx[k] == i) {
          diag = val[k];
        } else {
          off += val[k] * x[idx[k]];
        }
      }
      next[i] = diag != 0.0 ? (b[i] - off) / diag : 0.0;
    }
    x.swap(next);
    result.iterations = it + 1;
    result.relative_residual = RelativeResidual(a, x, b);
    if (result.relative_residual < options.tolerance) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

SolverResult GaussSeidelSolve(const CsrMatrix& a, const std::vector<double>& b,
                              std::vector<double>& x,
                              const SolverOptions& options) {
  assert(a.rows() == a.cols() && b.size() == a.rows());
  if (x.size() != b.size()) x.assign(b.size(), 0.0);
  const size_t n = b.size();
  SolverResult result;
  SolveWorkAttribution work_attribution{result};
  if (SolveTrivialZeroRhs(b, x, result)) return result;
  for (size_t it = 0; it < options.max_iterations; ++it) {
    if (SolveInterrupted(options, it, result)) return result;
    for (size_t i = 0; i < n; ++i) {
      double diag = 0.0;
      double off = 0.0;
      auto idx = a.RowIndices(i);
      auto val = a.RowValues(i);
      for (size_t k = 0; k < idx.size(); ++k) {
        if (idx[k] == i) {
          diag = val[k];
        } else {
          off += val[k] * x[idx[k]];
        }
      }
      if (diag != 0.0) x[i] = (b[i] - off) / diag;
    }
    result.iterations = it + 1;
    result.relative_residual = RelativeResidual(a, x, b);
    if (result.relative_residual < options.tolerance) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

SolverResult JacobiSolveParallel(const CsrMatrix& a,
                                 const std::vector<double>& b,
                                 std::vector<double>& x,
                                 const SolverOptions& options,
                                 size_t threads, ThreadPool* pool,
                                 SolverWorkspace* workspace) {
  assert(a.rows() == a.cols() && b.size() == a.rows());
  if (x.size() != b.size()) x.assign(b.size(), 0.0);
  const size_t n = b.size();
  if (pool == nullptr) pool = &ThreadPool::Shared();
  threads = std::min(threads == 0 ? pool->size() + 1 : threads,
                     std::max<size_t>(n, 1));

  SolverWorkspace local;
  SolverWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.next.assign(n, 0.0);

  auto sweep_rows = [&a, &b, &x, &ws](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      double diag = 0.0;
      double off = 0.0;
      auto idx = a.RowIndices(i);
      auto val = a.RowValues(i);
      for (size_t k = 0; k < idx.size(); ++k) {
        if (idx[k] == i) {
          diag = val[k];
        } else {
          off += val[k] * x[idx[k]];
        }
      }
      ws.next[i] = diag != 0.0 ? (b[i] - off) / diag : 0.0;
    }
  };

  SolverResult result;
  SolveWorkAttribution work_attribution{result};
  if (SolveTrivialZeroRhs(b, x, result)) return result;
  const size_t grain = (n + threads - 1) / threads;
  for (size_t it = 0; it < options.max_iterations; ++it) {
    // Only the issuing thread polls; workers run one full sweep at most
    // past an interruption, which is the advertised granularity.
    if (SolveInterrupted(options, it, result)) return result;
    pool->ParallelFor(0, n, grain, sweep_rows, threads);
    x.swap(ws.next);
    result.iterations = it + 1;
    result.relative_residual = RelativeResidualInto(a, x, b, ws.ax);
    if (result.relative_residual < options.tolerance) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

SolverResult ConjugateGradientSolve(const CsrMatrix& a,
                                    const std::vector<double>& b,
                                    std::vector<double>& x,
                                    const SolverOptions& options) {
  assert(a.rows() == a.cols() && b.size() == a.rows());
  if (x.size() != b.size()) x.assign(b.size(), 0.0);
  const size_t n = b.size();
  std::vector<double> r(n), p(n), ap(n);
  a.MatVec(x, ap);
  for (size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  p = r;
  double rs_old = 0.0;
  for (size_t i = 0; i < n; ++i) rs_old += r[i] * r[i];
  const double b_norm = std::max(Norm2(b), 1e-300);

  SolverResult result;
  SolveWorkAttribution work_attribution{result};
  if (SolveTrivialZeroRhs(b, x, result)) return result;
  for (size_t it = 0; it < options.max_iterations; ++it) {
    if (SolveInterrupted(options, it, result)) return result;
    result.iterations = it + 1;
    if (std::sqrt(rs_old) / b_norm < options.tolerance) {
      result.converged = true;
      break;
    }
    a.MatVec(p, ap);
    double p_ap = 0.0;
    for (size_t i = 0; i < n; ++i) p_ap += p[i] * ap[i];
    if (p_ap == 0.0) break;
    double alpha = rs_old / p_ap;
    for (size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    double rs_new = 0.0;
    for (size_t i = 0; i < n; ++i) rs_new += r[i] * r[i];
    double beta = rs_new / rs_old;
    for (size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rs_old = rs_new;
  }
  result.relative_residual = RelativeResidual(a, x, b);
  if (result.relative_residual < options.tolerance) result.converged = true;
  return result;
}

CsrMatrix AssembleRegularizationSystem(const CompactRepresentation& rep,
                                       const std::array<double, 3>& alpha) {
  const size_t n = rep.size();
  double alpha_sum = alpha[0] + alpha[1] + alpha[2];
  std::vector<Triplet> triplets;
  for (uint32_t i = 0; i < n; ++i) {
    triplets.push_back(Triplet{i, i, 1.0 + alpha_sum});
  }
  for (size_t x = 0; x < 3; ++x) {
    const CsrMatrix& s = rep.sym_norm[x];
    for (uint32_t i = 0; i < n; ++i) {
      auto idx = s.RowIndices(i);
      auto val = s.RowValues(i);
      for (size_t k = 0; k < idx.size(); ++k) {
        triplets.push_back(Triplet{i, idx[k], -alpha[x] * val[k]});
      }
    }
  }
  return CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

}  // namespace pqsda
