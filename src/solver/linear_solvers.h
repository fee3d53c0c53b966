#ifndef PQSDA_SOLVER_LINEAR_SOLVERS_H_
#define PQSDA_SOLVER_LINEAR_SOLVERS_H_

#include <cstddef>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"

namespace pqsda {

/// Iteration controls shared by the solvers.
struct SolverOptions {
  size_t max_iterations = 500;
  /// Convergence: ||Ax - b||_2 / max(||b||_2, eps) below this.
  double tolerance = 1e-9;
  /// Cooperative interruption, polled at the top of every
  /// `cancel_check_every`th iteration: a cancelled token or an elapsed
  /// deadline stops the solve within one check granularity and surfaces as
  /// SolverResult::interrupt. Null disables the checks.
  const CancelToken* cancel = nullptr;
  size_t cancel_check_every = 1;
};

/// Reusable scratch buffers for the iterative solvers. A workspace kept
/// alive across calls (e.g. thread_local on a serving thread) makes repeated
/// solves allocation-free: the `next` iterate and the residual product are
/// resized once and reused request after request.
struct SolverWorkspace {
  std::vector<double> next;
  std::vector<double> ax;
};

/// Outcome of an iterative solve.
struct SolverResult {
  size_t iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
  /// OK unless the solve was stopped by SolverOptions::cancel
  /// (kDeadlineExceeded / kCancelled); the iterate is partial then and must
  /// not be served.
  Status interrupt;
};

}  // namespace pqsda

#endif  // PQSDA_SOLVER_LINEAR_SOLVERS_H_
