#ifndef PQSDA_SOLVER_REGULARIZATION_H_
#define PQSDA_SOLVER_REGULARIZATION_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/compact_builder.h"
#include "solver/linear_solvers.h"

namespace pqsda {

/// Which iterative solver drives Eq. 15.
enum class SolverKind { kJacobi, kGaussSeidel, kConjugateGradient };

/// Options for the §IV-B regularization framework.
struct RegularizationOptions {
  /// Lagrange multipliers alpha^X for the three smoothness constraints
  /// (U, S, T), "empirically tuned" per §IV-B: click evidence is the most
  /// precise relation, sessions next, terms the noisiest.
  std::array<double, 3> alpha = {0.6, 0.45, 0.25};
  /// Decay rate of the backward decay function (Eq. 7), per second.
  /// Context queries minutes old keep most of their weight; hours-old ones
  /// fade.
  double decay_lambda = 1.0 / 600.0;
  SolverKind solver = SolverKind::kGaussSeidel;
  SolverOptions solver_options;
  /// When true, a solve that exhausts max_iterations without reaching
  /// tolerance returns its final iterate instead of NotConverged (the
  /// degradation ladder's truncated rung runs this way). The outcome stays
  /// loud: SolverResult.converged=false reaches the caller's SuggestStats
  /// and pqsda.solver.nonconverged_total still increments. Interruption
  /// (deadline/cancel) is never accepted — the iterate is partial then.
  bool accept_nonconverged = false;
};

/// Builds the seed vector F^0 (Eq. 7): entry 1 for the input query, a
/// backward-decayed value for each context query, 0 elsewhere. Context
/// queries absent from the compact representation are skipped.
std::vector<double> BuildF0(
    const CompactRepresentation& rep, StringId input_query,
    int64_t input_timestamp,
    const std::vector<std::pair<StringId, int64_t>>& context,
    double decay_lambda);

/// BuildF0 into a caller-owned buffer (resized to rep.size()); a long-lived
/// buffer makes the per-request seed construction allocation-free.
void BuildF0Into(const CompactRepresentation& rep, StringId input_query,
                 int64_t input_timestamp,
                 const std::vector<std::pair<StringId, int64_t>>& context,
                 double decay_lambda, std::vector<double>& f0);

/// Solves Eq. 15 for F* given F^0. Returns the relevance estimate per local
/// query, or NotConverged if the solver failed to reach tolerance.
///
/// `result`, when non-null, receives the solver outcome (iterations,
/// relative residual at exit, convergence flag) on both the success and the
/// NotConverged paths — the per-request stats and the metrics registry
/// report it instead of dropping it on the floor. Every call increments
/// `pqsda.solver.solves_total` / `pqsda.solver.iterations_total` in the
/// default registry; a solve that exhausts max_iterations additionally
/// increments the warning counter `pqsda.solver.nonconverged_total`.
///
/// `workspace` and `pool` feed the serving layer: a long-lived workspace
/// makes repeated solves allocation-free, and a non-null pool runs the
/// kJacobi sweeps in parallel (the solution is deterministic either way;
/// Gauss–Seidel and CG have sequential dependencies and ignore the pool).
StatusOr<std::vector<double>> SolveRegularization(
    const CompactRepresentation& rep, const std::vector<double>& f0,
    const RegularizationOptions& options, SolverResult* result = nullptr,
    SolverWorkspace* workspace = nullptr, ThreadPool* pool = nullptr);

}  // namespace pqsda

#endif  // PQSDA_SOLVER_REGULARIZATION_H_
