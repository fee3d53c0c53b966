#include "solver/regularization.h"

#include <cmath>

#include "obs/metrics.h"
#include "solver/eq15_operator.h"

namespace pqsda {

std::vector<double> BuildF0(
    const CompactRepresentation& rep, StringId input_query,
    int64_t input_timestamp,
    const std::vector<std::pair<StringId, int64_t>>& context,
    double decay_lambda) {
  std::vector<double> f0;
  BuildF0Into(rep, input_query, input_timestamp, context, decay_lambda, f0);
  return f0;
}

void BuildF0Into(const CompactRepresentation& rep, StringId input_query,
                 int64_t input_timestamp,
                 const std::vector<std::pair<StringId, int64_t>>& context,
                 double decay_lambda, std::vector<double>& f0) {
  f0.assign(rep.size(), 0.0);
  auto it = rep.local_index.find(input_query);
  if (it != rep.local_index.end()) f0[it->second] = 1.0;
  for (const auto& [q, ts] : context) {
    auto cit = rep.local_index.find(q);
    if (cit == rep.local_index.end()) continue;
    // Eq. 7: exp(lambda * (t_q' - t_q)) with t_q' <= t_q, i.e. exponential
    // decay in the elapsed time.
    double dt = static_cast<double>(ts - input_timestamp);
    if (dt > 0.0) dt = 0.0;
    f0[cit->second] = std::max(f0[cit->second],
                               std::exp(decay_lambda * dt));
  }
}

StatusOr<std::vector<double>> SolveRegularization(
    const CompactRepresentation& rep, const std::vector<double>& f0,
    const RegularizationOptions& options, SolverResult* result_out,
    SolverWorkspace* workspace, ThreadPool* pool) {
  if (f0.size() != rep.size()) {
    return Status::InvalidArgument("f0 size does not match representation");
  }
  // Registry handles are resolved once; recording below is lock-free.
  static obs::Counter& solves =
      obs::MetricsRegistry::Default().GetCounter("pqsda.solver.solves_total");
  static obs::Counter& iterations =
      obs::MetricsRegistry::Default().GetCounter(
          "pqsda.solver.iterations_total");
  static obs::Counter& nonconverged =
      obs::MetricsRegistry::Default().GetCounter(
          "pqsda.solver.nonconverged_total");
  static obs::Gauge& last_residual =
      obs::MetricsRegistry::Default().GetGauge("pqsda.solver.last_residual");

  // The packed split-diagonal operator replaces the triplet-assembled CSR
  // system: built once per solve by merging the three sorted S^X rows, it
  // feeds the SIMD row sweeps without the per-iteration in-row diagonal
  // search the generic solvers pay.
  Eq15Operator system = BuildEq15Operator(rep, options.alpha);
  std::vector<double> f = f0;  // warm start from the seed
  SolverResult result;
  switch (options.solver) {
    case SolverKind::kJacobi:
      if (pool != nullptr) {
        result = JacobiSolveParallel(system, f0, f, options.solver_options,
                                     /*threads=*/0, pool, workspace);
      } else {
        result = JacobiSolve(system, f0, f, options.solver_options);
      }
      break;
    case SolverKind::kGaussSeidel:
      result = GaussSeidelSolve(system, f0, f, options.solver_options);
      break;
    case SolverKind::kConjugateGradient:
      result = ConjugateGradientSolve(system, f0, f, options.solver_options);
      break;
  }
  solves.Increment();
  iterations.Increment(result.iterations);
  last_residual.Set(result.relative_residual);
  if (result_out != nullptr) *result_out = result;
  // A cooperative interruption outranks everything: the iterate stopped
  // mid-sweep and must not be served, converged-looking or not.
  if (!result.interrupt.ok()) return result.interrupt;
  if (!result.converged) {
    nonconverged.Increment();
    if (!options.accept_nonconverged) {
      return Status::NotConverged(
          "regularization solver: residual " +
          std::to_string(result.relative_residual) + " after " +
          std::to_string(result.iterations) + " iterations");
    }
  }
  return f;
}

}  // namespace pqsda
