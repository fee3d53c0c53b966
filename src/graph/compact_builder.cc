#include "graph/compact_builder.h"

#include <algorithm>
#include <cmath>

namespace pqsda {

namespace {

// One walk step from `mass` (global query id -> probability) through one
// bipartite: q -> object -> q', using row-normalized transitions. Results are
// accumulated into `out`. `mass` is walked in first-touch order, so the
// accumulation order — and with it the admitted set — is deterministic.
// This loop nest *is* the canonical order of the CompactWalkBackend bitwise
// contract; the sharded backend (src/core/sharded_engine.cc) mirrors the
// inner expression and replays this merge order on gathered contributions.
void StepThroughBipartite(const BipartiteGraph& g, const WalkMass& mass,
                          double scale, WalkMass& out) {
  const CsrMatrix& q2o = g.query_to_object();
  const CsrMatrix& o2q = g.object_to_query();
  for (StringId q : mass.order()) {
    const double p = mass.value(q);
    double row_sum = q2o.RowSum(q);
    if (row_sum <= 0.0) continue;
    auto obj_idx = q2o.RowIndices(q);
    auto obj_val = q2o.RowValues(q);
    for (size_t k = 0; k < obj_idx.size(); ++k) {
      double p_obj = obj_val[k] / row_sum;
      uint32_t obj = obj_idx[k];
      double obj_sum = o2q.RowSum(obj);
      if (obj_sum <= 0.0) continue;
      auto q_idx = o2q.RowIndices(obj);
      auto q_val = o2q.RowValues(obj);
      for (size_t k2 = 0; k2 < q_idx.size(); ++k2) {
        out.Add(q_idx[k2], scale * p * p_obj * q_val[k2] / obj_sum);
      }
    }
  }
}

// Walk scratch, one set per thread, reused by every build the thread runs.
// The induction's buffers and the representation itself are allocated per
// build: sized by the touched objects and the compact size, they would
// otherwise stay resident in every serving thread between requests (~2 MB
// of scratch at 3,200 users, ~2 MB of matrices at Q = 400).
struct WalkScratch {
  WalkMass mass;
  WalkMass reached;
  std::vector<std::pair<double, StringId>> outsiders;
};

WalkScratch& ThreadWalkScratch() {
  static thread_local WalkScratch scratch;
  return scratch;
}

}  // namespace

void WalkMass::Reset(size_t num_queries) {
  for (StringId q : order_) slots_[q] = Slot{};
  order_.clear();
  if (slots_.size() < num_queries) slots_.resize(num_queries);
}

StatusOr<CompactRepresentation> CompactBuilder::Build(
    StringId input_query, const std::vector<StringId>& context,
    const CompactBuilderOptions& options, CompactBuildStats* stats) const {
  if (input_query >= mb_->num_queries()) {
    return Status::InvalidArgument("input query id out of range");
  }
  std::vector<StringId> seeds = {input_query};
  for (StringId c : context) {
    if (c < mb_->num_queries()) seeds.push_back(c);
  }
  return BuildFromSeeds(seeds, options, stats);
}

StatusOr<CompactRepresentation> CompactBuilder::BuildFromSeeds(
    const std::vector<StringId>& seeds, const CompactBuilderOptions& options,
    CompactBuildStats* stats) const {
  if (seeds.empty()) {
    return Status::InvalidArgument("seed set must not be empty");
  }
  for (StringId s : seeds) {
    if (s >= mb_->num_queries()) {
      return Status::InvalidArgument("seed query id out of range");
    }
  }
  if (options.target_size == 0) {
    return Status::InvalidArgument("target_size must be positive");
  }

  CompactRepresentation rep;
  WalkScratch& scratch = ThreadWalkScratch();
  auto add_query = [&rep](StringId q) {
    if (rep.local_index.count(q) > 0) return;
    rep.local_index.emplace(q, static_cast<uint32_t>(rep.queries.size()));
    rep.queries.push_back(q);
  };
  for (StringId s : seeds) add_query(s);
  if (stats != nullptr) {
    *stats = CompactBuildStats{};
    stats->seeds = rep.queries.size();
  }

  // Expansion: accumulate two-step walk probability from the current member
  // set, averaged over the three bipartites; each round admits the
  // highest-scoring outsiders.
  const size_t num_queries = mb_->num_queries();
  WalkMass& mass = scratch.mass;
  WalkMass& reached = scratch.reached;
  mass.Reset(num_queries);
  const double seed_mass = 1.0 / static_cast<double>(rep.queries.size());
  for (StringId q : rep.queries) mass.Add(q, seed_mass);
  std::vector<std::pair<double, StringId>>& outsiders = scratch.outsiders;
  for (size_t round = 0;
       round < options.max_rounds && rep.queries.size() < options.target_size;
       ++round) {
    reached.Reset(num_queries);
    for (BipartiteKind kind : kAllBipartites) {
      if (backend_ != nullptr) {
        Status step = backend_->Step(kind, mass, 1.0 / 3.0, reached);
        if (!step.ok()) return step;
      } else {
        StepThroughBipartite(mb_->graph(kind), mass, 1.0 / 3.0, reached);
      }
    }
    if (stats != nullptr) {
      ++stats->rounds;
      stats->walk_steps += 3;
    }
    outsiders.clear();
    for (StringId q : reached.order()) {
      if (rep.local_index.count(q) == 0) {
        outsiders.emplace_back(reached.value(q), q);
      }
    }
    if (stats != nullptr) stats->candidates_scored += outsiders.size();
    if (outsiders.empty()) break;
    size_t admit = options.target_size - rep.queries.size();
    if (outsiders.size() > admit) {
      std::partial_sort(outsiders.begin(), outsiders.begin() + admit,
                        outsiders.end(), std::greater<>());
      outsiders.resize(admit);
    } else {
      std::sort(outsiders.begin(), outsiders.end(), std::greater<>());
    }
    for (const auto& [p, q] : outsiders) add_query(q);
    if (stats != nullptr) stats->queries_admitted += outsiders.size();
    // Next round walks from everything reached (members included) so deeper
    // neighborhoods can surface.
    mass.swap(reached);
  }

  // Induce local W^X on the member queries, row by row; objects are
  // re-indexed to those actually touched, in first-touch order, so only
  // each row's few columns need sorting. Zero weights register their
  // object but store no entry.
  const size_t n = rep.queries.size();
  FlatMap<uint32_t, uint32_t> object_index;
  std::vector<std::pair<uint32_t, double>> row;
  SelfProductScratch product;
  std::vector<double> inv_sqrt(n);
  for (BipartiteKind kind : kAllBipartites) {
    size_t ki = static_cast<size_t>(kind);
    const CsrMatrix& q2o = mb_->graph(kind).query_to_object();
    object_index.clear();
    CsrMatrix& w = rep.w[ki];
    w.StartRows();
    for (uint32_t local = 0; local < n; ++local) {
      StringId global = rep.queries[local];
      std::span<const uint32_t> idx;
      std::span<const double> val;
      if (backend_ != nullptr) {
        Status row = backend_->QueryRow(kind, global, idx, val);
        if (!row.ok()) return row;
      } else {
        idx = q2o.RowIndices(global);
        val = q2o.RowValues(global);
      }
      row.clear();
      for (size_t k = 0; k < idx.size(); ++k) {
        auto [it, inserted] = object_index.emplace(
            idx[k], static_cast<uint32_t>(object_index.size()));
        if (val[k] != 0.0) row.emplace_back(it->second, val[k]);
      }
      std::sort(row.begin(), row.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [col, v] : row) w.AppendEntry(col, v);
      w.FinishRow();
    }
    w.FinishRows(object_index.size());
    w.MultiplySelfTransposeInto(rep.affinity[ki], product);

    // S^X = D^{-1/2} A D^{-1/2} with D = diag(rowsum(A)), over A's pattern
    // (an entry that rounds to zero is dropped).
    const CsrMatrix& a = rep.affinity[ki];
    for (size_t i = 0; i < n; ++i) {
      double d = a.RowSum(i);
      inv_sqrt[i] = d > 0.0 ? 1.0 / std::sqrt(d) : 0.0;
    }
    CsrMatrix& sym = rep.sym_norm[ki];
    sym.StartRows(a.nnz());
    for (uint32_t i = 0; i < n; ++i) {
      auto idx = a.RowIndices(i);
      auto val = a.RowValues(i);
      for (size_t k = 0; k < idx.size(); ++k) {
        const double v = val[k] * inv_sqrt[i] * inv_sqrt[idx[k]];
        if (v != 0.0) sym.AppendEntry(idx[k], v);
      }
      sym.FinishRow();
    }
    sym.FinishRows(n);
    rep.row_norm[ki] = a.RowNormalized();
  }
  return rep;
}

}  // namespace pqsda
