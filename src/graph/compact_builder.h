#ifndef PQSDA_GRAPH_COMPACT_BUILDER_H_
#define PQSDA_GRAPH_COMPACT_BUILDER_H_

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "graph/csr_matrix.h"
#include "graph/multi_bipartite.h"

namespace pqsda {

/// The compact multi-bipartite representation of §IV-A: the sub-multi-
/// bipartite induced by the ~Q queries most reachable from the input query
/// and its search context, with the derived per-bipartite matrices the
/// downstream algorithms need.
struct CompactRepresentation {
  /// Local index -> global query id. Entry 0.. are the seeds in seed order.
  std::vector<StringId> queries;
  /// Global query id -> local index. Flat open-addressing map: the suggest
  /// path probes it per candidate (seed construction, exclusion checks), so
  /// lookups stay one cache line instead of a node chase.
  FlatMap<StringId, uint32_t> local_index;
  /// W^X: local queries x local objects, weights copied from the full
  /// representation (raw or cfiqf according to the source MultiBipartite).
  std::array<CsrMatrix, 3> w;
  /// A^X = W^X W^{X^T}: query-affinity through shared objects.
  std::array<CsrMatrix, 3> affinity;
  /// S^X = D^{-1/2} A^X D^{-1/2}: symmetric-normalized affinity used by the
  /// smoothness constraint (Eq. 9) and the linear system (Eq. 15).
  std::array<CsrMatrix, 3> sym_norm;
  /// P^X = row-normalized A^X: intra-bipartite transition probabilities
  /// p^X(q_a | q_b) used by the cross-bipartite hitting time (§IV-C).
  std::array<CsrMatrix, 3> row_norm;

  size_t size() const { return queries.size(); }

  const CsrMatrix& W(BipartiteKind k) const {
    return w[static_cast<size_t>(k)];
  }
  const CsrMatrix& S(BipartiteKind k) const {
    return sym_norm[static_cast<size_t>(k)];
  }
  const CsrMatrix& P(BipartiteKind k) const {
    return row_norm[static_cast<size_t>(k)];
  }
};

/// Options for the expansion.
struct CompactBuilderOptions {
  /// Desired number of queries in the compact representation (the paper's Q).
  size_t target_size = 400;
  /// Maximum expansion rounds (each round is one random-walk step from the
  /// whole frontier).
  size_t max_rounds = 6;
};

/// Work counters of one compact-representation build, filled when the caller
/// passes a stats pointer (the observability layer's hook into §IV-A
/// expansion; the graph layer itself stays metrics-free).
struct CompactBuildStats {
  /// Seed queries the expansion started from.
  size_t seeds = 0;
  /// Expansion rounds actually executed (<= max_rounds).
  size_t rounds = 0;
  /// Two-step walk passes through a bipartite (3 per round).
  size_t walk_steps = 0;
  /// Outsider queries scored across all rounds (admitted or not).
  size_t candidates_scored = 0;
  /// Queries admitted beyond the seeds.
  size_t queries_admitted = 0;
};

/// Walk probability over the full query set of one expansion round: a dense
/// per-query value plus the order in which queries were first touched. Add
/// reproduces the accumulation of an insertion-ordered map exactly — a
/// query's value starts at 0.0 and sums its contributions in call order,
/// and order() lists queries by first touch — without hashing, and a reset
/// clears only the queries the last round touched, so one instance per
/// thread serves every request allocation-free once it has grown.
class WalkMass {
 public:
  /// Empties the mass for query ids below `num_queries`.
  void Reset(size_t num_queries);

  void Add(StringId q, double v) {
    Slot& slot = slots_[q];
    if (slot.touched == 0) {
      slot.touched = 1;
      order_.push_back(q);
    }
    slot.value += v;
  }

  /// Touched queries, in first-touch order.
  const std::vector<StringId>& order() const { return order_; }
  double value(StringId q) const { return slots_[q].value; }

  void swap(WalkMass& other) {
    slots_.swap(other.slots_);
    order_.swap(other.order_);
  }

 private:
  struct Slot {
    double value = 0.0;
    uint32_t touched = 0;
  };
  std::vector<Slot> slots_;
  std::vector<StringId> order_;
};

/// The row-source seam of the §IV-A expansion. The walk and the induction
/// read the full representation only through these two operations, so a
/// scatter-gather coordinator can substitute per-shard fetches without the
/// builder (or anything downstream of the compact representation) knowing.
///
/// Bitwise contract — what makes sharded results provably equal to the
/// unsharded ones (tests/sharding_test.cc): FP addition is non-associative,
/// so an implementation must reproduce the *canonical accumulation order*
/// of the local walk exactly:
///  - Step accumulates into `out` (WalkMass::Add) iterating `mass` in
///    first-touch order, each frontier row's objects in row order, each
///    object row in row order, and every contribution evaluated as
///    `((((scale * p) * p_obj) * q_val[k2]) / obj_sum)` — where contributions
///    are computed is free (replica, remote shard), where they are *summed*
///    is not.
///  - QueryRow returns the query->object row verbatim (the induction copies
///    it in row order).
class CompactWalkBackend {
 public:
  virtual ~CompactWalkBackend() = default;

  /// One two-step walk pass (q -> object -> q') through `kind` from `mass`,
  /// accumulated into `out` in canonical order. Errors abort the build.
  virtual Status Step(BipartiteKind kind, const WalkMass& mass, double scale,
                      WalkMass& out) const = 0;

  /// The query->object row of one member query for the induction. An
  /// implementation may return empty spans for a row it cannot serve (a
  /// degraded shard's cold row) — deterministically for the whole request.
  virtual Status QueryRow(BipartiteKind kind, StringId query,
                          std::span<const uint32_t>& indices,
                          std::span<const double>& values) const = 0;
};

/// Expands the seed set (input query + search context) through the full
/// multi-bipartite representation, scoring candidate queries by accumulated
/// two-step walk probability (query -> object -> query averaged over the
/// three bipartites), and induces the compact representation on the best
/// `target_size` queries.
class CompactBuilder {
 public:
  /// A null `backend` reads `mb` directly (the unsharded serving path, kept
  /// branch-for-branch identical to the pre-seam code); a non-null backend
  /// owns every row read of the expansion and induction.
  explicit CompactBuilder(const MultiBipartite& mb,
                          const CompactWalkBackend* backend = nullptr)
      : mb_(&mb), backend_(backend) {}

  /// `input_query` must be a valid query id of the source representation;
  /// context ids that are invalid are skipped. `stats`, when non-null,
  /// receives the expansion work counters.
  StatusOr<CompactRepresentation> Build(
      StringId input_query, const std::vector<StringId>& context,
      const CompactBuilderOptions& options,
      CompactBuildStats* stats = nullptr) const;

  /// Seed-set variant: expands from an arbitrary non-empty set of valid
  /// query ids (used for unknown input queries, which are seeded by their
  /// term-bipartite matches).
  StatusOr<CompactRepresentation> BuildFromSeeds(
      const std::vector<StringId>& seeds, const CompactBuilderOptions& options,
      CompactBuildStats* stats = nullptr) const;

 private:
  const MultiBipartite* mb_;
  const CompactWalkBackend* backend_;
};

}  // namespace pqsda

#endif  // PQSDA_GRAPH_COMPACT_BUILDER_H_
