#ifndef PQSDA_SUGGEST_HITTING_TIME_SUGGESTER_H_
#define PQSDA_SUGGEST_HITTING_TIME_SUGGESTER_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "graph/click_graph.h"
#include "graph/packed_csr.h"
#include "suggest/engine.h"

namespace pqsda {

/// Reusable scratch buffers for the hitting-time kernels. Kept alive across
/// calls (e.g. thread_local on a serving thread) the K-1 selection rounds of
/// Algorithm 1 — and every request after the first — run allocation-free.
struct HittingTimeWorkspace {
  /// Query-side iterates; `h` holds the result after an Into call.
  std::vector<double> h, next;
  /// URL-side iterates (bipartite variant only).
  std::vector<double> hu, hu_next;
  /// Seed membership (char, not vector<bool>, so parallel row sweeps read
  /// plain bytes).
  std::vector<char> is_seed;
  /// Per-row sums of the two bipartite orientations, hoisted out of the
  /// sweep loop (bipartite variant only; recomputed per call).
  std::vector<double> q_row_sum, u_row_sum;
};

/// Extra node grafted onto the query side of a bipartite walk: a pseudo
/// query (Mei et al. [14]) whose URL edges summarize a user's click history.
struct PseudoNode {
  /// (url id, weight) pairs; need not be normalized.
  std::vector<std::pair<uint32_t, double>> url_edges;
};

/// Truncated expected hitting time on the alternating query/URL walk of a
/// click graph. `q2u` and `u2q` carry arbitrary non-negative edge weights
/// (raw counts or cfiqf); rows are normalized internally. Returns per-query
/// hitting times to the seed set after `iterations` single hops of the
/// alternating chain. Queries in `seed_queries` get 0; queries that cannot
/// reach the seeds (including dangling ones) saturate at the horizon.
///
/// If `pseudo` is non-null, a pseudo query node with index q2u.rows() is
/// appended and its URL edges are mirrored back from the URL side so the
/// walk can actually hit it; the returned vector then has rows()+1 entries.
/// Seed ids may refer to the pseudo node. Pseudo edge weights should be on
/// the same scale as the matrix weights.
///
/// Seed ids out of range are skipped unconditionally (not an assert): a bad
/// seed must never become an out-of-bounds write in a release-built server.
/// `pool`, when non-null, parallelizes each sweep over row ranges.
std::vector<double> BipartiteHittingTime(const CsrMatrix& q2u,
                                         const CsrMatrix& u2q,
                                         const std::vector<uint32_t>& seed_queries,
                                         size_t iterations,
                                         const PseudoNode* pseudo = nullptr,
                                         ThreadPool* pool = nullptr);

/// BipartiteHittingTime computing into `ws.h` (query-side hitting times)
/// with every buffer drawn from `ws` — zero allocations once the workspace
/// is warm. A non-null `cancel` is polled at the top of every sweep
/// iteration; on cancellation/expiry the sweep stops early and `ws.h` is
/// partial — the caller must re-check the token before using it.
void BipartiteHittingTimeInto(const CsrMatrix& q2u, const CsrMatrix& u2q,
                              const std::vector<uint32_t>& seed_queries,
                              size_t iterations, const PseudoNode* pseudo,
                              ThreadPool* pool, HittingTimeWorkspace& ws,
                              const CancelToken* cancel = nullptr);

/// The mixture chain M = sum_x weights[x] chain[x] materialized once as
/// packed CSR, with the per-row mass (row sum of M, the renormalizer for
/// sub-stochastic rows) precomputed. Algorithm 1 runs K-1 selection rounds
/// of `iterations` sweeps each over the same mixture — merging up front
/// turns every sweep row into one SIMD sparse dot instead of three span
/// walks with a mass accumulation.
///
/// Values merge per column in chain order, so M(i, j) groups the weighted
/// terms differently than the interleaved reference sweep
/// (tests/reference/hitting_time.h); results agree to ~1 ulp per entry
/// (tolerance-gated in the kernel_equivalence suite, 1e-9 relative on
/// hitting times).
struct MergedChain {
  PackedCsr m;
  AlignedVector<double> mass;
};

MergedChain BuildMergedChain(const std::vector<const CsrMatrix*>& chains,
                             const std::vector<double>& weights);

/// Truncated expected hitting time to `seeds` over a prebuilt MergedChain
/// (Eq. 17; §IV-C merges three chains with uniform 1/3 weights):
/// seeds pinned to 0, rows without mass saturate at the horizon,
/// out-of-range seeds skipped unconditionally, a non-null `cancel` polled
/// per iteration (see BipartiteHittingTimeInto for the partial-result
/// contract), result in `ws.h`. The sweeps run inline on the caller:
/// at the compact size (Q ~ 400 rows, a few nonzeros each) a pool dispatch
/// per sweep costs more than the sweep, and concurrent requests already
/// occupy the cores. `pool` is accepted for call compatibility and ignored.
void MergedChainHittingTimeInto(const MergedChain& chain,
                                const std::vector<uint32_t>& seeds,
                                size_t iterations, ThreadPool* pool,
                                HittingTimeWorkspace& ws,
                                const CancelToken* cancel = nullptr);

/// Options for the hitting-time baselines.
struct HittingTimeOptions {
  /// Truncation horizon (alternating-walk steps).
  size_t iterations = 24;
};

/// HT baseline (Mei et al. [14]): rank candidates by ascending truncated
/// hitting time to the input query on the click graph.
class HittingTimeSuggester : public SuggestionEngine {
 public:
  explicit HittingTimeSuggester(const ClickGraph& graph,
                                HittingTimeOptions options = {});

  std::string name() const override { return "HT"; }

  StatusOr<std::vector<Suggestion>> Suggest(const SuggestionRequest& request,
                                            size_t k) const override;

 private:
  const ClickGraph* graph_;
  HittingTimeOptions options_;
};

/// PHT baseline (Mei et al. [14], personalized variant): a pseudo query node
/// carrying the user's historical clicked URLs is added to the seed set, so
/// candidates near either the input query or the user's history rank high.
class PersonalizedHittingTimeSuggester : public SuggestionEngine {
 public:
  /// `records` is the training log from which per-user URL click counts are
  /// collected.
  PersonalizedHittingTimeSuggester(const ClickGraph& graph,
                                   const std::vector<QueryLogRecord>& records,
                                   HittingTimeOptions options = {});

  std::string name() const override { return "PHT"; }

  StatusOr<std::vector<Suggestion>> Suggest(const SuggestionRequest& request,
                                            size_t k) const override;

 private:
  const ClickGraph* graph_;
  HittingTimeOptions options_;
  std::unordered_map<UserId, PseudoNode> user_nodes_;
};

}  // namespace pqsda

#endif  // PQSDA_SUGGEST_HITTING_TIME_SUGGESTER_H_
