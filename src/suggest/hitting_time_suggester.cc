#include "suggest/hitting_time_suggester.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "common/fault_injector.h"
#include "common/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pqsda {

namespace {

// Row-range grain for the pool sweeps: compact representations are a few
// hundred rows with a handful of nonzeros each, so chunks below this are
// all dispatch overhead.
constexpr size_t kSweepGrain = 128;

// Top-of-iteration cooperative check for the hitting-time sweeps (fault
// point first so an armed clock jump is visible to this very poll).
bool SweepInterrupted(const CancelToken* cancel) {
  FaultInjector::Default().Hit(faults::kHittingIteration);
  return cancel != nullptr && !cancel->Check().ok();
}

}  // namespace

void BipartiteHittingTimeInto(const CsrMatrix& q2u_stochastic,
                              const CsrMatrix& u2q_stochastic,
                              const std::vector<uint32_t>& seed_queries,
                              size_t iterations, const PseudoNode* pseudo,
                              ThreadPool* pool, HittingTimeWorkspace& ws,
                              const CancelToken* cancel) {
  const size_t nq = q2u_stochastic.rows();
  const size_t nu = q2u_stochastic.cols();
  const size_t total_q = nq + (pseudo != nullptr ? 1 : 0);

  ws.is_seed.assign(total_q, 0);
  for (uint32_t s : seed_queries) {
    // A bad seed id must never become an out-of-bounds write in a release
    // build — skip it instead of asserting.
    if (s < total_q) ws.is_seed[s] = 1;
  }

  double pseudo_total = 0.0;
  if (pseudo != nullptr) {
    for (const auto& [u, w] : pseudo->url_edges) {
      (void)u;
      pseudo_total += w;
    }
  }

  // Pseudo-node edges indexed by URL so the walk can *reach* the pseudo
  // query (URL rows gain a back-edge to it); without this the pseudo node
  // would be a source only and hitting times to it would be infinite.
  std::vector<double> pseudo_weight_of_url;
  if (pseudo != nullptr) {
    pseudo_weight_of_url.assign(nu, 0.0);
    for (const auto& [u, w] : pseudo->url_edges) {
      if (u < nu) pseudo_weight_of_url[u] += w;
    }
  }

  std::vector<double>& hq = ws.h;
  std::vector<double>& hq_next = ws.next;
  std::vector<double>& hu = ws.hu;
  std::vector<double>& hu_next = ws.hu_next;
  hq.assign(total_q, 0.0);
  hq_next.assign(total_q, 0.0);
  hu.assign(nu, 0.0);
  hu_next.assign(nu, 0.0);
  // The row sums do not change across iterations — hoist them out of the
  // sweeps (the sums were previously recomputed per row per iteration).
  ws.u_row_sum.resize(nu);
  for (size_t u = 0; u < nu; ++u) {
    double extra = pseudo != nullptr ? pseudo_weight_of_url[u] : 0.0;
    ws.u_row_sum[u] = u2q_stochastic.RowSum(u) + extra;
  }
  ws.q_row_sum.resize(nq);
  for (size_t q = 0; q < nq; ++q) ws.q_row_sum[q] = q2u_stochastic.RowSum(q);
  const auto dot = simd::ActiveSparseDot();
  for (size_t t = 0; t < iterations; ++t) {
    if (SweepInterrupted(cancel)) return;
    // URL side first: one hop u -> q. Rows write disjoint entries of the
    // next iterate and read only the previous one, so ranges parallelize.
    auto url_sweep = [&](size_t begin, size_t end) {
      for (size_t u = begin; u < end; ++u) {
        double s = ws.u_row_sum[u];
        if (s <= 0.0) {
          hu_next[u] = static_cast<double>(t + 1);
          continue;
        }
        auto idx = u2q_stochastic.RowIndices(u);
        auto val = u2q_stochastic.RowValues(u);
        double acc = dot(val.data(), idx.data(), idx.size(), hq.data());
        if (pseudo != nullptr) acc += pseudo_weight_of_url[u] * hq[nq];
        hu_next[u] = 1.0 + acc / s;
      }
    };
    // Query side: one hop q -> u.
    auto query_sweep = [&](size_t begin, size_t end) {
      for (size_t q = begin; q < end; ++q) {
        if (ws.is_seed[q] != 0) {
          hq_next[q] = 0.0;
          continue;
        }
        double s = ws.q_row_sum[q];
        if (s <= 0.0) {
          hq_next[q] = static_cast<double>(t + 1);
          continue;
        }
        auto idx = q2u_stochastic.RowIndices(q);
        auto val = q2u_stochastic.RowValues(q);
        hq_next[q] = 1.0 + dot(val.data(), idx.data(), idx.size(),
                               hu.data()) / s;
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, nu, kSweepGrain, url_sweep);
      pool->ParallelFor(0, nq, kSweepGrain, query_sweep);
    } else {
      url_sweep(0, nu);
      query_sweep(0, nq);
    }
    if (pseudo != nullptr) {
      size_t q = nq;
      if (ws.is_seed[q] != 0) {
        hq_next[q] = 0.0;
      } else if (pseudo_total <= 0.0) {
        hq_next[q] = static_cast<double>(t + 1);
      } else {
        double acc = 0.0;
        for (const auto& [u, w] : pseudo->url_edges) {
          acc += (w / pseudo_total) * hu[u];
        }
        hq_next[q] = 1.0 + acc;
      }
    }
    hq.swap(hq_next);
    hu.swap(hu_next);
  }
}

std::vector<double> BipartiteHittingTime(
    const CsrMatrix& q2u_stochastic, const CsrMatrix& u2q_stochastic,
    const std::vector<uint32_t>& seed_queries, size_t iterations,
    const PseudoNode* pseudo, ThreadPool* pool) {
  HittingTimeWorkspace ws;
  BipartiteHittingTimeInto(q2u_stochastic, u2q_stochastic, seed_queries,
                           iterations, pseudo, pool, ws);
  return std::move(ws.h);
}

MergedChain BuildMergedChain(const std::vector<const CsrMatrix*>& chains,
                             const std::vector<double>& weights) {
  assert(!chains.empty() && chains.size() == weights.size());
  const size_t n = chains[0]->rows();
  const size_t nx = chains.size();
  MergedChain out;
  out.m.rows = static_cast<uint32_t>(n);
  out.m.cols = static_cast<uint32_t>(n);
  out.m.row_ptr.assign(n + 1, 0);
  out.mass.assign(n, 0.0);
  size_t cap = 0;
  for (const CsrMatrix* c : chains) cap += c->nnz();
  out.m.col.reserve(cap);
  out.m.val.reserve(cap);

  // N-way sorted merge per row: each output column accumulates its
  // weights[x] * chain[x](v, j) contributions in chain order; the row mass
  // sums the merged values as they are emitted, so it equals the row sum of
  // M exactly.
  std::vector<std::span<const uint32_t>> idx(nx);
  std::vector<std::span<const double>> val(nx);
  std::vector<size_t> p(nx);
  for (uint32_t v = 0; v < n; ++v) {
    for (size_t x = 0; x < nx; ++x) {
      idx[x] = chains[x]->RowIndices(v);
      val[x] = chains[x]->RowValues(v);
      p[x] = 0;
    }
    double mass = 0.0;
    for (;;) {
      uint32_t c = UINT32_MAX;
      for (size_t x = 0; x < nx; ++x) {
        if (p[x] < idx[x].size() && idx[x][p[x]] < c) c = idx[x][p[x]];
      }
      if (c == UINT32_MAX) break;
      double acc = 0.0;
      for (size_t x = 0; x < nx; ++x) {
        if (p[x] < idx[x].size() && idx[x][p[x]] == c) {
          acc += weights[x] * val[x][p[x]];
          ++p[x];
        }
      }
      if (acc != 0.0) {
        out.m.col.push_back(c);
        out.m.val.push_back(acc);
        mass += acc;
      }
    }
    out.mass[v] = mass;
    out.m.row_ptr[v + 1] = static_cast<uint32_t>(out.m.col.size());
  }
  return out;
}

void MergedChainHittingTimeInto(const MergedChain& chain,
                                const std::vector<uint32_t>& seeds,
                                size_t iterations, ThreadPool* /*pool*/,
                                HittingTimeWorkspace& ws,
                                const CancelToken* cancel) {
  const size_t n = chain.m.rows;
  ws.is_seed.assign(n, 0);
  for (uint32_t s : seeds) {
    // Unconditional bounds check — see BipartiteHittingTimeInto.
    if (s < n) ws.is_seed[s] = 1;
  }
  std::vector<double>& h = ws.h;
  std::vector<double>& next = ws.next;
  h.assign(n, 0.0);
  next.assign(n, 0.0);
  const auto dot = simd::ActiveSparseDot();
  for (size_t t = 0; t < iterations; ++t) {
    if (SweepInterrupted(cancel)) return;
    const double* hp = h.data();
    for (size_t v = 0; v < n; ++v) {
      if (ws.is_seed[v] != 0) {
        next[v] = 0.0;
        continue;
      }
      const double mass = chain.mass[v];
      if (mass <= 0.0) {
        next[v] = static_cast<double>(t + 1);
        continue;
      }
      // Sub-stochastic rows (drop-tolerance pruning) would leak mass into
      // an implicit absorbing state; renormalize instead.
      const size_t row_begin = chain.m.row_ptr[v];
      next[v] = 1.0 + dot(chain.m.val.data() + row_begin,
                          chain.m.col.data() + row_begin,
                          chain.m.row_ptr[v + 1] - row_begin, hp) / mass;
    }
    h.swap(next);
  }
}

HittingTimeSuggester::HittingTimeSuggester(const ClickGraph& graph,
                                           HittingTimeOptions options)
    : graph_(&graph), options_(options) {}

StatusOr<std::vector<Suggestion>> HittingTimeSuggester::Suggest(
    const SuggestionRequest& request, size_t k) const {
  static obs::Histogram& latency_us =
      obs::MetricsRegistry::Default().GetHistogram("pqsda.ht.latency_us");
  obs::TraceSpan span("hitting_time");
  obs::ScopedTimer timer(latency_us);
  StringId q = graph_->QueryId(request.query);
  if (q == kInvalidStringId) {
    return Status::NotFound("query not in click graph: " + request.query);
  }
  std::vector<double> h =
      BipartiteHittingTime(graph_->graph().query_to_object(),
                           graph_->graph().object_to_query(), {q},
                           options_.iterations);
  const double horizon = static_cast<double>(options_.iterations);
  std::vector<Suggestion> candidates;
  for (size_t i = 0; i < graph_->num_queries(); ++i) {
    if (h[i] >= horizon) continue;  // never reached the seed
    candidates.push_back(Suggestion{
        graph_->QueryString(static_cast<StringId>(i)), horizon - h[i]});
  }
  span.Annotate("candidates_scored", static_cast<int64_t>(candidates.size()));
  return FinalizeSuggestions(request, std::move(candidates), k);
}

PersonalizedHittingTimeSuggester::PersonalizedHittingTimeSuggester(
    const ClickGraph& graph, const std::vector<QueryLogRecord>& records,
    HittingTimeOptions options)
    : graph_(&graph), options_(options) {
  std::unordered_map<UserId, std::unordered_map<uint32_t, double>> counts;
  for (const auto& rec : records) {
    if (!rec.has_click()) continue;
    StringId u = graph.urls().Lookup(rec.clicked_url);
    if (u == kInvalidStringId) continue;
    counts[rec.user_id][u] += 1.0;
  }
  for (auto& [user, urls] : counts) {
    PseudoNode node;
    node.url_edges.assign(urls.begin(), urls.end());
    std::sort(node.url_edges.begin(), node.url_edges.end());
    user_nodes_.emplace(user, std::move(node));
  }
}

StatusOr<std::vector<Suggestion>> PersonalizedHittingTimeSuggester::Suggest(
    const SuggestionRequest& request, size_t k) const {
  static obs::Histogram& latency_us =
      obs::MetricsRegistry::Default().GetHistogram("pqsda.pht.latency_us");
  obs::TraceSpan span("personalized_hitting_time");
  obs::ScopedTimer timer(latency_us);
  StringId q = graph_->QueryId(request.query);
  if (q == kInvalidStringId) {
    return Status::NotFound("query not in click graph: " + request.query);
  }
  const PseudoNode* pseudo = nullptr;
  std::vector<uint32_t> seeds = {q};
  auto it = user_nodes_.find(request.user);
  if (request.user != kNoUser && it != user_nodes_.end()) {
    pseudo = &it->second;
    seeds.push_back(static_cast<uint32_t>(graph_->num_queries()));
  }
  std::vector<double> h =
      BipartiteHittingTime(graph_->graph().query_to_object(),
                           graph_->graph().object_to_query(), seeds,
                           options_.iterations, pseudo);
  const double horizon = static_cast<double>(options_.iterations);
  std::vector<Suggestion> candidates;
  for (size_t i = 0; i < graph_->num_queries(); ++i) {
    if (h[i] >= horizon) continue;
    candidates.push_back(Suggestion{
        graph_->QueryString(static_cast<StringId>(i)), horizon - h[i]});
  }
  return FinalizeSuggestions(request, std::move(candidates), k);
}

}  // namespace pqsda
