#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "graph/multi_bipartite.h"
#include "log/sessionizer.h"
#include "solver/eq15_operator.h"
#include "solver/regularization.h"
#include "suggest/hitting_time_suggester.h"
#include "suggest/pqsda_diversifier.h"
#include "timing.h"
#include "topic/corpus.h"
#include "topic/upm.h"

namespace pqsda::perfbench {

int32_t SpanLog::Open(const char* name, uint32_t request, int32_t parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t span) { spans_[span].end_ns = NowNs(); }

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"request\":" << s.request << ",\"name\":\""
        << s.name << "\",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::string, std::vector<double>> SelfTimesUs(
    const SpanLog& log, const std::function<bool(uint32_t)>& include) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      self[spans[i].parent] -=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3;
    }
  }
  // Spans are appended in execution order, so one request's spans are
  // contiguous; sum each name's self time within the request.
  std::map<std::string, std::vector<double>> out;
  std::map<std::string, double> current;
  auto flush = [&] {
    for (const auto& [name, us] : current) out[name].push_back(us);
    current.clear();
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].request != spans[i - 1].request) flush();
    if (include(spans[i].request)) current[spans[i].name] += self[i];
  }
  flush();
  return out;
}

TracedRequest TraceRequest(const IndexSnapshot& snap,
                           const SuggestionRequest& request, size_t k,
                           uint32_t request_id, SpanLog& spans) {
  TracedRequest out;
  const MultiBipartite& mb = *snap.mb;
  const PqsdaDiversifierOptions& options = snap.diversifier->options();
  ScopedSpan root(spans, "request", request_id, -1);
  out.root = root.index();
  const int32_t parent = root.index();

  // §IV-A expansion, seeded like PqsdaDiversifier::DiversifyWith: a logged
  // input expands from itself plus context, an unseen one from the queries
  // sharing its terms.
  const StringId input = mb.QueryId(request.query);
  std::vector<std::pair<StringId, int64_t>> context_ids;
  std::vector<StringId> context_only;
  for (const auto& [q, ts] : request.context) {
    const StringId id = mb.QueryId(q);
    if (id == kInvalidStringId) continue;
    context_ids.emplace_back(id, ts);
    context_only.push_back(id);
  }
  std::vector<std::pair<StringId, double>> term_seeds;
  StatusOr<CompactRepresentation> rep_or = Status::Internal("unset");
  const CompactBuilder builder(mb);
  if (input == kInvalidStringId) {
    {
      ScopedSpan span(spans, "suggest.term_match", request_id, parent);
      term_seeds = snap.diversifier->TermMatchSeeds(request.query);
    }
    if (term_seeds.empty()) {
      out.status = Status::NotFound("no term overlap: " + request.query);
      return out;
    }
    std::vector<StringId> seeds;
    for (const auto& [q, w] : term_seeds) seeds.push_back(q);
    for (StringId c : context_only) seeds.push_back(c);
    ScopedSpan span(spans, "graph.compact_build", request_id, parent);
    rep_or = builder.BuildFromSeeds(seeds, options.compact, &out.expansion);
  } else {
    ScopedSpan span(spans, "graph.compact_build", request_id, parent);
    rep_or = builder.Build(input, context_only, options.compact,
                           &out.expansion);
  }
  if (!rep_or.ok()) {
    out.status = rep_or.status();
    return out;
  }
  const CompactRepresentation& rep = *rep_or;
  for (size_t x = 0; x < 3; ++x) {
    out.compact_nnz += rep.w[x].nnz() + rep.affinity[x].nnz() +
                       rep.sym_norm[x].nnz() + rep.row_norm[x].nnz();
  }

  // Seed vector F^0 (Eq. 7).
  std::vector<double> f0;
  {
    ScopedSpan span(spans, "solver.seed", request_id, parent);
    const double lambda = options.regularization.decay_lambda;
    if (input != kInvalidStringId) {
      BuildF0Into(rep, input, request.timestamp, context_ids, lambda, f0);
    } else {
      f0.assign(rep.size(), 0.0);
      const double max_w = term_seeds.front().second;
      for (const auto& [q, w] : term_seeds) {
        auto it = rep.local_index.find(q);
        if (it != rep.local_index.end() && max_w > 0.0) {
          f0[it->second] = w / max_w;
        }
      }
      for (const auto& [c, ts] : context_ids) {
        auto it = rep.local_index.find(c);
        if (it == rep.local_index.end()) continue;
        double dt = static_cast<double>(ts - request.timestamp);
        if (dt > 0.0) dt = 0.0;
        f0[it->second] = std::max(f0[it->second], std::exp(lambda * dt));
      }
    }
  }

  // §IV-B: Eq. 15 operator and solve, as SolveRegularization runs them.
  const RegularizationOptions& reg = options.regularization;
  Eq15Operator system;
  {
    ScopedSpan span(spans, "solver.operator_build", request_id, parent);
    system = BuildEq15Operator(rep, reg.alpha);
  }
  std::vector<double> f = f0;
  SolverResult solved;
  {
    ScopedSpan span(spans, "solver.solve", request_id, parent);
    static thread_local SolverWorkspace workspace;
    switch (reg.solver) {
      case SolverKind::kJacobi:
        solved = JacobiSolveParallel(system, f0, f, reg.solver_options,
                                     /*threads=*/0, &ThreadPool::Shared(),
                                     &workspace);
        break;
      case SolverKind::kGaussSeidel:
        solved = GaussSeidelSolve(system, f0, f, reg.solver_options);
        break;
      case SolverKind::kConjugateGradient:
        solved = ConjugateGradientSolve(system, f0, f, reg.solver_options);
        break;
    }
  }
  out.solver_iterations = solved.iterations;
  if (!solved.interrupt.ok()) {
    out.status = solved.interrupt;
    return out;
  }
  if (!solved.converged && !reg.accept_nonconverged) {
    out.status = Status::NotConverged("regularization solver");
    return out;
  }

  // §IV-C / Algorithm 1: first candidate by F*, the rest by largest merged
  // cross-bipartite hitting time to the selected set.
  std::vector<bool> excluded = ExcludedCandidates(rep, input, context_only);
  std::vector<std::pair<double, uint32_t>> by_relevance;
  for (uint32_t i = 0; i < rep.size(); ++i) {
    if (!excluded[i]) by_relevance.emplace_back(f[i], i);
  }
  const size_t pool = std::min(options.candidate_pool, by_relevance.size());
  std::partial_sort(by_relevance.begin(), by_relevance.begin() + pool,
                    by_relevance.end(), std::greater<>());
  by_relevance.resize(pool);
  std::vector<Suggestion> list;
  if (!by_relevance.empty()) {
    std::vector<uint32_t> selected = {by_relevance[0].second};
    std::vector<bool> taken(rep.size(), false);
    taken[selected[0]] = true;
    const std::vector<const CsrMatrix*> chains = {
        &rep.P(BipartiteKind::kUrl), &rep.P(BipartiteKind::kSession),
        &rep.P(BipartiteKind::kTerm)};
    const std::vector<double> weights(options.chain_weights.begin(),
                                      options.chain_weights.end());
    MergedChain merged;
    {
      ScopedSpan span(spans, "suggest.chain_build", request_id, parent);
      merged = BuildMergedChain(chains, weights);
    }
    static thread_local HittingTimeWorkspace ws;
    const size_t want = std::min(k, by_relevance.size());
    while (selected.size() < want) {
      {
        ScopedSpan span(spans, "suggest.sweep", request_id, parent);
        MergedChainHittingTimeInto(merged, selected,
                                   options.hitting_iterations,
                                   &ThreadPool::Shared(), ws);
      }
      out.sweeps += options.hitting_iterations;
      double best = -1.0;
      uint32_t best_q = UINT32_MAX;
      for (const auto& [rel, q] : by_relevance) {
        if (!taken[q] && ws.h[q] > best) {
          best = ws.h[q];
          best_q = q;
        }
      }
      if (best_q == UINT32_MAX) break;
      selected.push_back(best_q);
      taken[best_q] = true;
    }
    std::sort(selected.begin(), selected.end(),
              [&f](uint32_t a, uint32_t b) { return f[a] > f[b]; });
    for (size_t rank = 0; rank < selected.size(); ++rank) {
      list.push_back(Suggestion{mb.QueryString(rep.queries[selected[rank]]),
                                static_cast<double>(selected.size() - rank)});
    }
  }

  // §V-B: UPM preference rerank with Borda aggregation.
  if (snap.personalizer != nullptr && request.user != kNoUser) {
    ScopedSpan span(spans, "core.personalizer.rerank", request_id, parent);
    list = snap.personalizer->Rerank(request.user, list);
  }
  out.list = std::move(list);
  return out;
}

void TraceBuild(std::vector<QueryLogRecord> records,
                const PqsdaEngineConfig& config, uint32_t request_id,
                SpanLog& spans) {
  ScopedSpan root(spans, "build", request_id, -1);
  const int32_t parent = root.index();
  SortByUserAndTime(records);
  std::vector<Session> sessions;
  {
    ScopedSpan span(spans, "log.sessionize", request_id, parent);
    sessions = Sessionize(records, config.sessionizer);
  }
  std::optional<MultiBipartite> mb;
  {
    ScopedSpan span(spans, "graph.representation_build", request_id, parent);
    mb.emplace(MultiBipartite::Build(records, sessions, config.weighting));
  }
  if (!config.personalize) return;
  QueryLogCorpus corpus = [&] {
    ScopedSpan span(spans, "topic.corpus_build", request_id, parent);
    return QueryLogCorpus::Build(records, sessions);
  }();
  ScopedSpan span(spans, "topic.upm_train", request_id, parent);
  UpmModel upm(config.upm);
  upm.Train(corpus);
}

}  // namespace pqsda::perfbench
