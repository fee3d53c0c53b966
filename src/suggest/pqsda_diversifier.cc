#include "suggest/pqsda_diversifier.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/fault_injector.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "obs/trace.h"
#include "text/tokenizer.h"

namespace pqsda {

PqsdaDiversifier::PqsdaDiversifier(const MultiBipartite& mb,
                                   PqsdaDiversifierOptions options,
                                   const CompactWalkBackend* backend)
    : mb_(&mb), options_(options), builder_(mb, backend) {}

std::vector<bool> ExcludedCandidates(const CompactRepresentation& rep,
                                     StringId input,
                                     const std::vector<StringId>& context) {
  std::vector<bool> excluded(rep.size(), false);
  if (input != kInvalidStringId) {
    // Checked find, not at(): a compact-budget walk that failed to admit the
    // input simply has nothing to exclude.
    auto it = rep.local_index.find(input);
    if (it != rep.local_index.end()) excluded[it->second] = true;
  }
  for (StringId c : context) {
    auto it = rep.local_index.find(c);
    if (it != rep.local_index.end()) excluded[it->second] = true;
  }
  return excluded;
}

std::vector<std::pair<StringId, double>> PqsdaDiversifier::TermMatchSeeds(
    const std::string& query) const {
  const BipartiteGraph& terms = mb_->graph(BipartiteKind::kTerm);
  std::unordered_map<StringId, double> scores;
  for (const std::string& term : Tokenize(query)) {
    if (IsStopword(term)) continue;
    StringId t = mb_->terms().Lookup(term);
    if (t == kInvalidStringId) continue;
    auto idx = terms.object_to_query().RowIndices(t);
    auto val = terms.object_to_query().RowValues(t);
    for (size_t i = 0; i < idx.size(); ++i) {
      scores[idx[i]] += val[i];
    }
  }
  std::vector<std::pair<StringId, double>> out(scores.begin(), scores.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (out.size() > 8) out.resize(8);
  return out;
}

StatusOr<DiversificationOutput> PqsdaDiversifier::DiversifyWith(
    const SuggestionRequest& request, size_t k,
    const PqsdaDiversifierOptions& options, SuggestStats* stats) const {
  // Stage latencies always feed the registry (two clock reads per stage —
  // noise next to the ms-scale stages); the trace tree is only built when a
  // collector is installed (by the engine, or here when the caller asked
  // for stats outside any engine trace).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  static obs::Histogram& expansion_us =
      reg.GetHistogram("pqsda.suggest.expansion_us");
  static obs::Histogram& solve_us =
      reg.GetHistogram("pqsda.suggest.regularization_solve_us");
  static obs::Histogram& selection_us =
      reg.GetHistogram("pqsda.suggest.hitting_time_selection_us");
  static obs::Counter& compact_rounds =
      reg.GetCounter("pqsda.compact.rounds_total");
  static obs::Counter& compact_walk_steps =
      reg.GetCounter("pqsda.compact.walk_steps_total");
  static obs::Counter& compact_admitted =
      reg.GetCounter("pqsda.compact.queries_admitted_total");
  static obs::Counter& nonconverged_served =
      reg.GetCounter("pqsda.robust.nonconverged_served_total");

  const CancelToken* cancel = request.cancel;

  std::optional<obs::TraceCollector> own_trace;
  if (stats != nullptr && !obs::TraceActive()) own_trace.emplace("diversify");
  // Hands the finished trace to `stats` on every exit path (errors too).
  struct TraceHandoff {
    std::optional<obs::TraceCollector>& collector;
    SuggestStats* stats;
    ~TraceHandoff() {
      if (collector.has_value() && stats != nullptr) {
        stats->trace = collector->Take();
      }
    }
  } handoff{own_trace, stats};

  // §IV-A: compact representation around the input + context.
  StatusOr<CompactRepresentation> rep_or = Status::Internal("unset");
  std::vector<std::pair<StringId, int64_t>> context_ids;
  std::vector<StringId> context_only;
  std::vector<std::pair<StringId, double>> term_seeds;
  StringId input = kInvalidStringId;
  CompactBuildStats build_stats;
  {
    obs::TraceSpan span("expansion");
    obs::StageScope stage(obs::ProfileStage::kExpansion);
    obs::ScopedTimer timer(expansion_us);
    input = mb_->QueryId(request.query);
    for (const auto& [q, ts] : request.context) {
      StringId id = mb_->QueryId(q);
      if (id != kInvalidStringId) context_ids.emplace_back(id, ts);
    }
    for (const auto& [id, ts] : context_ids) {
      (void)ts;
      context_only.push_back(id);
    }

    // For a query string the log has never seen, the click-graph methods are
    // simply stuck; the multi-bipartite is not — seed the walk from the
    // queries that share the input's terms, weighted by cfiqf (the coverage
    // advantage of §III in action).
    if (input == kInvalidStringId) {
      term_seeds = TermMatchSeeds(request.query);
      if (term_seeds.empty()) {
        return Status::NotFound("query has no term overlap with the log: " +
                                request.query);
      }
      std::vector<StringId> seeds;
      for (const auto& [q, w] : term_seeds) {
        (void)w;
        seeds.push_back(q);
      }
      for (StringId c : context_only) seeds.push_back(c);
      rep_or = builder_.BuildFromSeeds(seeds, options.compact, &build_stats);
    } else {
      rep_or = builder_.Build(input, context_only, options.compact,
                              &build_stats);
    }
    compact_rounds.Increment(build_stats.rounds);
    compact_walk_steps.Increment(build_stats.walk_steps);
    compact_admitted.Increment(build_stats.queries_admitted);
    obs::StageProfiler::AddWork(obs::ProfileStage::kExpansion,
                                build_stats.walk_steps);
    if (rep_or.ok()) {
      span.Annotate("compact_size", static_cast<int64_t>(rep_or->size()));
      span.Annotate("rounds", static_cast<int64_t>(build_stats.rounds));
      span.Annotate("candidates_scored",
                    static_cast<int64_t>(build_stats.candidates_scored));
    }
  }
  if (!rep_or.ok()) return rep_or.status();
  const CompactRepresentation& rep = *rep_or;
  if (stats != nullptr) {
    stats->expansion = build_stats;
    stats->compact_size = rep.size();
  }

  // Stage boundary: a request whose budget died during expansion must not
  // start the solve (fault point first, so an armed clock jump lands before
  // this very poll).
  FaultInjector::Default().Hit(faults::kExpansionDone);
  if (cancel != nullptr) {
    Status interrupted = cancel->Check();
    if (!interrupted.ok()) return interrupted;
  }

  // Seed vector F^0 (Eq. 7), shared by the full solve and the walk-only
  // rung; rebuilt every request into a thread-lived buffer.
  auto build_seed = [&](std::vector<double>& f0) {
    if (input != kInvalidStringId) {
      BuildF0Into(rep, input, request.timestamp, context_ids,
                  options.regularization.decay_lambda, f0);
    } else {
      f0.assign(rep.size(), 0.0);
      double max_w = term_seeds.front().second;
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
        f0[it->second] = std::max(
            f0[it->second],
            std::exp(options.regularization.decay_lambda * dt));
      }
    }
  };

  if (options.walk_only) {
    // Degradation rung 2: skip the Eq. 15 solve and Algorithm 1 entirely —
    // one mixing step of the cross-bipartite walk from F^0 scores the
    // compact queries, and the top-k by that score are the answer. One pass
    // over the seed rows' nonzeros; deterministic like the full pipeline.
    DiversificationOutput out;
    obs::TraceSpan span("walk_only_scatter");
    obs::StageScope stage(obs::ProfileStage::kSelection);
    obs::ScopedTimer timer(selection_us);
    static thread_local std::vector<double> f0;
    build_seed(f0);
    std::vector<double> f(rep.size(), 0.0);
    const CsrMatrix* chains[3] = {&rep.P(BipartiteKind::kUrl),
                                  &rep.P(BipartiteKind::kSession),
                                  &rep.P(BipartiteKind::kTerm)};
    size_t scored = 0;
    for (uint32_t i = 0; i < rep.size(); ++i) {
      if (f0[i] <= 0.0) continue;
      f[i] += f0[i];
      for (size_t x = 0; x < 3; ++x) {
        auto idx = chains[x]->RowIndices(i);
        auto val = chains[x]->RowValues(i);
        for (size_t e = 0; e < idx.size(); ++e) {
          f[idx[e]] += options.chain_weights[x] * val[e] * f0[i];
          ++scored;
        }
      }
    }
    std::vector<bool> excluded = ExcludedCandidates(rep, input, context_only);
    std::vector<std::pair<double, uint32_t>> by_score;
    for (uint32_t i = 0; i < rep.size(); ++i) {
      if (excluded[i] || f[i] <= 0.0) continue;
      by_score.emplace_back(f[i], i);
    }
    const size_t want = std::min(k, by_score.size());
    std::partial_sort(by_score.begin(), by_score.begin() + want,
                      by_score.end(), std::greater<>());
    by_score.resize(want);
    out.relevance = std::move(f);
    out.compact_queries = rep.queries;
    out.candidates.reserve(by_score.size());
    for (const auto& [score, i] : by_score) {
      out.candidates.push_back(
          Suggestion{mb_->QueryString(rep.queries[i]), score});
    }
    if (stats != nullptr) {
      stats->hitting_rounds = 0;
      stats->candidates_scored = scored;
      stats->suggestions_returned = out.candidates.size();
    }
    if (obs::ExplainRecord* er = obs::CurrentExplain()) {
      er->walk_only = true;
      er->candidates.clear();
      er->candidates.reserve(out.candidates.size());
      for (size_t rank = 0; rank < out.candidates.size(); ++rank) {
        obs::ExplainCandidate c;
        c.query = out.candidates[rank].query;
        c.final_rank = rank;
        c.score = out.candidates[rank].score;
        c.relevance = out.candidates[rank].score;  // the one-hop walk score
        er->candidates.push_back(std::move(c));
      }
    }
    obs::StageProfiler::AddWork(obs::ProfileStage::kSelection, scored);
    span.Annotate("candidates_scored", static_cast<int64_t>(scored));
    span.Annotate("selected", static_cast<int64_t>(out.candidates.size()));
    return out;
  }

  // §IV-B: regularization framework for the relevance estimate F*.
  std::vector<double> f;
  {
    obs::TraceSpan span("regularization_solve");
    obs::StageScope stage(obs::ProfileStage::kSolve);
    obs::ScopedTimer timer(solve_us);
    static thread_local std::vector<double> f0;
    build_seed(f0);
    SolverResult solve_result;
    // The solver scratch persists across requests served by this thread.
    static thread_local SolverWorkspace solver_workspace;
    // Local copy so the per-request token reaches the iteration loop.
    RegularizationOptions reg_options = options.regularization;
    reg_options.solver_options.cancel = cancel;
    auto f_or =
        SolveRegularization(rep, f0, reg_options, &solve_result,
                            &solver_workspace, &ThreadPool::Shared());
    if (stats != nullptr) stats->solve = solve_result;
    span.Annotate("iterations", static_cast<int64_t>(solve_result.iterations));
    span.Annotate("residual", solve_result.relative_residual);
    span.Annotate("converged", std::string(solve_result.converged ? "true"
                                                                  : "false"));
    if (!f_or.ok()) return f_or.status();
    if (!solve_result.converged) nonconverged_served.Increment();
    f = std::move(f_or).value();
  }

  // §IV-C: first candidate by largest F* (Eq. 15), the rest by largest
  // cross-bipartite hitting time to the already-selected set (Algorithm 1).
  DiversificationOutput out;
  {
    obs::TraceSpan span("hitting_time_selection");
    obs::StageScope stage(obs::ProfileStage::kSelection);
    obs::ScopedTimer timer(selection_us);

    // The input (when it is a log query) and its context are not candidates;
    // term-match seeds of an unseen input, by contrast, are perfectly good
    // suggestions.
    std::vector<bool> excluded = ExcludedCandidates(rep, input, context_only);

    // Candidate pool: top queries by F*.
    std::vector<std::pair<double, uint32_t>> by_relevance;
    for (uint32_t i = 0; i < rep.size(); ++i) {
      if (excluded[i]) continue;
      by_relevance.emplace_back(f[i], i);
    }
    size_t pool = std::min(options.candidate_pool, by_relevance.size());
    std::partial_sort(by_relevance.begin(), by_relevance.begin() + pool,
                      by_relevance.end(), std::greater<>());
    by_relevance.resize(pool);

    out.relevance = f;
    out.compact_queries = rep.queries;
    if (by_relevance.empty()) {
      // Legitimate empty answer (every compact query excluded). Stats and
      // annotations must reflect this run, not a previous one.
      if (stats != nullptr) {
        stats->hitting_rounds = 0;
        stats->candidates_scored = 0;
        stats->suggestions_returned = 0;
      }
      span.Annotate("rounds", static_cast<int64_t>(0));
      span.Annotate("candidates_scored", static_cast<int64_t>(0));
      span.Annotate("selected", static_cast<int64_t>(0));
      return out;
    }

    std::vector<uint32_t> selected = {by_relevance[0].second};
    std::vector<bool> taken(rep.size(), false);
    taken[selected[0]] = true;

    std::vector<const CsrMatrix*> chains = {&rep.P(BipartiteKind::kUrl),
                                            &rep.P(BipartiteKind::kSession),
                                            &rep.P(BipartiteKind::kTerm)};
    std::vector<double> weights(options.chain_weights.begin(),
                                options.chain_weights.end());
    // The K-1 selection rounds all sweep the same mixture M = sum_x w_x P^X
    // — merge it once, with per-row masses precomputed, so each sweep row
    // is a single SIMD sparse dot.
    MergedChain merged = BuildMergedChain(chains, weights);

    // Explain collection (sampled requests only): per selected candidate,
    // the round it won, its marginal hitting-time gain, and its rank under
    // each single-chain ordering at that round. The per-chain sweeps are the
    // explain surcharge — they run only when a record is installed, so the
    // unsampled request path pays one thread-local load here.
    obs::ExplainRecord* er = obs::CurrentExplain();
    struct SelMeta {
      size_t round = 0;
      double gain = 0.0;
      size_t chain_rank[obs::kExplainChainCount] = {SIZE_MAX, SIZE_MAX,
                                                    SIZE_MAX};
    };
    std::unordered_map<uint32_t, SelMeta> sel_meta;
    std::vector<MergedChain> single_chains;
    if (er != nullptr) {
      sel_meta.emplace(selected[0], SelMeta{});  // round 0: Eq. 15 argmax
      single_chains.reserve(chains.size());
      for (const CsrMatrix* chain : chains) {
        single_chains.push_back(
            BuildMergedChain({chain}, std::vector<double>{1.0}));
      }
    }
    size_t rounds = 0;
    size_t candidates_scored = 0;
    const size_t want = std::min(k, by_relevance.size());
    // The h/next/is_seed buffers persist across the K-1 rounds and across
    // requests served by this thread; the sweeps run inline.
    static thread_local HittingTimeWorkspace ht_workspace;
    while (selected.size() < want) {
      // Round boundary: poll before spending another full sweep, and again
      // after it — a sweep the token stopped mid-flight leaves a partial h
      // that must never pick a candidate.
      FaultInjector::Default().Hit(faults::kHittingRound);
      if (cancel != nullptr) {
        Status interrupted = cancel->Check();
        if (!interrupted.ok()) return interrupted;
      }
      MergedChainHittingTimeInto(merged, selected, options.hitting_iterations,
                                 nullptr, ht_workspace, cancel);
      if (cancel != nullptr) {
        Status interrupted = cancel->Check();
        if (!interrupted.ok()) return interrupted;
      }
      const std::vector<double>& h = ht_workspace.h;
      ++rounds;
      double best = -1.0;
      uint32_t best_q = UINT32_MAX;
      for (const auto& [rel, q] : by_relevance) {
        (void)rel;
        if (taken[q]) continue;
        ++candidates_scored;
        if (h[q] > best) {
          best = h[q];
          best_q = q;
        }
      }
      if (best_q == UINT32_MAX) break;
      if (er != nullptr) {
        SelMeta meta;
        meta.round = rounds;  // rounds is 1 on the first Algorithm 1 sweep
        meta.gain = best;
        // Rank of the winner under each single-chain ordering, computed
        // against the same already-selected seed set this round swept.
        static thread_local HittingTimeWorkspace chain_ws;
        for (size_t x = 0; x < single_chains.size(); ++x) {
          MergedChainHittingTimeInto(single_chains[x], selected,
                                     options.hitting_iterations, nullptr,
                                     chain_ws, cancel);
          const std::vector<double>& hx = chain_ws.h;
          size_t rank = 0;
          for (const auto& [rel2, q2] : by_relevance) {
            (void)rel2;
            if (taken[q2] || q2 == best_q) continue;
            if (hx[q2] > hx[best_q]) ++rank;
          }
          meta.chain_rank[x] = rank;
        }
        sel_meta[best_q] = meta;
      }
      selected.push_back(best_q);
      taken[best_q] = true;
    }
    if (stats != nullptr) {
      stats->hitting_rounds = rounds;
      stats->candidates_scored = candidates_scored;
    }
    obs::StageProfiler::AddWork(obs::ProfileStage::kSelection,
                                candidates_scored);
    span.Annotate("rounds", static_cast<int64_t>(rounds));
    span.Annotate("candidates_scored",
                  static_cast<int64_t>(candidates_scored));
    span.Annotate("selected", static_cast<int64_t>(selected.size()));

    // §IV-C: the final candidate list is "sorted with a descending relevance
    // to the input query" — order the selected set by F*.
    std::sort(selected.begin(), selected.end(),
              [&f](uint32_t a, uint32_t b) { return f[a] > f[b]; });
    out.candidates.reserve(selected.size());
    for (size_t rank = 0; rank < selected.size(); ++rank) {
      out.candidates.push_back(
          Suggestion{mb_->QueryString(rep.queries[selected[rank]]),
                     static_cast<double>(selected.size() - rank)});
    }
    if (er != nullptr) {
      er->candidates.clear();
      er->candidates.reserve(selected.size());
      for (size_t rank = 0; rank < selected.size(); ++rank) {
        const uint32_t q = selected[rank];
        obs::ExplainCandidate c;
        c.query = out.candidates[rank].query;
        c.final_rank = rank;  // diversification order; the engine remaps
                              // after the §V-B rerank
        c.score = out.candidates[rank].score;
        c.relevance = f[q];
        auto it = sel_meta.find(q);
        if (it != sel_meta.end()) {
          c.selection_round = it->second.round;
          c.hitting_time = it->second.gain;
          for (size_t x = 0; x < obs::kExplainChainCount; ++x) {
            c.chain_rank[x] = it->second.chain_rank[x];
          }
        }
        er->candidates.push_back(std::move(c));
      }
    }
  }
  if (stats != nullptr) stats->suggestions_returned = out.candidates.size();
  return out;
}

StatusOr<DiversificationOutput> PqsdaDiversifier::Diversify(
    const SuggestionRequest& request, size_t k, SuggestStats* stats) const {
  return DiversifyWith(request, k, options_, stats);
}

StatusOr<std::vector<Suggestion>> PqsdaDiversifier::Suggest(
    const SuggestionRequest& request, size_t k) const {
  auto out = Diversify(request, k);
  if (!out.ok()) return out.status();
  return std::move(out->candidates);
}

}  // namespace pqsda
