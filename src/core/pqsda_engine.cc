#include "core/pqsda_engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/fault_injector.h"
#include "common/timer.h"
#include "core/sharded_engine.h"
#include "eval/diversity.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/sliding_window.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace pqsda {

namespace {

// The shared result fingerprint: FNV-1a 64 over each served query's bytes
// and its score's bit pattern, in rank order. The request log, the explain
// record and replay verification all agree on this definition.
uint64_t FingerprintOf(const std::vector<Suggestion>& list) {
  obs::Fingerprint64 fp;
  for (const Suggestion& s : list) {
    fp.Mix(s.query);
    fp.MixDouble(s.score);
  }
  return fp.value();
}

// Remaps the pipeline-order attribution candidates onto the served list:
// final_rank/score become the served position and Suggestion::score (the
// §V-B rerank may have reordered), then the candidates sort into served
// order. A candidate that fell out of the served list keeps SIZE_MAX and
// sorts last.
void AlignExplainToServed(obs::ExplainRecord& record,
                          const std::vector<Suggestion>& served) {
  std::unordered_map<std::string, size_t> rank_of;
  rank_of.reserve(served.size());
  for (size_t i = 0; i < served.size(); ++i) rank_of[served[i].query] = i;
  for (obs::ExplainCandidate& c : record.candidates) {
    auto it = rank_of.find(c.query);
    if (it == rank_of.end()) {
      c.final_rank = SIZE_MAX;
      continue;
    }
    c.final_rank = it->second;
    c.score = served[it->second].score;
  }
  std::stable_sort(record.candidates.begin(), record.candidates.end(),
                   [](const obs::ExplainCandidate& a,
                      const obs::ExplainCandidate& b) {
                     return a.final_rank < b.final_rank;
                   });
}

}  // namespace

struct PqsdaEngine::ShardState {
  /// One worker: the lane exists for *admission isolation* (its queue depth
  /// is the shard's own shedding signal), not for parallelism.
  ThreadPool lane{1};
  /// This shard's own request-latency window — the live signal of its p95
  /// gate. Deliberately not the global ServingTelemetry histogram: a
  /// per-shard gate fed process-wide latency would trip on every shard the
  /// moment one shard is slow.
  obs::SlidingWindowHistogram latency;
  /// Requests of this shard currently executing (the single-request path
  /// runs on the calling thread and never enqueues on the lane, so the
  /// queue-depth gate needs this to see non-batch load at all).
  std::atomic<uint64_t> inflight{0};
  AdmissionController admission;
  obs::Counter* requests_total = nullptr;
  obs::Counter* fetches_total = nullptr;
  obs::Counter* shed_total = nullptr;
  obs::Counter* degraded_total = nullptr;
  obs::Counter* deadline_total = nullptr;
};

PqsdaEngine::PqsdaEngine() = default;
PqsdaEngine::~PqsdaEngine() = default;

StatusOr<std::unique_ptr<PqsdaEngine>> PqsdaEngine::Build(
    std::vector<QueryLogRecord> records, const PqsdaEngineConfig& config) {
  auto snapshot = BuildIndexSnapshot(std::move(records), config,
                                     /*generation=*/0);
  if (!snapshot.ok()) return snapshot.status();

  std::unique_ptr<PqsdaEngine> engine(new PqsdaEngine());
  engine->index_ =
      std::make_unique<IndexManager>(std::move(*snapshot), config);
  if (config.cache_capacity > 0) {
    SuggestionCacheOptions cache_options;
    cache_options.capacity = config.cache_capacity;
    cache_options.shards = config.cache_shards;
    cache_options.name = "suggest";
    engine->cache_ = std::make_unique<SuggestionCache>(cache_options);
  }
  if (config.negative_cache_capacity > 0) {
    engine->negative_cache_ = std::make_unique<NegativeSuggestionCache>(
        config.negative_cache_capacity);
  }
  engine->warmup_ = config.cache_warmup;
  if (engine->cache_ != nullptr && !config.cache_warmup.log_path.empty()) {
    // Post-swap warmup runs on the rebuild thread via the manager's
    // post-publish hook. The raw pointer is safe: index_ is declared last
    // in the engine, so ~IndexManager joins every rebuild (and with it any
    // running hook) before the caches or this object's other members die.
    PqsdaEngine* raw = engine.get();
    engine->index_->SetPostPublishHook(
        [raw](const std::shared_ptr<const IndexSnapshot>& snap) {
          raw->WarmupCache(*snap);
        });
  }
  engine->robustness_ = config.robustness;
  AdmissionOptions admission_options;
  admission_options.max_queue_depth = config.robustness.shed_queue_depth;
  admission_options.max_p95_us = config.robustness.shed_p95_us;
  engine->admission_ = AdmissionController(admission_options);
  // Rung 1: same pipeline, hard caps on the iterative work. A non-converged
  // iterate is served (accept_nonconverged) — visibly, via stats/metrics.
  engine->truncated_options_ = config.diversifier;
  engine->truncated_options_.regularization.solver_options.max_iterations =
      config.robustness.truncated_max_iterations;
  engine->truncated_options_.regularization.solver_options.tolerance =
      config.robustness.truncated_tolerance;
  engine->truncated_options_.regularization.accept_nonconverged = true;
  engine->truncated_options_.hitting_iterations =
      std::min(config.diversifier.hitting_iterations,
               config.robustness.truncated_hitting_iterations);
  // Rung 2: walk-only candidates.
  engine->walk_only_options_ = config.diversifier;
  engine->walk_only_options_.walk_only = true;

  // Sharded: one lane, admission gate and counter set per shard. The gates
  // take the engine-wide shedding thresholds but read only their shard's
  // lane depth, in-flight count and latency window.
  const size_t shards = config.sharding.shards;
  engine->router_.shards = shards;
  engine->fetch_budget_floor_us_ = config.sharding.fetch_budget_floor_us;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  if (shards > 0) {
    reg.GetGauge("pqsda.shard.count").Set(static_cast<double>(shards));
  }
  for (size_t s = 0; s < shards; ++s) {
    auto state = std::make_unique<ShardState>();
    AdmissionOptions gate = admission_options;
    gate.pool = &state->lane;
    gate.inflight = &state->inflight;
    gate.latency = &state->latency;
    gate.queue_depth_point = "shard." + std::to_string(s) + ".queue_depth";
    gate.p95_point = "shard." + std::to_string(s) + ".p95_us";
    state->admission = AdmissionController(gate);
    const std::string prefix = "pqsda.shard." + std::to_string(s) + ".";
    state->requests_total = &reg.GetCounter(prefix + "requests_total");
    state->fetches_total = &reg.GetCounter(prefix + "fetches_total");
    state->shed_total = &reg.GetCounter(prefix + "shed_total");
    state->degraded_total = &reg.GetCounter(prefix + "degraded_total");
    state->deadline_total = &reg.GetCounter(prefix + "deadline_total");
    engine->shards_.push_back(std::move(state));
  }
  return engine;
}

StatusOr<std::vector<Suggestion>> PqsdaEngine::Suggest(
    const SuggestionRequest& request, size_t k, SuggestStats* stats,
    obs::ExplainRecord* explain) const {
  // Admission first: an overloaded server answers kUnavailable in
  // microseconds instead of joining the queue it is already losing.
  const size_t primary = router_.QueryShardOf(request.query);
  Status admit = Admit(primary);
  if (!admit.ok()) {
    if (stats != nullptr) {
      *stats = SuggestStats{};
      stats->shed = true;
    }
    return admit;
  }
  return SuggestAdmitted(request, k, primary, stats, explain);
}

Status PqsdaEngine::Admit(size_t primary) const {
  static obs::Counter& requests_total = obs::MetricsRegistry::Default()
      .GetCounter("pqsda.suggest.requests_total");
  requests_total.Increment();
  Status admit = Status::OK();
  if (shards_.empty()) {
    admit = admission_.Admit();
  } else {
    // A request sheds at its primary shard's gate only; the other shards'
    // gates are consulted per fetch (see the classify hook in SuggestImpl).
    ShardState& shard = *shards_[primary];
    shard.requests_total->Increment();
    admit = shard.admission.Admit();
    if (!admit.ok()) shard.shed_total->Increment();
  }
  if (!admit.ok()) {
    obs::ServingTelemetry::Default().RecordRequest(
        /*latency_us=*/0.0, /*ok=*/false, /*not_found=*/false,
        cache_ != nullptr, /*cache_hit=*/false, /*shed=*/true);
  }
  return admit;
}

StatusOr<std::vector<Suggestion>> PqsdaEngine::SuggestAdmitted(
    const SuggestionRequest& request, size_t k, size_t primary,
    SuggestStats* stats, obs::ExplainRecord* explain) const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  static obs::Counter& errors_total =
      reg.GetCounter("pqsda.suggest.errors_total");
  static obs::Counter& not_found_total =
      reg.GetCounter("pqsda.suggest.not_found_total");
  static obs::Counter& traced_total =
      reg.GetCounter("pqsda.suggest.traced_total");
  static obs::Histogram& latency_us =
      reg.GetHistogram("pqsda.suggest.latency_us");
  static obs::Counter* rung_totals[4] = {
      &reg.GetCounter("pqsda.robust.rung_full_total"),
      &reg.GetCounter("pqsda.robust.rung_truncated_total"),
      &reg.GetCounter("pqsda.robust.rung_walk_only_total"),
      &reg.GetCounter("pqsda.robust.rung_cache_only_total")};
  static obs::Counter& deadline_exceeded_total =
      reg.GetCounter("pqsda.robust.deadline_exceeded_total");
  static obs::Counter& cancelled_total =
      reg.GetCounter("pqsda.robust.cancelled_total");

  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Default();
  const uint64_t request_id = telemetry.NextRequestId();

  // Pin the index for the request's whole lifetime: everything below reads
  // this one snapshot, so a concurrent rebuild swap can neither block nor
  // tear this request, and the snapshot outlives the call via the
  // shared_ptr even if it stops being the published one mid-pipeline.
  const std::shared_ptr<const IndexSnapshot> snap = index_->Acquire();

  // The ladder rung is fixed here, once, from the remaining budget — the
  // pipeline below never re-escalates mid-request.
  const DegradationRung rung = ChooseRung(request);
  rung_totals[static_cast<size_t>(rung)]->Increment();

  // With stats requested, the whole request runs under one trace; the
  // diversifier's and personalizer's stage spans attach to it. Without
  // stats, the telemetry layer head-samples requests into the /tracez ring.
  const bool trace_sampled = stats == nullptr && telemetry.SampleTrace();
  std::optional<obs::TraceCollector> collector;
  if (stats != nullptr || trace_sampled) collector.emplace("suggest");

  // Explain: collected when the caller asked (explain != nullptr) or when
  // head sampling selected this request for the /explainz ring. The record
  // is heap-held behind a shared_ptr because the store publishes it to
  // scrape threads after the request finishes.
  const bool explain_sampled = telemetry.SampleExplain();
  std::shared_ptr<obs::ExplainRecord> erec;
  if (explain != nullptr || explain_sampled) {
    erec = std::make_shared<obs::ExplainRecord>();
  }

  // In flight for the whole pipeline run: the part of a shard's load its
  // queue-depth gate cannot see in the lane (single requests execute right
  // here on the calling thread; batch tasks leave the queue as they start).
  ShardState* shard = shards_.empty() ? nullptr : shards_[primary].get();
  if (shard != nullptr) shard->inflight.fetch_add(1, std::memory_order_relaxed);
  // The profiler brackets exactly the admitted request on this thread; the
  // pipeline's stage scopes fold into this bracket and EndRequest attributes
  // the whole to the rung chosen above.
  obs::StageProfiler& profiler = obs::StageProfiler::Default();
  profiler.BeginRequest();
  WallTimer wall;
  bool cache_hit = false;
  StatusOr<std::vector<Suggestion>> result = Status::Internal("unset");
  {
    // The scope installs the record as the thread's explain sink for exactly
    // the pipeline's duration; the diversifier and personalizer write their
    // score terms through obs::CurrentExplain().
    std::optional<obs::ExplainScope> explain_scope;
    if (erec != nullptr) explain_scope.emplace(erec.get());
    result = SuggestImpl(request, k, rung, *snap, stats, &cache_hit);
  }
  const double elapsed_us = static_cast<double>(wall.ElapsedNanos()) * 1e-3;
  profiler.EndRequest(static_cast<size_t>(rung));
  if (shard != nullptr) {
    shard->inflight.fetch_sub(1, std::memory_order_relaxed);
    shard->latency.Record(elapsed_us);
  }
  const int64_t total_us = static_cast<int64_t>(elapsed_us);
  latency_us.Observe(elapsed_us);

  const bool ok = result.ok();
  const bool not_found =
      !ok && result.status().code() == StatusCode::kNotFound;
  if (!ok) {
    // A cold query (NotFound) is routine traffic, not an internal failure;
    // serving dashboards alert on errors_total only.
    (not_found ? not_found_total : errors_total).Increment();
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_total.Increment();
    } else if (result.status().code() == StatusCode::kCancelled) {
      cancelled_total.Increment();
    }
  }
  telemetry.RecordRequest(elapsed_us, ok, not_found, cache_ != nullptr,
                          cache_hit, /*shed=*/false, request_id,
                          snap->generation + 1);

  // The fingerprint is only computed when something consumes it (explain
  // record or request log) — it is per-result work the unobserved request
  // path must not pay.
  obs::RequestLog* log = telemetry.request_log();
  uint64_t fingerprint = 0;
  if (ok && (erec != nullptr || log != nullptr)) {
    fingerprint = FingerprintOf(*result);
  }

  if (erec != nullptr) {
    erec->request_id = request_id;
    erec->query = request.query;
    erec->user = request.user;
    erec->k = k;
    erec->generation = snap->generation;
    erec->rung = static_cast<size_t>(rung);
    erec->cache_hit = cache_hit;
    erec->total_us = total_us;
    erec->ok = ok;
    erec->fingerprint = fingerprint;
    if (ok) {
      AlignExplainToServed(*erec, *result);
    } else {
      erec->status = result.status().ToString();
      erec->candidates.clear();
    }
    telemetry.explain_store().Add(erec);
    if (explain != nullptr) *explain = *erec;
  }

  // Online quality sampling runs after the latency was measured and
  // recorded, so the measurement itself never shows up in the percentiles
  // it is meant to explain.
  if (ok && telemetry.quality().Sample()) {
    telemetry.quality().Record(
        static_cast<size_t>(rung), cache_hit, ListSimpsonDiversity(*result),
        k > 0 ? static_cast<double>(result->size()) / static_cast<double>(k)
              : 0.0);
  }

  obs::SpanNode trace;
  bool have_trace = false;
  if (collector.has_value()) {
    trace = collector->Take();
    have_trace = true;
    traced_total.Increment();
    telemetry.RecordTrace(request_id, request.query, total_us, trace);
  }

  if (log != nullptr) {
    obs::RequestLogEntry entry;
    entry.request_id = request_id;
    entry.user = request.user;
    entry.query = request.query;
    entry.k = k;
    // Replay inputs: the full request (timestamp + context), the pinned
    // generation, the rung, and the result fingerprint replay must match.
    entry.timestamp = request.timestamp;
    entry.context = request.context;
    entry.generation = snap->generation;
    entry.rung = static_cast<size_t>(rung);
    entry.fingerprint = fingerprint;
    entry.total_us = total_us;
    entry.cache_hit = cache_hit;
    entry.ok = ok;
    if (!ok) entry.status = result.status().ToString();
    if (have_trace) {
      for (const char* stage :
           {"expansion", "regularization_solve", "hitting_time_selection",
            "personalization"}) {
        if (const obs::SpanNode* node = trace.Find(stage)) {
          entry.stage_us.emplace_back(stage, node->duration_us());
        }
      }
    }
    if (ok) {
      entry.suggestions.reserve(result->size());
      for (const Suggestion& s : *result) entry.suggestions.push_back(s.query);
    }
    log->Log(std::move(entry));
  }

  // Cache hits skip the pipeline: SuggestImpl already reset `stats`, and the
  // near-empty wrapper trace is deliberately not attached so a reused stats
  // struct reports "no stage trace" (TotalSpans()==1) as before.
  if (stats != nullptr && have_trace && !cache_hit) {
    stats->trace = std::move(trace);
  }
  return result;
}

StatusOr<std::vector<Suggestion>> PqsdaEngine::Replay(
    const obs::RequestLogEntry& entry, obs::ExplainRecord* explain) const {
  std::shared_ptr<const IndexSnapshot> snap =
      index_->AcquireGeneration(entry.generation);
  if (snap == nullptr) {
    return Status::NotFound(
        "generation " + std::to_string(entry.generation) +
        " is no longer live (oldest replayable generation is " +
        std::to_string(index_->oldest_live_generation()) +
        "); the request is not reproducible anymore");
  }

  SuggestionRequest request;
  request.query = entry.query;
  request.user = entry.user;
  request.timestamp = entry.timestamp;
  request.context = entry.context;

  // A logged cache hit was filled by an earlier full-rung compute, so with
  // the cache bypassed the full pipeline is what reproduces its list. A
  // cache-only *miss* replays as the same fast NotFound the original served.
  const DegradationRung rung =
      entry.cache_hit
          ? DegradationRung::kFull
          : static_cast<DegradationRung>(std::min<size_t>(entry.rung, 3));

  obs::ExplainRecord record;
  bool cache_hit = false;
  WallTimer wall;
  StatusOr<std::vector<Suggestion>> result = Status::Internal("unset");
  {
    // Nested scope: replay may run on a serving thread mid-conversation
    // (the CLI), and the previous sink is restored on exit.
    std::optional<obs::ExplainScope> scope;
    if (explain != nullptr) scope.emplace(&record);
    result = SuggestImpl(request, entry.k, rung, *snap, /*stats=*/nullptr,
                         &cache_hit, /*bypass_cache=*/true);
  }
  if (explain != nullptr) {
    record.request_id = entry.request_id;
    record.query = entry.query;
    record.user = entry.user;
    record.k = entry.k;
    record.generation = snap->generation;
    record.rung = static_cast<size_t>(rung);
    record.cache_hit = false;  // the replayed execution itself never hits
    record.total_us = wall.ElapsedMicros();
    record.ok = result.ok();
    if (result.ok()) {
      record.fingerprint = FingerprintOf(*result);
      AlignExplainToServed(record, *result);
    } else {
      record.status = result.status().ToString();
      record.candidates.clear();
    }
    *explain = std::move(record);
  }
  return result;
}

DegradationRung PqsdaEngine::ChooseRung(const SuggestionRequest& request) const {
  // Injection point first, so an armed clock jump here shapes the very
  // budget reading the ladder decides on.
  FaultInjector::Default().Hit(faults::kAdmission);
  size_t rung = std::min<size_t>(robustness_.min_rung, 3);
  if (request.cancel != nullptr && request.cancel->has_deadline()) {
    const int64_t remaining_us = request.cancel->RemainingNanos() / 1000;
    size_t budget_rung = 0;
    if (remaining_us < robustness_.cache_only_below_us) {
      budget_rung = 3;
    } else if (remaining_us < robustness_.walk_only_below_us) {
      budget_rung = 2;
    } else if (remaining_us < robustness_.truncated_below_us) {
      budget_rung = 1;
    }
    rung = std::max(rung, budget_rung);
  }
  return static_cast<DegradationRung>(rung);
}

StatusOr<std::vector<Suggestion>> PqsdaEngine::SuggestImpl(
    const SuggestionRequest& request, size_t k, DegradationRung rung,
    const IndexSnapshot& snap, SuggestStats* stats, bool* cache_hit,
    bool bypass_cache) const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  static obs::Counter& personalized_total =
      reg.GetCounter("pqsda.suggest.personalized_total");
  static obs::Counter& partial_merges_total =
      reg.GetCounter("pqsda.sharded.partial_merges_total");

  // Reset a reused stats struct before any work: no trace, solver or
  // selection number of a previous request may survive *any* exit path —
  // cache hit, error, cancellation, deadline.
  if (stats != nullptr) {
    *stats = SuggestStats{};
    stats->degradation_rung = static_cast<size_t>(rung);
  }

  // Cache entries record, per partition component they read, the generation
  // that last changed that component's content; the validator grades them
  // against the snapshot this request pinned. A swap that left those
  // components byte-identical leaves the entry servable.
  SuggestionCache::CacheKey cache_key;
  SuggestionCache::Validator validator;
  const bool use_cache =
      (cache_ != nullptr || negative_cache_ != nullptr) && !bypass_cache;
  if (use_cache) {
    cache_key = SuggestionCache::KeyOf(request, k);
    validator = [&snap](const SuggestionCache::ValidationVector& components)
        -> CacheValidity {
      bool stale = false;
      for (const auto& [component, gen] : components) {
        uint64_t current;
        if (component == ShardServingContext::kUpmComponent) {
          current = snap.upm_generation;
        } else if (component < snap.shard_generation.size()) {
          current = snap.shard_generation[component];
        } else {
          return CacheValidity::kStale;  // unknown component: ungradable
        }
        // Newer than this snapshot: the entry belongs to a generation built
        // after the one this request pinned (a reader on the outgoing
        // snapshot racing a post-swap warmup fill). Miss, but keep the
        // entry — it is perfectly valid for current-generation readers.
        if (gen > current) return CacheValidity::kMismatch;
        if (gen < current) stale = true;
      }
      return stale ? CacheValidity::kStale : CacheValidity::kValid;
    };
  }
  if (cache_ != nullptr && !bypass_cache) {
    std::vector<Suggestion> cached;
    bool hit;
    {
      obs::StageScope cache_scope(obs::ProfileStage::kCache);
      obs::StageProfiler::AddWork(obs::ProfileStage::kCache, 1);
      hit = cache_->Lookup(cache_key, &cached, validator);
    }
    if (hit) {
      *cache_hit = true;
      if (stats != nullptr) stats->suggestions_returned = cached.size();
      return cached;
    }
  }
  // The negative cache absorbs NotFound storms: a remembered miss answers
  // without touching the index, validated by the same component
  // generations so an ingest that makes the query known invalidates it.
  if (negative_cache_ != nullptr && !bypass_cache &&
      negative_cache_->Lookup(cache_key, validator)) {
    if (stats != nullptr) stats->negative_cache_hit = true;
    return Status::NotFound("no suggestions for \"" + request.query +
                            "\" (negative cache)");
  }
  if (rung == DegradationRung::kCacheOnly) {
    // The last rung does no pipeline work at all: a hit above served it, a
    // miss (or no cache) is a fast NotFound.
    return Status::NotFound("cache-only rung: no cached result for \"" +
                            request.query + "\"");
  }

  const PqsdaDiversifierOptions* options = &snap.diversifier->options();
  if (rung == DegradationRung::kTruncatedSolve) options = &truncated_options_;
  if (rung == DegradationRung::kWalkOnly) options = &walk_only_options_;

  // The walk backend. Sharded, every rung scatter-gathers across the
  // shards' lanes, each shard classified on first touch. Unsharded, a
  // full-rung request that may fill the cache walks through the lane-less
  // tracking backend (every component local, bitwise-identical to the plain
  // walk) so the fill knows which components it read; everything else
  // takes the plain walk.
  const bool sharded = !shards_.empty();
  const bool track =
      sharded || (use_cache && rung == DegradationRung::kFull);
  ShardServingContext ctx;
  StatusOr<DiversificationOutput> diversified = Status::Internal("unset");
  if (track) {
    const size_t width = snap.partition.shards;
    ctx.mb = snap.mb.get();
    ctx.partition = &snap.partition;
    ctx.primary = ShardRouter{width}.QueryShardOf(request.query);
    ctx.rung.assign(width, SuggestStats::kShardUntouched);
    ctx.shard_fetches.assign(width, 0);
    // The primary shard passed request-level admission; it serves its own
    // rows unconditionally.
    ctx.rung[ctx.primary] = SuggestStats::kShardFull;
    std::vector<ThreadPool*> lanes;
    if (sharded) {
      ctx.classify = [this, cancel = request.cancel](size_t s) -> uint8_t {
        return ClassifyShard(s, cancel);
      };
      lanes.reserve(shards_.size());
      for (const auto& state : shards_) lanes.push_back(&state->lane);
    }
    ShardedWalkBackend backend(&ctx, std::move(lanes));
    // Per-request diversifier bound to the backend: only the §IV-A row
    // reads go through it; the solve, selection and rerank run unchanged on
    // the merged compact representation.
    PqsdaDiversifier diversifier(*snap.mb, *options, &backend);
    diversified = diversifier.DiversifyWith(request, k, *options, stats);
  } else {
    diversified = snap.diversifier->DiversifyWith(request, k, *options, stats);
  }

  std::vector<Suggestion> list;
  bool reranked = false;
  if (diversified.ok()) {
    list = std::move(diversified->candidates);
    // Personalization is skipped on the walk-only rung — the rerank reads
    // the UPM per candidate and the rung's point is a bounded answer.
    // Sharded, the UPM lives on the user's home shard: a degraded home
    // shard serves the diversified list unpersonalized — loudly (partial
    // flag + rung) — instead of failing the request.
    if (rung != DegradationRung::kWalkOnly && snap.personalizer != nullptr &&
        request.user != kNoUser &&
        (!sharded || ctx.Touch(router_.UserShardOf(request.user)) ==
                         SuggestStats::kShardFull)) {
      list = snap.personalizer->Rerank(request.user, list);
      personalized_total.Increment();
      reranked = true;
      if (stats != nullptr) stats->personalized = true;
    }
  }

  if (sharded) {
    // Per-shard accounting runs on every exit path so a degraded shard is
    // never silent, then the stats snapshot mirrors it per request.
    for (size_t s = 0; s < ctx.rung.size(); ++s) {
      if (ctx.rung[s] == SuggestStats::kShardDegraded) {
        shards_[s]->degraded_total->Increment();
      } else if (ctx.rung[s] == SuggestStats::kShardDeadline) {
        shards_[s]->deadline_total->Increment();
      }
      if (ctx.shard_fetches[s] > 0) {
        shards_[s]->fetches_total->Increment(ctx.shard_fetches[s]);
      }
    }
    if (ctx.partial) partial_merges_total.Increment();
    if (stats != nullptr) {
      stats->shard_rungs = ctx.rung;
      stats->shards_touched = ctx.TouchedShards();
      stats->partial_merge = ctx.partial;
    }
  }

  if (!diversified.ok()) {
    const Status status = diversified.status();
    // A full-rung, full-merge NotFound is a property of the index (the
    // query is unknown), not of this request's luck — remember it, stamped
    // with the generation of the component owning the query string (its
    // content fingerprint covers the owned query-string set), so an ingest
    // that makes the query known invalidates the entry.
    if (use_cache && negative_cache_ != nullptr &&
        rung == DegradationRung::kFull && !ctx.partial &&
        status.code() == StatusCode::kNotFound) {
      SuggestionCache::ValidationVector components;
      components.emplace_back(static_cast<uint32_t>(ctx.primary),
                              snap.shard_generation[ctx.primary]);
      negative_cache_->Insert(cache_key, std::move(components));
    }
    return status;
  }
  if (stats != nullptr) stats->suggestions_returned = list.size();
  // Only full-rung, full-merge results fill the cache: a degraded answer or
  // a partial merge cached under the same key would outlive the overload
  // that caused it. The validation vector records exactly what the entry
  // read.
  if (cache_ != nullptr && !bypass_cache && rung == DegradationRung::kFull &&
      !ctx.partial) {
    SuggestionCache::ValidationVector components;
    for (size_t s = 0; s < ctx.rung.size(); ++s) {
      if (ctx.rung[s] != SuggestStats::kShardUntouched) {
        components.emplace_back(static_cast<uint32_t>(s),
                                snap.shard_generation[s]);
      }
    }
    if (reranked) {
      components.emplace_back(ShardServingContext::kUpmComponent,
                              snap.upm_generation);
    }
    cache_->Insert(cache_key, list, std::move(components));
  }
  return list;
}

uint8_t PqsdaEngine::ClassifyShard(size_t s, const CancelToken* cancel) const {
  FaultInjector& injector = FaultInjector::Default();
  if (injector.Value(faults::kShardShedShard, -1) == static_cast<int64_t>(s)) {
    return SuggestStats::kShardDegraded;
  }
  if (injector.Value(faults::kShardDeadlineShard, -1) ==
      static_cast<int64_t>(s)) {
    return SuggestStats::kShardDeadline;
  }
  // The per-fetch deadline floor: once the request's remaining budget has
  // collapsed below fetch_budget_floor_us (or the deadline has passed
  // outright), fetches to shards not yet touched are refused — the shard
  // classifies kShardDeadline for the rest of the request and its cold rows
  // drop, loudly, instead of remote reads eating the budget the rest of the
  // pipeline still needs.
  if (cancel != nullptr && cancel->has_deadline() &&
      (cancel->expired() ||
       static_cast<double>(cancel->RemainingNanos()) * 1e-3 <
           fetch_budget_floor_us_)) {
    return SuggestStats::kShardDeadline;
  }
  if (!shards_[s]->admission.Admit().ok()) return SuggestStats::kShardDegraded;
  return SuggestStats::kShardFull;
}

void PqsdaEngine::WarmupCache(const IndexSnapshot& snap) const {
  if (cache_ == nullptr || warmup_.log_path.empty()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  static obs::Counter& replayed_total =
      reg.GetCounter("pqsda.cache.warmup_replayed_total");
  static obs::Counter& hits_total =
      reg.GetCounter("pqsda.cache.warmup_hits_total");
  static obs::Counter& filled_total =
      reg.GetCounter("pqsda.cache.warmup_filled_total");
  auto entries = obs::ReadRequestLog(warmup_.log_path, /*max_entries=*/0);
  if (!entries.ok()) return;
  // Newest entries first, deduplicated by cache key: the tail of the log is
  // the best estimate of the head of the live distribution.
  std::unordered_set<std::string> seen;
  size_t replayed = 0;
  for (auto it = entries->rbegin();
       it != entries->rend() && replayed < warmup_.max_requests; ++it) {
    const obs::RequestLogEntry& e = *it;
    if (!e.ok) continue;
    SuggestionRequest request;
    request.query = e.query;
    request.user = e.user;
    request.timestamp = e.timestamp;
    request.context = e.context;
    if (!seen.insert(SuggestionCache::KeyOf(request, e.k).full).second) {
      continue;
    }
    ++replayed;
    replayed_total.Increment();
    bool hit = false;
    auto result = SuggestImpl(request, e.k, DegradationRung::kFull, snap,
                              /*stats=*/nullptr, &hit);
    if (hit) {
      hits_total.Increment();
    } else if (result.ok()) {
      filled_total.Increment();
    }
  }
}

std::vector<StatusOr<std::vector<Suggestion>>> PqsdaEngine::SuggestBatch(
    std::span<const SuggestionRequest> requests, size_t k,
    ThreadPool* pool) const {
  static obs::Counter& batches_total = obs::MetricsRegistry::Default()
      .GetCounter("pqsda.suggest.batches_total");
  batches_total.Increment();
  std::vector<StatusOr<std::vector<Suggestion>>> results(
      requests.size(), Status::Internal("request not served"));
  if (shards_.empty()) {
    if (pool == nullptr) pool = &ThreadPool::Shared();
    pool->ParallelFor(0, requests.size(), /*min_grain=*/1,
                      [this, &requests, &results, k](size_t begin,
                                                     size_t end) {
                        for (size_t i = begin; i < end; ++i) {
                          results[i] = Suggest(requests[i], k);
                        }
                      });
    return results;
  }
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    // Admission at submit time against the primary lane's *current* queue
    // depth: a burst that overfills one shard's lane sheds there while the
    // other lanes keep admitting.
    const size_t primary = router_.QueryShardOf(requests[i].query);
    Status admit = Admit(primary);
    if (!admit.ok()) {
      results[i] = admit;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      ++pending;
    }
    shards_[primary]->lane.Submit(
        [this, &requests, &results, &mu, &cv, &pending, i, k, primary] {
          results[i] = SuggestAdmitted(requests[i], k, primary,
                                       /*stats=*/nullptr, /*explain=*/nullptr);
          // Notify under the lock: the caller destroys mu/cv once it
          // observes pending == 0.
          std::lock_guard<std::mutex> lock(mu);
          --pending;
          cv.notify_one();
        });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&pending] { return pending == 0; });
  return results;
}

}  // namespace pqsda
