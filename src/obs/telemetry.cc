#include "obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/thread_pool.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/retire.h"
#include "obs/stage_profiler.h"
#include "suggest/suggestion_cache.h"

namespace pqsda::obs {

namespace {

constexpr int64_t kSecond = 1'000'000'000;
// The three windows /statusz reports.
constexpr int64_t kWindowsNs[] = {10 * kSecond, 60 * kSecond, 300 * kSecond};
constexpr const char* kWindowNames[] = {"10s", "1m", "5m"};

// The per-stage cumulative latency histograms worth surfacing on /statusz.
constexpr const char* kStageHistograms[] = {
    "pqsda.suggest.expansion_us", "pqsda.suggest.regularization_solve_us",
    "pqsda.suggest.hitting_time_selection_us",
    "pqsda.suggest.personalization_us", "pqsda.suggest.latency_us"};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::atomic<ServingTelemetry*> g_default{nullptr};
std::mutex g_install_mu;

// Builds the quality surface's options from the telemetry options (shared
// window ring and clock, its own sampling knob).
QualityTelemetryOptions QualityOptionsOf(const ServingTelemetryOptions& o) {
  QualityTelemetryOptions q;
  q.window = o.window;
  q.sample_every = o.quality_sample_every;
  return q;
}

// "?window=10s|1m|5m" on /profilez; defaults to 1m.
int64_t ProfilezWindowNs(const std::string& query) {
  for (size_t w = 0; w < 3; ++w) {
    if (query == std::string("window=") + kWindowNames[w]) return kWindowsNs[w];
  }
  return kWindowsNs[1];
}

}  // namespace

ServingTelemetry::ServingTelemetry(ServingTelemetryOptions options)
    : options_(options),
      explain_sample_every_(options.explain_sample_every),
      start_ns_(options.window.clock
                    ? options.window.clock()
                    : std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count()),
      requests_(options.window),
      errors_(options.window),
      not_found_(options.window),
      cache_hits_(options.window),
      cache_lookups_(options.window),
      shed_(options.window),
      latency_(options.window),
      quality_(QualityOptionsOf(options)),
      explain_store_(options.explain_store_capacity) {
  exemplars_ =
      std::make_unique<ExemplarSlot[]>(latency_.bounds().size() + 1);
}

ServingTelemetry& ServingTelemetry::Default() {
  ServingTelemetry* t = g_default.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  std::lock_guard<std::mutex> lock(g_install_mu);
  t = g_default.load(std::memory_order_relaxed);
  if (t == nullptr) {
    t = new ServingTelemetry();
    g_default.store(t, std::memory_order_release);
  }
  return *t;
}

ServingTelemetry& ServingTelemetry::Install(ServingTelemetryOptions options) {
  std::lock_guard<std::mutex> lock(g_install_mu);
  auto* t = new ServingTelemetry(std::move(options));
  // The previous instance is never freed: request threads may hold a
  // reference across the swap and windowed recorders must never die under
  // them.
  RetireForever(g_default.exchange(t, std::memory_order_acq_rel));
  return *t;
}

bool ServingTelemetry::SampleTrace() {
  if (options_.trace_sample_every == 0) return false;
  return trace_seq_.fetch_add(1, std::memory_order_relaxed) %
             options_.trace_sample_every ==
         0;
}

bool ServingTelemetry::SampleExplain() {
  const uint64_t every = explain_sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return false;
  return explain_seq_.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

void ServingTelemetry::RecordRequest(double latency_us, bool ok,
                                     bool not_found, bool cache_enabled,
                                     bool cache_hit, bool shed,
                                     uint64_t request_id,
                                     uint64_t generation_plus_one) {
  requests_.Add();
  if (shed) {
    shed_.Add();
    return;
  }
  latency_.Record(latency_us);
  if (request_id != 0) {
    const std::vector<double>& bounds = latency_.bounds();
    const size_t bucket = static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), latency_us) -
        bounds.begin());
    ExemplarSlot& slot = exemplars_[bucket];
    slot.request_id.store(request_id, std::memory_order_relaxed);
    slot.latency_us.store(static_cast<int64_t>(latency_us),
                          std::memory_order_relaxed);
    slot.at_ns.store(options_.window.clock
                         ? options_.window.clock()
                         : std::chrono::duration_cast<
                               std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now()
                                   .time_since_epoch())
                               .count(),
                     std::memory_order_relaxed);
    slot.generation_plus_one.store(generation_plus_one,
                                   std::memory_order_relaxed);
  }
  if (!ok && !not_found) errors_.Add();
  if (not_found) not_found_.Add();
  if (cache_enabled) {
    cache_lookups_.Add();
    if (cache_hit) cache_hits_.Add();
  }
}

void ServingTelemetry::RecordTrace(uint64_t request_id,
                                   const std::string& query, int64_t total_us,
                                   const SpanNode& trace) {
  TracezEntry entry;
  entry.request_id = request_id;
  entry.total_us = total_us;
  entry.json = "{\"request_id\":" + std::to_string(request_id) +
               ",\"query\":\"" + JsonEscape(query) +
               "\",\"total_us\":" + std::to_string(total_us) +
               ",\"trace\":" + trace.ToJson() + "}";

  std::lock_guard<std::mutex> lock(tracez_mu_);
  if (options_.tracez_recent > 0) {
    recent_.push_back(entry);
    while (recent_.size() > options_.tracez_recent) recent_.pop_front();
  }
  if (options_.tracez_slowest > 0) {
    const bool full = slowest_.size() >= options_.tracez_slowest;
    if (!full || total_us > slowest_.back().total_us) {
      if (full) slowest_.pop_back();
      auto pos = std::upper_bound(
          slowest_.begin(), slowest_.end(), entry,
          [](const TracezEntry& a, const TracezEntry& b) {
            return a.total_us > b.total_us;
          });
      slowest_.insert(pos, std::move(entry));
    }
  }
}

void ServingTelemetry::AttachRequestLog(std::unique_ptr<RequestLog> log) {
  // Ownership transfers to the process (retired like Install's
  // predecessor); the raw pointer is what the request path loads.
  RetireForever(
      request_log_.exchange(log.release(), std::memory_order_acq_rel));
}

void ServingTelemetry::ConfigureSlos(std::vector<SloSpec> specs) {
  SloEngine* engine =
      specs.empty() ? nullptr : new SloEngine(this, std::move(specs));
  // The predecessor is retired, never freed: a scrape thread may be
  // mid-Evaluate.
  RetireForever(slo_.exchange(engine, std::memory_order_acq_rel));
}

std::string ServingTelemetry::AlertzJson() const {
  if (SloEngine* engine = slo()) return engine->AlertzJson();
  return "{\"slos\":[],\"transitions\":[]}";
}

std::string ServingTelemetry::StatuszJson() const {
  MetricsRegistry& reg = MetricsRegistry::Default();
  const int64_t now_ns =
      options_.window.clock
          ? options_.window.clock()
          : std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();

  std::string out = "{\"uptime_sec\":" +
                    Num(static_cast<double>(now_ns - start_ns_) * 1e-9);

  out += ",\"build\":{\"system\":\"pqsda\"";
#if defined(__clang__)
  out += ",\"compiler\":\"clang " + std::to_string(__clang_major__) + "\"";
#elif defined(__GNUC__)
  out += ",\"compiler\":\"gcc " + std::to_string(__GNUC__) + "\"";
#endif
#ifdef NDEBUG
  out += ",\"assertions\":false";
#else
  out += ",\"assertions\":true";
#endif
  out += ",\"queries\":" + Num(reg.GetGauge("pqsda.build.queries").Value());
  out += ",\"sessions\":" + Num(reg.GetGauge("pqsda.build.sessions").Value());
  out += "}";

  out += ",\"windows\":{";
  for (size_t w = 0; w < 3; ++w) {
    if (w > 0) out += ",";
    const int64_t win = kWindowsNs[w];
    const uint64_t reqs = requests_.SumOver(win);
    const uint64_t errs = errors_.SumOver(win);
    const uint64_t nf = not_found_.SumOver(win);
    const uint64_t hits = cache_hits_.SumOver(win);
    const uint64_t lookups = cache_lookups_.SumOver(win);
    const uint64_t shed = shed_.SumOver(win);
    const WindowSnapshot lat = latency_.SnapshotOver(win);
    out += "\"" + std::string(kWindowNames[w]) + "\":{";
    out += "\"requests\":" + std::to_string(reqs);
    out += ",\"qps\":" + Num(requests_.RatePerSec(win));
    out += ",\"shed_rate\":" +
           Num(reqs > 0 ? static_cast<double>(shed) /
                              static_cast<double>(reqs)
                        : 0.0);
    out += ",\"error_rate\":" +
           Num(reqs > 0 ? static_cast<double>(errs) /
                              static_cast<double>(reqs)
                        : 0.0);
    out += ",\"not_found_rate\":" +
           Num(reqs > 0 ? static_cast<double>(nf) / static_cast<double>(reqs)
                        : 0.0);
    out += ",\"cache_hit_rate\":" +
           Num(lookups > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(lookups)
                           : 0.0);
    out += ",\"latency_us\":{\"count\":" + std::to_string(lat.count);
    out += ",\"mean\":" + Num(lat.mean);
    out += ",\"p50\":" + Num(lat.p50);
    out += ",\"p95\":" + Num(lat.p95);
    out += ",\"p99\":" + Num(lat.p99);
    out += "}}";
  }
  out += "}";

  // Exemplars: the most recent request id seen in each latency bucket, the
  // bridge from a percentile spike here to the concrete trace in /tracez or
  // the JSONL request log. An exemplar whose pinned generation has left the
  // replayable snapshot ring (pqsda.ingest.oldest_live_generation) is aged
  // out instead of emitted — a stale id must never advertise a replay
  // against a reclaimed snapshot.
  out += ",\"exemplars\":[";
  {
    const double oldest_live =
        reg.GetGauge("pqsda.ingest.oldest_live_generation").Value();
    const std::vector<double>& bounds = latency_.bounds();
    bool first = true;
    for (size_t b = 0; b <= bounds.size(); ++b) {
      const ExemplarSlot& slot = exemplars_[b];
      const uint64_t id = slot.request_id.load(std::memory_order_relaxed);
      if (id == 0) continue;
      const uint64_t gen_p1 =
          slot.generation_plus_one.load(std::memory_order_relaxed);
      if (gen_p1 != 0 && oldest_live > 0 &&
          static_cast<double>(gen_p1 - 1) < oldest_live) {
        continue;  // generation reclaimed: exemplar aged out
      }
      if (!first) out += ",";
      first = false;
      out += "{\"le\":";
      out += b < bounds.size() ? "\"" + Num(bounds[b]) + "\""
                               : std::string("\"+Inf\"");
      out += ",\"request_id\":" + std::to_string(id);
      out += ",\"latency_us\":" +
             std::to_string(slot.latency_us.load(std::memory_order_relaxed));
      out += ",\"age_sec\":" +
             Num(static_cast<double>(
                     now_ns - slot.at_ns.load(std::memory_order_relaxed)) *
                 1e-9);
      if (gen_p1 != 0) {
        out += ",\"generation\":" + std::to_string(gen_p1 - 1);
        out += ",\"replay\":\"suggest_cli replay " + std::to_string(id) + "\"";
      }
      out += "}";
    }
  }
  out += "]";

  // Pool state is read at scrape time (collect-on-scrape: the hot path pays
  // nothing for these).
  ThreadPool& pool = ThreadPool::Shared();
  const size_t active = pool.ActiveWorkers();
  out += ",\"pool\":{\"size\":" + std::to_string(pool.size());
  out += ",\"active\":" + std::to_string(active);
  out += ",\"queue_depth\":" + std::to_string(pool.QueueDepth());
  out += ",\"utilization\":" +
         Num(pool.size() > 0
                 ? static_cast<double>(active) /
                       static_cast<double>(pool.size())
                 : 0.0);
  out += "}";

  const double cache_size = reg.GetGauge("pqsda.cache.size").Value();
  const double cache_capacity = reg.GetGauge("pqsda.cache.capacity").Value();
  out += ",\"cache\":{\"size\":" + Num(cache_size);
  out += ",\"capacity\":" + Num(cache_capacity);
  out += ",\"occupancy\":" +
         Num(cache_capacity > 0 ? cache_size / cache_capacity : 0.0);
  out += ",\"hits_total\":" +
         std::to_string(reg.GetCounter("pqsda.cache.hits_total").Value());
  out += ",\"misses_total\":" +
         std::to_string(reg.GetCounter("pqsda.cache.misses_total").Value());
  out += ",\"evictions_total\":" +
         std::to_string(reg.GetCounter("pqsda.cache.evictions_total").Value());
  out += ",\"stale_invalidations_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.cache.stale_invalidations_total").Value());
  out += ",\"mismatch_misses_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.cache.mismatch_misses_total").Value());
  out += ",\"ghost_hits_total\":" +
         std::to_string(reg.GetCounter("pqsda.cache.ghost_hits_total").Value());
  out += ",\"warmup\":{\"replayed_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.cache.warmup_replayed_total").Value());
  out += ",\"hits_total\":" +
         std::to_string(reg.GetCounter("pqsda.cache.warmup_hits_total").Value());
  out += ",\"filled_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.cache.warmup_filled_total").Value());
  out += "}";
  out += ",\"negative\":{\"size\":" +
         Num(reg.GetGauge("pqsda.cache.negative_size").Value());
  out += ",\"hits_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.cache.negative_hits_total").Value());
  out += ",\"misses_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.cache.negative_misses_total").Value());
  out += ",\"insertions_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.cache.negative_insertions_total").Value());
  out += ",\"invalidations_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.cache.negative_invalidations_total")
                 .Value());
  out += "}";
  // Per-instance CAR state (occupancy, list sizes and adaptation target)
  // for every live cache.
  out += ",\"instances\":" + SuggestionCachesStatusJson();
  out += "}";

  out += ",\"stages\":{";
  for (size_t s = 0; s < sizeof(kStageHistograms) / sizeof(char*); ++s) {
    if (s > 0) out += ",";
    Histogram& h = reg.GetHistogram(kStageHistograms[s]);
    out += "\"" + std::string(kStageHistograms[s]) + "\":{";
    out += "\"count\":" + std::to_string(h.Count());
    out += ",\"p50\":" + Num(h.Quantile(0.50));
    out += ",\"p95\":" + Num(h.Quantile(0.95));
    out += ",\"p99\":" + Num(h.Quantile(0.99));
    out += "}";
  }
  out += "}";

  // Online quality over the last minute (sampled served lists; see
  // QualityTelemetry) and the SLO state machines, when configured.
  out += ",\"quality\":" + quality_.StatuszSection(kWindowsNs[1]);
  if (SloEngine* engine = slo()) {
    out += ",\"slo\":" + engine->StatuszSection();
  }

  // Overload-hardening state: shed/admission totals and how many requests
  // each degradation-ladder rung served since process start.
  out += ",\"robust\":{";
  out += "\"admitted_total\":" +
         std::to_string(reg.GetCounter("pqsda.robust.admitted_total").Value());
  out += ",\"shed_total\":" +
         std::to_string(reg.GetCounter("pqsda.robust.shed_total").Value());
  out += ",\"rungs\":{";
  out += "\"full\":" +
         std::to_string(reg.GetCounter("pqsda.robust.rung_full_total").Value());
  out += ",\"truncated_solve\":" +
         std::to_string(
             reg.GetCounter("pqsda.robust.rung_truncated_total").Value());
  out += ",\"walk_only\":" +
         std::to_string(
             reg.GetCounter("pqsda.robust.rung_walk_only_total").Value());
  out += ",\"cache_only\":" +
         std::to_string(
             reg.GetCounter("pqsda.robust.rung_cache_only_total").Value());
  out += "}";
  out += ",\"deadline_exceeded_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.robust.deadline_exceeded_total").Value());
  out += ",\"cancelled_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.robust.cancelled_total").Value());
  out += ",\"nonconverged_served_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.robust.nonconverged_served_total").Value());
  out += "}";

  // Live-index state: which generation is serving, how stale it is, and how
  // much ingested traffic is waiting for the next rebuild. All read from the
  // pqsda.ingest.* registry surface at scrape time (an index-less process —
  // e.g. a unit test exercising only the exporter — reports zeros).
  const double last_swap_sec =
      reg.GetGauge("pqsda.ingest.last_swap_monotonic_sec").Value();
  out += ",\"index\":{";
  out += "\"generation\":" +
         Num(reg.GetGauge("pqsda.ingest.generation").Value());
  out += ",\"age_sec\":" +
         Num(last_swap_sec > 0
                 ? static_cast<double>(now_ns) * 1e-9 - last_swap_sec
                 : 0.0);
  out += ",\"records\":" +
         Num(reg.GetGauge("pqsda.ingest.index_records").Value());
  out += ",\"delta_depth\":" +
         Num(reg.GetGauge("pqsda.ingest.delta_depth").Value());
  out += ",\"last_rebuild_us\":" +
         Num(reg.GetGauge("pqsda.ingest.last_rebuild_us").Value());
  out += ",\"ingested_total\":" +
         std::to_string(reg.GetCounter("pqsda.ingest.records_total").Value());
  out += ",\"dropped_total\":" +
         std::to_string(reg.GetCounter("pqsda.ingest.dropped_total").Value());
  out += ",\"rebuilds_total\":" +
         std::to_string(reg.GetCounter("pqsda.ingest.rebuilds_total").Value());
  out += ",\"rebuild_failures_total\":" +
         std::to_string(
             reg.GetCounter("pqsda.ingest.rebuild_failures_total").Value());
  out += "}";

  // Sharded serving (present only when a sharded engine has published its
  // shard count): per-shard traffic, degradation and generation, plus the
  // coordinator-level partial-merge total. All names are stable
  // pqsda.shard.<i>.* registry entries so the section costs nothing when
  // unsharded.
  const auto shard_count =
      static_cast<size_t>(reg.GetGauge("pqsda.shard.count").Value());
  if (shard_count > 0) {
    out += ",\"shards\":{\"count\":" + std::to_string(shard_count);
    out += ",\"partial_merges_total\":" +
           std::to_string(
               reg.GetCounter("pqsda.sharded.partial_merges_total").Value());
    out += ",\"replicated_hot_rows\":" +
           Num(reg.GetGauge("pqsda.shard.replicated_hot_rows").Value());
    out += ",\"per_shard\":[";
    for (size_t s = 0; s < shard_count; ++s) {
      const std::string prefix = "pqsda.shard." + std::to_string(s) + ".";
      if (s > 0) out += ",";
      out += "{\"shard\":" + std::to_string(s);
      out += ",\"generation\":" +
             Num(reg.GetGauge(prefix + "generation").Value());
      out += ",\"requests_total\":" +
             std::to_string(reg.GetCounter(prefix + "requests_total").Value());
      out += ",\"fetches_total\":" +
             std::to_string(reg.GetCounter(prefix + "fetches_total").Value());
      out += ",\"shed_total\":" +
             std::to_string(reg.GetCounter(prefix + "shed_total").Value());
      out += ",\"degraded_total\":" +
             std::to_string(reg.GetCounter(prefix + "degraded_total").Value());
      out += ",\"deadline_total\":" +
             std::to_string(reg.GetCounter(prefix + "deadline_total").Value());
      out += "}";
    }
    out += "]}";
  }

  out += ",\"requests\":{\"total\":" +
         std::to_string(reg.GetCounter("pqsda.suggest.requests_total").Value());
  out += ",\"errors\":" +
         std::to_string(reg.GetCounter("pqsda.suggest.errors_total").Value());
  out += ",\"not_found\":" +
         std::to_string(
             reg.GetCounter("pqsda.suggest.not_found_total").Value());
  if (RequestLog* log = request_log()) {
    out += ",\"log\":{\"seen\":" + std::to_string(log->seen());
    out += ",\"accepted\":" + std::to_string(log->accepted());
    out += ",\"written\":" + std::to_string(log->written());
    out += ",\"dropped\":" + std::to_string(log->dropped());
    out += "}";
  }
  out += "}}";
  return out;
}

std::string ServingTelemetry::ExplainzJson(uint64_t request_id,
                                           bool has_id) const {
  if (has_id) {
    std::shared_ptr<const ExplainRecord> record =
        explain_store_.Find(request_id);
    return record != nullptr ? record->ToJson() : std::string();
  }
  std::string out = "{\"sample_every\":" +
                    std::to_string(explain_sample_every()) +
                    ",\"capacity\":" +
                    std::to_string(explain_store_.capacity()) +
                    ",\"records\":[";
  const std::vector<std::pair<uint64_t, std::string>> index =
      explain_store_.Index();
  for (size_t i = 0; i < index.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"request_id\":" + std::to_string(index[i].first) +
           ",\"query\":\"" + JsonEscape(index[i].second) + "\"}";
  }
  out += "]}";
  return out;
}

std::string ServingTelemetry::TracezJson() const {
  std::lock_guard<std::mutex> lock(tracez_mu_);
  std::string out = "{\"recent\":[";
  // Newest first, matching what an operator wants to see at the top.
  for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
    if (it != recent_.rbegin()) out += ",";
    out += it->json;
  }
  out += "],\"slowest\":[";
  for (size_t i = 0; i < slowest_.size(); ++i) {
    if (i > 0) out += ",";
    out += slowest_[i].json;
  }
  out += "]}";
  return out;
}

void ServingTelemetry::RegisterEndpoints(HttpExporter* exporter) {
  exporter->Route("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  exporter->Route("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsRegistry::Default().ExportPrometheus();
    return response;
  });
  exporter->Route("/statusz", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = StatuszJson();
    return response;
  });
  exporter->Route("/tracez", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = TracezJson();
    return response;
  });
  exporter->Route("/profilez", [](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = StageProfiler::Default().ProfilezJson(
        ProfilezWindowNs(request.query));
    return response;
  });
  exporter->Route("/alertz", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = AlertzJson();
    return response;
  });
  exporter->Route("/explainz", [this](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    // "?id=<request_id>" looks up one record; anything else after "id=" that
    // fails to parse as a full decimal id answers 404 (malformed), as does an
    // unknown or evicted id.
    if (request.query.rfind("id=", 0) == 0) {
      const std::string value = request.query.substr(3);
      uint64_t id = 0;
      bool valid = !value.empty();
      for (char c : value) {
        if (c < '0' || c > '9') {
          valid = false;
          break;
        }
        id = id * 10 + static_cast<uint64_t>(c - '0');
      }
      std::string body =
          valid ? ExplainzJson(id, /*has_id=*/true) : std::string();
      if (body.empty()) {
        response.status = 404;
        response.body = "{\"error\":\"unknown or malformed id\"}";
      } else {
        response.body = std::move(body);
      }
      return response;
    }
    response.body = ExplainzJson(0, /*has_id=*/false);
    return response;
  });
}

}  // namespace pqsda::obs
