// Interactive suggestion server over a TSV query log: builds the full
// PQS-DA engine from a log file (or a generated demo log when none is
// given), then reads queries from stdin and prints suggestions.
//
//   ./build/examples/suggest_cli [--stats] [--cache=N] [--http_port=N]
//                                [--request_log=path] [--slow_ms=T]
//                                [--sample_every=N] [--deadline_ms=T]
//                                [--shed_queue_depth=N] [--min_rung=R]
//                                [--ingest=N] [--tail=path] [--slo=SPECS]
//                                [--log_rotate_kb=N] [--explain_every=N]
//                                [--shards=N] [--negative_cache=N]
//                                [--warmup_log=path] [--warmup_max=N]
//                                [log.tsv]
//   > sun                      # plain query
//   > @12 sun                  # personalize for user 12
//   > batch sun; solar energy; @3 java     # serve ';'-separated requests
//                                          # concurrently via SuggestBatch
//   > metrics                  # dump the process metrics registry (JSON)
//   > statusz                  # windowed serving snapshot (JSON)
//   > ingest 50                # feed 50 held-out records into the live index
//   > rebuild                  # force a rebuild+swap of buffered deltas
//   > index                    # live-index status (generation, delta depth)
//   > tail 12                  # user 12's open tail session in the stream
//   > explain sun              # serve + full per-candidate attribution
//   > explain @12 sun          # ... personalized (UPM + Borda terms shown)
//   > replay 17                # re-run logged request 17 against its pinned
//                              # generation and verify the result bitwise
//   > quit
//
// With --stats every answer is followed by the request's stage trace and
// work counters (SuggestStats::Render()) plus the *delta* of the process
// metrics registry across the request — what this one request recorded,
// not the session's cumulative totals.
// With --cache=N served lists are kept in an N-entry result cache under
// CAR replacement; repeated requests are answered from it (watch
// pqsda.cache.hits_total in 'metrics'). Entries record the generation of
// every index component they read, so a rebuild swap invalidates only the
// entries whose components changed. --negative_cache=N remembers N NotFound
// answers, and --warmup_log=path (with --warmup_max=N) replays the newest
// requests of a JSONL request log into the cache after every swap.
//
// Profiling & SLOs: serve mode also exposes /profilez (windowed per-stage
// cost attribution tree, ?window=10s|1m|5m) and /alertz (burn-rate SLO
// alerts). --slo=SPECS configures the SLOs as a comma-separated list of
// kind:objective[:threshold_us] with kind in availability|latency|
// shed_rate, e.g. --slo=availability:0.999,latency:0.99:200000.
// --log_rotate_kb=N rolls the request log at N KiB (3 rotated files kept).
//
// Decision observability: --explain_every=N head-samples every Nth request
// into the /explainz ring (0 = off; the 'explain' command always captures
// regardless). 'explain <query>' prints the served list followed by the
// per-candidate attribution table — Eq. 15 relevance, Algorithm 1 selection
// round / hitting-time rank per chain, and (for @user requests) the UPM
// preference score and Borda points per source list. 'replay <id>' looks a
// request up in the --request_log JSONL (including rotated files), re-runs
// it against the snapshot generation it originally pinned (IndexManager
// keeps a bounded ring of retired generations) at the logged degradation
// rung with the cache bypassed, and reports whether the reproduced list is
// bitwise identical to the logged one.
//
// Serve mode: --http_port=N starts the embedded telemetry exporter on
// 127.0.0.1:N (0 picks a free port) with /metrics (Prometheus), /healthz,
// /statusz (windowed QPS / error rate / latency percentiles) and /tracez
// (recent + slowest request traces). --request_log=path appends sampled
// structured JSONL request records (every --sample_every'th request plus
// everything slower than --slow_ms milliseconds).
//
// Overload hardening: --deadline_ms=T serves every request under a T-ms
// deadline (the engine's degradation ladder may answer a truncated-solve,
// walk-only or cache-only result as budget runs out; expiry mid-stage
// returns DeadlineExceeded, never a partial list). --shed_queue_depth=N
// sheds requests (Unavailable) while the shared pool queue is deeper than
// N. --min_rung=R floors the ladder at rung R (0 full, 1 truncated solve,
// 2 walk-only, 3 cache-only) — with --stats the served rung is printed per
// request, and 'statusz' shows the per-rung/shed totals.
//
// Live ingestion: --ingest=N holds the last N log records out of the
// initial build; the 'ingest [n]' command then feeds them into the engine's
// delta buffer one chunk at a time, 'rebuild' forces the next generation to
// build and swap in, and 'index' prints the live-index status — requests
// keep being served (off the pinned snapshot) throughout. --tail=path
// follows a TSV file like `tail -f`: lines appended to it while the server
// runs are parsed and ingested live, with rebuilds triggering off-path at
// the configured threshold. 'tail <user>' shows a user's open (not yet
// absorbed) session in the ingest stream.
//
// Sharded serving: --shards=N (N>=1) serves scatter-gather over N shards —
// queries route to a primary shard's lane, expansion gathers rows across
// shards, and served lists stay bitwise identical to unsharded mode.
// --shed_queue_depth then configures the *per-shard* admission gates,
// 'batch' admits at each request's own primary lane, 'index' adds the
// per-shard generations, and 'statusz' grows the per-shard section. With
// --stats the per-shard serving rungs and partial-merge flag are printed
// per request. Every other command ('explain', 'replay', 'ingest', 'tail',
// --tail) works the same sharded or not.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "common/cancellation.h"
#include "core/pqsda_engine.h"
#include "log/log_io.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"
#include "synthetic/generator.h"

using namespace pqsda;

namespace {

// Parses one interactive request line: "@<user> <query>" or plain "<query>".
SuggestionRequest ParseRequest(std::string line) {
  while (!line.empty() && line.front() == ' ') line.erase(line.begin());
  SuggestionRequest request;
  request.user = kNoUser;
  if (!line.empty() && line[0] == '@') {
    std::istringstream in(line.substr(1));
    uint32_t user = 0;
    in >> user;
    std::getline(in, request.query);
    request.user = user;
  } else {
    request.query = line;
  }
  while (!request.query.empty() && request.query.front() == ' ') {
    request.query.erase(request.query.begin());
  }
  while (!request.query.empty() && request.query.back() == ' ') {
    request.query.pop_back();
  }
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  bool show_stats = false;
  size_t cache_capacity = 0;
  int http_port = -1;  // -1 = exporter off; 0 = ephemeral
  const char* request_log_path = nullptr;
  long slow_ms = 100;
  unsigned long sample_every = 32;
  long deadline_ms = 0;  // 0 = no per-request deadline
  size_t shed_queue_depth = 0;
  size_t min_rung = 0;
  size_t ingest_holdout = 0;
  const char* tail_path = nullptr;
  const char* slo_specs = nullptr;
  unsigned long log_rotate_kb = 0;
  unsigned long explain_every = 0;
  size_t shards = 0;
  size_t negative_cache = 0;
  const char* warmup_log = nullptr;
  unsigned long warmup_max = 0;
  const char* log_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      show_stats = true;
    } else if (std::strncmp(argv[i], "--cache=", 8) == 0) {
      cache_capacity = std::strtoul(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--http_port=", 12) == 0) {
      http_port = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--request_log=", 14) == 0) {
      request_log_path = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--slow_ms=", 10) == 0) {
      slow_ms = std::atol(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--sample_every=", 15) == 0) {
      sample_every = std::strtoul(argv[i] + 15, nullptr, 10);
    } else if (std::strncmp(argv[i], "--deadline_ms=", 14) == 0) {
      deadline_ms = std::atol(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--shed_queue_depth=", 19) == 0) {
      shed_queue_depth = std::strtoul(argv[i] + 19, nullptr, 10);
    } else if (std::strncmp(argv[i], "--min_rung=", 11) == 0) {
      min_rung = std::strtoul(argv[i] + 11, nullptr, 10);
    } else if (std::strncmp(argv[i], "--ingest=", 9) == 0) {
      ingest_holdout = std::strtoul(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--tail=", 7) == 0) {
      tail_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--slo=", 6) == 0) {
      slo_specs = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--log_rotate_kb=", 16) == 0) {
      log_rotate_kb = std::strtoul(argv[i] + 16, nullptr, 10);
    } else if (std::strncmp(argv[i], "--explain_every=", 16) == 0) {
      explain_every = std::strtoul(argv[i] + 16, nullptr, 10);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::strtoul(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--negative_cache=", 17) == 0) {
      negative_cache = std::strtoul(argv[i] + 17, nullptr, 10);
    } else if (std::strncmp(argv[i], "--warmup_log=", 13) == 0) {
      warmup_log = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--warmup_max=", 13) == 0) {
      warmup_max = std::strtoul(argv[i] + 13, nullptr, 10);
    } else {
      log_path = argv[i];
    }
  }

  std::vector<QueryLogRecord> records;
  if (log_path != nullptr) {
    auto read = ReadLogTsv(log_path);
    if (!read.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", log_path,
                   read.status().ToString().c_str());
      return 1;
    }
    records = std::move(read).value();
    std::printf("loaded %zu records from %s\n", records.size(), log_path);
  } else {
    GeneratorConfig config;
    config.num_users = 150;
    auto data = GenerateLog(config);
    records = std::move(data.records);
    std::printf("no log given; generated a %zu-record demo log\n",
                records.size());
  }

  // --ingest=N holds the tail of the log out of the initial build; the
  // interactive 'ingest' command replays it into the live index later.
  std::deque<QueryLogRecord> holdout;
  if (ingest_holdout > 0) {
    if (ingest_holdout >= records.size()) {
      std::fprintf(stderr, "--ingest=%zu leaves no records to build from\n",
                   ingest_holdout);
      return 1;
    }
    holdout.assign(records.end() - ingest_holdout, records.end());
    records.resize(records.size() - ingest_holdout);
    std::printf("held %zu records out of the build for live ingestion\n",
                holdout.size());
  }

  // Serve mode: install configured telemetry (trace sampling on) before the
  // first request, attach the request log, start the exporter.
  obs::HttpExporter exporter;
  if (http_port >= 0 || request_log_path != nullptr || slo_specs != nullptr) {
    obs::ServingTelemetryOptions telemetry_options;
    telemetry_options.trace_sample_every = 16;
    obs::ServingTelemetry& telemetry =
        obs::ServingTelemetry::Install(telemetry_options);
    if (slo_specs != nullptr) {
      auto specs = obs::ParseSloSpecs(slo_specs);
      if (!specs.ok()) {
        std::fprintf(stderr, "--slo: %s\n", specs.status().ToString().c_str());
        return 1;
      }
      telemetry.ConfigureSlos(std::move(*specs));
      std::printf("SLO tracking on %zu objective(s); see /alertz or the "
                  "'alertz' command\n",
                  telemetry.slo() != nullptr ? telemetry.slo()->num_slos()
                                             : 0);
    }
    if (request_log_path != nullptr) {
      obs::RequestLogOptions log_options;
      log_options.path = request_log_path;
      log_options.sample_every = sample_every;
      log_options.slow_us = slow_ms * 1000;
      log_options.rotate_bytes = log_rotate_kb * 1024;
      auto log = obs::RequestLog::Open(log_options);
      if (!log.ok()) {
        std::fprintf(stderr, "request log: %s\n",
                     log.status().ToString().c_str());
        return 1;
      }
      telemetry.AttachRequestLog(std::move(log).value());
      std::printf("request log: %s (every %luth request + slower than "
                  "%ldms)\n",
                  request_log_path, sample_every, slow_ms);
      if (log_rotate_kb > 0) {
        std::printf("request log rotation at %lu KiB (3 rotated files "
                    "kept)\n",
                    log_rotate_kb);
      }
    }
    if (http_port >= 0) {
      telemetry.RegisterEndpoints(&exporter);
      Status started = exporter.Start(http_port);
      if (!started.ok()) {
        std::fprintf(stderr, "exporter: %s\n", started.ToString().c_str());
        return 1;
      }
      std::printf("telemetry exporter on http://127.0.0.1:%d "
                  "(/metrics /healthz /statusz /tracez /profilez /alertz "
                  "/explainz)\n",
                  exporter.port());
    }
  }
  if (explain_every > 0) {
    obs::ServingTelemetry::Default().SetExplainSampleEvery(explain_every);
    std::printf("explain sampling: every %luth request into the /explainz "
                "ring\n",
                explain_every);
  }

  PqsdaEngineConfig config;
  config.upm.base.num_topics = 12;
  config.upm.base.gibbs_iterations = 40;
  config.cache_capacity = cache_capacity;
  config.negative_cache_capacity = negative_cache;
  config.sharding.shards = shards;
  if (warmup_log != nullptr) {
    config.cache_warmup.log_path = warmup_log;
    if (warmup_max > 0) config.cache_warmup.max_requests = warmup_max;
  }
  config.robustness.min_rung = min_rung;
  config.robustness.shed_queue_depth = shed_queue_depth;
  if (cache_capacity > 0) {
    std::printf("result cache enabled (%zu entries, CAR)\n", cache_capacity);
  }
  if (negative_cache > 0) {
    std::printf("negative cache enabled (%zu known-NotFound entries)\n",
                negative_cache);
  }
  if (warmup_log != nullptr) {
    std::printf("post-swap cache warmup from %s\n", warmup_log);
  }
  if (deadline_ms > 0) {
    std::printf("per-request deadline: %ldms\n", deadline_ms);
  }
  if (shed_queue_depth > 0) {
    std::printf("load shedding above %s queue depth %zu\n",
                shards > 0 ? "per-shard lane" : "pool", shed_queue_depth);
  }
  if (min_rung > 0) {
    std::printf("degradation ladder floored at rung %zu\n", min_rung);
  }
  if (shards > 0) {
    std::printf("building engine (%zu shards, representation + UPM "
                "training)...\n",
                shards);
  } else {
    std::printf("building engine (representation + UPM training)...\n");
  }
  auto built = PqsdaEngine::Build(std::move(records), config);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<PqsdaEngine> engine = std::move(*built);
  // --tail=path: follow a TSV file from its current end; appended complete
  // lines are parsed and ingested live while the prompt keeps serving.
  std::atomic<bool> tail_stop{false};
  std::thread tail_thread;
  if (tail_path != nullptr) {
    std::ifstream probe(tail_path);
    if (!probe.good()) {
      std::fprintf(stderr, "cannot open --tail file %s\n", tail_path);
      return 1;
    }
    tail_thread = std::thread([tail_path, &tail_stop, &engine] {
      std::ifstream in(tail_path);
      in.seekg(0, std::ios::end);
      std::string line;
      while (!tail_stop.load(std::memory_order_relaxed)) {
        if (std::getline(in, line)) {
          if (line.empty()) continue;
          auto record = ParseLogLine(line);
          if (!record.ok()) {
            std::fprintf(stderr, "tail: skipping malformed line: %s\n",
                         record.status().ToString().c_str());
            continue;
          }
          Status ingested = engine->Ingest(std::move(record).value());
          if (!ingested.ok()) {
            std::fprintf(stderr, "tail: %s\n", ingested.ToString().c_str());
          }
        } else {
          // At EOF: clear the fail state and wait for the file to grow.
          in.clear();
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
      }
    });
    std::printf("tailing %s for live ingestion\n", tail_path);
  }

  std::printf("ready. type a query ('@<user-id> <query>' to personalize, "
              "'batch q1; q2; ...' for concurrent serving, 'metrics' for "
              "the registry, 'statusz' / 'profilez' / 'alertz' for windowed "
              "snapshots, 'ingest "
              "[n]' / 'rebuild' / 'index' / 'tail <user>' for the live "
              "index, 'explain <query>' for per-candidate attribution, "
              "'replay <id>' to re-run a logged request, 'quit' to exit)\n");

  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line.empty()) continue;
    if (line == "metrics") {
      std::printf("%s\n", obs::MetricsRegistry::Default().ExportJson().c_str());
      continue;
    }
    if (line == "statusz") {
      std::printf("%s\n",
                  obs::ServingTelemetry::Default().StatuszJson().c_str());
      continue;
    }
    if (line == "alertz") {
      std::printf("%s\n",
                  obs::ServingTelemetry::Default().AlertzJson().c_str());
      continue;
    }
    if (line == "profilez") {
      std::printf("%s\n", obs::StageProfiler::Default()
                              .ProfilezJson(60LL * 1000000000LL)
                              .c_str());
      continue;
    }
    if (line == "index") {
      IndexManager& index = engine->index_manager();
      auto snap = index.Acquire();
      std::printf("generation %llu | %zu records | %zu sessions | delta "
                  "depth %zu | ingested %llu | rebuilds %llu | last build "
                  "%lld us\n",
                  static_cast<unsigned long long>(snap->generation),
                  snap->records.size(), snap->sessions.size(),
                  index.delta_depth(),
                  static_cast<unsigned long long>(index.ingested_total()),
                  static_cast<unsigned long long>(index.rebuilds_total()),
                  static_cast<long long>(snap->build_us));
      if (shards > 0) {
        std::printf("%zu shards | upm generation %llu | shard generations [",
                    shards,
                    static_cast<unsigned long long>(snap->upm_generation));
        for (size_t s = 0; s < snap->shard_generation.size(); ++s) {
          std::printf("%s%llu", s > 0 ? " " : "",
                      static_cast<unsigned long long>(
                          snap->shard_generation[s]));
        }
        std::printf("]\n");
      }
      continue;
    }
    if (line == "rebuild") {
      IndexManager& index = engine->index_manager();
      const uint64_t before = index.generation();
      Status rebuilt = index.RebuildNow();
      if (!rebuilt.ok()) {
        std::printf("  (%s)\n", rebuilt.ToString().c_str());
        continue;
      }
      const uint64_t after = index.generation();
      if (after == before) {
        std::printf("delta buffer empty; still generation %llu\n",
                    static_cast<unsigned long long>(after));
      } else {
        std::printf("generation %llu -> %llu\n",
                    static_cast<unsigned long long>(before),
                    static_cast<unsigned long long>(after));
      }
      continue;
    }
    if (line == "ingest" || line.rfind("ingest ", 0) == 0) {
      size_t n = holdout.size();
      if (line.size() > 7) n = std::strtoul(line.c_str() + 7, nullptr, 10);
      if (holdout.empty()) {
        std::printf("no held-out records (start with --ingest=N)\n");
        continue;
      }
      n = std::min(n, holdout.size());
      std::vector<QueryLogRecord> chunk(holdout.begin(), holdout.begin() + n);
      holdout.erase(holdout.begin(), holdout.begin() + n);
      Status ingested =
          engine->index_manager().IngestBatch(std::move(chunk));
      if (!ingested.ok()) {
        std::printf("  (%s)\n", ingested.ToString().c_str());
        continue;
      }
      std::printf("ingested %zu records (%zu held out remain, delta depth "
                  "%zu)\n",
                  n, holdout.size(), engine->index_manager().delta_depth());
      continue;
    }
    if (line.rfind("tail ", 0) == 0) {
      const char* arg = line.c_str() + 5;
      while (*arg == ' ' || *arg == '@') ++arg;
      const UserId user =
          static_cast<UserId>(std::strtoul(arg, nullptr, 10));
      auto tail = engine->index_manager().TailContext(user);
      if (tail.empty()) {
        std::printf("user %u has no open tail session in the ingest stream\n",
                    user);
        continue;
      }
      std::printf("user %u open tail (%zu queries):\n", user, tail.size());
      for (const auto& [query, ts] : tail) {
        std::printf("  t=%lld  %s\n", static_cast<long long>(ts),
                    query.c_str());
      }
      continue;
    }

    if (line.rfind("explain ", 0) == 0) {
      SuggestionRequest request = ParseRequest(line.substr(8));
      if (request.query.empty()) continue;
      CancelToken token;
      if (deadline_ms > 0) {
        token.SetDeadlineAfter(deadline_ms * 1'000'000);
        request.cancel = &token;
      }
      obs::ExplainRecord record;
      auto suggestions = engine->Suggest(request, 10, nullptr, &record);
      if (!suggestions.ok()) {
        std::printf("  (%s)\n", suggestions.status().ToString().c_str());
        continue;
      }
      for (size_t i = 0; i < suggestions->size(); ++i) {
        std::printf("  %2zu. %s\n", i + 1, (*suggestions)[i].query.c_str());
      }
      std::printf("\n%s", record.Render().c_str());
      continue;
    }

    if (line.rfind("replay ", 0) == 0) {
      if (request_log_path == nullptr) {
        std::printf("replay needs --request_log=path\n");
        continue;
      }
      const uint64_t id = std::strtoull(line.c_str() + 7, nullptr, 10);
      if (obs::RequestLog* log =
              obs::ServingTelemetry::Default().request_log()) {
        log->Flush();
      }
      // Look the request up in the active log file, then the rotated chain
      // (newest first), so recently-rolled entries stay replayable.
      const std::string needle = "\"request_id\":" + std::to_string(id) + ",";
      std::optional<obs::RequestLogEntry> entry;
      for (int f = 0; f <= 4 && !entry.has_value(); ++f) {
        std::string p = request_log_path;
        if (f > 0) p += "." + std::to_string(f);
        std::ifstream in(p);
        std::string l;
        while (std::getline(in, l)) {
          if (l.find(needle) == std::string::npos) continue;
          auto parsed = obs::ParseRequestLogEntry(l);
          if (!parsed.ok()) {
            std::printf("  (%s)\n", parsed.status().ToString().c_str());
            continue;
          }
          if (parsed->request_id == id) {
            entry = std::move(*parsed);
            break;
          }
        }
      }
      if (!entry.has_value()) {
        std::printf("request %llu not in %s or its rotated chain (sampled "
                    "out, rotated away, or never served)\n",
                    static_cast<unsigned long long>(id), request_log_path);
        continue;
      }
      std::printf("replaying request %llu: \"%s\" (generation %llu, rung "
                  "%u%s)\n",
                  static_cast<unsigned long long>(id), entry->query.c_str(),
                  static_cast<unsigned long long>(entry->generation),
                  static_cast<unsigned>(entry->rung),
                  entry->cache_hit ? ", originally a cache hit" : "");
      obs::ExplainRecord record;
      auto replayed = engine->Replay(*entry, &record);
      if (!replayed.ok()) {
        if (!entry->ok) {
          std::printf("  replay failed like the original: %s (logged: %s)\n",
                      replayed.status().ToString().c_str(),
                      entry->status.c_str());
        } else {
          std::printf("  (%s)\n", replayed.status().ToString().c_str());
        }
        continue;
      }
      for (size_t i = 0; i < replayed->size(); ++i) {
        std::printf("  %2zu. %s\n", i + 1, (*replayed)[i].query.c_str());
      }
      bool lists_match = replayed->size() == entry->suggestions.size();
      for (size_t i = 0; lists_match && i < replayed->size(); ++i) {
        lists_match = (*replayed)[i].query == entry->suggestions[i];
      }
      if (record.fingerprint == entry->fingerprint && lists_match) {
        std::printf("bitwise match: fingerprint %s reproduced\n",
                    obs::FingerprintToHex(record.fingerprint).c_str());
      } else {
        std::printf("MISMATCH: logged fingerprint %s, replayed %s\n",
                    obs::FingerprintToHex(entry->fingerprint).c_str(),
                    obs::FingerprintToHex(record.fingerprint).c_str());
      }
      std::printf("\n%s", record.Render().c_str());
      continue;
    }

    if (line.rfind("batch ", 0) == 0) {
      std::vector<SuggestionRequest> requests;
      std::istringstream in(line.substr(6));
      std::string part;
      while (std::getline(in, part, ';')) {
        SuggestionRequest request = ParseRequest(part);
        if (!request.query.empty()) requests.push_back(std::move(request));
      }
      if (requests.empty()) continue;
      // One token per request; the deque keeps them stable (and alive)
      // across the batch call.
      std::deque<CancelToken> tokens;
      if (deadline_ms > 0) {
        for (SuggestionRequest& request : requests) {
          tokens.emplace_back();
          tokens.back().SetDeadlineAfter(deadline_ms * 1'000'000);
          request.cancel = &tokens.back();
        }
      }
      auto results = engine->SuggestBatch(requests, 10);
      for (size_t r = 0; r < results.size(); ++r) {
        std::printf("[%zu] %s\n", r + 1, requests[r].query.c_str());
        if (!results[r].ok()) {
          std::printf("  (%s)\n", results[r].status().ToString().c_str());
          continue;
        }
        for (size_t i = 0; i < results[r]->size(); ++i) {
          std::printf("  %2zu. %s\n", i + 1, (*results[r])[i].query.c_str());
        }
      }
      continue;
    }

    SuggestionRequest request = ParseRequest(line);
    if (request.query.empty()) continue;
    CancelToken token;
    if (deadline_ms > 0) {
      token.SetDeadlineAfter(deadline_ms * 1'000'000);
      request.cancel = &token;
    }

    // Snapshot-diff the registry around the request so --stats reports what
    // *this* request recorded, not the session's cumulative totals.
    obs::MetricsSnapshot before;
    if (show_stats) before = obs::MetricsRegistry::Default().Snapshot();
    SuggestStats stats;
    auto suggestions =
        engine->Suggest(request, 10, show_stats ? &stats : nullptr);
    if (!suggestions.ok()) {
      std::printf("  (%s)\n", suggestions.status().ToString().c_str());
      continue;
    }
    for (size_t i = 0; i < suggestions->size(); ++i) {
      std::printf("  %2zu. %s\n", i + 1, (*suggestions)[i].query.c_str());
    }
    if (show_stats) {
      obs::MetricsSnapshot after = obs::MetricsRegistry::Default().Snapshot();
      std::printf("\n%s", stats.Render().c_str());
      std::printf("request delta: %s\n",
                  obs::MetricsRegistry::DeltaJson(before, after).c_str());
    }
  }
  if (tail_thread.joinable()) {
    tail_stop.store(true, std::memory_order_relaxed);
    tail_thread.join();
  }
  return 0;
}
