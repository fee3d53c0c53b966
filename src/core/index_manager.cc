#include "core/index_manager.h"

#include <chrono>
#include <cstdio>

#include "common/fault_injector.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "obs/trace.h"

namespace pqsda {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The pqsda.ingest.* surface. Counters/gauges are process-wide (like
// pqsda.build.*): one live index per process is the deployment shape, and
// /statusz reads these at scrape time.
struct IngestMetrics {
  obs::Counter& records_total;
  obs::Counter& dropped_total;
  obs::Counter& rebuilds_total;
  obs::Counter& rebuild_failures_total;
  obs::Histogram& rebuild_us;
  obs::Histogram& rebuild_batch_records;
  obs::Gauge& generation;
  obs::Gauge& delta_depth;
  obs::Gauge& index_records;
  obs::Gauge& last_rebuild_us;
  obs::Gauge& last_swap_monotonic_sec;
  obs::Gauge& oldest_live_generation;

  static IngestMetrics& Get() {
    static IngestMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new IngestMetrics{
          reg.GetCounter("pqsda.ingest.records_total"),
          reg.GetCounter("pqsda.ingest.dropped_total"),
          reg.GetCounter("pqsda.ingest.rebuilds_total"),
          reg.GetCounter("pqsda.ingest.rebuild_failures_total"),
          reg.GetHistogram("pqsda.ingest.rebuild_us"),
          reg.GetHistogram("pqsda.ingest.rebuild_batch_records"),
          reg.GetGauge("pqsda.ingest.generation"),
          reg.GetGauge("pqsda.ingest.delta_depth"),
          reg.GetGauge("pqsda.ingest.index_records"),
          reg.GetGauge("pqsda.ingest.last_rebuild_us"),
          reg.GetGauge("pqsda.ingest.last_swap_monotonic_sec"),
          reg.GetGauge("pqsda.ingest.oldest_live_generation")};
    }();
    return *m;
  }
};

// The sharded /statusz section's index half: each shard's effective
// generation and the published partition's replicated hot-row count.
void SetShardGauges(const IndexSnapshot& snap) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetGauge("pqsda.shard.replicated_hot_rows")
      .Set(static_cast<double>(snap.partition.replicated_rows));
  for (size_t s = 0; s < snap.shard_generation.size(); ++s) {
    reg.GetGauge("pqsda.shard." + std::to_string(s) + ".generation")
        .Set(static_cast<double>(snap.shard_generation[s]));
  }
}

}  // namespace

StatusOr<std::shared_ptr<IndexSnapshot>> BuildIndexSnapshot(
    std::vector<QueryLogRecord> records, const PqsdaEngineConfig& config,
    uint64_t generation) {
  if (records.empty()) {
    return Status::InvalidArgument("empty query log");
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  static obs::Counter& builds_total = reg.GetCounter("pqsda.build.total");
  static obs::Histogram& sessionize_us =
      reg.GetHistogram("pqsda.build.sessionize_us");
  static obs::Histogram& representation_us =
      reg.GetHistogram("pqsda.build.representation_us");
  static obs::Histogram& corpus_us = reg.GetHistogram("pqsda.build.corpus_us");
  static obs::Histogram& upm_train_us =
      reg.GetHistogram("pqsda.build.upm_train_us");
  static obs::Gauge& num_queries = reg.GetGauge("pqsda.build.queries");
  static obs::Gauge& num_sessions = reg.GetGauge("pqsda.build.sessions");

  WallTimer build_timer;
  auto snap = std::make_shared<IndexSnapshot>();
  snap->generation = generation;
  // Stable sort: records equal under (user, time, query) keep their arrival
  // order, so a base log with deltas appended in stream order sorts to the
  // exact same sequence as the one-shot concatenated log — the foundation of
  // the incremental-vs-batch equivalence.
  SortByUserAndTime(records);
  snap->records = std::move(records);
  {
    obs::TraceSpan span("sessionize");
    obs::StageScope stage(obs::ProfileStage::kSessionize);
    obs::ScopedTimer timer(&sessionize_us);
    snap->sessions = Sessionize(snap->records, config.sessionizer);
  }
  {
    obs::TraceSpan span("representation");
    obs::StageScope stage(obs::ProfileStage::kGraphBuild);
    obs::ScopedTimer timer(&representation_us);
    snap->mb = std::make_unique<MultiBipartite>(MultiBipartite::Build(
        snap->records, snap->sessions, config.weighting));
  }
  snap->diversifier =
      std::make_unique<PqsdaDiversifier>(*snap->mb, config.diversifier);
  {
    // The shard partition, or unsharded the cache-validation slicing with
    // strict ownership (no hot-row replication), so every query row belongs
    // to exactly one fingerprinted component. Publish() compares these
    // fingerprints against the outgoing snapshot's to carry unchanged
    // components' generations over.
    ShardPartitionOptions popt;
    popt.shards = config.sharding.shards;
    popt.hot_row_min_degree = config.sharding.hot_row_min_degree;
    if (popt.shards == 0) {
      popt.shards = kCacheValidationComponents;
      popt.hot_row_min_degree = 0;
    }
    snap->partition = BuildShardPartition(*snap->mb, popt);
    snap->shard_generation.assign(snap->partition.shards, generation);
  }
  snap->upm_generation = generation;
  if (config.personalize) {
    // Only UPM training and the Personalizer read the corpus.
    {
      obs::TraceSpan span("corpus");
      obs::StageScope stage(obs::ProfileStage::kGraphBuild);
      obs::ScopedTimer timer(&corpus_us);
      snap->corpus = std::make_unique<QueryLogCorpus>(
          QueryLogCorpus::Build(snap->records, snap->sessions));
    }
    obs::TraceSpan span("upm_train");
    obs::StageScope stage(obs::ProfileStage::kGraphBuild);
    obs::ScopedTimer timer(&upm_train_us);
    // Tee Gibbs progress into the registry (sweep counter/latency and the
    // convergence gauge), then onward to any caller-supplied callback.
    UpmOptions upm_options = config.upm;
    auto user_progress = upm_options.progress;
    upm_options.progress = [user_progress](const GibbsSweepStats& s) {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      static obs::Counter& sweeps = r.GetCounter("pqsda.upm.sweeps_total");
      static obs::Histogram& sweep_us = r.GetHistogram("pqsda.upm.sweep_us");
      static obs::Gauge& log_posterior = r.GetGauge("pqsda.upm.log_posterior");
      sweeps.Increment();
      sweep_us.Observe(static_cast<double>(s.duration_us));
      log_posterior.Set(s.log_posterior);
      if (user_progress) user_progress(s);
    };
    snap->upm = std::make_unique<UpmModel>(upm_options);
    snap->upm->Train(*snap->corpus);
    snap->personalizer = std::make_unique<Personalizer>(
        *snap->upm, *snap->corpus, config.preference_borda_weight);
  }
  snap->build_us = build_timer.ElapsedMicros();
  builds_total.Increment();
  num_queries.Set(static_cast<double>(snap->mb->num_queries()));
  num_sessions.Set(static_cast<double>(snap->sessions.size()));
  return snap;
}

IndexManager::IndexManager(std::shared_ptr<IndexSnapshot> initial,
                           PqsdaEngineConfig config)
    : config_(std::move(config)), stream_(config_.sessionizer) {
  if (initial->published_ns == 0) initial->published_ns = SteadyNowNs();
  next_generation_ = initial->generation + 1;
  IngestMetrics& m = IngestMetrics::Get();
  m.generation.Set(static_cast<double>(initial->generation));
  m.index_records.Set(static_cast<double>(initial->records.size()));
  m.delta_depth.Set(0.0);
  m.last_swap_monotonic_sec.Set(
      static_cast<double>(initial->published_ns) * 1e-9);
  m.oldest_live_generation.Set(static_cast<double>(initial->generation));
  if (config_.sharding.shards > 0) SetShardGauges(*initial);
  snapshot_ = std::move(initial);
}

IndexManager::~IndexManager() { WaitForRebuilds(); }

std::shared_ptr<const IndexSnapshot> IndexManager::Acquire() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::shared_ptr<const IndexSnapshot> IndexManager::AcquireGeneration(
    uint64_t generation) const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (snapshot_ != nullptr && snapshot_->generation == generation) {
    return snapshot_;
  }
  // Newest retired first: the common replay target is the generation that
  // just swapped out.
  for (auto it = retired_.rbegin(); it != retired_.rend(); ++it) {
    if ((*it)->generation == generation) return *it;
  }
  return nullptr;
}

uint64_t IndexManager::oldest_live_generation() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (!retired_.empty()) return retired_.front()->generation;
  return snapshot_ != nullptr ? snapshot_->generation : 0;
}

uint64_t IndexManager::generation() const { return Acquire()->generation; }

Status IndexManager::Ingest(QueryLogRecord record) {
  std::vector<QueryLogRecord> one;
  one.push_back(std::move(record));
  return IngestBatch(std::move(one));
}

Status IndexManager::IngestBatch(std::vector<QueryLogRecord> records) {
  if (records.empty()) return Status::OK();
  IngestMetrics& m = IngestMetrics::Get();
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    if (delta_.size() + records.size() > config_.ingest.max_delta_records) {
      // All-or-nothing backpressure: rejecting the whole batch keeps the
      // stream order intact for a caller that retries it verbatim later.
      m.dropped_total.Increment(records.size());
      return Status::Unavailable(
          "ingest delta buffer full (" + std::to_string(delta_.size()) +
          " of " + std::to_string(config_.ingest.max_delta_records) +
          " records buffered); retry after the next rebuild");
    }
    for (QueryLogRecord& r : records) {
      stream_.Push(r, stream_index_++);
      delta_.push_back(std::move(r));
    }
    ingested_total_.fetch_add(records.size(), std::memory_order_relaxed);
    m.records_total.Increment(records.size());
    m.delta_depth.Set(static_cast<double>(delta_.size()));
    if (delta_.size() >= config_.ingest.rebuild_min_records &&
        !rebuild_scheduled_) {
      rebuild_scheduled_ = true;
      schedule = true;
    }
  }
  if (schedule) {
    pool().Submit([this] { RebuildLoop(); });
  }
  return Status::OK();
}

ThreadPool& IndexManager::pool() const {
  return config_.ingest.rebuild_pool != nullptr ? *config_.ingest.rebuild_pool
                                                : ThreadPool::Shared();
}

void IndexManager::RebuildLoop() {
  for (;;) {
    std::vector<QueryLogRecord> batch;
    {
      std::lock_guard<std::mutex> lock(delta_mu_);
      if (delta_.empty()) {
        // Coalescing endpoint: everything that arrived before or during the
        // builds above is absorbed; the next threshold crossing schedules a
        // fresh task.
        rebuild_scheduled_ = false;
        rebuild_idle_.notify_all();
        return;
      }
      batch.swap(delta_);
      IngestMetrics::Get().delta_depth.Set(0.0);
    }
    Status built = RebuildWith(std::move(batch));
    if (!built.ok()) {
      std::fprintf(stderr, "pqsda: index rebuild failed: %s\n",
                   built.ToString().c_str());
    }
  }
}

Status IndexManager::RebuildNow() {
  std::vector<QueryLogRecord> batch;
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    if (delta_.empty()) return Status::OK();
    batch.swap(delta_);
    IngestMetrics::Get().delta_depth.Set(0.0);
  }
  return RebuildWith(std::move(batch));
}

Status IndexManager::RebuildWith(std::vector<QueryLogRecord> batch) {
  // One build at a time: RebuildNow and the async task serialize here, and
  // next_generation_ is only touched under this lock.
  std::lock_guard<std::mutex> build_lock(build_mu_);
  IngestMetrics& m = IngestMetrics::Get();
  const size_t batch_records = batch.size();
  // The rebuild runs entirely on this thread, so it profiles like a request
  // under its own lane: drain/sessionize/graph-build/publish stages land in
  // /profilez next to the serving rungs.
  obs::StageProfiler& profiler = obs::StageProfiler::Default();
  profiler.BeginRequest();
  std::vector<QueryLogRecord> all;
  {
    obs::StageScope stage(obs::ProfileStage::kDrain);
    std::shared_ptr<const IndexSnapshot> base = Acquire();
    all.reserve(base->records.size() + batch.size());
    all.insert(all.end(), base->records.begin(), base->records.end());
    for (QueryLogRecord& r : batch) all.push_back(std::move(r));
    obs::StageProfiler::AddWork(obs::ProfileStage::kDrain, batch_records);
    // base drops here: don't pin the old generation across the build.
  }

  WallTimer timer;
  auto snap_or =
      FaultInjector::Default().Value(faults::kRebuildFailure, 0) != 0
          ? StatusOr<std::shared_ptr<IndexSnapshot>>(
                Status::Internal("injected rebuild failure"))
          : BuildIndexSnapshot(std::move(all), config_, next_generation_);
  if (!snap_or.ok()) {
    m.rebuild_failures_total.Increment();
    profiler.EndRequest(obs::kProfileRebuildLane);
    return snap_or.status();
  }
  ++next_generation_;
  const int64_t rebuild_us = timer.ElapsedMicros();
  m.rebuild_us.Observe(static_cast<double>(rebuild_us));
  m.last_rebuild_us.Set(static_cast<double>(rebuild_us));
  m.rebuild_batch_records.Observe(static_cast<double>(batch_records));
  Publish(std::move(*snap_or));
  profiler.EndRequest(obs::kProfileRebuildLane);
  return Status::OK();
}

void IndexManager::Publish(std::shared_ptr<IndexSnapshot> next) {
  obs::StageScope stage(obs::ProfileStage::kPublish);
  next->published_ns = SteadyNowNs();
  IngestMetrics& m = IngestMetrics::Get();
  m.generation.Set(static_cast<double>(next->generation));
  m.index_records.Set(static_cast<double>(next->records.size()));
  m.last_swap_monotonic_sec.Set(static_cast<double>(next->published_ns) *
                                1e-9);
  std::shared_ptr<const IndexSnapshot> published = next;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (snapshot_ != nullptr) {
      // Carry-over: a partition component whose content fingerprint did
      // not change between the outgoing and incoming build keeps its
      // *effective* generation, so cache entries that only read unchanged
      // components still grade kValid after the swap. Both builds use the
      // manager's one config, so their partitions have the same width.
      const IndexSnapshot& prev = *snapshot_;
      for (size_t s = 0; s < next->shard_generation.size(); ++s) {
        if (prev.partition.shard[s].content_fingerprint ==
            next->partition.shard[s].content_fingerprint) {
          next->shard_generation[s] = prev.shard_generation[s];
        }
      }
      if (next->upm == nullptr) next->upm_generation = prev.upm_generation;
    }
    // The outgoing generation moves into the bounded replay ring instead of
    // dying with its last in-flight request, so logged requests stay
    // reproducible for the ring's depth.
    if (snapshot_ != nullptr && config_.ingest.retired_snapshots > 0) {
      retired_.push_back(std::move(snapshot_));
      while (retired_.size() > config_.ingest.retired_snapshots) {
        retired_.pop_front();
      }
    }
    snapshot_ = std::move(next);
    m.oldest_live_generation.Set(static_cast<double>(
        retired_.empty() ? snapshot_->generation
                         : retired_.front()->generation));
  }
  rebuilds_total_.fetch_add(1, std::memory_order_relaxed);
  m.rebuilds_total.Increment();
  if (config_.sharding.shards > 0) SetShardGauges(*published);
  // Flush-on-swap: the tail records are part of the immutable index now;
  // the stream restarts and a user's next query opens a fresh session.
  // (Records ingested *during* the build keep their buffered place — only
  // the open-tail context resets.)
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    stream_.FlushAll();
  }
  // Post-swap warmup (and any other observer) runs on the rebuild thread,
  // outside every manager lock: serving traffic already sees the new
  // generation while the warmup fills its cache off-path.
  if (post_publish_hook_) post_publish_hook_(published);
}

void IndexManager::WaitForRebuilds() {
  std::unique_lock<std::mutex> lock(delta_mu_);
  rebuild_idle_.wait(lock, [this] { return !rebuild_scheduled_; });
}

size_t IndexManager::delta_depth() const {
  std::lock_guard<std::mutex> lock(delta_mu_);
  return delta_.size();
}

uint64_t IndexManager::ingested_total() const {
  return ingested_total_.load(std::memory_order_relaxed);
}

uint64_t IndexManager::rebuilds_total() const {
  return rebuilds_total_.load(std::memory_order_relaxed);
}

std::vector<std::pair<std::string, int64_t>> IndexManager::TailContext(
    UserId user) const {
  std::lock_guard<std::mutex> lock(delta_mu_);
  return stream_.TailContext(user);
}

}  // namespace pqsda
