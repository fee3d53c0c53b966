#ifndef PQSDA_CORE_INDEX_MANAGER_H_
#define PQSDA_CORE_INDEX_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/engine_config.h"
#include "core/personalizer.h"
#include "graph/multi_bipartite.h"
#include "graph/shard_partition.h"
#include "log/record.h"
#include "log/sessionizer.h"
#include "log/stream_sessionizer.h"
#include "suggest/pqsda_diversifier.h"
#include "topic/corpus.h"
#include "topic/upm.h"

namespace pqsda {

/// Partition width of an unsharded index (ShardingOptions::shards = 0): the
/// index is sliced into this many content-fingerprinted components (strict
/// ownership, no hot-row replication) purely for cache invalidation — a
/// rebuild that only changes some components' fingerprints only invalidates
/// cache entries whose recorded reads touched those components.
inline constexpr size_t kCacheValidationComponents = 8;

/// One immutable, generation-numbered build of the §III query-log index and
/// everything derived from it: the sorted records, their sessions, the
/// multi-bipartite representation, the diversifier bound to this
/// representation, and (when personalization is on) the corpus, the trained
/// UPM and its Personalizer. A request acquires one snapshot (shared_ptr) at admission
/// and reads only it for its whole lifetime, so a concurrent rebuild can
/// publish generation g+1 — and generation g can be reclaimed once the last
/// in-flight request drops its reference — without ever blocking or tearing
/// the serving path.
///
/// Snapshots are never mutated after publication. The cfiqf weighting
/// (Eqs. 4–6) carries a *global* inverse-query-frequency term, so there is
/// no correct way to patch an existing snapshot in place; every generation
/// is a from-scratch batch build over base records + absorbed deltas, which
/// is exactly what makes the incremental path provably equivalent to a
/// one-shot build (tests/ingest_test.cc enforces bitwise equality).
struct IndexSnapshot {
  uint64_t generation = 0;
  /// The full log this generation was built from, (user, time, query)
  /// stable-sorted — the canonical order every derived structure assumes.
  std::vector<QueryLogRecord> records;
  std::vector<Session> sessions;
  std::unique_ptr<MultiBipartite> mb;
  std::unique_ptr<PqsdaDiversifier> diversifier;
  /// Null when the build skipped personalization (only UPM training and the
  /// Personalizer read the corpus).
  std::unique_ptr<QueryLogCorpus> corpus;
  std::unique_ptr<UpmModel> upm;
  std::unique_ptr<Personalizer> personalizer;
  /// Wall time the build took (sessionize + representation, plus corpus and
  /// UPM when personalizing).
  int64_t build_us = 0;
  /// Steady-clock instant (ns) this snapshot became the published one.
  int64_t published_ns = 0;
  /// Content-fingerprinted partition of `mb`, built with the snapshot: the
  /// kCacheValidationComponents-way strict-ownership slicing when unsharded,
  /// the N-way hot-replicated shard partition when sharded. It routes the
  /// scatter-gather fetches and names the components cache entries record.
  ShardPartition partition;
  /// Effective generation of each partition component: the generation of
  /// the last build whose fingerprint for that component differed from its
  /// predecessor's. Publish() carries unchanged components' generations
  /// over, so cache entries depending only on them stay valid across the
  /// swap. Initialized to this snapshot's generation everywhere.
  std::vector<uint64_t> shard_generation;
  /// Effective generation of the personalization model (UPM+Personalizer):
  /// carried over on rebuilds that skip training, bumped when the model is
  /// retrained (personalize=true retrains every build — the Gibbs sampler
  /// sees new evidence — so it bumps every swap).
  uint64_t upm_generation = 0;
};

/// From-scratch batch build of one snapshot: sort, sessionize, representation,
/// and (when configured) corpus + UPM + Personalizer. This is the single build
/// path — PqsdaEngine::Build uses it for generation 0 and IndexManager for
/// every rebuild — so "incremental" and "batch" can only ever differ in the
/// record vector they are handed.
StatusOr<std::shared_ptr<IndexSnapshot>> BuildIndexSnapshot(
    std::vector<QueryLogRecord> records, const PqsdaEngineConfig& config,
    uint64_t generation);

/// Owns the published IndexSnapshot and the live-ingestion machinery in
/// front of it:
///
///  - `Acquire()` hands out the current snapshot behind a shared_ptr; the
///    publication slot is swapped atomically (tiny critical section), so
///    acquisition never waits on a rebuild.
///  - `Ingest`/`IngestBatch` append fresh QueryLogRecords to a bounded
///    delta buffer (kUnavailable past `IngestOptions::max_delta_records` —
///    backpressure, never silent loss) and, at
///    `IngestOptions::rebuild_min_records`, schedule one off-path rebuild
///    task on the configured ThreadPool. Rebuilds coalesce: a single task
///    drains whatever accumulated, builds, publishes, then re-checks — N
///    records arriving mid-build cost one follow-up rebuild, not N.
///  - Each swap bumps the generation (monotonic), carries unchanged
///    partition components' generations over, flushes the streaming
///    sessionizer's open tails (their records are in the immutable index
///    now) and refreshes the pqsda.ingest.* metrics; the suggestion cache
///    needs no explicit invalidation because every entry is graded against
///    the component generations of the snapshot its reader pinned.
///
/// All methods are thread-safe.
class IndexManager {
 public:
  /// `initial` becomes the published generation; `config` drives every
  /// rebuild (same knobs as the initial build — equivalence depends on it).
  IndexManager(std::shared_ptr<IndexSnapshot> initial,
               PqsdaEngineConfig config);
  /// Blocks until any in-flight rebuild task has finished; pending
  /// below-threshold deltas are dropped with the manager.
  ~IndexManager();

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// The current snapshot. Callers keep the returned shared_ptr for as long
  /// as they read any part of it — that reference is what keeps generation g
  /// alive while g+1 swaps in.
  std::shared_ptr<const IndexSnapshot> Acquire() const;

  /// A specific generation: the published one, or a recently-retired one
  /// still held in the replay ring (IngestOptions::retired_snapshots). Null
  /// when the generation was never published or already aged out — the
  /// caller (replay) reports it as no longer reproducible.
  std::shared_ptr<const IndexSnapshot> AcquireGeneration(
      uint64_t generation) const;

  /// Oldest generation AcquireGeneration can still return (the published
  /// generation when the retired ring is empty). /statusz uses this to age
  /// out exemplars that can no longer be replayed.
  uint64_t oldest_live_generation() const;

  /// Generation of the published snapshot.
  uint64_t generation() const;

  /// Appends fresh records to the delta buffer and schedules a rebuild once
  /// the threshold is reached. All-or-nothing: a batch that does not fit the
  /// bounded buffer is rejected whole with kUnavailable and counted into
  /// pqsda.ingest.dropped_total.
  Status Ingest(QueryLogRecord record);
  Status IngestBatch(std::vector<QueryLogRecord> records);

  /// Drains the delta buffer (regardless of the rebuild threshold), builds
  /// the next generation on the calling thread and publishes it. No-op OK
  /// when the buffer is empty. Serialized against the async rebuild task.
  Status RebuildNow();

  /// Blocks until no asynchronous rebuild task is scheduled or running.
  /// Deltas below the rebuild threshold may remain buffered afterwards.
  void WaitForRebuilds();

  /// Records currently buffered and not yet absorbed by a rebuild.
  size_t delta_depth() const;

  /// Total records ingested (accepted) since construction.
  uint64_t ingested_total() const;

  /// Completed rebuild+swap cycles since construction.
  uint64_t rebuilds_total() const;

  /// Live serving context of a user: the queries of their open tail session
  /// in the ingest stream, oldest first (empty after a swap flushed it).
  std::vector<std::pair<std::string, int64_t>> TailContext(UserId user) const;

  const PqsdaEngineConfig& config() const { return config_; }
  const IngestOptions& ingest_options() const { return config_.ingest; }

  /// Hook invoked on the rebuild thread after every Publish, outside the
  /// manager's locks, with the freshly-published snapshot. The engine uses
  /// it for post-swap cache warmup. Install before any rebuild can run
  /// (i.e. right after construction) — installation is not synchronized
  /// against concurrent rebuilds.
  void SetPostPublishHook(
      std::function<void(const std::shared_ptr<const IndexSnapshot>&)> hook) {
    post_publish_hook_ = std::move(hook);
  }

 private:
  ThreadPool& pool() const;
  /// Body of the async rebuild task: drain-build-publish until the buffer is
  /// empty, then clear the scheduled flag.
  void RebuildLoop();
  /// One drain → build → publish cycle over `batch` (serialized by
  /// build_mu_).
  Status RebuildWith(std::vector<QueryLogRecord> batch);
  /// Swaps `next` in as the published snapshot and updates metrics/tails.
  void Publish(std::shared_ptr<IndexSnapshot> next);

  PqsdaEngineConfig config_;

  /// Publication slot. The mutex guards only the shared_ptr swap/copy.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const IndexSnapshot> snapshot_;
  /// Recently-retired generations (oldest at the front), kept alive for
  /// replay; bounded by IngestOptions::retired_snapshots. Guarded by
  /// snapshot_mu_.
  std::deque<std::shared_ptr<const IndexSnapshot>> retired_;

  /// Delta buffer + streaming sessionizer state.
  mutable std::mutex delta_mu_;
  std::vector<QueryLogRecord> delta_;
  StreamSessionizer stream_;
  size_t stream_index_ = 0;  // running record index fed to the stream
  bool rebuild_scheduled_ = false;
  std::condition_variable rebuild_idle_;

  /// Serializes actual builds (the async task vs RebuildNow) and owns
  /// next_generation_.
  std::mutex build_mu_;
  uint64_t next_generation_ = 1;

  std::atomic<uint64_t> ingested_total_{0};
  std::atomic<uint64_t> rebuilds_total_{0};

  std::function<void(const std::shared_ptr<const IndexSnapshot>&)>
      post_publish_hook_;
};

}  // namespace pqsda

#endif  // PQSDA_CORE_INDEX_MANAGER_H_
