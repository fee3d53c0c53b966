#ifndef PQSDA_SUGGEST_SUGGESTION_CACHE_H_
#define PQSDA_SUGGEST_SUGGESTION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "suggest/cache_policy.h"
#include "suggest/engine.h"

namespace pqsda {

/// Sizing knobs for the suggestion result cache.
struct SuggestionCacheOptions {
  /// Total entries across all shards; 0 behaves as 1.
  size_t capacity = 4096;
  /// Independent shards, each with its own mutex and its own CarPolicy,
  /// so concurrent SuggestBatch workers rarely contend; 0 behaves as 1.
  size_t shards = 8;
  /// Instance name on /statusz.
  std::string name = "suggest";
};

/// Verdict of a validating Lookup on an entry's ValidationVector.
enum class CacheValidity {
  /// Every component the entry read still carries the generation it was
  /// built against: serve it.
  kValid,
  /// Some component has been rebuilt since (entry generation < current):
  /// the entry can never become valid again — erase it and miss.
  kStale,
  /// Some component is *newer* than what the caller's pinned snapshot
  /// serves (entry generation > current): the caller is mid-swap on an
  /// outgoing snapshot. Miss, but keep the entry — it is valid for readers
  /// of the incoming generation and erasing it would punish them for the
  /// outgoing reader's race.
  kMismatch,
};

/// Sharded cache of finished suggestion lists, keyed by the full
/// (query, context offsets, user, k) tuple. Heavy serving traffic is
/// Zipf-shaped — the same head queries arrive over and over — so a small
/// cache absorbs a large fraction of requests before they reach the
/// expansion/solve/selection pipeline. The index generation is not part of
/// the key: each entry carries a ValidationVector, graded on lookup against
/// the caller's pinned snapshot, so a swap invalidates exactly the entries
/// whose inputs changed.
///
/// The context component serializes every (query, timestamp offset) pair,
/// offsets taken relative to the request timestamp: the decay function
/// (Eq. 7) depends only on relative age, so two requests identical up to a
/// time shift correctly share an entry. An earlier revision collapsed the
/// context to a 64-bit hash inside the key, so a hash collision could serve
/// one session's list to another; the full serialization is compared on
/// every hit now and the precomputed hash only routes to a shard.
///
/// All methods are thread-safe. Hits, misses, evictions, stale
/// invalidations and ghost-list hits are counted into the default
/// MetricsRegistry (`pqsda.cache.hits_total`, `pqsda.cache.misses_total`,
/// `pqsda.cache.evictions_total`, `pqsda.cache.stale_invalidations_total`,
/// `pqsda.cache.mismatch_misses_total`, `pqsda.cache.ghost_hits_total`,
/// `pqsda.cache.size`). Live instances additionally register themselves for
/// the /statusz "caches" section (see SuggestionCachesStatusJson).
class SuggestionCache {
 public:
  /// A cache key: the full serialized request tuple plus its 64-bit hash,
  /// computed once per request. The hash picks the shard; equality always
  /// compares the full serialization, so keys that collide in the hash are
  /// distinct entries, never aliases.
  struct CacheKey {
    uint64_t hash = 0;
    std::string full;

    CacheKey() = default;
    // Implicit: existing call sites (and tests) key by plain strings.
    CacheKey(std::string full_key);
    CacheKey(const char* full_key) : CacheKey(std::string(full_key)) {}

    friend bool operator==(const CacheKey& a, const CacheKey& b) {
      return a.full == b.full;
    }
    friend bool operator!=(const CacheKey& a, const CacheKey& b) {
      return !(a == b);
    }
  };

  /// What an entry's correctness depended on when it was inserted: a list of
  /// (component id, generation) pairs — the generation of every index
  /// component the request read (plus a synthetic UPM component for
  /// personalized entries), so a rebuild that changes one component
  /// invalidates only entries that actually read it; entries whose touched
  /// components all carried their fingerprints over are still served.
  using ValidationVector = std::vector<std::pair<uint32_t, uint64_t>>;
  /// Grades a stored ValidationVector against the generations the caller's
  /// pinned snapshot serves (see CacheValidity).
  using Validator = std::function<CacheValidity(const ValidationVector&)>;

  explicit SuggestionCache(SuggestionCacheOptions options = {});
  ~SuggestionCache();

  /// Stable cache key of a request: equal exactly for requests that must
  /// be served the same list from the same index. Which index — the
  /// generations of the components the list was computed from — lives in
  /// the entry's ValidationVector, not in the key.
  static CacheKey KeyOf(const SuggestionRequest& request, size_t k);

  /// On a hit, copies the cached list into `out`, refreshes the entry's
  /// policy position and returns true.
  bool Lookup(const CacheKey& key, std::vector<Suggestion>* out) const;

  /// Lookup that additionally grades the entry's ValidationVector. kStale
  /// entries are erased (counted as `pqsda.cache.stale_invalidations_total`)
  /// and miss; kMismatch entries miss but stay resident (counted as
  /// `pqsda.cache.mismatch_misses_total`) — they belong to a newer
  /// generation than the caller's pinned snapshot and other readers can
  /// still serve them. Entries inserted without components depend on
  /// nothing the validator grades and are always valid.
  bool Lookup(const CacheKey& key, std::vector<Suggestion>* out,
              const Validator& validator) const;

  /// Inserts or refreshes `key`, letting the shard's policy pick victims
  /// when over budget.
  void Insert(const CacheKey& key, std::vector<Suggestion> value);

  /// Insert with a ValidationVector recording what the entry depends on
  /// (see ValidationVector). Components should be sorted by component id so
  /// tests can compare them structurally.
  void Insert(const CacheKey& key, std::vector<Suggestion> value,
              ValidationVector components);

  /// Current number of cached entries (sums the shards; approximate under
  /// concurrent writes).
  size_t size() const;

  /// Total entry budget across shards (shards * per-shard capacity — may
  /// round the configured capacity up by at most shards-1). Also exported
  /// as the `pqsda.cache.capacity` gauge so /statusz can report occupancy.
  size_t capacity() const { return capacity_; }

  const std::string& name() const { return name_; }

  /// Aggregated CAR introspection across shards (T1/T2/B1/B2/p summed).
  CachePolicyStatus PolicyStatus() const;

  /// Drops every entry and all policy ghost state (counters untouched).
  void Clear();

 private:
  struct Shard;

  Shard& ShardOf(const CacheKey& key) const;

  size_t per_shard_capacity_;
  size_t capacity_;
  std::string name_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// JSON array describing every live SuggestionCache (name, occupancy, CAR
/// list sizes), embedded in /statusz's "caches" field.
std::string SuggestionCachesStatusJson();

/// Bounded cache of *negative* results: request keys the engine answered
/// NotFound for, so storms of lookups for unknown queries are absorbed
/// without re-running expansion against the index every time. Entries carry
/// a ValidationVector just like positive entries — an ingested record can
/// make a query known, so a negative entry must die with the component that
/// would now resolve it (the owning component's content fingerprint covers
/// the query-string set). LRU, single mutex: the negative path is already
/// orders of magnitude cheaper than a walk, sharding would be noise.
///
/// Counters: `pqsda.cache.negative_hits_total`,
/// `pqsda.cache.negative_misses_total`,
/// `pqsda.cache.negative_insertions_total`,
/// `pqsda.cache.negative_evictions_total`,
/// `pqsda.cache.negative_invalidations_total`, gauge
/// `pqsda.cache.negative_size`.
class NegativeSuggestionCache {
 public:
  using CacheKey = SuggestionCache::CacheKey;
  using ValidationVector = SuggestionCache::ValidationVector;
  using Validator = SuggestionCache::Validator;

  /// Capacity 0 behaves as 1.
  explicit NegativeSuggestionCache(size_t capacity);
  ~NegativeSuggestionCache();

  /// True when `key` is a known-NotFound request whose ValidationVector
  /// still grades kValid. kStale entries are erased (counted as
  /// negative_invalidations_total) and miss; kMismatch entries miss but
  /// stay (same mid-swap rationale as SuggestionCache).
  bool Lookup(const CacheKey& key, const Validator& validator) const;

  /// Records `key` as NotFound under `components`.
  void Insert(const CacheKey& key, ValidationVector components);

  size_t size() const;
  void Clear();

 private:
  struct Entry {
    std::string key;
    ValidationVector components;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  /// Front = most recently confirmed NotFound.
  mutable std::list<Entry> lru_;
  mutable std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace pqsda

#endif  // PQSDA_SUGGEST_SUGGESTION_CACHE_H_
