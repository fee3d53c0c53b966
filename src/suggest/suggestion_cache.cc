#include "suggest/suggestion_cache.h"

#include <algorithm>
#include <functional>

#include "obs/metrics.h"

namespace pqsda {

namespace {

// Serializes the context (query, timestamp-offset) pairs verbatim. An
// earlier revision stored an FNV-1a hash of this instead; two colliding
// contexts then shared one cache entry and one session could be served
// another session's suggestions. Offsets are taken relative to the request
// timestamp so time-shifted but otherwise identical requests still share an
// entry (the decay of Eq. 7 only sees relative age). Context queries are
// length-prefixed so their bytes cannot be confused with the separators.
std::string SerializeContext(const SuggestionRequest& request) {
  std::string out;
  for (const auto& [q, ts] : request.context) {
    out += std::to_string(q.size());
    out += ':';
    out += q;
    out += '\x1e';
    out += std::to_string(static_cast<int64_t>(ts - request.timestamp));
    out += '\x1e';
  }
  return out;
}

obs::Counter& HitsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("pqsda.cache.hits_total");
  return c;
}
obs::Counter& MissesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("pqsda.cache.misses_total");
  return c;
}
obs::Counter& EvictionsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("pqsda.cache.evictions_total");
  return c;
}
obs::Counter& StaleInvalidationsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.cache.stale_invalidations_total");
  return c;
}
obs::Counter& MismatchMissesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.cache.mismatch_misses_total");
  return c;
}
obs::Counter& GhostHitsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.cache.ghost_hits_total");
  return c;
}
obs::Gauge& SizeGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Default().GetGauge("pqsda.cache.size");
  return g;
}

obs::Counter& NegativeHitsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.cache.negative_hits_total");
  return c;
}
obs::Counter& NegativeMissesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.cache.negative_misses_total");
  return c;
}
obs::Counter& NegativeInsertionsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.cache.negative_insertions_total");
  return c;
}
obs::Counter& NegativeEvictionsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.cache.negative_evictions_total");
  return c;
}
obs::Counter& NegativeInvalidationsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.cache.negative_invalidations_total");
  return c;
}
obs::Gauge& NegativeSizeGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Default().GetGauge("pqsda.cache.negative_size");
  return g;
}

// Registry of live caches for the /statusz "caches" section. Caches are
// created at engine Build time and destroyed with the engine; registration
// is cheap enough to take a global mutex.
std::mutex& RegistryMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}
std::vector<const SuggestionCache*>& Registry() {
  static std::vector<const SuggestionCache*>* v =
      new std::vector<const SuggestionCache*>;
  return *v;
}

}  // namespace

struct SuggestionCache::Shard {
  struct Entry {
    std::vector<Suggestion> value;
    /// The per-component generations the entry was built against, graded
    /// by validating Lookups (empty: nothing to grade, always valid).
    ValidationVector components;
  };
  explicit Shard(size_t capacity) : policy(capacity) {}
  mutable std::mutex mu;
  std::unordered_map<std::string, Entry> index;
  CarPolicy policy;
};

SuggestionCache::SuggestionCache(SuggestionCacheOptions options)
    : name_(std::move(options.name)) {
  const size_t capacity = std::max<size_t>(options.capacity, 1);
  const size_t shards = std::min(std::max<size_t>(options.shards, 1), capacity);
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  capacity_ = per_shard_capacity_ * shards;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(per_shard_capacity_));
  }
  obs::MetricsRegistry::Default()
      .GetGauge("pqsda.cache.capacity")
      .Set(static_cast<double>(capacity_));
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    Registry().push_back(this);
  }
}

SuggestionCache::~SuggestionCache() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto& reg = Registry();
  reg.erase(std::remove(reg.begin(), reg.end(), this), reg.end());
}

SuggestionCache::CacheKey::CacheKey(std::string full_key)
    : hash(std::hash<std::string>{}(full_key)), full(std::move(full_key)) {}

SuggestionCache::CacheKey SuggestionCache::KeyOf(
    const SuggestionRequest& request, size_t k) {
  std::string key = request.query;
  key += '\x1f';
  key += SerializeContext(request);
  key += '\x1f';
  key += std::to_string(request.user);
  key += '\x1f';
  key += std::to_string(k);
  return CacheKey(std::move(key));
}

SuggestionCache::Shard& SuggestionCache::ShardOf(const CacheKey& key) const {
  // The hash only routes to a shard; inside the shard the index compares
  // full keys, so hash collisions cost a probe, never a wrong answer.
  return *shards_[key.hash % shards_.size()];
}

bool SuggestionCache::Lookup(const CacheKey& key,
                             std::vector<Suggestion>* out) const {
  return Lookup(key, out, Validator());
}

bool SuggestionCache::Lookup(const CacheKey& key, std::vector<Suggestion>* out,
                             const Validator& validator) const {
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key.full);
  if (it == shard.index.end()) {
    MissesCounter().Increment();
    return false;
  }
  if (validator && !it->second.components.empty()) {
    switch (validator(it->second.components)) {
      case CacheValidity::kValid:
        break;
      case CacheValidity::kStale:
        // Some component the entry read has been rebuilt since. Erase it
        // now — keeping it would re-grade it on every probe and the entry
        // can never become valid again (generations only move forward).
        shard.policy.OnErase(key.full);
        shard.index.erase(it);
        SizeGauge().Add(-1.0);
        StaleInvalidationsCounter().Increment();
        MissesCounter().Increment();
        return false;
      case CacheValidity::kMismatch:
        // The entry was built against a *newer* generation than the
        // caller's pinned snapshot — the caller raced a swap on the
        // outgoing side. Miss without erasing: the entry is exactly what
        // post-swap readers want.
        MismatchMissesCounter().Increment();
        MissesCounter().Increment();
        return false;
    }
  }
  shard.policy.OnHit(key.full);
  if (out != nullptr) *out = it->second.value;
  HitsCounter().Increment();
  return true;
}

void SuggestionCache::Insert(const CacheKey& key,
                             std::vector<Suggestion> value) {
  Insert(key, std::move(value), ValidationVector());
}

void SuggestionCache::Insert(const CacheKey& key, std::vector<Suggestion> value,
                             ValidationVector components) {
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key.full);
  if (it != shard.index.end()) {
    it->second.value = std::move(value);
    it->second.components = std::move(components);
    shard.policy.OnHit(key.full);
    return;
  }
  std::vector<std::string> evicted;
  if (shard.policy.OnInsert(key.full, &evicted)) {
    GhostHitsCounter().Increment();
  }
  shard.index.emplace(key.full,
                      Shard::Entry{std::move(value), std::move(components)});
  for (const std::string& victim : evicted) {
    shard.index.erase(victim);
    EvictionsCounter().Increment();
  }
  SizeGauge().Add(1.0 - static_cast<double>(evicted.size()));
}

size_t SuggestionCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->index.size();
  }
  return total;
}

CachePolicyStatus SuggestionCache::PolicyStatus() const {
  CachePolicyStatus total;
  total.capacity = capacity_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const CachePolicyStatus s = shard->policy.StatusNow();
    total.resident += s.resident;
    total.t1 += s.t1;
    total.t2 += s.t2;
    total.b1 += s.b1;
    total.b2 += s.b2;
    total.p += s.p;
  }
  return total;
}

void SuggestionCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    SizeGauge().Add(-static_cast<double>(shard->index.size()));
    shard->index.clear();
    shard->policy.Clear();
  }
}

std::string SuggestionCachesStatusJson() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::string json = "[";
  bool first = true;
  for (const SuggestionCache* cache : Registry()) {
    const CachePolicyStatus s = cache->PolicyStatus();
    if (!first) json += ", ";
    first = false;
    json += "{\"name\": \"";
    json += cache->name();
    json += "\", \"capacity\": ";
    json += std::to_string(s.capacity);
    json += ", \"resident\": ";
    json += std::to_string(s.resident);
    json += ", \"t1\": ";
    json += std::to_string(s.t1);
    json += ", \"t2\": ";
    json += std::to_string(s.t2);
    json += ", \"b1\": ";
    json += std::to_string(s.b1);
    json += ", \"b2\": ";
    json += std::to_string(s.b2);
    json += ", \"p\": ";
    json += std::to_string(s.p);
    json += "}";
  }
  json += "]";
  return json;
}

NegativeSuggestionCache::NegativeSuggestionCache(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

NegativeSuggestionCache::~NegativeSuggestionCache() {
  std::lock_guard<std::mutex> lock(mu_);
  NegativeSizeGauge().Add(-static_cast<double>(lru_.size()));
}

bool NegativeSuggestionCache::Lookup(const CacheKey& key,
                                     const Validator& validator) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key.full);
  if (it == index_.end()) {
    NegativeMissesCounter().Increment();
    return false;
  }
  if (validator && !it->second->components.empty()) {
    switch (validator(it->second->components)) {
      case CacheValidity::kValid:
        break;
      case CacheValidity::kStale:
        // The owning component was rebuilt — an ingested record may have
        // made the query known, so the NotFound verdict no longer stands.
        lru_.erase(it->second);
        index_.erase(it);
        NegativeSizeGauge().Add(-1.0);
        NegativeInvalidationsCounter().Increment();
        NegativeMissesCounter().Increment();
        return false;
      case CacheValidity::kMismatch:
        NegativeMissesCounter().Increment();
        return false;
    }
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  NegativeHitsCounter().Increment();
  return true;
}

void NegativeSuggestionCache::Insert(const CacheKey& key,
                                     ValidationVector components) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key.full);
  if (it != index_.end()) {
    it->second->components = std::move(components);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(Entry{key.full, std::move(components)});
  index_.emplace(key.full, lru_.begin());
  NegativeInsertionsCounter().Increment();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    NegativeEvictionsCounter().Increment();
  } else {
    NegativeSizeGauge().Add(1.0);
  }
}

size_t NegativeSuggestionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void NegativeSuggestionCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  NegativeSizeGauge().Add(-static_cast<double>(lru_.size()));
  index_.clear();
  lru_.clear();
}

}  // namespace pqsda
