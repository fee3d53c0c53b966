// The adaptive-cache acceptance suite: a model-checked policy-and-staleness
// oracle in four clusters.
//
//  1. Differential policy oracle: the CAR policy is driven through
//     randomized op traces — Zipf, uniform, scan, loop mixes with
//     out-of-band erases and clears, across a capacity matrix — in lockstep
//     with a transparent reference model transcribed independently from
//     Bansal & Modha's pseudocode. Every externally observable decision
//     must be identical: hit/miss, the evicted keys, the ghost-hit verdict,
//     the resident count and the full StatusNow() introspection; and the
//     directory must stay within the paper's bounds after every op.
//  2. SuggestionCache composition: the sharded cache over any shard count
//     must equal the composition of per-shard reference models routed by
//     the same key hash, for hits, misses and total size.
//  3. Validation semantics: the tri-state CacheValidity contract — kValid
//     serves, kStale erases exactly once, kMismatch (mid-swap: entry newer
//     than the reader's pinned snapshot) misses but stays resident — for
//     both the positive and the negative cache.
//  4. The staleness property the tentpole promises: under randomized
//     interleavings of ingest deltas, rebuild swaps, warmup replays and
//     Suggest traffic (single-threaded schedules and a concurrent storm),
//     every request the engine answered — cache hits included — replays
//     bitwise-identical against its pinned generation with the cache
//     bypassed. A cache that ever served a stale or wrong list fails the
//     fingerprint comparison.
//
// This file is part of the TSAN/ASan suites run_benches.sh re-runs, and
// ctest additionally re-runs the oracle under a fixed seed matrix
// (--gtest_random_seed); the trace generator derives from that seed.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_manager.h"
#include "core/pqsda_engine.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/telemetry.h"
#include "suggest/cache_policy.h"
#include "suggest/suggestion_cache.h"

namespace pqsda {
namespace {

using obs::ExplainRecord;
using obs::RequestLogEntry;

// ================================================================ oracle ====
//
// Transparent reference models over plain vectors, written as literal
// transcriptions of the published pseudocode and sharing no code with
// src/suggest/cache_policy.cc. Everything is O(n) per op on purpose: the
// reference optimizes for being obviously correct, not fast.

struct RefDecision {
  bool hit = false;
  bool ghost_hit = false;
  std::vector<std::string> evicted;
};

bool Contains(const std::vector<std::string>& v, const std::string& key) {
  return std::find(v.begin(), v.end(), key) != v.end();
}

void Remove(std::vector<std::string>* v, const std::string& key) {
  v->erase(std::remove(v->begin(), v->end(), key), v->end());
}

// Plain LRU: the baseline CAR must match or beat under scan pollution
// (CarAbsorbsScanPollution). Only hit/miss is observed.
class RefLru {
 public:
  explicit RefLru(size_t cap) : cap_(std::max<size_t>(cap, 1)) {}

  // Whether `key` was resident; admits or refreshes it as MRU either way.
  bool Access(const std::string& key) {
    const bool hit = Contains(mru_, key);
    Remove(&mru_, key);
    mru_.insert(mru_.begin(), key);
    if (mru_.size() > cap_) mru_.pop_back();
    return hit;
  }

 private:
  size_t cap_;
  std::vector<std::string> mru_;  // front = MRU
};

// CAR, transcribed from Bansal & Modha's Figure 2. T1/T2 are circular
// buffers modeled as vectors with index 0 = the clock hand and push at the
// tail; B1/B2 are ghost lists with front = most recent.
class RefCar {
 public:
  explicit RefCar(size_t cap) : c_(std::max<size_t>(cap, 1)) {}

  RefDecision Access(const std::string& key) {
    RefDecision d;
    if (FindClock(t1_, key) >= 0 || FindClock(t2_, key) >= 0) {
      d.hit = true;
      SetRef(key);
      return d;
    }
    const bool in_b1 = Contains(b1_, key);
    const bool in_b2 = Contains(b2_, key);
    if (t1_.size() + t2_.size() == c_) ReplaceClock(&d.evicted);
    if (!in_b1 && !in_b2) {
      // The paper's history replacement, but on every such miss rather
      // than only after a replacement: an Erase leaves room, the next miss
      // skips replace(), and the directory may already sit at
      // |T1| + |B1| = c or at 2c keys in all.
      if (t1_.size() + b1_.size() >= c_) {
        if (!b1_.empty()) b1_.pop_back();
      } else if (t1_.size() + t2_.size() + b1_.size() + b2_.size() >=
                 2 * c_) {
        if (!b2_.empty()) b2_.pop_back();
      }
      t1_.push_back({key, false});
      return d;
    }
    if (in_b1) {
      const size_t delta = std::max<size_t>(b2_.size() / b1_.size(), 1);
      p_ = std::min(c_, p_ + delta);
      Remove(&b1_, key);
    } else {
      const size_t delta = std::max<size_t>(b1_.size() / b2_.size(), 1);
      p_ = p_ > delta ? p_ - delta : 0;
      Remove(&b2_, key);
    }
    t2_.push_back({key, false});
    d.ghost_hit = true;
    return d;
  }

  void Erase(const std::string& key) {
    const int i1 = FindClock(t1_, key);
    if (i1 >= 0) t1_.erase(t1_.begin() + i1);
    const int i2 = FindClock(t2_, key);
    if (i2 >= 0) t2_.erase(t2_.begin() + i2);
  }

  void Clear() {
    t1_.clear();
    t2_.clear();
    b1_.clear();
    b2_.clear();
    p_ = 0;
  }

  bool IsResident(const std::string& key) const {
    return FindClock(t1_, key) >= 0 || FindClock(t2_, key) >= 0;
  }
  size_t Resident() const { return t1_.size() + t2_.size(); }
  CachePolicyStatus StatusNow() const {
    CachePolicyStatus s;
    s.resident = Resident();
    s.capacity = c_;
    s.t1 = t1_.size();
    s.t2 = t2_.size();
    s.b1 = b1_.size();
    s.b2 = b2_.size();
    s.p = p_;
    return s;
  }

 private:
  struct ClockPage {
    std::string key;
    bool ref = false;
  };

  static int FindClock(const std::vector<ClockPage>& clock,
                       const std::string& key) {
    for (size_t i = 0; i < clock.size(); ++i) {
      if (clock[i].key == key) return static_cast<int>(i);
    }
    return -1;
  }

  void SetRef(const std::string& key) {
    const int i1 = FindClock(t1_, key);
    if (i1 >= 0) t1_[i1].ref = true;
    const int i2 = FindClock(t2_, key);
    if (i2 >= 0) t2_[i2].ref = true;
  }

  void ReplaceClock(std::vector<std::string>* evicted) {
    for (;;) {
      if (t1_.size() >= std::max<size_t>(p_, 1)) {
        if (!t1_.front().ref) {
          evicted->push_back(t1_.front().key);
          b1_.insert(b1_.begin(), t1_.front().key);
          t1_.erase(t1_.begin());
          return;
        }
        ClockPage page = t1_.front();
        page.ref = false;
        t1_.erase(t1_.begin());
        t2_.push_back(page);
      } else {
        if (!t2_.front().ref) {
          evicted->push_back(t2_.front().key);
          b2_.insert(b2_.begin(), t2_.front().key);
          t2_.erase(t2_.begin());
          return;
        }
        ClockPage page = t2_.front();
        page.ref = false;
        t2_.erase(t2_.begin());
        t2_.push_back(page);
      }
    }
  }

  size_t c_;
  size_t p_ = 0;
  std::vector<ClockPage> t1_, t2_;  // index 0 = clock hand
  std::vector<std::string> b1_, b2_;
};

// --------------------------------------------------------------- traces ----

struct TraceOp {
  enum Kind { kAccess, kErase, kClear };
  Kind kind = kAccess;
  std::string key;
};

enum class TracePattern { kUniform, kZipf, kScan, kHotLoop };

// `pattern` shapes the access stream; every trace additionally mixes in
// out-of-band erases (~6%, the invalidation path) and rare Clears.
std::vector<TraceOp> MakeTrace(std::mt19937* rng, size_t ops, size_t key_space,
                               size_t capacity, TracePattern pattern) {
  std::vector<TraceOp> trace;
  trace.reserve(ops);
  std::uniform_int_distribution<size_t> uniform(0, key_space - 1);
  std::vector<double> zipf_weights;
  for (size_t i = 0; i < key_space; ++i) {
    zipf_weights.push_back(1.0 / static_cast<double>(i + 1));
  }
  std::discrete_distribution<size_t> zipf(zipf_weights.begin(),
                                          zipf_weights.end());
  std::uniform_int_distribution<int> pct(0, 99);
  size_t scan_next = 0;
  for (size_t i = 0; i < ops; ++i) {
    const int roll = pct(*rng);
    TraceOp op;
    if (roll < 1) {
      op.kind = TraceOp::kClear;
      trace.push_back(op);
      continue;
    }
    size_t key = 0;
    switch (pattern) {
      case TracePattern::kUniform:
        key = uniform(*rng);
        break;
      case TracePattern::kZipf:
        key = zipf(*rng);
        break;
      case TracePattern::kScan:
        // Zipf head with periodic cold sweeps — the pattern that flushes a
        // plain LRU and that CAR's ghost lists absorb.
        if (i % 4 == 3) {
          key = key_space + (scan_next++ % (4 * key_space));
        } else {
          key = zipf(*rng);
        }
        break;
      case TracePattern::kHotLoop:
        // A loop one larger than the capacity (LRU's pathological case)
        // mixed with uniform noise.
        key = (roll % 2 == 0) ? (i % (capacity + 1)) : uniform(*rng);
        break;
    }
    op.kind = roll < 7 ? TraceOp::kErase : TraceOp::kAccess;
    op.key = "q" + std::to_string(key);
    trace.push_back(op);
  }
  return trace;
}

int OracleSeed() {
  // --gtest_random_seed=N makes the whole oracle matrix reproducible; the
  // default 0 is itself a fixed, valid seed.
  return testing::UnitTest::GetInstance()->random_seed();
}

// Drives the production policy and the reference model through one trace in
// lockstep, comparing every observable decision. Residency of the
// production policy is tracked externally from its own OnInsert/evicted
// answers — exactly what the owning cache shard does.
void RunDifferential(size_t capacity, const std::vector<TraceOp>& trace) {
  CarPolicy policy(capacity);
  RefCar ref(capacity);
  std::set<std::string> resident;
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    SCOPED_TRACE("op " + std::to_string(i) + " key " + op.key);
    switch (op.kind) {
      case TraceOp::kClear:
        policy.Clear();
        ref.Clear();
        resident.clear();
        break;
      case TraceOp::kErase:
        policy.OnErase(op.key);
        ref.Erase(op.key);
        resident.erase(op.key);
        break;
      case TraceOp::kAccess: {
        const bool ref_hit = ref.IsResident(op.key);
        const bool pol_hit = resident.count(op.key) > 0;
        ASSERT_EQ(pol_hit, ref_hit);
        if (ref_hit) {
          policy.OnHit(op.key);
          RefDecision d = ref.Access(op.key);
          ASSERT_TRUE(d.hit);
          break;
        }
        std::vector<std::string> evicted;
        const bool ghost = policy.OnInsert(op.key, &evicted);
        RefDecision d = ref.Access(op.key);
        ASSERT_FALSE(d.hit);
        ASSERT_EQ(ghost, d.ghost_hit);
        ASSERT_EQ(evicted, d.evicted);
        resident.insert(op.key);
        for (const std::string& victim : evicted) resident.erase(victim);
        break;
      }
    }
    ASSERT_EQ(policy.resident(), ref.Resident());
    ASSERT_EQ(policy.resident(), resident.size());
    // The CAR paper's directory bounds, read from the policy's own
    // introspection after every op: |T1| + |B1| <= c and
    // |T1| + |T2| + |B1| + |B2| <= 2c.
    const CachePolicyStatus got = policy.StatusNow();
    ASSERT_LE(got.t1 + got.b1, got.capacity);
    ASSERT_LE(got.t1 + got.t2 + got.b1 + got.b2, 2 * got.capacity);
    if (i % 64 == 0 || i + 1 == trace.size()) {
      const CachePolicyStatus want = ref.StatusNow();
      ASSERT_EQ(got.resident, want.resident);
      ASSERT_EQ(got.capacity, want.capacity);
      ASSERT_EQ(got.t1, want.t1);
      ASSERT_EQ(got.t2, want.t2);
      ASSERT_EQ(got.b1, want.b1);
      ASSERT_EQ(got.b2, want.b2);
      ASSERT_EQ(got.p, want.p);
    }
  }
}

TEST(CachePolicyOracleTest, DifferentialAgainstReferenceModels) {
  const int seed = OracleSeed();
  SCOPED_TRACE("gtest_random_seed " + std::to_string(seed));
  const size_t capacities[] = {1, 2, 3, 4, 7, 16, 64};
  const TracePattern patterns[] = {TracePattern::kUniform, TracePattern::kZipf,
                                   TracePattern::kScan,
                                   TracePattern::kHotLoop};
  for (size_t capacity : capacities) {
    for (TracePattern pattern : patterns) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " pattern " +
                   std::to_string(static_cast<int>(pattern)));
      // Key space a small multiple of capacity keeps ghost lists and
      // eviction pressure active; an independent stream per cell.
      std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u +
                       static_cast<uint32_t>(capacity) * 97u +
                       static_cast<uint32_t>(pattern));
      const size_t key_space = std::max<size_t>(3 * capacity, 6);
      RunDifferential(capacity,
                      MakeTrace(&rng, 1500, key_space, capacity, pattern));
    }
  }
}

TEST(CachePolicyOracleTest, CarReportsGhostHits) {
  CarPolicy car(2);
  std::vector<std::string> evicted;
  EXPECT_FALSE(car.OnInsert("a", &evicted));
  EXPECT_FALSE(car.OnInsert("b", &evicted));
  EXPECT_TRUE(evicted.empty());
  car.OnHit("a");  // both referenced: the next sweep recirculates them to T2
  car.OnHit("b");
  EXPECT_FALSE(car.OnInsert("c", &evicted));
  ASSERT_EQ(evicted, std::vector<std::string>{"a"});  // a demoted to B2
  evicted.clear();
  EXPECT_TRUE(car.OnInsert("a", &evicted));  // history hit in B2
  ASSERT_EQ(evicted, std::vector<std::string>{"c"});  // c demoted to B1
  evicted.clear();
  EXPECT_TRUE(car.OnInsert("c", &evicted));  // history hit in B1
  EXPECT_EQ(evicted, std::vector<std::string>{"b"});
  EXPECT_EQ(car.StatusNow().p, 1u);  // the B1 hit grew the recency target
}

TEST(CachePolicyOracleTest, CarGrantsSecondChance) {
  CarPolicy car(2);
  ASSERT_FALSE(car.OnInsert("a", nullptr));
  ASSERT_FALSE(car.OnInsert("b", nullptr));
  car.OnHit("a");  // a's reference bit protects it from the next sweep
  std::vector<std::string> evicted;
  ASSERT_FALSE(car.OnInsert("c", &evicted));
  EXPECT_EQ(evicted, std::vector<std::string>{"b"});
}

// An out-of-band erase frees a slot without touching the ghost lists, so
// the next miss skips the replacement. The directory must keep its bounds
// anyway: with the paper's checks run only after a replacement, this
// stream grows B1 by one key per miss without limit.
TEST(CachePolicyOracleTest, CarGhostListsStayBoundedAfterErase) {
  CarPolicy car(2);
  car.OnInsert("w", nullptr);
  car.OnHit("w");
  car.OnInsert("z", nullptr);
  std::vector<std::string> evicted;
  car.OnInsert("x", &evicted);  // w recirculates to T2, z is demoted to B1
  ASSERT_EQ(evicted, std::vector<std::string>{"z"});
  CachePolicyStatus s = car.StatusNow();
  ASSERT_EQ(s.t1 + s.b1, 2u);  // |T1| + |B1| = c
  ASSERT_EQ(s.t2, 1u);
  car.OnErase("w");
  for (int i = 0; i < 1000; ++i) {
    car.OnInsert("m" + std::to_string(i), nullptr);
    s = car.StatusNow();
    ASSERT_LE(s.t1 + s.b1, 2u) << "miss " << i;
    ASSERT_LE(s.t1 + s.t2 + s.b1 + s.b2, 4u) << "miss " << i;
  }
}

// CAR's reason to exist: on a Zipf head polluted by cold scans it must not
// do worse than LRU (it parks scan traffic in T1 and protects the
// re-referenced head in T2).
TEST(CachePolicyOracleTest, CarAbsorbsScanPollution) {
  const int seed = OracleSeed();
  std::mt19937 rng(static_cast<uint32_t>(seed) + 7u);
  const size_t capacity = 16;
  const auto trace =
      MakeTrace(&rng, 4000, /*key_space=*/24, capacity, TracePattern::kScan);
  CarPolicy car(capacity);
  RefLru lru(capacity);
  std::set<std::string> resident;
  size_t car_hits = 0;
  size_t lru_hits = 0;
  for (const TraceOp& op : trace) {
    if (op.kind != TraceOp::kAccess) continue;  // pure access stream
    if (lru.Access(op.key)) ++lru_hits;
    if (resident.count(op.key) > 0) {
      ++car_hits;
      car.OnHit(op.key);
      continue;
    }
    std::vector<std::string> evicted;
    car.OnInsert(op.key, &evicted);
    resident.insert(op.key);
    for (const std::string& victim : evicted) resident.erase(victim);
  }
  EXPECT_GE(car_hits, lru_hits);
}

// =========================================================== composition ====

std::vector<Suggestion> ListFor(const std::string& key) {
  return {{key, 1.0}, {key + "+alt", 0.5}};
}

// The sharded cache must equal the composition of per-shard reference
// policies routed by the same key hash, for every shard count.
TEST(SuggestionCacheShardingOracleTest, MatchesPerShardReferenceComposition) {
  const int seed = OracleSeed();
  for (size_t shards : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const size_t capacity = 24;
    SuggestionCacheOptions options;
    options.capacity = capacity;
    options.shards = shards;
    options.name = "oracle";
    SuggestionCache cache(options);
    // Production rounds the budget up to shards * ceil(capacity/shards).
    const size_t per_shard = (capacity + shards - 1) / shards;
    ASSERT_EQ(cache.capacity(), per_shard * shards);
    std::vector<RefCar> ref(shards, RefCar(per_shard));
    std::mt19937 rng(static_cast<uint32_t>(seed) * 31u +
                     static_cast<uint32_t>(shards));
    const auto trace = MakeTrace(&rng, 1200, /*key_space=*/64, capacity,
                                 TracePattern::kZipf);
    for (size_t i = 0; i < trace.size(); ++i) {
      const TraceOp& op = trace[i];
      if (op.kind != TraceOp::kAccess) continue;
      SCOPED_TRACE("op " + std::to_string(i) + " key " + op.key);
      const SuggestionCache::CacheKey key(op.key);
      RefCar& shard_ref = ref[key.hash % shards];
      std::vector<Suggestion> out;
      const bool hit = cache.Lookup(key, &out);
      const RefDecision d = shard_ref.Access(op.key);
      ASSERT_EQ(hit, d.hit);
      if (hit) {
        // A hit returns exactly the inserted list.
        ASSERT_EQ(out, ListFor(op.key));
      } else {
        cache.Insert(key, ListFor(op.key));
      }
      size_t want_size = 0;
      for (const RefCar& r : ref) want_size += r.Resident();
      ASSERT_EQ(cache.size(), want_size);
    }
    // The /statusz introspection aggregates the same per-shard state.
    CachePolicyStatus want;
    for (const RefCar& r : ref) {
      const CachePolicyStatus s = r.StatusNow();
      want.resident += s.resident;
      want.t1 += s.t1;
      want.t2 += s.t2;
      want.b1 += s.b1;
      want.b2 += s.b2;
      want.p += s.p;
    }
    const CachePolicyStatus got = cache.PolicyStatus();
    EXPECT_EQ(got.resident, want.resident);
    EXPECT_EQ(got.t1, want.t1);
    EXPECT_EQ(got.t2, want.t2);
    EXPECT_EQ(got.b1, want.b1);
    EXPECT_EQ(got.b2, want.b2);
    EXPECT_EQ(got.p, want.p);
  }
}

// ============================================================ validation ====

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Default().GetCounter(name).Value();
}

SuggestionCache::Validator ValidatorFor(uint64_t current_gen) {
  return [current_gen](const SuggestionCache::ValidationVector& components)
             -> CacheValidity {
    bool stale = false;
    for (const auto& [component, gen] : components) {
      (void)component;
      if (gen > current_gen) return CacheValidity::kMismatch;
      if (gen < current_gen) stale = true;
    }
    return stale ? CacheValidity::kStale : CacheValidity::kValid;
  };
}

TEST(CacheValidationTest, TriStateContract) {
  SuggestionCacheOptions options;
  options.capacity = 8;
  options.shards = 1;
  options.name = "validation";
  SuggestionCache cache(options);
  std::vector<Suggestion> out;

  // kValid: components at the reader's generations serve.
  cache.Insert("valid", ListFor("valid"), {{0, 5}});
  EXPECT_TRUE(cache.Lookup("valid", &out, ValidatorFor(5)));

  // kStale: a reader ahead of the entry erases it — exactly once.
  const uint64_t stale_before =
      CounterValue("pqsda.cache.stale_invalidations_total");
  EXPECT_FALSE(cache.Lookup("valid", &out, ValidatorFor(6)));
  EXPECT_EQ(CounterValue("pqsda.cache.stale_invalidations_total"),
            stale_before + 1);
  // Erased: even the old-generation reader misses now, without a second
  // stale invalidation.
  EXPECT_FALSE(cache.Lookup("valid", &out, ValidatorFor(5)));
  EXPECT_EQ(CounterValue("pqsda.cache.stale_invalidations_total"),
            stale_before + 1);

  // kMismatch: the mid-swap case — the entry was filled against a *newer*
  // generation than the reader's pinned snapshot. The reader misses, but
  // the entry survives for current-generation readers.
  cache.Insert("fresh", ListFor("fresh"), {{0, 7}});
  const uint64_t mismatch_before =
      CounterValue("pqsda.cache.mismatch_misses_total");
  EXPECT_FALSE(cache.Lookup("fresh", &out, ValidatorFor(5)));
  EXPECT_EQ(CounterValue("pqsda.cache.mismatch_misses_total"),
            mismatch_before + 1);
  EXPECT_TRUE(cache.Lookup("fresh", &out, ValidatorFor(7)));

  // Entries without components depend on nothing the validator grades and
  // are always valid.
  cache.Insert("keyed", ListFor("keyed"));
  EXPECT_TRUE(cache.Lookup("keyed", &out, ValidatorFor(999)));
}

TEST(CacheValidationTest, NegativeCacheTriStateAndBound) {
  NegativeSuggestionCache cache(/*capacity=*/4);

  cache.Insert("miss0", {{2, 5}});
  EXPECT_TRUE(cache.Lookup("miss0", ValidatorFor(5)));

  // kStale erases (an ingest made the component newer — the query may be
  // known now, so the engine must re-ask the index).
  const uint64_t inval_before =
      CounterValue("pqsda.cache.negative_invalidations_total");
  EXPECT_FALSE(cache.Lookup("miss0", ValidatorFor(6)));
  EXPECT_EQ(CounterValue("pqsda.cache.negative_invalidations_total"),
            inval_before + 1);
  EXPECT_FALSE(cache.Lookup("miss0", ValidatorFor(5)));
  EXPECT_EQ(cache.size(), 0u);

  // kMismatch misses but keeps the entry.
  cache.Insert("miss1", {{2, 7}});
  EXPECT_FALSE(cache.Lookup("miss1", ValidatorFor(5)));
  EXPECT_TRUE(cache.Lookup("miss1", ValidatorFor(7)));

  // Bounded: the LRU tail falls off.
  for (int i = 0; i < 10; ++i) {
    cache.Insert("storm" + std::to_string(i), {{2, 7}});
  }
  EXPECT_LE(cache.size(), 4u);
}

// ============================================================= staleness ====

// The corpus: three query clusters (java / astronomy / uk news) across six
// users, same shape as the explain suite's — small enough for fast builds,
// rich enough that expansion crosses clusters.
std::vector<QueryLogRecord> StalenessLog() {
  return {
      {1, "sun", "www.java.com", 100},
      {1, "sun java", "java.sun.com", 150},
      {1, "java download", "www.java.com", 200},
      {4, "sun java", "www.java.com", 100},
      {4, "java download", "java.sun.com", 130},
      {2, "sun", "www.nasa.gov", 100},
      {2, "solar system", "www.nasa.gov", 160},
      {2, "solar energy", "www.energy.gov", 220},
      {5, "solar system", "www.nasa.gov", 90},
      {5, "solar energy", "www.nasa.gov", 140},
      {3, "sun", "www.thesun.co.uk", 100},
      {3, "sun daily uk", "www.thesun.co.uk", 150},
      {6, "sun daily uk", "www.thesun.co.uk", 110},
      {6, "uk news", "www.thesun.co.uk", 170},
  };
}

// Fresh ingest traffic, cycle `n`: a new user reinforcing one cluster with
// timestamps past the training log.
std::vector<QueryLogRecord> FreshDelta(int n) {
  const UserId user = static_cast<UserId>(20 + n);
  const int64_t t = 5000 + 1000 * n;
  switch (n % 3) {
    case 0:
      return {{user, "solar energy", "www.energy.gov", t},
              {user, "solar panels", "www.energy.gov", t + 50}};
    case 1:
      return {{user, "java download", "www.java.com", t},
              {user, "java update", "www.java.com", t + 50}};
    default:
      return {{user, "uk news", "www.thesun.co.uk", t},
              {user, "uk weather", "www.thesun.co.uk", t + 50}};
  }
}

uint64_t FingerprintOf(const std::vector<Suggestion>& list) {
  obs::Fingerprint64 fp;
  for (const Suggestion& s : list) {
    fp.Mix(s.query);
    fp.MixDouble(s.score);
  }
  return fp.value();
}

RequestLogEntry EntryFor(const SuggestionRequest& request, size_t k,
                         const ExplainRecord& record) {
  RequestLogEntry entry;
  entry.request_id = record.request_id;
  entry.user = request.user;
  entry.query = request.query;
  entry.k = k;
  entry.timestamp = request.timestamp;
  entry.context = request.context;
  entry.generation = record.generation;
  entry.rung = static_cast<uint32_t>(record.rung);
  entry.cache_hit = record.cache_hit;
  entry.ok = record.ok;
  entry.fingerprint = record.fingerprint;
  return entry;
}

std::string StalenessLogPath(const std::string& name) {
  return testing::TempDir() + "pqsda_cache_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

std::unique_ptr<PqsdaEngine> BuildStalenessEngine(
    const std::string& warmup_path, bool personalize = true) {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.personalize = personalize;
  config.cache_capacity = 64;
  config.cache_shards = 2;
  config.negative_cache_capacity = 32;
  config.cache_warmup.log_path = warmup_path;
  config.cache_warmup.max_requests = 64;
  config.ingest.rebuild_min_records = SIZE_MAX;  // rebuilds only on demand
  config.ingest.retired_snapshots = 16;          // every generation replayable
  auto built = PqsdaEngine::Build(StalenessLog(), config);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

// The single-threaded model check: a randomized schedule interleaves
// Suggest traffic (known and unknown queries, alternating users), ingest
// deltas and rebuild swaps (each swap triggers the off-path warmup replay of
// the request log). After *every* served request the schedule immediately
// replays it against its pinned generation with the cache bypassed and
// demands a bitwise-equal fingerprint — a cache hit that survived a swap it
// should not have survived fails on the spot, with the op index in the
// trace.
TEST(CacheStalenessOracleTest, RandomizedSwapScheduleNeverServesStale) {
  const int seed = OracleSeed();
  SCOPED_TRACE("gtest_random_seed " + std::to_string(seed));

  // A fresh request log: the engine's serving path appends to it
  // (sample_every=1) and every rebuild swap warms the new generation from
  // it.
  const std::string log_path = StalenessLogPath("sched");
  std::remove(log_path.c_str());
  obs::ServingTelemetryOptions toptions;
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Install(toptions);
  obs::RequestLogOptions loptions;
  loptions.path = log_path;
  loptions.sample_every = 1;
  loptions.slow_us = INT64_MAX;
  auto log = obs::RequestLog::Open(loptions);
  ASSERT_TRUE(log.ok());
  telemetry.AttachRequestLog(std::move(log).value());

  auto engine = BuildStalenessEngine(log_path);
  ASSERT_NE(engine, nullptr);

  const std::vector<std::string> known = {
      "sun",       "sun java",    "solar system", "solar energy",
      "uk news",   "sun daily uk"};
  const std::vector<std::string> unknown = {"zzz qqq", "xylophone"};
  std::mt19937 rng(static_cast<uint32_t>(seed) * 17u);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<size_t> pick_known(0, known.size() - 1);
  std::uniform_int_distribution<size_t> pick_unknown(0, unknown.size() - 1);
  std::uniform_int_distribution<UserId> pick_user(1, 6);

  size_t hits_verified = 0;
  int delta_n = 0;
  for (int op = 0; op < 220; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const int roll = pct(rng);
    if (roll < 6) {
      // Ingest a delta (buffered; the swap happens on the rebuild op).
      for (QueryLogRecord& r : FreshDelta(delta_n)) {
        ASSERT_TRUE(engine->Ingest(std::move(r)).ok());
      }
      ++delta_n;
      continue;
    }
    if (roll < 12) {
      // Swap: publish a new generation; the post-publish hook replays the
      // request log into the new generation's cache before this returns.
      ASSERT_TRUE(engine->index_manager().RebuildNow().ok());
      continue;
    }
    SuggestionRequest request;
    request.query =
        roll < 20 ? unknown[pick_unknown(rng)] : known[pick_known(rng)];
    request.user = roll % 3 == 0 ? kNoUser : pick_user(rng);
    request.timestamp = 400;
    ExplainRecord record;
    auto served = engine->Suggest(request, /*k=*/5, nullptr, &record);
    if (!served.ok()) {
      ASSERT_EQ(served.status().code(), StatusCode::kNotFound)
          << served.status().ToString();
      continue;
    }
    // The staleness property: what the engine just answered — from the
    // cache or not — must equal the cache-bypassed recompute pinned to
    // the same generation.
    ASSERT_EQ(record.fingerprint, FingerprintOf(*served));
    auto replayed = engine->Replay(EntryFor(request, 5, record));
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    ASSERT_EQ(FingerprintOf(*replayed), record.fingerprint);
    if (record.cache_hit) ++hits_verified;
  }
  // The schedule must actually have exercised the property on cache hits
  // (head queries repeat; with warmup they hit right after swaps too).
  EXPECT_GT(hits_verified, 0u) << "schedule produced no cache hits";
  telemetry.AttachRequestLog(nullptr);
  std::remove(log_path.c_str());
}

// The concurrent variant: reader threads storm the engine while a churn
// thread ingests deltas and swaps generations (each swap warming the new
// cache from the live request log). Afterwards every sampled log entry is
// replayed against its pinned generation and must reproduce the logged
// fingerprint bitwise. This is the TSAN stage's main course.
TEST(CacheStalenessOracleTest, ConcurrentChurnVerifiedByLogReplay) {
  const std::string log_path = StalenessLogPath("churn");
  std::remove(log_path.c_str());
  obs::ServingTelemetryOptions toptions;
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Install(toptions);
  obs::RequestLogOptions loptions;
  loptions.path = log_path;
  loptions.sample_every = 1;
  loptions.slow_us = INT64_MAX;
  auto log = obs::RequestLog::Open(loptions);
  ASSERT_TRUE(log.ok());
  telemetry.AttachRequestLog(std::move(log).value());

  auto engine = BuildStalenessEngine(log_path);
  ASSERT_NE(engine, nullptr);

  const uint64_t warmup_before =
      CounterValue("pqsda.cache.warmup_replayed_total");

  const std::vector<std::string> pool = {"sun",          "sun java",
                                         "solar system", "solar energy",
                                         "uk news",      "zzz qqq"};
  // The request log is written asynchronously. Without a handshake the four
  // swaps can finish before any reader request reaches the file, and the
  // warmups then have nothing to replay. So the churn thread waits until a
  // reader has been served and that request is flushed to the log.
  std::atomic<bool> served{false};
  std::atomic<int> readers_running{3};
  std::thread churn([&engine, &telemetry, &served, &readers_running] {
    while (!served.load(std::memory_order_acquire) &&
           readers_running.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    telemetry.request_log()->Flush();
    for (int cycle = 0; cycle < 4; ++cycle) {
      for (QueryLogRecord& r : FreshDelta(cycle)) {
        ASSERT_TRUE(engine->Ingest(std::move(r)).ok());
      }
      ASSERT_TRUE(engine->index_manager().RebuildNow().ok());
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&engine, &pool, &served, &readers_running, t] {
      // Counts the reader out on every exit, a failed ASSERT included, so
      // the churn thread never waits on a reader that is gone.
      struct Leave {
        std::atomic<int>& running;
        ~Leave() { running.fetch_sub(1, std::memory_order_release); }
      } leave{readers_running};
      for (int i = 0; i < 120; ++i) {
        SuggestionRequest request;
        request.query = pool[(i + t) % pool.size()];
        request.user = (i % 2 == 0) ? static_cast<UserId>(1 + (i + t) % 6)
                                    : kNoUser;
        request.timestamp = 400;
        auto result = engine->Suggest(request, 5);
        if (result.ok()) {
          served.store(true, std::memory_order_release);
        } else {
          ASSERT_EQ(result.status().code(), StatusCode::kNotFound)
              << result.status().ToString();
        }
      }
    });
  }
  churn.join();
  for (auto& r : readers) r.join();

  // Each of the four swaps ran a warmup replay on the rebuild thread.
  EXPECT_GT(CounterValue("pqsda.cache.warmup_replayed_total"), warmup_before);

  ASSERT_NE(telemetry.request_log(), nullptr);
  telemetry.request_log()->Flush();
  auto entries = obs::ReadRequestLog(log_path, /*max_entries=*/0);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_FALSE(entries->empty());

  size_t verified = 0;
  size_t hits_verified = 0;
  for (const RequestLogEntry& entry : *entries) {
    if (!entry.ok) continue;  // NotFound answers carry no fingerprint
    auto replayed = engine->Replay(entry);
    ASSERT_TRUE(replayed.ok())
        << "generation " << entry.generation << ": "
        << replayed.status().ToString();
    ASSERT_EQ(FingerprintOf(*replayed), entry.fingerprint)
        << "query \"" << entry.query << "\" generation " << entry.generation
        << (entry.cache_hit ? " (cache hit)" : " (miss)");
    ++verified;
    if (entry.cache_hit) ++hits_verified;
  }
  EXPECT_GT(verified, 0u);
  EXPECT_GT(hits_verified, 0u) << "storm produced no verifiable cache hits";
  telemetry.AttachRequestLog(nullptr);
  std::remove(log_path.c_str());
}

// Delta-aware retention: with raw edge weights (no global IQF coupling) a
// delta that only touches one graph component carries the untouched
// validation components' generations over, so warm entries whose reads all
// survived keep hitting across the swap.
//
// The corpus keeps the warm (java) cluster fully disconnected from the
// cooking cluster — no shared query, term, url or session — so the warm
// requests' expansions can only read java-cluster rows. The delta then
// introduces two brand-new queries with fresh vocabulary and a fresh url:
// under kRaw weighting no existing row changes at all, only the validation
// components that own the new query rows ("risotto milanese" → 3,
// "olive oil" → 2, by the partition hash) pick up the new generation —
// disjoint from the java owners ({5, 0, 4}), so every warm entry survives.
TEST(CacheStalenessOracleTest, DeltaAwareRetainsEveryWarmEntryAcrossSwap) {
  const std::vector<std::string> warm = {"java download", "java update",
                                         "java install"};
  PqsdaEngineConfig config;
  config.weighting = EdgeWeighting::kRaw;  // fingerprints stay local
  config.personalize = false;
  config.cache_capacity = 64;
  config.cache_shards = 1;
  config.ingest.rebuild_min_records = SIZE_MAX;
  auto built = PqsdaEngine::Build(
      {
          {1, "java download", "www.java.com", 100},
          {1, "java update", "www.java.com", 150},
          {4, "java update", "java.sun.com", 100},
          {4, "java install", "java.sun.com", 130},
          {2, "pasta carbonara", "www.food.com", 100},
          {2, "pasta recipe", "www.food.com", 160},
          {5, "pasta recipe", "www.cooking.com", 90},
          {5, "tomato sauce", "www.cooking.com", 140},
      },
      config);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PqsdaEngine> engine = std::move(built).value();

  auto suggest = [&engine](const std::string& q) {
    SuggestionRequest request;
    request.query = q;
    request.timestamp = 400;
    return engine->Suggest(request, 5);
  };
  for (const std::string& q : warm) EXPECT_TRUE(suggest(q).ok());

  std::vector<QueryLogRecord> delta = {
      {31, "risotto milanese", "www.rice.it", 5000},
      {31, "olive oil", "www.rice.it", 5050},
  };
  for (QueryLogRecord& r : delta) {
    EXPECT_TRUE(engine->Ingest(std::move(r)).ok());
  }
  ASSERT_TRUE(engine->index_manager().RebuildNow().ok());
  ASSERT_EQ(engine->generation(), 1u);

  // Every warm query is served from cache across the swap.
  const uint64_t hits_before = CounterValue("pqsda.cache.hits_total");
  for (const std::string& q : warm) EXPECT_TRUE(suggest(q).ok());
  EXPECT_EQ(CounterValue("pqsda.cache.hits_total") - hits_before,
            warm.size());
}

}  // namespace
}  // namespace pqsda
