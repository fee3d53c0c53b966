#ifndef PQSDA_SUGGEST_CACHE_POLICY_H_
#define PQSDA_SUGGEST_CACHE_POLICY_H_

#include <cstddef>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

namespace pqsda {

/// Introspection snapshot of one policy instance, surfaced per cache on
/// /statusz.
struct CachePolicyStatus {
  size_t resident = 0;
  size_t capacity = 0;
  size_t t1 = 0;  ///< recency-resident
  size_t t2 = 0;  ///< frequency-resident
  size_t b1 = 0;  ///< recency ghost keys
  size_t b2 = 0;  ///< frequency ghost keys
  size_t p = 0;   ///< adaptation target for |T1|
};

/// Replacement bookkeeping for one SuggestionCache shard: Bansal & Modha's
/// CLOCK with Adaptive Replacement (CAR). T1/T2 are circular clocks (front =
/// hand) with one reference bit per page, B1/B2 plain LRU ghost lists of
/// recently evicted keys, p the T1 target. The ghost lists adapt the
/// recency/frequency split online, which absorbs the scan-pollution pattern
/// (a cold sweep through many one-shot queries) that flushes a plain LRU. A
/// hit only sets the reference bit — no list movement.
///
/// The policy tracks keys only — values live in the owning shard's map —
/// and is deliberately single-threaded: every call happens under the shard
/// mutex. The contract the differential oracle (tests/cache_policy_test.cc)
/// enforces against a transparent reference model:
///  - OnInsert admits a non-resident key, appending every key it evicted to
///    `evicted` (at most one per call) and returning whether the key was
///    found in a ghost list (a "history hit").
///  - OnHit sets the reference bit of a resident key.
///  - OnErase removes a resident key out-of-band (invalidation); the freed
///    slot is reusable immediately and ghost lists are not consulted.
///  - The directory stays within the paper's bounds after every call:
///    |T1| + |B1| <= c and |T1| + |T2| + |B1| + |B2| <= 2c.
///  - Decisions are deterministic: same op sequence, same evictions, same
///    StatusNow(), regardless of platform.
class CarPolicy {
 public:
  /// `capacity` resident slots; 0 behaves as 1.
  explicit CarPolicy(size_t capacity);

  /// A lookup hit on a resident key.
  void OnHit(const std::string& key);

  /// Admits `key` (must not be resident). Keys evicted to make room are
  /// appended to `evicted` (may be null). Returns true when the key hit a
  /// ghost list.
  bool OnInsert(const std::string& key, std::vector<std::string>* evicted);

  /// Removes a resident key; no-op when the key is not resident. Ghost
  /// state referring to the key is left untouched (it records history, not
  /// residency).
  void OnErase(const std::string& key);

  /// Drops all resident and ghost state.
  void Clear();

  size_t resident() const { return t1_.size() + t2_.size(); }
  CachePolicyStatus StatusNow() const;

 private:
  struct ClockEntry {
    std::string key;
    bool ref = false;
  };
  enum ListId { kT1, kT2, kB1, kB2 };
  struct Loc {
    ListId list;
    std::list<ClockEntry>::iterator clock_pos;   // kT1/kT2
    std::list<std::string>::iterator ghost_pos;  // kB1/kB2
  };

  void ReplaceClock(std::vector<std::string>* evicted);
  void DropGhostLru(std::list<std::string>& ghosts);

  size_t c_;
  size_t p_ = 0;
  std::list<ClockEntry> t1_, t2_;   // front = clock hand
  std::list<std::string> b1_, b2_;  // front = MRU ghost
  std::unordered_map<std::string, Loc> index_;
};

}  // namespace pqsda

#endif  // PQSDA_SUGGEST_CACHE_POLICY_H_
