#include "suggest/cache_policy.h"

#include <algorithm>
#include <iterator>

namespace pqsda {

CarPolicy::CarPolicy(size_t capacity) : c_(std::max<size_t>(capacity, 1)) {}

void CarPolicy::OnHit(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end() || (it->second.list != kT1 && it->second.list != kT2)) {
    return;
  }
  it->second.clock_pos->ref = true;
}

bool CarPolicy::OnInsert(const std::string& key,
                         std::vector<std::string>* evicted) {
  auto it = index_.find(key);
  const bool in_b1 = it != index_.end() && it->second.list == kB1;
  const bool in_b2 = it != index_.end() && it->second.list == kB2;
  if (t1_.size() + t2_.size() == c_) ReplaceClock(evicted);
  if (!in_b1 && !in_b2) {
    // Ghost-directory bounding, per the paper: only a miss on both
    // directories discards ghost history, and the checks read the sizes
    // *after* the replacement above. The paper runs them only when the
    // cache was full, which keeps |T1|+|B1| <= c and the four lists <= 2c
    // as long as residents leave by replacement alone. An OnErase frees a
    // slot without touching B1/B2, so the next miss skips the replacement
    // while the directory may already sit at a bound; checking on every
    // such miss keeps both bounds. Without erases a miss skips the
    // replacement only before the cache first fills, when both ghost lists
    // are empty, so there the checks decide exactly as the paper's.
    if (t1_.size() + b1_.size() >= c_) {
      DropGhostLru(b1_);
    } else if (t1_.size() + t2_.size() + b1_.size() + b2_.size() >= 2 * c_) {
      DropGhostLru(b2_);
    }
    t1_.push_back(ClockEntry{key, false});
    index_[key] = Loc{kT1, std::prev(t1_.end()), {}};
    return false;
  }
  if (in_b1) {
    const size_t delta = std::max<size_t>(b2_.size() / b1_.size(), 1);
    p_ = std::min(c_, p_ + delta);
  } else {
    const size_t delta = std::max<size_t>(b1_.size() / b2_.size(), 1);
    p_ = p_ > delta ? p_ - delta : 0;
  }
  (in_b1 ? b1_ : b2_).erase(it->second.ghost_pos);
  t2_.push_back(ClockEntry{key, false});
  it->second = Loc{kT2, std::prev(t2_.end()), {}};
  return true;
}

void CarPolicy::OnErase(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end() || (it->second.list != kT1 && it->second.list != kT2)) {
    return;
  }
  (it->second.list == kT1 ? t1_ : t2_).erase(it->second.clock_pos);
  index_.erase(it);
}

void CarPolicy::Clear() {
  t1_.clear();
  t2_.clear();
  b1_.clear();
  b2_.clear();
  index_.clear();
  p_ = 0;
}

CachePolicyStatus CarPolicy::StatusNow() const {
  CachePolicyStatus s;
  s.resident = resident();
  s.capacity = c_;
  s.t1 = t1_.size();
  s.t2 = t2_.size();
  s.b1 = b1_.size();
  s.b2 = b2_.size();
  s.p = p_;
  return s;
}

/// The paper's replace(): sweep the T1 or T2 clock (head = front) until a
/// 0-bit page surfaces, demoting it to the matching ghost list; 1-bit pages
/// are cleared and recirculated to T2's tail.
void CarPolicy::ReplaceClock(std::vector<std::string>* evicted) {
  for (;;) {
    if (t1_.size() >= std::max<size_t>(p_, 1)) {
      ClockEntry& head = t1_.front();
      if (!head.ref) {
        if (evicted != nullptr) evicted->push_back(head.key);
        auto it = index_.find(head.key);
        b1_.push_front(head.key);
        it->second = Loc{kB1, {}, b1_.begin()};
        t1_.pop_front();
        return;
      }
      head.ref = false;
      auto it = index_.find(head.key);
      t2_.splice(t2_.end(), t1_, t1_.begin());
      it->second = Loc{kT2, std::prev(t2_.end()), {}};
    } else {
      ClockEntry& head = t2_.front();
      if (!head.ref) {
        if (evicted != nullptr) evicted->push_back(head.key);
        auto it = index_.find(head.key);
        b2_.push_front(head.key);
        it->second = Loc{kB2, {}, b2_.begin()};
        t2_.pop_front();
        return;
      }
      head.ref = false;
      auto it = index_.find(head.key);
      t2_.splice(t2_.end(), t2_, t2_.begin());
      it->second = Loc{kT2, std::prev(t2_.end()), {}};
    }
  }
}

void CarPolicy::DropGhostLru(std::list<std::string>& ghosts) {
  if (ghosts.empty()) return;
  index_.erase(ghosts.back());
  ghosts.pop_back();
}

}  // namespace pqsda
