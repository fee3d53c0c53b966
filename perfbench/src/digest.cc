#include "digest.h"

#include <cstdio>
#include <cstring>

namespace pqsda::perfbench {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Mix(uint64_t& h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

}  // namespace

uint64_t ListFingerprint(const std::vector<Suggestion>& list) {
  uint64_t h = kFnvOffset;
  for (const Suggestion& s : list) {
    Mix(h, s.query.data(), s.query.size());
    // A separator byte, so ("ab","c") and ("a","bc") differ.
    const unsigned char sep = 0;
    Mix(h, &sep, 1);
    uint64_t bits = 0;
    std::memcpy(&bits, &s.score, sizeof(bits));
    Mix(h, &bits, sizeof(bits));
  }
  return h;
}

uint64_t DigestOf(const std::vector<uint64_t>& fingerprints) {
  uint64_t h = kFnvOffset;
  for (uint64_t f : fingerprints) Mix(h, &f, sizeof(f));
  return h;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace pqsda::perfbench
