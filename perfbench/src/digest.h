#ifndef PQSDA_PERFBENCH_DIGEST_H_
#define PQSDA_PERFBENCH_DIGEST_H_

// Output identity: a fingerprint per served list, a digest over the lists
// of a run indexed by request, and the key that groups requests into
// distinct shapes.

#include <cstdint>
#include <string>
#include <vector>

#include "suggest/engine.h"

namespace pqsda::perfbench {

/// FNV-1a 64 over each suggestion's query bytes, a separator and its
/// score's bit pattern, in rank order: equal fingerprints mean
/// bitwise-equal lists (up to 64-bit collisions).
uint64_t ListFingerprint(const std::vector<Suggestion>& list);

/// Order-sensitive digest of per-request fingerprints (request 0 first).
uint64_t DigestOf(const std::vector<uint64_t>& fingerprints);

/// 16 lowercase hex digits.
std::string Hex(uint64_t value);

}  // namespace pqsda::perfbench

#endif  // PQSDA_PERFBENCH_DIGEST_H_
