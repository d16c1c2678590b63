#include "mem/l1cache.h"

#include <algorithm>

#include "base/log.h"

namespace tlsim {

L1Cache::L1Cache(unsigned bytes, unsigned assoc, unsigned line_bytes)
    : assoc_(assoc), numSets_(bytes / (assoc * line_bytes))
{
    if (!isPowerOf2(numSets_))
        panic("L1 set count %u not a power of two", numSets_);
    std::size_t slots = static_cast<std::size_t>(numSets_) * assoc_;
    tags_.assign(slots, kNoLine);
    lru_.assign(slots, 0);
    flags_.assign(slots, 0);
    flagged_.reserve(64);
}

unsigned
L1Cache::squashSpecWrites()
{
    // Flags stay set until the epoch boundary, so the list is kept.
    unsigned n = 0;
    for (std::uint32_t idx : flagged_) {
        if (tags_[idx] != kNoLine && (flags_[idx] & kSpecWritten)) {
            tags_[idx] = kNoLine;
            ++n;
        }
    }
    return n;
}

void
L1Cache::epochBoundary()
{
    for (std::uint32_t idx : flagged_) {
        if (flags_[idx] & kStale)
            tags_[idx] = kNoLine; // deferred invalidation takes the line out
        flags_[idx] = 0;
    }
    flagged_.clear();
}

void
L1Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kNoLine);
    std::fill(lru_.begin(), lru_.end(), 0);
    std::fill(flags_.begin(), flags_.end(), 0);
    flagged_.clear();
    useClock_ = 0;
    hits_ = 0;
    misses_ = 0;
}

} // namespace tlsim
