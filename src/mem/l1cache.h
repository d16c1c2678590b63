/**
 * @file
 * Private per-CPU first-level cache model (data or instruction).
 *
 * The L1 is write-through (stores propagate immediately to the shared
 * L2, which is what lets later epochs consume earlier epochs' values
 * aggressively) and is unaware of sub-threads: a dependence violation
 * simply invalidates every line the current epoch speculatively
 * modified. Tag/state only — the simulation is timing-directed, data
 * values never move.
 *
 * Performance notes (this sits on the per-record replay path):
 *  - lookups are defined inline so memsys.cc sees them;
 *  - the slot arrays are split: a lookup scans only the tag array (one
 *    set of 8-byte tags is one host cache line), and an invalid slot's
 *    tag is kNoLine, so the scan needs no separate valid test;
 *  - line flags live in one byte per slot so flag clears are single
 *    ANDs;
 *  - every slot that gains a flag is appended to `flagged_`, making the
 *    per-epoch sweeps (epochBoundary / squashSpecWrites) O(flagged)
 *    instead of O(cache size). A slot may appear twice if its line is
 *    evicted and the replacement is flagged again; both sweeps are
 *    idempotent per slot, so duplicates are harmless. Flags left on an
 *    invalidated slot are unobservable — find() requires a matching tag
 *    and insert() rewrites the slot's flag byte — so the sweeps may
 *    clear them eagerly.
 */

#ifndef MEM_L1CACHE_H
#define MEM_L1CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/addr.h"
#include "base/types.h"

namespace tlsim {

/** A private, set-associative, write-through L1 cache (tags only). */
class L1Cache
{
  public:
    L1Cache(unsigned bytes, unsigned assoc, unsigned line_bytes);

    /** Look up a line; updates LRU on hit. Line number, not address. */
    bool
    access(Addr line_num)
    {
        // One-slot lookup cache: consecutive accesses overwhelmingly
        // repeat the previous line (instruction fetch especially). The
        // cached slot is revalidated exactly like a probe, so eviction
        // or invalidation simply falls through to the full lookup.
        std::size_t idx = lastIdx_;
        if (tags_[idx] != line_num) {
            idx = find(line_num);
            if (idx == kNotFound) {
                ++misses_;
                return false;
            }
            lastIdx_ = static_cast<std::uint32_t>(idx);
        }
        lru_[idx] = ++useClock_;
        ++hits_;
        return true;
    }

    /** Presence test without LRU side effects. */
    bool present(Addr line_num) const { return find(line_num) != kNotFound; }

    /** Fill a line (evicting the set's LRU victim silently). */
    void
    insert(Addr line_num)
    {
        if (find(line_num) != kNotFound)
            return;
        std::size_t set = setBase(line_num);
        std::size_t victim = set;
        for (std::size_t i = set; i < set + assoc_; ++i) {
            if (tags_[i] == kNoLine) {
                victim = i;
                break;
            }
            if (lru_[i] < lru_[victim])
                victim = i;
        }
        // Write-through L1: evicted lines are always clean; silent drop.
        tags_[victim] = line_num;
        lru_[victim] = ++useClock_;
        flags_[victim] = 0;
    }

    /** Drop a line if present. */
    void
    invalidate(Addr line_num)
    {
        std::size_t idx = find(line_num);
        if (idx != kNotFound)
            tags_[idx] = kNoLine;
    }

    /** Flag a present line as speculatively read by the current epoch. */
    void markSpecRead(Addr line_num) { mark(line_num, kSpecRead); }
    /** Flag a present line as speculatively written by the current epoch. */
    void markSpecWritten(Addr line_num) { mark(line_num, kSpecWritten); }
    /**
     * Flag a present line as stale for the *next* epoch: an older-epoch
     * CPU may keep using its copy, but the copy must be dropped when a
     * younger epoch starts on this CPU.
     */
    void markStale(Addr line_num) { mark(line_num, kStale); }

    /**
     * Dependence violation on this CPU: invalidate every line the
     * current epoch speculatively modified (the L1 is sub-thread
     * unaware, so partial rewinds pay this full cost). Returns the
     * number of lines invalidated.
     */
    unsigned squashSpecWrites();

    /**
     * Epoch boundary on this CPU: clear speculative flags and apply
     * deferred stale invalidations.
     */
    void epochBoundary();

    /** Drop every line (used between independent experiment runs). */
    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    static constexpr std::uint8_t kSpecRead = 1u << 0;
    static constexpr std::uint8_t kSpecWritten = 1u << 1;
    static constexpr std::uint8_t kStale = 1u << 2;
    /** Tag of an invalid slot; no line number reaches it (addresses
     *  are shifted right by the line size). */
    static constexpr Addr kNoLine = ~Addr{0};
    static constexpr std::size_t kNotFound = ~std::size_t{0};

    std::size_t setBase(Addr line_num) const
    {
        return (line_num & (numSets_ - 1)) * assoc_;
    }

    /** Slot holding `line_num`, or kNotFound. */
    std::size_t
    find(Addr line_num) const
    {
        std::size_t set = setBase(line_num);
        for (std::size_t i = set; i < set + assoc_; ++i)
            if (tags_[i] == line_num)
                return i;
        return kNotFound;
    }

    void
    mark(Addr line_num, std::uint8_t flag)
    {
        // The marks follow an access() of the same line almost always,
        // so the one-slot lookup cache resolves them without a set scan.
        std::size_t idx = lastIdx_;
        if (tags_[idx] != line_num && (idx = find(line_num)) == kNotFound)
            return;
        if (!flags_[idx])
            flagged_.push_back(static_cast<std::uint32_t>(idx));
        flags_[idx] |= flag;
    }

    unsigned assoc_;
    unsigned numSets_;
    // Per slot, numSets_ * assoc_ each, set-major.
    std::vector<Addr> tags_;           ///< line number, kNoLine if invalid
    std::vector<std::uint64_t> lru_;   ///< last-use stamp
    std::vector<std::uint8_t> flags_;  ///< kSpecRead | kSpecWritten | kStale
    std::vector<std::uint32_t> flagged_; ///< slots that may carry flags
    std::uint32_t lastIdx_ = 0; ///< slot of the last access() hit
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace tlsim

#endif // MEM_L1CACHE_H
