/**
 * @file
 * Shared, banked, unified L2 cache with speculative line versioning.
 *
 * Multiple speculative threads may modify the same cache line; the L2
 * keeps one version of the line per modifying thread, using the ways
 * of the associative set (Section 2.1). A line version is tagged with
 * the CPU slot whose speculative thread created it, or with
 * kCommittedVersion for architectural data. Lines that carry
 * speculative metadata (SL/SM bits, known to the TLS engine via
 * TlsHooks) may never be silently dropped — they spill to the
 * speculative victim cache, and when even that is full the access
 * reports an overflow for the TLS engine to resolve.
 */

#ifndef MEM_L2CACHE_H
#define MEM_L2CACHE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/config.h"
#include "base/types.h"
#include "mem/tlshooks.h"
#include "mem/victim.h"

namespace tlsim {

/** The versioned L2 cache (tags only; timing lives in MemSystem). */
class L2Cache
{
  public:
    L2Cache(const MemConfig &cfg, VictimCache &victim);

    /** The TLS engine is constructed later; wire it in then. */
    void setHooks(const TlsHooks *hooks) { hooks_ = hooks; }

    /** True if any version of the line is present. Touches LRU. */
    bool accessLine(Addr line_num);

    /** Presence tests without LRU side effects. */
    bool presentLine(Addr line_num) const;
    bool hasEntry(Addr line_num, std::uint8_t version) const;

    /**
     * Allocate (or touch) the (line, version) entry. Returns false on
     * overflow, leaving the full set's contents in overflowSet() —
     * reported out-of-band because the hot path calls this once per
     * store and a by-value result would drag a vector through every
     * call for the sake of the rare overflow.
     */
    bool insert(Addr line_num, std::uint8_t version);

    /**
     * After insert() returned false: every (line, version) entry of
     * the full set, so the TLS engine can choose a speculative thread
     * to stall or squash to make progress. Overwritten by the next
     * overflow.
     */
    const std::vector<std::pair<Addr, std::uint8_t>> &
    overflowSet() const
    {
        return overflowSet_;
    }

    /** Drop a specific version entry (squash path). */
    void remove(Addr line_num, std::uint8_t version);

    /**
     * Commit path: rename (line, version) to committed, merging over
     * any existing committed entry. False if the entry is not here
     * (it may be in the victim cache).
     */
    bool renameToCommitted(Addr line_num, std::uint8_t version);

    /** Bank index of a line (for contention modelling). */
    unsigned bankOf(Addr line_num) const
    {
        return static_cast<unsigned>(line_num) & (numBanks_ - 1);
    }

    /** Visit every valid (line, version) entry: `fn(line, version)`.
     *  Read-only sweep for the invariant auditor and tests. */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i)
            if (live(i))
                fn(tags_[i], versions_[i]);
    }

    /**
     * Drop every entry between independent experiment runs. O(1): the
     * generation stamp is bumped instead of clearing the (multi-MB)
     * way arrays; ways stamped by older generations read as invalid.
     */
    void reset();

    /**
     * Test seam: wipe the cache and jump the generation stamp so the
     * uint32 wraparound path in reset() is reachable without 2^32
     * real resets. Ways are wiped, so no stale stamp can collide with
     * the chosen generation (mirrors LineSet::debugSetGeneration).
     */
    void
    debugSetGeneration(std::uint32_t g)
    {
        wipeWays();
        overflowSet_.clear();
        useClock_ = 0;
        gen_ = g == 0 ? 1 : g;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t specEvictions() const { return specEvictions_; }
    std::uint64_t overflows() const { return overflows_; }

  private:
    static constexpr std::size_t kNotFound = ~std::size_t{0};

    /**
     * A way holds data iff it was written in the current generation;
     * remove() and merges kill a way by zeroing its stamp (gen_ is
     * never 0).
     */
    bool live(std::size_t way) const { return gens_[way] == gen_; }

    std::size_t setBase(Addr line_num) const
    {
        return (line_num & (numSets_ - 1)) * assoc_;
    }

    /** Way holding (line, version), or kNotFound. */
    std::size_t find(Addr line_num, std::uint8_t version) const;

    /** Fill `way` with (line, version) in the current generation. */
    void
    fill(std::size_t way, Addr line_num, std::uint8_t version)
    {
        tags_[way] = line_num;
        lru_[way] = ++useClock_;
        gens_[way] = gen_;
        versions_[way] = version;
    }

    /** Every way dead, stamps at 0 (constructor, wrap, test seam). */
    void wipeWays();

    const TlsHooks *hooks_ = nullptr;
    VictimCache &victim_;
    unsigned assoc_;
    unsigned numSets_;
    unsigned numBanks_;
    // Per way, numSets_ * assoc_ each, set-major. A lookup scans the
    // tags (one set is one host cache line) and reads the other
    // arrays only for a matching way.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lru_;          ///< last-use stamp
    std::vector<std::uint32_t> gens_;         ///< writing generation; 0 = dead
    std::vector<std::uint8_t> versions_;      ///< CPU slot or kCommittedVersion
    std::uint32_t gen_ = 1; ///< current generation (0 = never written)
    std::vector<std::pair<Addr, std::uint8_t>> overflowSet_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t specEvictions_ = 0;
    std::uint64_t overflows_ = 0;
};

} // namespace tlsim

#endif // MEM_L2CACHE_H
