/**
 * @file
 * A flat hash set of cache-line numbers with O(1) clear, for the
 * per-thread speculative-version line lists the memory system updates
 * on every speculative store. std::unordered_set allocates a node per
 * element, which puts a malloc/free pair on the replay hot loop (and a
 * pointer chase per probe); this set is two flat arrays that are
 * reused across epochs.
 *
 * Layout: an open-addressed probe table (linear probing, power-of-two
 * capacity, tombstone deletion) mapping each line to its index in a
 * dense insertion-order array, which gives O(live) iteration and
 * cheap swap-remove erasure. clear() bumps a generation stamp instead
 * of touching the table, so the commit/squash "drain and clear"
 * pattern costs only the elements actually drained.
 */

#ifndef BASE_LINESET_H
#define BASE_LINESET_H

#include <cstdint>
#include <vector>

#include "base/poison.h"
#include "base/types.h"

namespace tlsim {

/** Insertion-ordered flat set of line numbers. */
class LineSet
{
  public:
    LineSet() : slots_(kMinCapacity), mask_(kMinCapacity - 1)
    {
        list_.reserve(kMinCapacity); // arena: grows to peak, then flat
    }

    /** Add `line`; returns true if it was not already present. */
    bool
    insert(Addr line)
    {
        if ((occupied_ + 1) * 4 > slots_.size() * 3)
            grow();
        std::size_t idx = hashLine(line) & mask_;
        std::size_t insert_at = kNotFound;
        while (slots_[idx].gen == gen_) {
            const Slot &s = slots_[idx];
            if (s.idx != kTombstone) {
                if (s.line == line)
                    return false;
            } else if (insert_at == kNotFound) {
                insert_at = idx;
            }
            idx = (idx + 1) & mask_;
        }
        if (insert_at == kNotFound) {
            insert_at = idx;
            ++occupied_; // claiming a virgin slot
        }
        slots_[insert_at] =
            Slot{line, gen_, static_cast<std::uint32_t>(list_.size())};
        list_.push_back(line);
        return true;
    }

    /** Remove `line`; returns true if it was present. */
    bool
    erase(Addr line)
    {
        std::size_t idx = findSlot(line);
        if (idx == kNotFound)
            return false;
        std::uint32_t li = slots_[idx].idx;
        slots_[idx].idx = kTombstone;
        if (li + 1 != list_.size()) {
            Addr moved = list_.back();
            list_[li] = moved;
            slots_[findSlot(moved)].idx = li;
        }
        list_.pop_back();
        return true;
    }

    bool contains(Addr line) const { return findSlot(line) != kNotFound; }

    /** index() of a line that is not in the set. */
    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

    /**
     * Position of `line` in the insertion order, adding it first if
     * absent (`*fresh` says which). While nothing is erased the
     * positions are stable, so a caller can keep per-line values in a
     * parallel array.
     */
    std::uint32_t
    index(Addr line, bool *fresh)
    {
        std::uint32_t at = index(line);
        *fresh = at == kAbsent;
        if (*fresh) {
            at = static_cast<std::uint32_t>(list_.size());
            insert(line);
        }
        return at;
    }

    /** Position of `line` in the insertion order, or kAbsent. */
    std::uint32_t
    index(Addr line) const
    {
        std::size_t idx = findSlot(line);
        return idx == kNotFound ? kAbsent : slots_[idx].idx;
    }

    /** unordered_set-compatible membership count (0 or 1). */
    std::size_t count(Addr line) const { return contains(line) ? 1 : 0; }

    bool empty() const { return list_.empty(); }
    std::size_t size() const { return list_.size(); }

    /** Iterate in insertion order (erase may reorder the tail). */
    const Addr *begin() const { return list_.data(); }
    const Addr *end() const { return list_.data() + list_.size(); }

    /** Drop every element, keeping the capacity as an arena. */
    void
    clear()
    {
        list_.clear();
        occupied_ = 0;
        if (++gen_ == 0) {
            // Generation wrap: stale stamps could read as live.
            slots_.assign(slots_.size(), Slot{});
            gen_ = 1;
        }
#if TLSIM_POISON
        // Every slot is dead now; scribble the canary line so a probe
        // that bypasses the generation stamp can only ever match
        // poison, never a stale real line.
        for (Slot &s : slots_)
            s.line = static_cast<Addr>(poison::kLine);
#endif
    }

    /**
     * Test seam: empty the set and jump the generation stamp so the
     * uint32 wraparound path in clear() is reachable without 2^32
     * real clears. Slots are wiped, so no stale stamp can collide
     * with the chosen generation.
     */
    void
    debugSetGeneration(std::uint32_t g)
    {
        list_.clear();
        occupied_ = 0;
        slots_.assign(slots_.size(), Slot{});
        gen_ = g == 0 ? 1 : g;
    }

  private:
    struct Slot
    {
        Addr line = 0;
        std::uint32_t gen = 0; ///< live iff equal to the current gen_
        std::uint32_t idx = 0; ///< dense-array index, or kTombstone
    };

    static constexpr std::size_t kMinCapacity = 64;
    static constexpr std::size_t kNotFound = ~std::size_t{0};
    static constexpr std::uint32_t kTombstone = ~std::uint32_t{0};

    static std::size_t
    hashLine(Addr line)
    {
        // splitmix64 finalizer: line numbers are near-sequential.
        std::uint64_t x = line + 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }

    std::size_t
    findSlot(Addr line) const
    {
        std::size_t idx = hashLine(line) & mask_;
        while (slots_[idx].gen == gen_) {
            const Slot &s = slots_[idx];
            if (s.idx != kTombstone && s.line == line)
                return idx;
            idx = (idx + 1) & mask_;
        }
        return kNotFound;
    }

    void
    grow()
    {
        // Double only if genuinely full; a tombstone-heavy table just
        // gets rehashed in place to flush the graves.
        std::size_t new_cap = list_.size() * 4 > slots_.size()
                                  ? slots_.size() * 2
                                  : slots_.size();
        slots_.assign(new_cap, Slot{});
        mask_ = new_cap - 1;
        gen_ = 1;
        occupied_ = list_.size();
        for (std::uint32_t li = 0; li < list_.size(); ++li) {
            std::size_t idx = hashLine(list_[li]) & mask_;
            while (slots_[idx].gen == gen_)
                idx = (idx + 1) & mask_;
            slots_[idx] = Slot{list_[li], gen_, li};
        }
    }

    std::vector<Slot> slots_;
    std::vector<Addr> list_; ///< live elements, dense
    std::size_t occupied_ = 0; ///< live + tombstone slots
    std::size_t mask_;
    std::uint32_t gen_ = 1; ///< 0 in a slot = never written
};

} // namespace tlsim

#endif // BASE_LINESET_H
