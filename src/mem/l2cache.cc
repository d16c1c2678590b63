#include "mem/l2cache.h"

#include "base/addr.h"
#include "base/log.h"
#include "base/poison.h"

namespace tlsim {

L2Cache::L2Cache(const MemConfig &cfg, VictimCache &victim)
    : victim_(victim), assoc_(cfg.l2Assoc),
      numSets_(cfg.l2Bytes / (cfg.l2Assoc * cfg.lineBytes)),
      numBanks_(cfg.l2Banks)
{
    if (!isPowerOf2(numSets_))
        panic("L2 set count %u not a power of two", numSets_);
    wipeWays();
    overflowSet_.reserve(assoc_); // insert() refills it, one set at a time
}

void
L2Cache::wipeWays()
{
    std::size_t ways = static_cast<std::size_t>(numSets_) * assoc_;
    tags_.assign(ways, 0);
    lru_.assign(ways, 0);
    gens_.assign(ways, 0);
    versions_.assign(ways, kCommittedVersion);
}

std::size_t
L2Cache::find(Addr line_num, std::uint8_t version) const
{
    std::size_t base = setBase(line_num);
    for (std::size_t i = base; i < base + assoc_; ++i)
        if (tags_[i] == line_num && live(i) && versions_[i] == version)
            return i;
    return kNotFound;
}

bool
L2Cache::accessLine(Addr line_num)
{
    std::size_t base = setBase(line_num);
    bool found = false;
    for (std::size_t i = base; i < base + assoc_; ++i) {
        if (tags_[i] == line_num && live(i)) {
            lru_[i] = ++useClock_;
            found = true;
        }
    }
    if (found)
        ++hits_;
    else
        ++misses_;
    return found;
}

bool
L2Cache::presentLine(Addr line_num) const
{
    std::size_t base = setBase(line_num);
    for (std::size_t i = base; i < base + assoc_; ++i)
        if (tags_[i] == line_num && live(i))
            return true;
    return false;
}

bool
L2Cache::hasEntry(Addr line_num, std::uint8_t version) const
{
    return find(line_num, version) != kNotFound;
}

bool
L2Cache::insert(Addr line_num, std::uint8_t version)
{
    std::size_t base = setBase(line_num);
    std::size_t end = base + assoc_;

    // 1. One pass over the set: refresh an exact match, else note the
    //    first dead way (invalid, or stale generation).
    std::size_t invalid = kNotFound;
    for (std::size_t i = base; i < end; ++i) {
        if (!live(i)) {
            if (invalid == kNotFound)
                invalid = i;
            continue;
        }
        if (tags_[i] == line_num && versions_[i] == version) {
            lru_[i] = ++useClock_;
            return true;
        }
    }
    if (invalid != kNotFound) {
        fill(invalid, line_num, version);
        return true;
    }

    // 2. Silently drop the LRU committed line with no speculative
    //    metadata (write-through discipline above us; the L2 holds the
    //    only on-chip copy, but committed data can be refetched).
    //    Candidates are probed in LRU order so the common case pays
    //    one speculative-state lookup, not one per committed way; LRU
    //    stamps are unique (a monotone clock), so `floor` advances
    //    past exactly the ways already rejected. All ways are live
    //    here, else pass 1 would have claimed the dead one.
    std::uint64_t floor = 0;
    for (;;) {
        std::size_t cand = kNotFound;
        for (std::size_t i = base; i < end; ++i) {
            if (versions_[i] != kCommittedVersion || lru_[i] < floor)
                continue;
            if (cand == kNotFound || lru_[i] < lru_[cand])
                cand = i;
        }
        if (cand == kNotFound)
            break;
        if (!hooks_ || !hooks_->lineHasSpecState(tags_[cand])) {
            fill(cand, line_num, version);
            return true;
        }
        floor = lru_[cand] + 1;
    }

    // 3. Every way holds speculative state: spill the LRU way to the
    //    speculative victim cache.
    if (victim_.full())
        victim_.dropOneCommitted([this](Addr l) {
            return hooks_ && hooks_->lineHasSpecState(l);
        });
    if (!victim_.full()) {
        std::size_t spill = base;
        for (std::size_t i = base + 1; i < end; ++i)
            if (lru_[i] < lru_[spill])
                spill = i;
        victim_.insert(tags_[spill], versions_[spill]);
        ++specEvictions_;
        fill(spill, line_num, version);
        return true;
    }

    // 4. Overflow: not even the victim cache has room. Report the
    //    set's contents so the TLS engine can resolve it.
    ++overflows_;
    overflowSet_.clear();
    for (std::size_t i = base; i < end; ++i)
        overflowSet_.emplace_back(tags_[i], versions_[i]);
    return false;
}

void
L2Cache::remove(Addr line_num, std::uint8_t version)
{
    std::size_t way = find(line_num, version);
    if (way != kNotFound)
        gens_[way] = 0;
}

bool
L2Cache::renameToCommitted(Addr line_num, std::uint8_t version)
{
    std::size_t way = find(line_num, version);
    if (way == kNotFound)
        return false;
    std::size_t old = find(line_num, kCommittedVersion);
    if (old != kNotFound)
        gens_[old] = 0; // merge: the speculative version supersedes
    versions_[way] = kCommittedVersion;
    return true;
}

void
L2Cache::reset()
{
    // Generation bump invalidates every way without touching them.
    // Stale lru stamps never compete: dead ways are claimed before any
    // LRU comparison happens (insert pass 1). When the stamp wraps, a
    // pre-wrap way would read as live again — wipe the ways and
    // re-seed, like LineSet::clear().
    if (++gen_ == 0) {
        wipeWays();
        gen_ = 1;
    }
#if TLSIM_POISON
    // Every way is dead now (fresh generation); scribble the canary
    // line so a lookup that bypasses the generation check can only
    // ever match poison, never a stale real line.
    for (std::size_t i = 0; i < tags_.size(); ++i)
        if (!live(i))
            tags_[i] = static_cast<Addr>(poison::kLine);
#endif
    overflowSet_.clear(); // stale overflow victims must not leak into
                          // the next run's squash decisions
    useClock_ = 0;
    hits_ = 0;
    misses_ = 0;
    specEvictions_ = 0;
    overflows_ = 0;
}

} // namespace tlsim
