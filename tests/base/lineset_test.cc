/**
 * @file
 * LineSet generation-stamp tests, centered on the uint32 wraparound
 * path in clear(): a set cleared 2^32 times must not resurrect stale
 * entries whose slot stamps alias the restarted generation counter.
 * The debugSetGeneration() seam makes the wrap reachable without four
 * billion real clears.
 */

#include <vector>

#include <gtest/gtest.h>

#include "base/dethash.h"
#include "base/lineset.h"

namespace tlsim {
namespace {

/** Canonical digest of the set's iterated contents. */
std::uint64_t
digestOf(const LineSet &s)
{
    det::Hash h;
    h.u64(s.size());
    for (Addr line : s)
        h.u64(line);
    return h.value();
}

TEST(LineSetGeneration, ClearWrapsWithoutResurrectingStaleEntries)
{
    LineSet s;
    s.debugSetGeneration(~std::uint32_t{0}); // next clear() wraps
    for (Addr a = 100; a < 140; ++a)
        EXPECT_TRUE(s.insert(a));
    EXPECT_EQ(s.size(), 40u);

    s.clear(); // ++gen_ overflows to 0: the wrap path must run
    EXPECT_TRUE(s.empty());
    for (Addr a = 100; a < 140; ++a) {
        EXPECT_FALSE(s.contains(a)) << "stale line " << a
                                    << " resurfaced after the wrap";
        EXPECT_EQ(s.count(a), 0u);
    }

    // The restarted generation must behave like a fresh set.
    EXPECT_TRUE(s.insert(105));
    EXPECT_FALSE(s.insert(105));
    EXPECT_TRUE(s.contains(105));
    EXPECT_EQ(s.size(), 1u);
}

TEST(LineSetGeneration, WrapSurvivesRepeatedClears)
{
    LineSet s;
    s.debugSetGeneration(~std::uint32_t{0} - 3);
    // Straddle the wrap with several insert/clear rounds; each round
    // must see an empty set and clean inserts.
    for (int round = 0; round < 8; ++round) {
        EXPECT_TRUE(s.empty()) << "round " << round;
        for (Addr a = 0; a < 20; ++a)
            EXPECT_TRUE(s.insert(a * 7 + round)) << "round " << round;
        EXPECT_EQ(s.size(), 20u);
        s.clear();
    }
}

TEST(LineSetGeneration, DigestInvariantAcrossWrap)
{
    // The canonical digest of identical insertion sequences must not
    // depend on which side of the generation wrap the set is on —
    // iteration order is insertion order, never table order.
    std::vector<Addr> lines;
    for (Addr a = 0; a < 100; ++a)
        lines.push_back(a * 131 + 7);

    LineSet fresh;
    for (Addr a : lines)
        fresh.insert(a);
    const std::uint64_t expected = digestOf(fresh);

    LineSet wrapped;
    wrapped.debugSetGeneration(~std::uint32_t{0});
    wrapped.insert(42); // dirty the pre-wrap generation
    wrapped.clear();    // wrap
    for (Addr a : lines)
        wrapped.insert(a);
    EXPECT_EQ(expected, digestOf(wrapped));

    // Erase reorders only the tail it touches; digest must still be a
    // pure function of the live contents' order on both sides.
    fresh.erase(lines[10]);
    wrapped.erase(lines[10]);
    EXPECT_EQ(digestOf(fresh), digestOf(wrapped));
}

TEST(LineSetGeneration, GrowAcrossWrappedGenerationRehashes)
{
    LineSet s;
    s.debugSetGeneration(~std::uint32_t{0});
    s.clear(); // wrap first, then force growth past kMinCapacity
    for (Addr a = 0; a < 500; ++a)
        EXPECT_TRUE(s.insert(a));
    EXPECT_EQ(s.size(), 500u);
    for (Addr a = 0; a < 500; ++a)
        EXPECT_TRUE(s.contains(a));
    EXPECT_FALSE(s.contains(500));
}

TEST(LineSetIndex, PositionsFollowInsertionOrderAcrossGrowth)
{
    LineSet s;
    bool fresh = false;
    // Enough lines to force several rehashes of the probe table.
    for (Addr i = 0; i < 1000; ++i) {
        EXPECT_EQ(s.index(7919 * i, &fresh), i);
        EXPECT_TRUE(fresh);
    }
    for (Addr i = 0; i < 1000; ++i) {
        EXPECT_EQ(s.index(7919 * i, &fresh), i);
        EXPECT_FALSE(fresh);
        EXPECT_EQ(s.index(7919 * i), i);
    }
    EXPECT_EQ(s.index(1), LineSet::kAbsent);
    s.clear();
    EXPECT_EQ(s.index(0), LineSet::kAbsent);
    EXPECT_EQ(s.index(7919 * 5, &fresh), 0u);
    EXPECT_TRUE(fresh);
}

} // namespace
} // namespace tlsim
