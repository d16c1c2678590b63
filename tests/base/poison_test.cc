/**
 * @file
 * Poison token lifecycle tests (base/poison.h): the runtime half of
 * the object-lifetime discipline that tlsa's P passes prove
 * statically. The Token compiles in every build flavor, so these run
 * unconditionally; the pooled-object hooks it guards (EpochRun,
 * LineSet, L2Cache) are exercised by the whole suite under the
 * -DTLSIM_POISON=ON tree (tools/run_sanitizers.sh poison).
 */

#include <gtest/gtest.h>

#include "base/poison.h"

namespace tlsim {
namespace {

TEST(PoisonToken, FreshTokenIsNeitherLiveNorReleased)
{
    poison::Token t;
    EXPECT_FALSE(t.live());
    EXPECT_FALSE(t.released());
    t.assertLive("widget"); // Fresh objects may be used before pooling
}

TEST(PoisonToken, AcquireReleaseRoundTrip)
{
    poison::Token t;
    t.markAcquired("widget");
    EXPECT_TRUE(t.live());
    t.assertLive("widget");
    t.markReleased("widget");
    EXPECT_TRUE(t.released());
    t.markAcquired("widget"); // pool hands it out again
    EXPECT_TRUE(t.live());
}

TEST(PoisonToken, FreshObjectMayBeReleasedDirectly)
{
    // First trip into the pool: the object was default-constructed by
    // the allocator path, never acquired from the free list.
    poison::Token t;
    t.markReleased("widget");
    EXPECT_TRUE(t.released());
}

TEST(PoisonTokenDeathTest, DoubleReleasePanics)
{
    poison::Token t;
    t.markAcquired("widget");
    t.markReleased("widget");
    EXPECT_DEATH(t.markReleased("widget"), "double release of widget");
}

TEST(PoisonTokenDeathTest, DoubleCheckoutPanics)
{
    poison::Token t;
    t.markAcquired("widget");
    EXPECT_DEATH(t.markAcquired("widget"), "double checkout");
}

TEST(PoisonTokenDeathTest, UseAfterReleasePanics)
{
    poison::Token t;
    t.markAcquired("widget");
    t.markReleased("widget");
    EXPECT_DEATH(t.assertLive("widget"), "use of released widget");
}

TEST(PoisonCanaries, PatternsAreDistinctAndNonZero)
{
    // The canaries must never collide with each other or with the
    // all-zero reset baseline assertRecycled() checks against.
    EXPECT_NE(poison::kU64, 0u);
    EXPECT_NE(poison::kU32, 0u);
    EXPECT_NE(poison::kLine, 0u);
    EXPECT_NE(poison::kU64, poison::kLine);
    EXPECT_EQ(poison::kU32, static_cast<std::uint32_t>(poison::kU64));
}

} // namespace
} // namespace tlsim
