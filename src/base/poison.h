/**
 * @file
 * Poison-on-recycle runtime cross-check for pooled objects.
 *
 * The static analyzer (tlsa's P passes, tools/tlsa_life.py) proves
 * recycle discipline on the token stream; this header is the runtime
 * half of the bargain: canary patterns scribbled into dead storage,
 * and a lifecycle token that turns use-after-release and
 * double-release into immediate panics instead of silent stale-state
 * corruption.
 *
 * The Token itself is always compiled so its contract is testable in
 * the default build; the pooled-object hooks (EpochRun's scalar
 * poisoning, dead-way canaries in LineSet/L2Cache) are compiled only
 * under -DTLSIM_POISON=ON, keeping the release-build hot paths
 * untouched. Violations report via panic() (base/log.h), so gtest
 * EXPECT_DEATH sees them in every build flavor.
 */

#ifndef BASE_POISON_H
#define BASE_POISON_H

#include <cstdint>

#include "base/log.h"

namespace tlsim {
namespace poison {

/** Canary scribbled into dead 64-bit scalars at release time; any
 *  field the recycle path misses keeps this value, and the acquire
 *  cross-check trips on it. */
constexpr std::uint64_t kU64 = 0xDEADBEEFDEADBEEFull;

/** Same, for 32-bit-and-narrower scalars. */
constexpr std::uint32_t kU32 = 0xDEADBEEFu;

/** Canary line address for dead cache ways / set slots: a lookup
 *  that bypasses the generation check can only ever match this,
 *  never a stale real line. */
constexpr std::uint64_t kLine = 0xFEEEFEEEFEEEFEEEull;

/**
 * Lifecycle canary embedded in a pooled object.
 *
 * States: Fresh (never pooled), Live (checked out), Released (on the
 * free list). The pool's acquire/release paths drive the transitions;
 * hot-path accessors call assertLive(). Every illegal transition is a
 * panic naming the object, so the failure points at the recycle bug,
 * not at the eventual downstream corruption.
 */
class Token
{
  public:
    /** Pool release: Live (or Fresh) -> Released. Double release of
     *  the same object is the classic free-list corruption bug. */
    void
    markReleased(const char *what)
    {
        if (state_ == State::Released)
            panic("poison: double release of %s", what);
        state_ = State::Released;
    }

    /** Pool acquire: Released (or Fresh) -> Live. Acquiring an object
     *  some CPU still holds means the free list handed it out twice. */
    void
    markAcquired(const char *what)
    {
        if (state_ == State::Live)
            panic("poison: acquire of live %s (double checkout)", what);
        state_ = State::Live;
    }

    /** Hot-path guard: touching a pooled object after release. */
    void
    assertLive(const char *what) const
    {
        if (state_ == State::Released)
            panic("poison: use of released %s", what);
    }

    bool released() const { return state_ == State::Released; }
    bool live() const { return state_ == State::Live; }

  private:
    enum class State : std::uint32_t { Fresh, Live, Released };

    State state_ = State::Fresh;
};

} // namespace poison
} // namespace tlsim

#endif // BASE_POISON_H
