// T3 fixture: the scope covers the critical-path oracle, which
// narrows record counts and indices of a loaded trace, not just the
// primary trace readers.
// Expected: exactly 2 [T3] diagnostics (lines 12 and 15).

#include <cstdint>

unsigned
scoreRecord(std::uint64_t packed)
{
    // Record id narrowed straight off packed trace bytes: flagged.
    auto rec = static_cast<std::uint32_t>(packed);

    // Line address low half: flagged.
    auto line = static_cast<uint16_t>(packed >> 32);

    // Edge-class indexing casts to unsigned are same-or-widening on
    // this target and carry no untrusted bytes: NOT flagged.
    auto cls = static_cast<unsigned>(packed >> 48);

    return rec + line + cls;
}
