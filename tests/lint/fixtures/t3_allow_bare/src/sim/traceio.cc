// Suppression fixture: a bare tlsa:allow (no reason string) is
// itself a hard error and suppresses nothing, whichever pass it
// names.
// Expected: exactly 2 diagnostics on line 12 — one [allow-syntax] for
// the bare allow, and the [T3] it failed to suppress.

#include <cstdint>

std::uint8_t
decodeUnexplained(std::uint64_t raw)
{
    return static_cast<std::uint8_t>(raw & 0xff); // tlsa:allow(T3)
}
