// Suppression fixture: a reasoned tlsa:allow silences the diagnostic
// and is counted as a suppression.
// Expected: 0 diagnostics, 1 reasoned suppression.

#include <cstdint>

std::uint8_t
decodeChecked(std::uint64_t raw)
{
    // tlsa:allow(T3): raw is masked to 8 bits on the previous line
    return static_cast<std::uint8_t>(raw & 0xff);
}
