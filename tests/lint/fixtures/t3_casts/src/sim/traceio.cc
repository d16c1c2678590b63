// T3 fixture: raw narrowing static_casts in the trace decode path.
// A4 stays silent: no decoded varint flows anywhere here.
// Expected: exactly 2 [T3] diagnostics (lines 10 and 12).

#include <cstdint>

std::uint8_t
decodeByte(std::uint64_t raw)
{
    auto op = static_cast<std::uint8_t>(raw & 0xff);

    auto aux = static_cast<uint16_t>(raw >> 8);

    // Widening and same-width casts are NOT narrowing: NOT flagged.
    auto wide = static_cast<std::uint64_t>(op);
    // Brace-init rejects narrowing at the language level: NOT flagged.
    std::uint32_t lit{0x7f};

    (void)aux;
    (void)wide;
    (void)lit;
    return op;
}
