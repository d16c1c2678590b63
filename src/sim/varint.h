/**
 * @file
 * Zigzag-varint codec for the v4 columnar trace format.
 *
 * The address column of an epoch is delta-coded and varint-packed
 * (sim/traceio.cc); replaying a cached trace decodes hundreds of
 * millions of these, so the decoder matters. Two decoders live here:
 *
 *  - decodeOne: the byte-at-a-time reference decoder, used by the
 *    differential tests and by decodeBlock for long varints.
 *  - decodeBlock: the batch decoder. For each value it loads eight
 *    bytes at once and extracts the continuation mask branchlessly
 *    (ctz on the inverted MSB lattice gives the varint length; a SWAR
 *    shift cascade compacts the 7-bit payload groups). Varints longer
 *    than eight bytes — addresses with 57+ significant delta bits,
 *    essentially absent from real traces — fall back to decodeOne,
 *    which also supplies the malformed-input rejection for them.
 *
 * Both decoders reject the same malformed inputs: a 10th byte whose
 * payload spills past bit 63 (Overflow) and a continuation chain that
 * never terminates within 10 bytes (TooLong). Truncation surfaces as
 * NeedMore so the stream layer can refill or diagnose.
 */

#ifndef SIM_VARINT_H
#define SIM_VARINT_H

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "base/hotpath.h"

namespace tlsim {
namespace sim {
namespace varint {

/** Longest legal encoding of a 64-bit value: ceil(64 / 7) bytes. */
inline constexpr std::size_t kMaxBytes = 10;

/** Batch granularity of decodeBlock callers (one SoA scratch block). */
inline constexpr std::size_t kBlock = 64;

inline std::uint64_t
zigzag(std::int64_t v)
{
    // All arithmetic in uint64: the left shift of a negative value
    // and the arithmetic right shift it used to pair with are exactly
    // the kind of silent-overflow idiom UBSan flags.
    std::uint64_t u = static_cast<std::uint64_t>(v);
    return (u << 1) ^ (v < 0 ? ~std::uint64_t{0} : std::uint64_t{0});
}

inline std::int64_t
unzigzag(std::uint64_t z)
{
    // (z & 1) selects an all-ones or all-zeros XOR mask; computed as
    // an explicit unsigned subtraction (wrap intended), not a signed
    // negate of an unsigned expression.
    std::uint64_t mask = std::uint64_t{0} - (z & 1);
    return static_cast<std::int64_t>((z >> 1) ^ mask);
}

/** Encode `v` into `buf` (at least kMaxBytes); returns bytes written. */
inline std::size_t
encode(std::uint8_t *buf, std::uint64_t v)
{
    std::size_t n = 0;
    while (v >= 0x80) {
        buf[n++] = static_cast<std::uint8_t>(v | 0x80);
        v >>= 7;
    }
    buf[n++] = static_cast<std::uint8_t>(v);
    return n;
}

enum class Status {
    Ok,       ///< requested values decoded
    NeedMore, ///< buffer ended inside a varint (refill or truncated)
    Overflow, ///< 10th byte carries payload past bit 63
    TooLong,  ///< no terminator within kMaxBytes
};

/**
 * Reference decoder: one value from [p, p+avail). On Ok, `*out` holds
 * the value and `*used` the bytes consumed; `*used` is untouched
 * otherwise.
 */
inline Status
decodeOne(const std::uint8_t *p, std::size_t avail, std::uint64_t *out,
          std::size_t *used)
{
    std::uint64_t v = 0;
    std::size_t i = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (i >= avail)
            return Status::NeedMore;
        std::uint8_t b = p[i++];
        std::uint64_t bits = std::uint64_t{b} & 0x7f;
        if (shift == 63 && (bits >> 1) != 0)
            return Status::Overflow;
        v |= bits << shift;
        if (!(b & 0x80)) {
            *out = v;
            *used = i;
            return Status::Ok;
        }
    }
    return Status::TooLong;
}

/**
 * Batch decoder: up to `count` values from [p, p+avail) into `out`.
 * Always reports progress through `*decoded` (values written) and
 * `*consumed` (bytes used for them), even on a non-Ok status, so the
 * caller can scatter partial results, refill the buffer at the
 * consumed offset, and continue. Never reads past p + avail.
 */
TLSIM_HOT inline Status
decodeBlock(const std::uint8_t *p, std::size_t avail, std::size_t count,
            std::uint64_t *out, std::size_t *decoded,
            std::size_t *consumed)
{
    constexpr std::uint64_t kCont = 0x8080808080808080ull;
    constexpr std::uint64_t kPayload = 0x7f7f7f7f7f7f7f7full;
    std::size_t pos = 0, k = 0;
    while (k < count) {
        std::uint64_t word;
        std::uint64_t stop;
        if (avail - pos >= 8 &&
            (std::memcpy(&word, p + pos, 8),
             (stop = ~word & kCont) != 0)) {
            // Terminator inside the 8-byte window: its position gives
            // the length, everything below it is payload. No overflow
            // check needed — 8 bytes carry at most 56 payload bits.
            std::uint64_t low = stop & (std::uint64_t{0} - stop);
            unsigned nbytes =
                (static_cast<unsigned>(__builtin_ctzll(stop)) >> 3) + 1;
            std::uint64_t data = word & (low - 1) & kPayload;
            std::uint64_t v = data & 0x7f;
            v |= (data >> 1) & (std::uint64_t{0x7f} << 7);
            v |= (data >> 2) & (std::uint64_t{0x7f} << 14);
            v |= (data >> 3) & (std::uint64_t{0x7f} << 21);
            v |= (data >> 4) & (std::uint64_t{0x7f} << 28);
            v |= (data >> 5) & (std::uint64_t{0x7f} << 35);
            v |= (data >> 6) & (std::uint64_t{0x7f} << 42);
            v |= (data >> 7) & (std::uint64_t{0x7f} << 49);
            out[k++] = v;
            pos += nbytes;
            continue;
        }
        // Buffer tail or a 9/10-byte varint: the reference decoder
        // finishes the value and owns the malformed-input rejection.
        std::uint64_t v = 0;
        std::size_t used = 0;
        Status st = decodeOne(p + pos, avail - pos, &v, &used);
        if (st != Status::Ok) {
            *decoded = k;
            *consumed = pos;
            return st;
        }
        out[k++] = v;
        pos += used;
    }
    *decoded = k;
    *consumed = pos;
    return Status::Ok;
}

} // namespace varint
} // namespace sim
} // namespace tlsim

#endif // SIM_VARINT_H
