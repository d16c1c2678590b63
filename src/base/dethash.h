/**
 * @file
 * Canonical result hashing for the determinism probe (--det-probe).
 *
 * The repo's load-bearing guarantee is byte-identical output under
 * --jobs=N and SIMD dispatch. The probe turns that from
 * "observed on a few golden benches" into a per-stage digest: each
 * bench hashes its canonical result stream after every stage
 * (capture, replay, aggregate, serialize) and emits the digests in
 * the `determinism` bench-JSON block, which the `det` ctest label
 * compares across --jobs=1/N and --force-scalar runs.
 *
 * Encodings are fixed, not host-dependent: integers hash as 8
 * little-endian bytes, doubles as their IEEE-754 bit pattern with
 * -0.0 canonicalized to +0.0 and every NaN to one quiet NaN, so a
 * digest never depends on struct padding, endianness of in-memory
 * iteration, or printf formatting.
 */

#ifndef BASE_DETHASH_H
#define BASE_DETHASH_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace tlsim {
namespace det {

/** FNV-1a 64-bit over canonically encoded values. */
class Hash
{
  public:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= kPrime;
        }
    }

    void
    u64(std::uint64_t v)
    {
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(b, 8);
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void
    f64(double v)
    {
        if (v == 0.0)
            v = 0.0; // -0.0 == 0.0: canonicalize the sign away
        if (v != v)
            v = __builtin_nan(""); // one canonical quiet NaN
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof v, "IEEE-754 double");
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size()); // length prefix: "ab","c" != "a","bc"
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

    /** 16 lowercase hex digits, the JSON/stdout spelling. */
    std::string
    hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        for (int i = 0; i < 16; ++i)
            out[i] = digits[(h_ >> (60 - 4 * i)) & 0xF];
        return out;
    }

  private:
    std::uint64_t h_ = kOffset;
};

/**
 * Order-insensitive digest combiner for shard merges: commutative and
 * associative over a multiset of element digests, so any merge order
 * (work-stealing completion order, shard arrival order) yields the
 * same value. Each element is finalized through a splitmix64-style
 * mixer before the modular add, so the combine is not vulnerable to
 * the trivial x ^ x = 0 cancellation a plain XOR fold would have.
 *
 * Declared in tools/detmergers.txt; tests/det/merge_perm_test.cc
 * holds its generated permutation property test.
 */
inline std::uint64_t
mixForUnordered(std::uint64_t h)
{
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

inline std::uint64_t
combineUnordered(std::uint64_t acc, std::uint64_t element)
{
    return acc + mixForUnordered(element); // modular add: assoc + comm
}

/**
 * Per-stage digest collector behind --det-probe.
 *
 * Stages are recorded in call order with their names, each digest
 * chained over the canonical (index-ordered) result stream the bench
 * just produced. jobsInvariant() additionally self-checks the
 * order-insensitivity claim of combineUnordered on the real per-item
 * digests of every stage recorded through stageItems(): the forward
 * and reverse folds must agree, or the flag (and with it the
 * `determinism` block check and the `det` ctest gate) goes false.
 */
class Probe
{
  public:
    explicit Probe(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record one stage's digest (chains if the stage repeats). */
    void
    stage(const std::string &name, std::uint64_t digest)
    {
        if (!enabled_)
            return;
        for (auto &[n, h] : stages_) {
            if (n == name) {
                Hash chain;
                chain.u64(h);
                chain.u64(digest);
                h = chain.value();
                return;
            }
        }
        stages_.emplace_back(name, digest);
    }

    /**
     * Record a stage from per-item digests in canonical index order:
     * the stage digest is the order-sensitive chain (so a permuted
     * result stream is caught), while the commutative fold is checked
     * forward vs. reverse to keep combineUnordered honest.
     */
    void
    stageItems(const std::string &name,
               const std::vector<std::uint64_t> &items)
    {
        if (!enabled_)
            return;
        Hash chain;
        chain.u64(items.size());
        for (std::uint64_t h : items)
            chain.u64(h);
        stage(name, chain.value());

        std::uint64_t fwd = 0, rev = 0;
        for (std::size_t i = 0; i < items.size(); ++i) {
            fwd = combineUnordered(fwd, items[i]);
            rev = combineUnordered(rev, items[items.size() - 1 - i]);
        }
        if (fwd != rev)
            invariantOk_ = false;
    }

    bool jobsInvariant() const { return invariantOk_; }

    const std::vector<std::pair<std::string, std::uint64_t>> &
    stages() const
    {
        return stages_;
    }

  private:
    bool enabled_;
    bool invariantOk_ = true;
    std::vector<std::pair<std::string, std::uint64_t>> stages_;
};

} // namespace det
} // namespace tlsim

#endif // BASE_DETHASH_H
