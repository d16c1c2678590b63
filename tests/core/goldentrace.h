/**
 * @file
 * A replay-valid workload built by hand from fixed integers.
 *
 * Captured traces carry host heap addresses, so their replay results
 * move with ASLR and argv length. This workload does not: every
 * address, PC and count comes from base/rng.h, so every process and
 * build replays exactly the same records. It is shared by the golden
 * replay pins (tests/core/replaygolden_test.cc) and the address-free
 * replay micro-benchmark (BM_ReplaySynthetic in
 * bench/bench_micro_components.cpp).
 *
 * Shape: three transactions, each a sequential prologue, one parallel
 * section of eight epochs and a sequential epilogue. A parallel epoch
 * mixes
 *  - loads and stores to its own region (some loads re-read a word the
 *    epoch stored first: covered loads),
 *  - loads of a read-only table every epoch shares,
 *  - loads and stores of a small hot region every epoch shares
 *    (conflict lines),
 *  - accesses to a region more than 4 GiB above the others, so one
 *    epoch spans addresses that no 32-bit offset covers,
 *  - compute records of several classes and taken / not-taken
 *    branches,
 *  - escaped regions that acquire and release a latch and store to
 *    the hot region.
 */

#ifndef TESTS_CORE_GOLDENTRACE_H
#define TESTS_CORE_GOLDENTRACE_H

#include <cstdint>
#include <utility>

#include "base/rng.h"
#include "core/trace.h"

namespace tlsim {
namespace golden {

inline constexpr std::uint64_t kPrivateBase = 0x10000000ull;
inline constexpr std::uint64_t kTableBase = 0x30000000ull;
inline constexpr std::uint64_t kHotBase = 0x40000000ull;
inline constexpr std::uint64_t kFarBase = 0x7f3a00000000ull;
inline constexpr std::uint64_t kLatchBase = 0x7f3a80000000ull;
/** Words of the shared hot region: few enough that epochs collide on
 *  it, enough that a collision lands at any depth of an epoch. */
inline constexpr std::int64_t kHotWords = 2048;

/** Fill instCount, specInstCount and escapeSpans from the records. */
inline void
finishEpoch(EpochTrace &e)
{
    unsigned depth = 0;
    std::uint32_t begin = 0;
    for (std::uint32_t i = 0; i < e.records.size(); ++i) {
        const TraceRecord &r = e.records[i];
        e.instCount += recordInsts(r);
        if (r.op == TraceOp::EscapeBegin) {
            if (depth++ == 0)
                begin = i;
        } else if (r.op == TraceOp::EscapeEnd) {
            if (--depth == 0)
                e.escapeSpans.emplace_back(begin, i);
        } else if (depth == 0) {
            e.specInstCount += recordInsts(r);
        }
    }
}

/** Append one record of sequential or speculative work. */
inline void
appendWork(Rng &rng, EpochTrace &e, std::uint64_t own, bool parallel)
{
    auto pc = static_cast<Pc>(rng.uniform(1, 240));
    std::int64_t kind = rng.uniform(0, 99);
    auto mem = [&](TraceOp op, std::uint64_t addr, bool dependent) {
        auto aux = static_cast<std::uint16_t>(
            (1 << kAuxInstShift) | (dependent ? kAuxDependent : 0));
        e.records.push_back({op, 8, aux, pc, addr});
    };
    if (kind < 25) {
        auto cls = static_cast<std::uint16_t>(rng.uniform(0, 3));
        e.records.push_back({TraceOp::Compute, 0, cls, pc,
                             static_cast<std::uint64_t>(
                                 rng.uniform(1, 60))});
    } else if (kind < 37) {
        e.records.push_back(
            {TraceOp::Branch, 0,
             static_cast<std::uint16_t>(rng.chance(0.7) ? kAuxTaken : 0),
             pc, 0});
    } else if (kind < 52) {
        mem(TraceOp::Store, own + 8 * rng.uniform(0, 511), false);
    } else if (kind < 67) {
        // Re-read the private region: a word stored earlier in this
        // epoch makes the load covered.
        mem(TraceOp::Load, own + 8 * rng.uniform(0, 511),
            rng.chance(0.3));
    } else if (kind < 79) {
        mem(TraceOp::Load, kTableBase + 8 * rng.uniform(0, 4095),
            rng.chance(0.3));
    } else if (kind < 82 && parallel) {
        mem(TraceOp::Load, kHotBase + 8 * rng.uniform(0, kHotWords - 1),
            false);
    } else if (kind < 83 && parallel) {
        mem(TraceOp::Store, kHotBase + 8 * rng.uniform(0, kHotWords - 1),
            false);
    } else if (kind < 94) {
        mem(rng.chance(0.5) ? TraceOp::Load : TraceOp::Store,
            kFarBase + own - kPrivateBase + 8 * rng.uniform(0, 255),
            false);
    } else if (kind < 99) {
        // Sub-line accesses: 4-byte loads of the shared table.
        e.records.push_back({TraceOp::Load, 4, 1 << kAuxInstShift, pc,
                             kTableBase + 4 * rng.uniform(0, 8191)});
    } else {
        std::uint64_t latch = kLatchBase + 64 * rng.uniform(0, 2);
        e.records.push_back({TraceOp::EscapeBegin, 0, 0, pc, 0});
        e.records.push_back({TraceOp::LatchAcquire, 0, 0, pc, latch});
        mem(TraceOp::Store, kHotBase + 8 * rng.uniform(0, kHotWords - 1),
            false);
        e.records.push_back({TraceOp::Compute, 0, 0, pc, 12});
        e.records.push_back({TraceOp::LatchRelease, 0, 0, pc, latch});
        e.records.push_back({TraceOp::EscapeEnd, 0, 0, pc, 0});
    }
}

/** One sequential section of `records` records. */
inline TraceSection
sequentialSection(Rng &rng, std::size_t records)
{
    TraceSection sec;
    EpochTrace e;
    while (e.records.size() < records)
        appendWork(rng, e, kPrivateBase + 0x100000, false);
    finishEpoch(e);
    sec.epochs.push_back(std::move(e));
    return sec;
}

/**
 * The pinned workload: 3 transactions x (300-record prologue, 8
 * parallel epochs of about 1,800 records, 120-record epilogue).
 * Changing anything here changes every pin that replays it.
 */
inline WorkloadTrace
replayWorkload()
{
    Rng rng(19);
    WorkloadTrace w;
    for (int t = 0; t < 3; ++t) {
        TransactionTrace txn;
        txn.sections.push_back(sequentialSection(rng, 300));
        TraceSection par;
        par.parallel = true;
        for (int ep = 0; ep < 8; ++ep) {
            EpochTrace e;
            std::uint64_t own =
                kPrivateBase + 0x11240 * static_cast<std::uint64_t>(ep);
            std::size_t n =
                1500 + static_cast<std::size_t>(rng.uniform(0, 600));
            while (e.records.size() < n)
                appendWork(rng, e, own, true);
            finishEpoch(e);
            par.epochs.push_back(std::move(e));
        }
        txn.sections.push_back(std::move(par));
        txn.sections.push_back(sequentialSection(rng, 120));
        w.txns.push_back(std::move(txn));
    }
    return w;
}

} // namespace golden
} // namespace tlsim

#endif // TESTS_CORE_GOLDENTRACE_H
