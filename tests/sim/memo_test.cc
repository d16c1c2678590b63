/**
 * @file
 * The per-capture result memo behind sim::simulate(): a memoized
 * point must be bit-identical to a fresh machine run of the point it
 * stands for, with the auditor off and at its strictest (the digest
 * covers RunResult::auditChecks, so the reduced sub-thread count must
 * not change what the auditor checks either); the reduction must sit
 * exactly at the edge the spawn rule allows; the traces that hold the
 * memo can be neither copied nor moved, and a machine whose line size
 * is not the indexes' dies; and concurrent callers must agree with a
 * serial run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "base/stats.h"
#include "core/resulthash.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/tracecache.h"
#include "verify/auditor.h"

namespace tlsim {
namespace sim {
namespace {

const std::vector<unsigned> kCounts = {2, 4, 8};
const std::vector<std::uint64_t> kSpacings = {1000,  2500,  5000,
                                              10000, 25000, 50000};

std::uint64_t
memoMisses()
{
    return stats::GlobalCounters::instance().value("sim.memo.miss");
}

std::uint64_t
memoHits()
{
    return stats::GlobalCounters::instance().value("sim.memo.hit");
}

/** A machine built for this point alone, no memo in the way. */
RunResult
freshRun(const BenchmarkTraces &t, const SimPoint &p)
{
    const bool orig = p.build == TraceBuild::Original;
    TlsMachine m(p.machine);
    return verify::runWithAudit(
        m, orig ? t.original : t.tls, p.mode, p.warmup,
        (orig ? t.originalIndex : t.tlsIndex).get());
}

/** One simulation point of Figure 5 or Figure 6, spelled out apart
 *  from barPoint()/sweepPoint(), so a wrong definition there shows. */
struct Point
{
    std::string name;
    SimPoint point;
};

/** Every Figure 5 bar, then every Figure 6 grid point. */
std::vector<Point>
allPoints(const ExperimentConfig &cfg)
{
    const unsigned w = cfg.warmupTxns;
    MachineConfig nosub = cfg.machine;
    nosub.tls.subthreadsPerThread = 1;
    std::vector<Point> pts = {
        {"SEQUENTIAL",
         {TraceBuild::Original, cfg.machine, ExecMode::Serial, w}},
        {"TLS-SEQ", {TraceBuild::Tls, cfg.machine, ExecMode::Serial, w}},
        {"NO SUB-THREAD", {TraceBuild::Tls, nosub, ExecMode::Tls, w}},
        {"BASELINE", {TraceBuild::Tls, cfg.machine, ExecMode::Tls, w}},
        {"NO SPECULATION",
         {TraceBuild::Tls, cfg.machine, ExecMode::NoSpeculation, w}},
    };
    for (unsigned k : kCounts) {
        for (std::uint64_t s : kSpacings) {
            MachineConfig mc = cfg.machine;
            mc.tls.subthreadsPerThread = k;
            mc.tls.subthreadSpacing = s;
            pts.push_back({"k" + std::to_string(k) + "/s" +
                               std::to_string(s),
                           {TraceBuild::Tls, mc, ExecMode::Tls, w}});
        }
    }
    return pts;
}

using MemoParam = std::tuple<tpcc::TxnType, AuditLevel>;

class MemoEquivalence : public ::testing::TestWithParam<MemoParam>
{
};

TEST_P(MemoEquivalence, EveryPointMatchesAFreshRun)
{
    const auto [type, level] = GetParam();
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    cfg.machine.tls.auditLevel = level;
    const SharedTraces shared = captureTracesShared(type, cfg);
    const BenchmarkTraces &t = *shared;

    const std::vector<Point> pts = allPoints(cfg);
    // The Figure 5 bars through runBar, the grid through runFigure6.
    std::vector<RunResult> memo;
    for (Bar b : allBars())
        memo.push_back(runBar(b, t, cfg));
    SimExecutor serial(1);
    for (const SweepPoint &p :
         runFigure6(type, cfg, kCounts, kSpacings, t, serial))
        memo.push_back(p.run);
    ASSERT_EQ(memo.size(), pts.size());

    for (std::size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(det::hashRunResult(memo[i]),
                  det::hashRunResult(freshRun(t, pts[i].point)))
            << pts[i].name;

    // BASELINE and k8/s5000 are one exact configuration; the large
    // spacings share entries too unless the epochs are long (DELIVERY
    // OUTER's are not shared at this scale).
    EXPECT_LE(t.results.keyCount(), pts.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, MemoEquivalence,
    ::testing::Combine(::testing::ValuesIn(tpcc::allBenchmarks()),
                       ::testing::Values(AuditLevel::Off,
                                         AuditLevel::Full)),
    [](const ::testing::TestParamInfo<MemoParam> &info) {
        std::string n = tpcc::txnTypeName(std::get<0>(info.param));
        for (char &c : n)
            if (c == ' ')
                c = '_';
        return n + "_" + auditLevelName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// The reduction's edge: specInstCount in {s - 1, s, s + 1}
// ---------------------------------------------------------------------

constexpr std::uint64_t kSpacing = 1000;

/**
 * One parallel loop of four private epochs, each `spec` speculative
 * instructions of compute followed by a free load: the load keeps a
 * record after the last instruction, so an epoch of exactly j *
 * spacing instructions does reach the spawn check for sub-thread j.
 */
BenchmarkTraces
edgeTraces(std::uint64_t spec)
{
    TraceSection sec;
    sec.parallel = true;
    for (std::uint64_t cpu = 0; cpu < 4; ++cpu) {
        EpochTrace e;
        for (std::uint64_t left = spec; left > 0;) {
            const std::uint64_t n = std::min<std::uint64_t>(left, 100);
            e.records.push_back({TraceOp::Compute, 0,
                                 static_cast<std::uint16_t>(
                                     ComputeClass::Int),
                                 0x400000, n});
            left -= n;
        }
        e.records.push_back(
            {TraceOp::Load, 8, 0, 0x400040, 0x10000000 + cpu * 4096});
        e.instCount = spec;
        e.specInstCount = spec;
        sec.epochs.push_back(std::move(e));
    }
    WorkloadTrace w;
    w.txns.resize(1);
    w.txns[0].sections.push_back(std::move(sec));
    return BenchmarkTraces(w, w, MachineConfig{}.mem.lineBytes);
}

/** The TLS point with k sub-threads at kSpacing, no warm-up. */
SimPoint
edgePoint(unsigned k)
{
    SimPoint p;
    p.machine.tls.subthreadsPerThread = k;
    p.machine.tls.subthreadSpacing = kSpacing;
    return p;
}

TEST(MemoEdge, OneInstructionShortOfTheSpacingSharesOneRun)
{
    const BenchmarkTraces t = edgeTraces(kSpacing - 1);
    for (unsigned k : {1u, 2u, 8u}) {
        const SimPoint p = edgePoint(k);
        EXPECT_EQ(det::hashRunResult(simulate(t, p)),
                  det::hashRunResult(freshRun(t, p)))
            << "k" << k;
    }
    EXPECT_EQ(freshRun(t, edgePoint(8)).subthreadsStarted, 0u);
    EXPECT_EQ(t.results.keyCount(), 1u);
}

TEST(MemoEdge, ExactlyTheSpacingReachesASecondContext)
{
    for (std::uint64_t spec : {kSpacing, kSpacing + 1}) {
        const BenchmarkTraces t = edgeTraces(spec);
        for (unsigned k : {1u, 2u, 8u}) {
            const SimPoint p = edgePoint(k);
            EXPECT_EQ(det::hashRunResult(simulate(t, p)),
                      det::hashRunResult(freshRun(t, p)))
                << "spec " << spec << " k" << k;
        }
        // Sub-thread 1 does start, so one context would be wrong ...
        EXPECT_EQ(freshRun(t, edgePoint(2)).subthreadsStarted, 4u)
            << "spec " << spec;
        // ... and k = 2 and k = 8 share one entry.
        EXPECT_EQ(t.results.keyCount(), 2u) << "spec " << spec;
    }
}

TEST(MemoEdge, InvalidConfigFailsBeforeTheLookup)
{
    const BenchmarkTraces t = edgeTraces(kSpacing - 1);
    simulate(t, edgePoint(8));
    // 4 CPUs x 17 contexts is over the budget even though one context
    // is all these epochs can reach.
    EXPECT_EXIT(simulate(t, edgePoint(17)), ::testing::ExitedWithCode(1),
                "exceeds");
    SimPoint zero = edgePoint(8);
    zero.machine.tls.subthreadSpacing = 0;
    EXPECT_EXIT(simulate(t, zero), ::testing::ExitedWithCode(1),
                "spacing");
}

// ---------------------------------------------------------------------
// Identity of the traces behind an entry
// ---------------------------------------------------------------------

TEST(MemoIdentity, TracesAreNeitherCopiedNorMoved)
{
    // A key names no trace: the memo lives in the one object that
    // holds the workloads and indexes it was filled from.
    static_assert(!std::is_copy_constructible_v<BenchmarkTraces>);
    static_assert(!std::is_move_constructible_v<BenchmarkTraces>);
    static_assert(!std::is_copy_assignable_v<BenchmarkTraces>);
    static_assert(!std::is_move_assignable_v<BenchmarkTraces>);
}

TEST(MemoIdentity, MachineOfAnotherLineSizeDies)
{
    const BenchmarkTraces t = edgeTraces(kSpacing - 1);
    ASSERT_EQ(t.tlsIndex->lineBytes(), 32u);
    SimPoint wide = edgePoint(8);
    wide.machine.mem.lineBytes = 64;
    EXPECT_EXIT(simulate(t, wide), ::testing::ExitedWithCode(1),
                "64-byte lines");
}

// ---------------------------------------------------------------------
// Concurrency (the TSan leg runs every *Parallel* test)
// ---------------------------------------------------------------------

/** Figure 5, the Figure 6 grid and Table 2 over one capture. */
std::vector<std::uint64_t>
allArtifacts(const BenchmarkTraces &t, const ExperimentConfig &cfg,
             SimExecutor &ex)
{
    std::vector<std::uint64_t> out;
    const tpcc::TxnType type = tpcc::TxnType::NewOrder;
    for (const auto &[bar, r] : runFigure5(type, cfg, t, ex).bars)
        out.push_back(det::hashRunResult(r));
    for (const SweepPoint &p :
         runFigure6(type, cfg, kCounts, kSpacings, t, ex))
        out.push_back(det::hashRunResult(p.run));
    out.push_back(static_cast<std::uint64_t>(
        table2Row(type, cfg, t).execMcycles * 1e6));
    return out;
}

TEST(MemoParallel, FourWorkersMatchOneWorker)
{
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    const SharedTraces captured =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg);
    const BenchmarkTraces &serial_t = *captured;
    SimExecutor serial(1);
    const std::uint64_t m0 = memoMisses();
    const std::vector<std::uint64_t> one =
        allArtifacts(serial_t, cfg, serial);
    const std::uint64_t serial_misses = memoMisses() - m0;

    // The same workloads in a second object, whose memo starts empty.
    const BenchmarkTraces par_t(captured->original, captured->tls,
                                cfg.machine.mem.lineBytes);
    SimExecutor par(4);
    const std::uint64_t m1 = memoMisses();
    const std::vector<std::uint64_t> four = allArtifacts(par_t, cfg, par);
    const std::uint64_t par_misses = memoMisses() - m1;

    EXPECT_EQ(one, four);
    EXPECT_EQ(serial_misses, serial_t.results.keyCount());
    EXPECT_EQ(par_misses, serial_misses);
    EXPECT_EQ(par_t.results.keyCount(), serial_t.results.keyCount());
}

TEST(MemoParallel, ConcurrentCallersOfOneKeyRunItOnce)
{
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    const SharedTraces t =
        captureTracesShared(tpcc::TxnType::StockLevel, cfg);
    SimExecutor ex(4);
    stats::GlobalCounters &gc = stats::GlobalCounters::instance();
    const std::uint64_t h0 = memoHits();
    const std::uint64_t m0 = memoMisses();
    const std::uint64_t r0 = gc.value("replay.records");
    std::vector<RunResult> runs(16);
    ex.parallelFor(runs.size(), [&](std::size_t i) {
        runs[i] = runBar(Bar::Baseline, *t, cfg);
    });
    EXPECT_EQ(memoMisses() - m0, 1u);
    EXPECT_EQ(memoHits() - h0, runs.size() - 1);
    // Only the one run dispatched records (what bench JSON reports).
    EXPECT_EQ(gc.value("replay.records") - r0, runs[0].recordsReplayed);
    for (const RunResult &r : runs)
        EXPECT_EQ(det::hashRunResult(r), det::hashRunResult(runs[0]));
}

} // namespace
} // namespace sim
} // namespace tlsim
