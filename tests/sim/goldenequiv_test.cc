/**
 * @file
 * Golden equivalence of the conflict-oracle fast path: replaying a
 * captured benchmark with cfg.tls.useConflictOracle on and off must
 * produce bit-identical RunResults -- every bar of Figure 5 and every
 * ablation knob. The oracle may only elide work whose outcome is
 * statically known, never change timing-visible state.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/simd.h"
#include "cpu/breakdown.h"
#include "sim/experiment.h"
#include "sim/tracecache.h"
#include "verify/auditor.h"

namespace tlsim {
namespace sim {
namespace {

void
expectSameResult(const RunResult &on, const RunResult &off,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(on.makespan, off.makespan);
    for (unsigned c = 0; c < kNumCats; ++c)
        EXPECT_EQ(on.total.cycles[c], off.total.cycles[c])
            << "breakdown category " << catName(static_cast<Cat>(c));
    EXPECT_EQ(on.txns, off.txns);
    EXPECT_EQ(on.epochs, off.epochs);
    EXPECT_EQ(on.totalInsts, off.totalInsts);
    EXPECT_EQ(on.primaryViolations, off.primaryViolations);
    EXPECT_EQ(on.secondaryViolations, off.secondaryViolations);
    EXPECT_EQ(on.squashes, off.squashes);
    EXPECT_EQ(on.rewoundInsts, off.rewoundInsts);
    EXPECT_EQ(on.subthreadsStarted, off.subthreadsStarted);
    EXPECT_EQ(on.overflowEvents, off.overflowEvents);
    EXPECT_EQ(on.latchWaits, off.latchWaits);
    EXPECT_EQ(on.escapeSkips, off.escapeSkips);
    EXPECT_EQ(on.predictorStalls, off.predictorStalls);
    EXPECT_EQ(on.recordsReplayed, off.recordsReplayed);
    EXPECT_EQ(on.l1Hits, off.l1Hits);
    EXPECT_EQ(on.l1Misses, off.l1Misses);
    EXPECT_EQ(on.l2Hits, off.l2Hits);
    EXPECT_EQ(on.l2Misses, off.l2Misses);
    EXPECT_EQ(on.victimHits, off.victimHits);
    EXPECT_EQ(on.branches, off.branches);
    EXPECT_EQ(on.mispredicts, off.mispredicts);
}

/** One capture per benchmark, shared by every comparison below. */
class GoldenEquivTest : public ::testing::Test
{
  protected:
    static const BenchmarkTraces &traces(tpcc::TxnType type)
    {
        static const SharedTraces new_order = captureTracesShared(
            tpcc::TxnType::NewOrder, ExperimentConfig::testPreset());
        static const SharedTraces stock_level = captureTracesShared(
            tpcc::TxnType::StockLevel, ExperimentConfig::testPreset());
        return type == tpcc::TxnType::NewOrder ? *new_order
                                               : *stock_level;
    }

    static RunResult
    runWithOracle(Bar bar, const BenchmarkTraces &t,
                  ExperimentConfig cfg, bool oracle)
    {
        cfg.machine.tls.useConflictOracle = oracle;
        return runBar(bar, t, cfg);
    }
};

TEST_F(GoldenEquivTest, AllFigure5BarsAreOracleInvariant)
{
    for (tpcc::TxnType type :
         {tpcc::TxnType::NewOrder, tpcc::TxnType::StockLevel}) {
        const BenchmarkTraces &t = traces(type);
        for (Bar bar : allBars()) {
            ExperimentConfig cfg = ExperimentConfig::testPreset();
            expectSameResult(
                runWithOracle(bar, t, cfg, true),
                runWithOracle(bar, t, cfg, false),
                std::string(tpcc::txnTypeName(type)) + "/" +
                    barName(bar));
        }
    }
}

TEST_F(GoldenEquivTest, AblationKnobsAreOracleInvariant)
{
    struct Variant
    {
        const char *name;
        void (*apply)(TlsConfig &);
    };
    const Variant variants[] = {
        {"lazy-updates",
         [](TlsConfig &t) { t.aggressiveUpdates = false; }},
        {"no-start-table",
         [](TlsConfig &t) { t.useStartTable = false; }},
        {"adaptive-spacing",
         [](TlsConfig &t) { t.adaptiveSpacing = true; }},
        {"dependence-predictor",
         [](TlsConfig &t) { t.useDependencePredictor = true; }},
        {"l1-subthread-aware",
         [](TlsConfig &t) { t.l1SubthreadAware = true; }},
        {"no-victim-cache",
         [](TlsConfig &t) { t.useVictimCache = false; }},
    };
    const BenchmarkTraces &t = traces(tpcc::TxnType::NewOrder);
    for (const Variant &v : variants) {
        ExperimentConfig cfg = ExperimentConfig::testPreset();
        v.apply(cfg.machine.tls);
        expectSameResult(runWithOracle(Bar::Baseline, t, cfg, true),
                         runWithOracle(Bar::Baseline, t, cfg, false),
                         v.name);
    }
}

/**
 * SIMD golden equivalence: every Figure 5 bar replayed with the
 * dispatched kernels (AVX2 where the host has it) and with the scalar
 * reference must produce bit-identical RunResults. The vector kernels
 * may only change how bitmap scans are computed, never what they
 * compute. simd::setForceScalar is not part of a result memo key, so
 * each leg runs a fresh machine over the shared index instead of
 * going through simulate().
 */
class SimdGoldenTest : public GoldenEquivTest
{
  protected:
    void TearDown() override { simd::setForceScalar(false); }

    static RunResult
    runScalar(Bar bar, const BenchmarkTraces &t,
              const ExperimentConfig &cfg, bool scalar)
    {
        const SimPoint p = barPoint(bar, cfg);
        const bool orig = p.build == TraceBuild::Original;
        simd::setForceScalar(scalar);
        TlsMachine m(p.machine);
        RunResult r = verify::runWithAudit(
            m, orig ? t.original : t.tls, p.mode, p.warmup,
            orig ? t.originalIndex.get() : t.tlsIndex.get());
        simd::setForceScalar(false);
        return r;
    }
};

TEST_F(SimdGoldenTest, AllFigure5BarsAreSimdInvariant)
{
    for (tpcc::TxnType type :
         {tpcc::TxnType::NewOrder, tpcc::TxnType::StockLevel}) {
        const BenchmarkTraces &t = traces(type);
        for (Bar bar : allBars()) {
            ExperimentConfig cfg = ExperimentConfig::testPreset();
            expectSameResult(
                runScalar(bar, t, cfg, false),
                runScalar(bar, t, cfg, true),
                std::string("simd/") + tpcc::txnTypeName(type) + "/" +
                    barName(bar));
        }
    }
}

TEST_F(SimdGoldenTest, VictimAndSubthreadStressIsSimdInvariant)
{
    // Small victim cache + tight checkpoints: maximises traffic through
    // matchMask64 (victim probes) and maskedUnion64 (SM merges on
    // squash), the two dispatched kernels.
    const BenchmarkTraces &t = traces(tpcc::TxnType::NewOrder);
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    cfg.machine.tls.subthreadsPerThread = 2;
    cfg.machine.tls.subthreadSpacing = 500;
    expectSameResult(runScalar(Bar::Baseline, t, cfg, false),
                     runScalar(Bar::Baseline, t, cfg, true),
                     "simd/k2-spacing500");
}

/**
 * Two epochs of one parallel loop. The younger stores words 0..4 of a
 * line, one store per sub-thread, then loads words 0..3: covered only
 * by the union of four or more of its own contexts' store masks (the
 * vectorized merge). The older stores word 0 long after that load, so
 * a merge that leaves a word uncovered squashes the younger epoch.
 * Only the oracle-off path merges store masks on a load.
 */
TEST_F(SimdGoldenTest, OwnStoreMergeIsSimdInvariant)
{
    constexpr std::uint64_t kSpacing = 200, kLine = 0x20000000;
    const TraceRecord compute{
        TraceOp::Compute, 0, static_cast<std::uint16_t>(ComputeClass::Int),
        0x400000, kSpacing};
    TraceSection sec{true, {EpochTrace{}, EpochTrace{}}};
    EpochTrace &older = sec.epochs[0], &younger = sec.epochs[1];
    older.records.assign(20, compute);
    older.records.push_back({TraceOp::Store, 4, 0, 0x400100, kLine});
    for (std::uint64_t w = 0; w < 5; ++w) {
        younger.records.push_back(compute);
        younger.records.push_back(
            {TraceOp::Store, 4, 0, 0x400200, kLine + 4 * w});
    }
    younger.records.push_back(compute);
    younger.records.push_back({TraceOp::Load, 16, 0, 0x400300, kLine});
    for (EpochTrace &e : sec.epochs) {
        for (const TraceRecord &r : e.records)
            e.instCount += recordInsts(r);
        e.specInstCount = e.instCount;
    }
    WorkloadTrace w;
    w.txns.resize(1);
    w.txns[0].sections.push_back(std::move(sec));
    const BenchmarkTraces t(w, w, MachineConfig{}.mem.lineBytes);

    ExperimentConfig cfg = ExperimentConfig::testPreset();
    cfg.warmupTxns = 0;
    cfg.machine.tls.subthreadsPerThread = 8;
    cfg.machine.tls.subthreadSpacing = kSpacing;
    cfg.machine.tls.useConflictOracle = false;
    const RunResult vec = runScalar(Bar::Baseline, t, cfg, false);
    EXPECT_EQ(vec.primaryViolations, 0u); // the merge covers the load
    expectSameResult(vec, runScalar(Bar::Baseline, t, cfg, true),
                     "simd/own-store-merge");
}

TEST_F(GoldenEquivTest, SmallSubthreadBudgetIsOracleInvariant)
{
    // Coarse checkpoints stress the rewind path: more records replay
    // twice, so covered/conflict bits must hold across re-execution.
    const BenchmarkTraces &t = traces(tpcc::TxnType::NewOrder);
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    cfg.machine.tls.subthreadsPerThread = 2;
    cfg.machine.tls.subthreadSpacing = 500;
    expectSameResult(runWithOracle(Bar::Baseline, t, cfg, true),
                     runWithOracle(Bar::Baseline, t, cfg, false),
                     "k2-spacing500");
}

} // namespace
} // namespace sim
} // namespace tlsim
