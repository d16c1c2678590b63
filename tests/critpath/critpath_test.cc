/**
 * Unit tests for the critical-path prediction oracle on hand-built
 * mini traces with known structure: a program-order-only workload
 * (no RAW edges, perfect parallelism), a single planted cross-epoch
 * RAW (one violation, one rewind edge), and the rewind-depth contrast
 * between checkpoint-rich and checkpoint-free configurations. Plus
 * the predicted-risk placement policy in isolation.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "core/critpath/analyzer.h"
#include "core/critpath/graph.h"
#include "core/critpath/placement.h"
#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"
#include "core/traceindex.h"

namespace tlsim {
namespace {

using critpath::Analyzer;
using critpath::AnalyzerConfig;
using critpath::DepGraph;
using critpath::EdgeClass;
using critpath::Placement;
using critpath::Prediction;

class TraceBuilder
{
  public:
    TraceBuilder() : mem_(16384, 0)
    {
        Tracer::Options o;
        o.parallelMode = true;
        o.spawnOverheadInsts = 50;
        tracer_ = std::make_unique<Tracer>(o);
        pc_ = SiteRegistry::instance().intern("test.critpath.site");
    }

    void *addr(std::size_t word) { return &mem_.at(word); }

    WorkloadTrace
    loopTxn(const std::vector<std::function<void(Tracer &)>> &bodies)
    {
        tracer_->txnBegin();
        tracer_->compute(pc_, 100);
        tracer_->loopBegin();
        for (const auto &body : bodies) {
            tracer_->iterBegin();
            body(*tracer_);
        }
        tracer_->loopEnd();
        tracer_->compute(pc_, 100);
        tracer_->txnEnd();
        return tracer_->takeWorkload();
    }

    Pc pc() const { return pc_; }

  private:
    std::vector<std::uint64_t> mem_;
    std::unique_ptr<Tracer> tracer_;
    Pc pc_;
};

std::function<void(Tracer &)>
privateWork(TraceBuilder &b, std::size_t base, unsigned insts)
{
    return [&b, base, insts](Tracer &t) {
        Pc pc = b.pc();
        for (unsigned k = 0; k < insts / 100; ++k) {
            t.compute(pc, 80);
            t.load(pc, b.addr(base + (k % 64)), 8);
            t.store(pc, b.addr(base + 64 + (k % 64)), 8);
        }
    };
}

Cycle
edgeSum(const Prediction &p)
{
    return std::accumulate(p.edgeCycles.begin(), p.edgeCycles.end(),
                           Cycle{0});
}

TEST(CritpathGraph, ProgramOrderOnlyWorkloadHasNoRawEdges)
{
    TraceBuilder b;
    std::vector<std::function<void(Tracer &)>> bodies;
    for (int i = 0; i < 4; ++i)
        bodies.push_back(privateWork(b, 512 * i, 20000));
    auto w = b.loopTxn(bodies);

    MachineConfig cfg;
    TraceIndex index(w, cfg.mem.lineBytes);
    DepGraph g(w, index, cfg);

    // 1 txn = serial prologue + 4-epoch parallel loop + serial
    // epilogue sections.
    ASSERT_EQ(g.sections().size(), 3u);
    EXPECT_FALSE(g.sections()[0].parallel);
    EXPECT_TRUE(g.sections()[1].parallel);
    EXPECT_EQ(g.sections()[1].epochCount, 4u);
    EXPECT_EQ(g.rawEdges(), 0u);

    for (const critpath::EpochNode &node : g.epochs()) {
        ASSERT_EQ(node.prefixCycles.size(), node.view->size() + 1);
        EXPECT_EQ(node.baseCycles, node.prefixCycles.back());
        EXPECT_TRUE(std::is_sorted(node.prefixCycles.begin(),
                                   node.prefixCycles.end()));
        EXPECT_TRUE(std::is_sorted(node.prefixSpec.begin(),
                                   node.prefixSpec.end()));
        EXPECT_LE(node.busyCycles, node.baseCycles);
        EXPECT_TRUE(node.exposedLoads.empty());
    }

    Analyzer an(g);
    Prediction p = an.predict(AnalyzerConfig{});
    EXPECT_EQ(p.violations, 0u);
    EXPECT_EQ(p.edge(EdgeClass::Raw), 0u);
    EXPECT_EQ(edgeSum(p), p.makespan);

    // Four equal epochs on four lanes: the parallel section costs
    // about one epoch, so the whole prediction must be well under the
    // serial sum of all epoch bodies.
    Cycle serial_sum = 0;
    for (const critpath::EpochNode &node : g.epochs())
        serial_sum += node.baseCycles;
    EXPECT_LT(p.makespan, serial_sum * 2 / 3);
}

TEST(CritpathGraph, PlantedRawDependenceBecomesRewindEdge)
{
    TraceBuilder b;
    // Epoch 0 stores word 8000 late; epoch 1 loads it early - the
    // classic read-too-early violation.
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 8000);
        t.store(b.pc(), b.addr(8000), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.compute(b.pc(), 200);
        t.load(b.pc(), b.addr(8000), 8);
        t.compute(b.pc(), 20000);
    };
    auto w = b.loopTxn({writer, reader});

    MachineConfig cfg;
    TraceIndex index(w, cfg.mem.lineBytes);
    DepGraph g(w, index, cfg);

    ASSERT_EQ(g.rawEdges(), 1u);
    const critpath::SectionNode &sec = g.sections()[1];
    const critpath::EpochNode &wr = g.epochs()[sec.firstEpoch];
    const critpath::EpochNode &rd = g.epochs()[sec.firstEpoch + 1];
    ASSERT_EQ(wr.stores.size(), 1u);
    ASSERT_EQ(rd.exposedLoads.size(), 1u);
    EXPECT_EQ(wr.stores[0].line, rd.exposedLoads[0].line);

    Analyzer an(g);
    AnalyzerConfig ac;
    ac.spacing = 1000;
    Prediction p = an.predict(ac);
    EXPECT_EQ(p.violations, 1u);
    EXPECT_GT(p.edge(EdgeClass::Raw), 0u);
    EXPECT_EQ(edgeSum(p), p.makespan);

    // The reader restarts after the writer's store: the predicted
    // span must exceed the writer body alone, and carry the reader's
    // post-violation tail.
    EXPECT_GT(p.makespan, wr.baseCycles);

    // And the machine agrees a violation happens here.
    TlsMachine m(cfg);
    RunResult r = m.run(w, ExecMode::Tls);
    EXPECT_GE(r.primaryViolations, 1u);
}

TEST(CritpathAnalyzer, CheckpointDensityBoundsRewindCost)
{
    TraceBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 8000);
        t.store(b.pc(), b.addr(8000), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.compute(b.pc(), 6000); // rewindable prefix before the load
        t.load(b.pc(), b.addr(8000), 8);
        t.compute(b.pc(), 20000);
    };
    auto w = b.loopTxn({writer, reader});

    MachineConfig cfg;
    TraceIndex index(w, cfg.mem.lineBytes);
    DepGraph g(w, index, cfg);
    Analyzer an(g);

    // k=1: no checkpoints, a violation rewinds to the epoch start and
    // repays the whole 6000-instruction prefix.
    AnalyzerConfig coarse;
    coarse.subthreads = 1;
    Prediction pc_ = an.predict(coarse);

    // k=8 x 1000: a checkpoint sits within 1000 instructions of the
    // load, so only a sliver re-executes.
    AnalyzerConfig fine;
    fine.subthreads = 8;
    fine.spacing = 1000;
    Prediction pf = an.predict(fine);

    EXPECT_GE(pc_.violations, 1u);
    EXPECT_GE(pf.violations, 1u);
    EXPECT_GT(pc_.edge(EdgeClass::Raw), pf.edge(EdgeClass::Raw));
    EXPECT_GT(pc_.makespan, pf.makespan);
}

TEST(CritpathPlacement, FallsBackToFixedGridWithoutRiskPoints)
{
    std::vector<std::uint64_t> out;
    critpath::selectRiskSpawnPoints({}, 10000, 4, 3000, out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{3000, 6000, 9000}));

    // Thresholds at or past the body never fire.
    critpath::selectRiskSpawnPoints({}, 6001, 4, 3000, out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{3000, 6000}));

    // A single context cannot spawn sub-threads at all.
    critpath::selectRiskSpawnPoints({}, 10000, 1, 3000, out);
    EXPECT_TRUE(out.empty());
}

TEST(CritpathPlacement, ThinsClustersAndKeepsEarliestOfEach)
{
    // 1000/1050/1100 cluster inside kMinRiskGap; 5000 stands alone.
    std::vector<std::uint32_t> risk = {1000, 1050, 1100, 5000};
    std::vector<std::uint64_t> out;
    critpath::selectRiskSpawnPoints(risk, 10000, 8, 2000, out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{1000, 5000}));

    // Offsets past the epoch body are discarded; 0 is the implicit
    // epoch-start checkpoint.
    risk = {0, 4000, 9999};
    critpath::selectRiskSpawnPoints(risk, 5000, 8, 2000, out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{4000}));
}

TEST(CritpathPlacement, DownselectsEvenlyWhenOverCommitted)
{
    std::vector<std::uint32_t> risk;
    for (std::uint32_t v = 500; v <= 16000; v += 500)
        risk.push_back(v); // 32 candidates, all gaps >= kMinRiskGap
    std::vector<std::uint64_t> out;
    critpath::selectRiskSpawnPoints(risk, 20000, 4, 5000, out);
    ASSERT_EQ(out.size(), 3u); // k-1 slots
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    // Strided selection spans the range instead of clustering early.
    EXPECT_LT(out.front(), 2000u);
    EXPECT_GT(out.back(), 8000u);
}

TEST(CritpathPlacement, RiskOffsetsMarkExposedConflictLoads)
{
    TraceBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 8000);
        t.store(b.pc(), b.addr(8000), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.compute(b.pc(), 200);
        t.load(b.pc(), b.addr(8000), 8);
        t.compute(b.pc(), 20000);
    };
    auto w = b.loopTxn({writer, reader});

    MachineConfig cfg;
    TraceIndex index(w, cfg.mem.lineBytes);

    const TraceSection &sec = w.txns[0].sections[1];
    ASSERT_TRUE(sec.parallel);
    const EpochView *wv = index.viewOf(&sec.epochs[0]);
    const EpochView *rv = index.viewOf(&sec.epochs[1]);

    // The writer has no exposed conflict loads; the reader has exactly
    // the planted one, early in its body.
    EXPECT_TRUE(wv->riskOffsets.empty());
    ASSERT_EQ(rv->riskOffsets.size(), 1u);
    // ...whose flag byte marks a conflict line and no cover.
    std::size_t loads = 0;
    for (std::size_t i = 0; i < rv->size(); ++i) {
        if (rv->records[i].op != TraceOp::Load)
            continue;
        ++loads;
        EXPECT_EQ(rv->flags[i], EpochView::kConflict);
    }
    EXPECT_EQ(loads, 1u);
    EXPECT_GT(rv->riskOffsets[0], 0u);
    EXPECT_LT(rv->riskOffsets[0], 1000u);

    // Machine cross-check: risk placement drops a checkpoint right
    // before the risky load, so the violation rewinds far less work
    // than a checkpoint-free run of the same trace.
    MachineConfig none = cfg;
    none.tls.subthreadsPerThread = 1;
    TlsMachine m_none(none);
    RunResult r_none = m_none.run(w, ExecMode::Tls);

    MachineConfig risk = cfg;
    risk.tls.riskPlacement = true;
    TlsMachine m_risk(risk);
    RunResult r_risk = m_risk.run(w, ExecMode::Tls);

    EXPECT_GE(r_none.primaryViolations, 1u);
    EXPECT_GE(r_risk.primaryViolations, 1u);
    EXPECT_LT(r_risk.rewoundInsts, r_none.rewoundInsts);
    EXPECT_LE(r_risk.makespan, r_none.makespan);
}

TEST(CritpathAnalyzer, WarmupTransactionsAreExcluded)
{
    TraceBuilder b;
    // Two identical transactions in one workload.
    Tracer::Options o;
    o.parallelMode = true;
    Tracer t(o);
    Pc pc = SiteRegistry::instance().intern("test.critpath.warm");
    for (int txn = 0; txn < 2; ++txn) {
        t.txnBegin();
        t.loopBegin();
        for (int i = 0; i < 2; ++i) {
            t.iterBegin();
            t.compute(pc, 5000);
        }
        t.loopEnd();
        t.txnEnd();
    }
    WorkloadTrace w = t.takeWorkload();
    ASSERT_EQ(w.txns.size(), 2u);

    MachineConfig cfg;
    TraceIndex index(w, cfg.mem.lineBytes);
    DepGraph g(w, index, cfg);
    Analyzer an(g);

    AnalyzerConfig all;
    Prediction p_all = an.predict(all);
    AnalyzerConfig warm;
    warm.warmupTxns = 1;
    Prediction p_warm = an.predict(warm);

    EXPECT_GT(p_all.makespan, p_warm.makespan);
    EXPECT_EQ(edgeSum(p_warm), p_warm.makespan);
}

} // namespace
} // namespace tlsim
