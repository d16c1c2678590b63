#include <gtest/gtest.h>

#include <sstream>

#include "sim/artifact.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/tracecache.h"
#include "sim/report.h"

namespace tlsim {
namespace sim {
namespace {

ExperimentConfig
smallCfg()
{
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    cfg.scale.items = 1500;
    cfg.scale.customersPerDistrict = 90;
    cfg.scale.ordersPerDistrict = 90;
    cfg.scale.firstNewOrder = 46;
    cfg.txns = 6;
    cfg.warmupTxns = 1;
    return cfg;
}

struct Figure5Fixture : public ::testing::Test
{
    static void
    SetUpTestSuite()
    {
        const ExperimentConfig cfg = smallCfg();
        const SharedTraces traces =
            captureTracesShared(tpcc::TxnType::NewOrder, cfg);
        SimExecutor ex(1);
        row = new Figure5Row(
            runFigure5(tpcc::TxnType::NewOrder, cfg, *traces, ex));
    }

    static void
    TearDownTestSuite()
    {
        delete row;
        row = nullptr;
    }

    static Figure5Row *row;
};

Figure5Row *Figure5Fixture::row = nullptr;

TEST_F(Figure5Fixture, AllBarsPresent)
{
    EXPECT_EQ(row->bars.size(), allBars().size());
    for (Bar b : allBars())
        EXPECT_GT(row->result(b).makespan, 0u);
}

TEST_F(Figure5Fixture, AccountingInvariantHoldsForEveryBar)
{
    for (const auto &[bar, run] : row->bars) {
        EXPECT_EQ(run.total.total(), run.makespan * 4)
            << barName(bar);
    }
}

TEST_F(Figure5Fixture, SequentialMostlyIdles)
{
    const RunResult &seq = row->result(Bar::Sequential);
    // Three of four CPUs idle the entire time.
    EXPECT_GE(static_cast<double>(seq.total[Cat::Idle]) /
                  seq.total.total(),
              0.74);
    EXPECT_EQ(seq.primaryViolations, 0u);
}

TEST_F(Figure5Fixture, TlsSeqOverheadIsModest)
{
    // Paper: software overhead lands between 0.93x and 1.05x.
    double s = row->speedup(Bar::TlsSeq);
    EXPECT_GT(s, 0.80);
    EXPECT_LT(s, 1.25);
}

TEST_F(Figure5Fixture, SubthreadsBeatAllOrNothing)
{
    EXPECT_GT(row->speedup(Bar::Baseline),
              row->speedup(Bar::NoSubthread));
    EXPECT_GT(row->speedup(Bar::Baseline), 1.3);
}

TEST_F(Figure5Fixture, NoSpeculationIsTheUpperBound)
{
    double best = row->speedup(Bar::NoSpeculation);
    EXPECT_GE(best * 1.02, row->speedup(Bar::Baseline));
    EXPECT_EQ(row->result(Bar::NoSpeculation).primaryViolations, 0u);
    EXPECT_EQ(row->result(Bar::NoSpeculation).total[Cat::Failed], 0u);
}

TEST_F(Figure5Fixture, BaselineSuffersLessFailureThanNoSubthread)
{
    const RunResult &base = row->result(Bar::Baseline);
    const RunResult &nosub = row->result(Bar::NoSubthread);
    EXPECT_LT(base.total[Cat::Failed], nosub.total[Cat::Failed]);
    EXPECT_GT(base.subthreadsStarted, 0u);
    EXPECT_EQ(nosub.subthreadsStarted, 0u);
}

TEST_F(Figure5Fixture, ReportRendersAllBars)
{
    std::ostringstream os;
    printFigure5Row(os, *row);
    std::string text = os.str();
    for (Bar b : allBars())
        EXPECT_NE(text.find(barName(b)), std::string::npos);
    EXPECT_NE(text.find("Figure 5: NEW ORDER"), std::string::npos);
}

TEST(Table2, RowLooksLikeTheWorkload)
{
    ExperimentConfig cfg = smallCfg();
    const SharedTraces traces =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg);
    Table2Row row = table2Row(tpcc::TxnType::NewOrder, cfg, *traces);
    EXPECT_GT(row.execMcycles, 0.0);
    EXPECT_GT(row.coverage, 0.4);
    EXPECT_LT(row.coverage, 1.0);
    EXPECT_GT(row.threadSizeInsts, 5000);
    EXPECT_GT(row.threadSizeInsts, row.specInstsPerThread);
    EXPECT_GE(row.threadsPerTxn, 4.0);
    EXPECT_LE(row.threadsPerTxn, 15.0);

    std::ostringstream os;
    printTable2(os, {row});
    EXPECT_NE(os.str().find("NEW ORDER"), std::string::npos);
}

TEST(Figure6, SweepRunsAllPoints)
{
    ExperimentConfig cfg = smallCfg();
    cfg.txns = 4;
    const SharedTraces traces =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg);
    SimExecutor ex(1);
    auto points = runFigure6(tpcc::TxnType::NewOrder, cfg, {2, 8},
                             {1000, 5000}, *traces, ex);
    ASSERT_EQ(points.size(), 4u);
    for (const auto &p : points) {
        EXPECT_GT(p.run.makespan, 0u);
        EXPECT_EQ(p.run.total.total(), p.run.makespan * 4);
    }

    std::ostringstream os;
    printFigure6(os, "NEW ORDER", points, points[0].run.makespan * 3);
    EXPECT_NE(os.str().find("Figure 6"), std::string::npos);
}

TEST(Figure6, MoreSubthreadsNeverMuchWorse)
{
    // Paper Section 5.1: adding sub-threads does not hurt.
    ExperimentConfig cfg = smallCfg();
    cfg.txns = 4;
    const SharedTraces traces =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg);
    SimExecutor ex(1);
    auto points = runFigure6(tpcc::TxnType::NewOrder, cfg, {2, 8},
                             {2000}, *traces, ex);
    ASSERT_EQ(points.size(), 2u);
    double t2 = static_cast<double>(points[0].run.makespan);
    double t8 = static_cast<double>(points[1].run.makespan);
    EXPECT_LT(t8, t2 * 1.10);
}

TEST(ConfigFor, PinsTxnsAndWarmupPerBenchmark)
{
    for (tpcc::TxnType t : tpcc::allBenchmarks()) {
        for (bool quick : {false, true}) {
            const ExperimentConfig cfg = configFor(t, quick, 0);
            unsigned txns = 12, warmup = 2;
            if (t == tpcc::TxnType::NewOrder150) {
                txns = 6;
                warmup = 1;
            } else if (t == tpcc::TxnType::Delivery ||
                       t == tpcc::TxnType::DeliveryOuter) {
                txns = 8;
            }
            EXPECT_EQ(cfg.txns, txns) << tpcc::txnTypeName(t);
            EXPECT_EQ(cfg.warmupTxns, warmup) << tpcc::txnTypeName(t);
        }
    }
}

TEST(ConfigFor, TxnsOverrideSetsWarmup)
{
    for (unsigned n : {1u, 3u, 4u, 5u, 20u}) {
        const ExperimentConfig cfg =
            configFor(tpcc::TxnType::NewOrder150, true, n);
        EXPECT_EQ(cfg.txns, n);
        EXPECT_EQ(cfg.warmupTxns, n > 4 ? 2u : 1u) << n;
    }
}

TEST(ConfigFor, ScaleIsFullOrQuick)
{
    const tpcc::TpccConfig full =
        configFor(tpcc::TxnType::Payment, false, 0).scale;
    EXPECT_EQ(full.items, tpcc::TpccConfig{}.items);
    EXPECT_EQ(full.districts, tpcc::TpccConfig{}.districts);
    EXPECT_EQ(full.customersPerDistrict, 3000u);
    EXPECT_EQ(full.firstNewOrder, 2101u);

    const tpcc::TpccConfig q =
        configFor(tpcc::TxnType::Payment, true, 0).scale;
    EXPECT_EQ(q.items, 2000u);
    EXPECT_EQ(q.districts, tpcc::TpccConfig::tiny().districts);
    EXPECT_EQ(q.customersPerDistrict, 150u);
    EXPECT_EQ(q.ordersPerDistrict, 150u);
    EXPECT_EQ(q.firstNewOrder, 76u);
}

TEST(ConfigFor, MachineIsTheDefault)
{
    const ExperimentConfig cfg =
        configFor(tpcc::TxnType::Delivery, true, 3);
    EXPECT_TRUE(cfg.machine == MachineConfig{});
}

TEST(Bars, NamesAreStable)
{
    EXPECT_STREQ(barName(Bar::Sequential), "SEQUENTIAL");
    EXPECT_STREQ(barName(Bar::NoSubthread), "NO SUB-THREAD");
    EXPECT_STREQ(barName(Bar::Baseline), "BASELINE");
}

} // namespace
} // namespace sim
} // namespace tlsim
