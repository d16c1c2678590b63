/**
 * @file
 * Whole-pipeline smoke across every benchmark at test scale: capture,
 * all five Figure-5 bars, and the cross-benchmark claims the paper
 * makes (which transactions benefit and which cannot).
 */

#include <gtest/gtest.h>

#include "sim/executor.h"
#include "sim/experiment.h"

namespace tlsim {
namespace sim {
namespace {

ExperimentConfig
cfg()
{
    ExperimentConfig c = ExperimentConfig::testPreset();
    c.scale.items = 1200;
    c.scale.customersPerDistrict = 80;
    c.scale.ordersPerDistrict = 80;
    c.scale.firstNewOrder = 41;
    c.txns = 5;
    c.warmupTxns = 1;
    return c;
}

Figure5Row
figure5(tpcc::TxnType type)
{
    const ExperimentConfig c = cfg();
    BenchmarkTraces traces = captureTraces(type, c);
    traces.buildIndexes(c.machine.mem.lineBytes);
    SimExecutor ex(1);
    return runFigure5(type, c, traces, ex);
}

class AllBenchmarks
    : public ::testing::TestWithParam<tpcc::TxnType>
{
};

TEST_P(AllBenchmarks, Figure5InvariantsHold)
{
    Figure5Row row = figure5(GetParam());

    const RunResult &seq = row.result(Bar::Sequential);
    EXPECT_EQ(seq.primaryViolations, 0u);
    EXPECT_NEAR(static_cast<double>(seq.total[Cat::Idle]) /
                    static_cast<double>(seq.total.total()),
                0.75, 0.01);

    for (const auto &[bar, run] : row.bars) {
        EXPECT_EQ(run.total.total(), run.makespan * 4) << barName(bar);
        EXPECT_GT(run.makespan, 0u) << barName(bar);
    }

    // TLS-SEQ overhead band (paper: 0.93x-1.05x; we allow slack for
    // the reduced scale).
    EXPECT_GT(row.speedup(Bar::TlsSeq), 0.75);
    EXPECT_LT(row.speedup(Bar::TlsSeq), 1.30);

    // Nothing beats ignoring dependences by more than noise.
    EXPECT_LE(row.speedup(Bar::Baseline),
              row.speedup(Bar::NoSpeculation) * 1.06);

    // Sub-threads never lose to all-or-nothing by more than noise.
    EXPECT_GE(row.speedup(Bar::Baseline),
              row.speedup(Bar::NoSubthread) * 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Everything, AllBenchmarks,
    ::testing::ValuesIn(tpcc::allBenchmarks()),
    [](const ::testing::TestParamInfo<tpcc::TxnType> &info) {
        std::string n = tpcc::txnTypeName(info.param);
        for (char &c : n)
            if (c == ' ')
                c = '_';
        return n;
    });

TEST(CrossBenchmark, CoverageBoundTransactionsStayFlat)
{
    // PAYMENT's coverage is ~1-3%: Amdahl forbids speedup.
    Figure5Row payment = figure5(tpcc::TxnType::Payment);
    EXPECT_LT(payment.speedup(Bar::Baseline), 1.15);
    EXPECT_LT(payment.speedup(Bar::NoSpeculation), 1.15);
}

TEST(CrossBenchmark, NewOrderBenefitsSubstantially)
{
    Figure5Row row = figure5(tpcc::TxnType::NewOrder);
    EXPECT_GT(row.speedup(Bar::Baseline), 1.5);
}

} // namespace
} // namespace sim
} // namespace tlsim
