/**
 * The critpath accuracy gate (`ctest -L critpath`): on the five
 * TPC-C transactions of the Figure-6 sweep, the analytical makespan —
 * after single-point calibration on the BASELINE configuration — must
 * stay within the stated band of the timing simulation at probe
 * points spanning the sweep grid's corners.
 *
 * This is the contract bench_figure6_sweep's --prune=oracle mode
 * relies on: the oracle ranks grid points analytically and only the
 * predicted frontier is simulated, so a silently degrading predictor
 * would silently degrade the published figure. The band (and the
 * methodology) is documented in EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/critpath/analyzer.h"
#include "core/critpath/graph.h"
#include "sim/experiment.h"
#include "sim/tracecache.h"

namespace tlsim {
namespace {

using critpath::Analyzer;
using critpath::AnalyzerConfig;
using critpath::DepGraph;
using critpath::Prediction;

/**
 * Maximum relative error |calibrated prediction - simulation| /
 * simulation tolerated at any probe point. The calibration on
 * BASELINE removes the global scale error; this band bounds what
 * remains across configurations, including the checkpoint-starved
 * grid corners probed below. Mid-grid points and contention-light
 * workloads predict within ~10%; the band is set by the corners
 * (2 sub-threads x 1000, 8 x 50000), where whether a violation
 * chain quenches after two links or storms across a B-tree page run
 * is decided by few-hundred-cycle races between a restarted epoch's
 * re-executed stores and its successor's loads. Those races hinge
 * on cross-epoch latch serialization during replay, which the
 * per-epoch analytic timeline abstracts away, so the model can
 * over-predict a storm the machine quenches (or vice versa) at
 * those corners. Methodology and per-benchmark residuals are in
 * EXPERIMENTS.md "Critical-path oracle validation".
 */
constexpr double kBand = 0.60;

sim::ExperimentConfig
gateCfg()
{
    sim::ExperimentConfig c = sim::ExperimentConfig::testPreset();
    c.scale.items = 1200;
    c.scale.customersPerDistrict = 80;
    c.scale.ordersPerDistrict = 80;
    c.scale.firstNewOrder = 41;
    c.txns = 5;
    c.warmupTxns = 1;
    return c;
}

class CritpathGate : public ::testing::TestWithParam<tpcc::TxnType>
{
};

TEST_P(CritpathGate, CalibratedPredictionWithinBand)
{
    sim::ExperimentConfig c = gateCfg();
    const sim::SharedTraces shared = sim::captureTracesShared(GetParam(), c);
    const sim::BenchmarkTraces &traces = *shared;

    DepGraph g(traces.tls, *traces.tlsIndex, c.machine);
    Analyzer an(g);

    auto simulate = [&](unsigned k, std::uint64_t s) {
        MachineConfig mc = c.machine;
        mc.tls.subthreadsPerThread = k;
        mc.tls.subthreadSpacing = s;
        TlsMachine m(mc);
        return m.run(traces.tls, ExecMode::Tls, c.warmupTxns,
                     traces.tlsIndex.get());
    };
    auto predict = [&](unsigned k, std::uint64_t s) {
        AnalyzerConfig ac;
        ac.subthreads = k;
        ac.spacing = s;
        ac.warmupTxns = c.warmupTxns;
        return an.predict(ac);
    };

    // Calibrate once on the BASELINE point (8 sub-threads x 5000).
    RunResult base_sim = simulate(8, 5000);
    Prediction base_pred = predict(8, 5000);
    ASSERT_GT(base_sim.makespan, 0u);
    ASSERT_GT(base_pred.makespan, 0u);
    const double calib = static_cast<double>(base_sim.makespan) /
                         static_cast<double>(base_pred.makespan);

    // Probes at the sweep grid's corners: few coarse sub-threads,
    // mid-grid, and the large-spacing edge where checkpoints are
    // nearly absent.
    const struct
    {
        unsigned k;
        std::uint64_t s;
    } probes[] = {{2, 1000}, {4, 10000}, {8, 50000}};

    for (const auto &pr : probes) {
        RunResult s = simulate(pr.k, pr.s);
        Prediction p = predict(pr.k, pr.s);
        const double est = calib * static_cast<double>(p.makespan);
        const double err =
            std::abs(est - static_cast<double>(s.makespan)) /
            static_cast<double>(s.makespan);
        std::fprintf(stderr,
                     "critpath gate %s k=%u s=%llu: simulated %llu "
                     "(viol %llu) predicted %.0f (viol %llu, calib "
                     "%.3f) err %.1f%%\n",
                     tpcc::txnTypeName(GetParam()), pr.k,
                     static_cast<unsigned long long>(pr.s),
                     static_cast<unsigned long long>(s.makespan),
                     static_cast<unsigned long long>(
                         s.primaryViolations),
                     est,
                     static_cast<unsigned long long>(p.violations),
                     calib, err * 100.0);
        EXPECT_LE(err, kBand)
            << tpcc::txnTypeName(GetParam()) << " k=" << pr.k
            << " s=" << pr.s << ": predicted " << est
            << " vs simulated " << s.makespan;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SweepBenchmarks, CritpathGate,
    ::testing::Values(tpcc::TxnType::NewOrder,
                      tpcc::TxnType::NewOrder150,
                      tpcc::TxnType::Delivery,
                      tpcc::TxnType::DeliveryOuter,
                      tpcc::TxnType::StockLevel),
    [](const ::testing::TestParamInfo<tpcc::TxnType> &info) {
        std::string n = tpcc::txnTypeName(info.param);
        for (char &c : n)
            if (c == ' ')
                c = '_';
        return n;
    });

} // namespace
} // namespace tlsim
