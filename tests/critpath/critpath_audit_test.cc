/**
 * Audit-label band test: the quick NEW ORDER prediction stays inside
 * the critpath band while the runtime invariant auditor runs at its
 * strictest level. The auditor changes nothing about the simulated
 * timing (it only observes), so the same band must hold — a cheap
 * cross-check that neither the auditor nor the analyzer perturbs the
 * machine it reasons about.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/critpath/analyzer.h"
#include "core/critpath/graph.h"
#include "sim/experiment.h"
#include "sim/tracecache.h"
#include "verify/auditor.h"

namespace tlsim {
namespace {

using critpath::Analyzer;
using critpath::AnalyzerConfig;
using critpath::DepGraph;
using critpath::Prediction;

/** Mid-grid probe band; tighter than the corner-inclusive gate band
 *  (tests/critpath/critpath_gate_test.cc) because the (4, 2500)
 *  probe sits away from the checkpoint-starved corners that widen
 *  the gate's band. */
constexpr double kBand = 0.30;

TEST(CritpathAuditBand, NewOrderPredictionHoldsUnderFullAudit)
{
    sim::ExperimentConfig c = sim::ExperimentConfig::testPreset();
    c.txns = 5;
    c.warmupTxns = 1;
    c.machine.tls.auditLevel = AuditLevel::Full;

    const sim::SharedTraces shared =
        sim::captureTracesShared(tpcc::TxnType::NewOrder, c);
    const sim::BenchmarkTraces &traces = *shared;

    DepGraph g(traces.tls, *traces.tlsIndex, c.machine);
    Analyzer an(g);

    auto simulate = [&](unsigned k, std::uint64_t s) {
        MachineConfig mc = c.machine;
        mc.tls.subthreadsPerThread = k;
        mc.tls.subthreadSpacing = s;
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.tls, ExecMode::Tls,
                                    c.warmupTxns,
                                    traces.tlsIndex.get());
    };
    auto predict = [&](unsigned k, std::uint64_t s) {
        AnalyzerConfig ac;
        ac.subthreads = k;
        ac.spacing = s;
        ac.warmupTxns = c.warmupTxns;
        return an.predict(ac);
    };

    RunResult base_sim = simulate(8, 5000);
    ASSERT_GT(base_sim.auditChecks, 0u); // the auditor really ran
    Prediction base_pred = predict(8, 5000);
    ASSERT_GT(base_pred.makespan, 0u);
    const double calib = static_cast<double>(base_sim.makespan) /
                         static_cast<double>(base_pred.makespan);

    RunResult probe_sim = simulate(4, 2500);
    Prediction probe_pred = predict(4, 2500);
    const double est =
        calib * static_cast<double>(probe_pred.makespan);
    const double err =
        std::abs(est - static_cast<double>(probe_sim.makespan)) /
        static_cast<double>(probe_sim.makespan);
    EXPECT_LE(err, kBand)
        << "predicted " << est << " vs simulated "
        << probe_sim.makespan;
}

} // namespace
} // namespace tlsim
