#include "sim/artifact.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/log.h"
#include "core/critpath/analyzer.h"
#include "core/critpath/graph.h"
#include "core/resulthash.h"
#include "sim/executor.h"
#include "sim/tracecache.h"

namespace tlsim {
namespace sim {

ExperimentConfig
configFor(tpcc::TxnType type, bool quick, unsigned txns)
{
    using tpcc::TxnType;
    ExperimentConfig cfg;
    if (quick) {
        cfg.scale = tpcc::TpccConfig::tiny();
        cfg.scale.items = 2000;
        cfg.scale.customersPerDistrict = 150;
        cfg.scale.ordersPerDistrict = 150;
        cfg.scale.firstNewOrder = 76;
    }
    const bool delivery =
        type == TxnType::Delivery || type == TxnType::DeliveryOuter;
    cfg.txns = type == TxnType::NewOrder150 ? 6 : delivery ? 8 : 12;
    cfg.warmupTxns = type == TxnType::NewOrder150 ? 1 : 2;
    if (txns) {
        cfg.txns = txns;
        cfg.warmupTxns = txns > 4 ? 2 : 1;
    }
    return cfg;
}

const std::vector<unsigned> &
sweepCounts()
{
    static const std::vector<unsigned> v = {2, 4, 8};
    return v;
}

const std::vector<std::uint64_t> &
sweepSpacings()
{
    static const std::vector<std::uint64_t> v = {1000,  2500,  5000,
                                                 10000, 25000, 50000};
    return v;
}

const std::vector<tpcc::TxnType> &
sweepBenchmarks()
{
    static const std::vector<tpcc::TxnType> v = {
        tpcc::TxnType::NewOrder, tpcc::TxnType::NewOrder150,
        tpcc::TxnType::Delivery, tpcc::TxnType::DeliveryOuter,
        tpcc::TxnType::StockLevel,
    };
    return v;
}

namespace {

/** The BASELINE among a benchmark's Figure 6 grid points: count 8
 *  (the third count) at spacing 5000 (the third of six). */
constexpr std::size_t kBasePoint = 2 * 6 + 2;

/**
 * The critical-path oracle over one benchmark's Figure 6 grid: returns
 * its predictions and leaves `run` set on the predicted frontier only
 * (the BASELINE, and per count the predicted-best and the largest
 * spacing).
 */
std::vector<critpath::Prediction>
pruneSweep(const ExperimentConfig &cfg, const BenchmarkTraces &traces,
           char *run)
{
    const std::size_t ns = sweepSpacings().size();
    critpath::DepGraph g(traces.tls, *traces.tlsIndex, cfg.machine);
    critpath::Analyzer an(g);
    std::vector<critpath::Prediction> preds;
    for (std::size_t j = 0; j < sweepCounts().size() * ns; ++j) {
        critpath::AnalyzerConfig ac;
        ac.subthreads = sweepCounts()[j / ns];
        ac.spacing = sweepSpacings()[j % ns];
        ac.placement = cfg.machine.tls.riskPlacement
                           ? critpath::Placement::Risk
                           : critpath::Placement::Fixed;
        ac.warmupTxns = cfg.warmupTxns;
        preds.push_back(an.predict(ac));
        run[j] = j == kBasePoint;
    }
    for (std::size_t first = 0; first < preds.size(); first += ns) {
        std::size_t best = first;
        for (std::size_t j = first + 1; j < first + ns; ++j)
            if (preds[j].makespan < preds[best].makespan)
                best = j;
        run[best] = run[first + ns - 1] = 1;
    }
    return preds;
}

/**
 * Give the pruned points of `row` the prediction calibrated on its
 * BASELINE run, and add the oracle's accuracy over the points both
 * predicted and simulated to `out`.
 */
void
calibrate(const std::vector<critpath::Prediction> &preds,
          Figure6Row &row, OracleSummary &out)
{
    const double calib =
        static_cast<double>(row.points[kBasePoint].run.makespan) /
        static_cast<double>(preds[kBasePoint].makespan);
    for (std::size_t j = 0; j < row.points.size(); ++j) {
        SweepPoint &p = row.points[j];
        const double est = calib * static_cast<double>(preds[j].makespan);
        out.predicted += est;
        ++out.total;
        if (!p.simulated) {
            p.run.makespan = static_cast<Cycle>(std::llround(est));
            continue;
        }
        ++out.simulated;
        const double sim_ms = static_cast<double>(p.run.makespan);
        if (j != kBasePoint && sim_ms > 0)
            out.bandError =
                std::max(out.bandError, std::abs(est - sim_ms) / sim_ms);
    }
}

} // namespace

ArtifactResult
runArtifact(const ArtifactRun &run, SimExecutor &ex, det::Probe &probe)
{
    const Artifact art = run.artifact;
    const bool prune = run.pruneOracle && art == Artifact::Figure6;
    const std::vector<tpcc::TxnType> &benches =
        art == Artifact::Figure6 ? sweepBenchmarks()
                                 : tpcc::allBenchmarks();

    // Capture.
    std::vector<ExperimentConfig> cfgs;
    std::vector<SharedTraces> traces;
    std::vector<std::uint64_t> digests;
    for (tpcc::TxnType type : benches) {
        std::fprintf(stderr, "capturing %s...\n",
                     tpcc::txnTypeName(type));
        cfgs.push_back(run.config(type));
        traces.push_back(
            captureTracesShared(type, cfgs.back(), run.traceCache));
        if (probe.enabled()) {
            det::Hash h;
            h.u64(det::hashWorkloadTrace(traces.back()->original));
            h.u64(det::hashWorkloadTrace(traces.back()->tls));
            digests.push_back(h.value());
        }
    }
    probe.stageItems("capture", digests);
    const std::uint64_t builds0 = TraceIndex::builds();

    // The flat point list, `per` points a benchmark: Table 2's
    // SEQUENTIAL run, the five Figure 5 bars, or Figure 6's SEQUENTIAL
    // run and then its grid, count-major.
    std::vector<SimPoint> points;
    for (const ExperimentConfig &cfg : cfgs) {
        if (art == Artifact::Figure5)
            for (Bar bar : allBars())
                points.push_back(barPoint(bar, cfg));
        else
            points.push_back(barPoint(Bar::Sequential, cfg));
        if (art == Artifact::Figure6)
            for (unsigned k : sweepCounts())
                for (std::uint64_t s : sweepSpacings())
                    points.push_back(sweepPoint(cfg, k, s));
    }
    const std::size_t per = points.size() / benches.size();
    std::vector<char> simulated(points.size(), 1);
    std::vector<std::vector<critpath::Prediction>> preds;
    for (std::size_t b = 0; prune && b < benches.size(); ++b)
        preds.push_back(
            pruneSweep(cfgs[b], *traces[b], &simulated[b * per + 1]));

    // Simulate.
    std::vector<RunResult> results(points.size());
    ex.parallelFor(points.size(), [&](std::size_t i) {
        if (simulated[i])
            results[i] = simulate(*traces[i / per], points[i]);
    });
    digests.clear();
    for (std::size_t i = 0; probe.enabled() && i < points.size(); ++i)
        if (simulated[i])
            digests.push_back(det::hashRunResult(results[i]));
    if (art != Artifact::Table2)
        probe.stageItems("replay", digests);

    // Fold.
    ArtifactResult out;
    out.indexBuilds = TraceIndex::builds() - builds0;
    if (out.indexBuilds != 0)
        fatal("trace pre-analysis ran %llu times after capture; every "
              "point must share its capture's index",
              static_cast<unsigned long long>(out.indexBuilds));
    digests.clear();
    for (std::size_t b = 0; b < benches.size(); ++b) {
        RunResult *r = &results[b * per];
        det::Hash h;
        if (art == Artifact::Table2) {
            const Table2Row &row = out.table2.emplace_back(
                table2Row(benches[b], cfgs[b], *traces[b], r[0]));
            h.str(tpcc::txnTypeName(row.type));
            h.f64(row.execMcycles);
            h.f64(row.coverage);
            h.f64(row.threadSizeInsts);
            h.f64(row.specInstsPerThread);
            h.f64(row.threadsPerTxn);
            h.u64(row.epochs);
        } else if (art == Artifact::Figure5) {
            Figure5Row &row = out.figure5.emplace_back();
            row.type = benches[b];
            for (std::size_t j = 0; j < per; ++j)
                row.bars.emplace_back(allBars()[j], std::move(r[j]));
            h.str(tpcc::txnTypeName(row.type));
            for (const auto &[bar, res] : row.bars) {
                h.str(barName(bar));
                h.u64(res.makespan);
                h.f64(row.speedup(bar));
            }
        } else {
            Figure6Row &row = out.figure6.emplace_back();
            row.type = benches[b];
            row.seqMakespan = r[0].makespan;
            for (std::size_t j = 1; j < per; ++j) {
                const TlsConfig tls = points[b * per + j].machine.tls;
                row.points.push_back({tls.subthreadsPerThread,
                                      tls.subthreadSpacing,
                                      std::move(r[j]),
                                      simulated[b * per + j] != 0});
            }
            if (prune)
                calibrate(preds[b], row, out.oracle);
            h.str(tpcc::txnTypeName(row.type));
            h.u64(row.seqMakespan);
            for (const SweepPoint &p : row.points) {
                h.u64(p.subthreads);
                h.u64(p.spacing);
                h.u64(p.run.makespan);
            }
        }
        digests.push_back(h.value());
    }
    probe.stageItems(art == Artifact::Table2 ? "replay" : "aggregate",
                     digests);
    return out;
}

} // namespace sim
} // namespace tlsim
