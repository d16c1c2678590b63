/**
 * @file
 * Reproduces Figure 5 of the paper: overall performance of the seven
 * optimized benchmarks on the 4-CPU system, as normalized execution
 * time broken into {idle, failed, latch stall, sync, cache miss, busy}
 * for the five configurations {SEQUENTIAL, TLS-SEQ, NO SUB-THREAD,
 * BASELINE, NO SPECULATION}.
 *
 * Shape targets from the paper:
 *  - SEQUENTIAL is 3/4 idle (one CPU of four works);
 *  - TLS-SEQ lands within 0.93x-1.05x of SEQUENTIAL;
 *  - BASELINE (8 sub-threads @ 5k insts) speeds up NEW ORDER,
 *    NEW ORDER 150, DELIVERY, DELIVERY OUTER and STOCK LEVEL, with
 *    1.9x-2.9x for three of the five distinct transactions, and sits
 *    close to NO SPECULATION for the NEW ORDER variants and
 *    DELIVERY OUTER;
 *  - NO SUB-THREAD leaves large failed-speculation components
 *    (DELIVERY OUTER more than 2x slower than BASELINE);
 *  - PAYMENT and ORDER STATUS do not improve (coverage-bound).
 *
 * Captures run serially up front (synthetic-PC assignment is
 * interning-order dependent); the (benchmark x bar) simulation points
 * then fan out across --jobs workers. Results land in index-assigned
 * slots, so the report is bit-identical for any job count.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "base/log.h"
#include "bench/benchutil.h"
#include "core/resulthash.h"
#include "sim/report.h"

using namespace tlsim;

int
main(int argc, char **argv)
{
    bench::BenchSession session("bench_figure5_overall", argc, argv);
    bench::BenchArgs &args = session.args;
    sim::SimExecutor &ex = session.ex;
    bench::BenchReport &report = session.report;

    std::cout << "Machine configuration (paper Table 1):\n";
    sim::ExperimentConfig probe =
        bench::configFor(tpcc::TxnType::NewOrder, args);
    probe.machine.print(std::cout);
    std::cout << "\n";

    const auto &benches = tpcc::allBenchmarks();
    const std::vector<sim::Bar> &bars = sim::allBars();

    // Serial capture phase (each benchmark exactly once).
    std::vector<sim::ExperimentConfig> cfgs;
    std::vector<sim::SharedTraces> traces;
    for (tpcc::TxnType type : benches) {
        std::fprintf(stderr, "capturing %s...\n",
                     tpcc::txnTypeName(type));
        cfgs.push_back(bench::configFor(type, args));
        traces.push_back(bench::capture(type, cfgs.back(), args));
    }
    if (report.probe().enabled()) {
        std::vector<std::uint64_t> caps;
        for (const sim::SharedTraces &t : traces) {
            det::Hash h;
            h.u64(det::hashWorkloadTrace(t->original));
            h.u64(det::hashWorkloadTrace(t->tls));
            caps.push_back(h.value());
        }
        report.probe().stageItems("capture", caps);
    }

    // Parallel simulation phase: one task per (benchmark, bar).
    std::vector<RunResult> runs(benches.size() * bars.size());
    ex.parallelFor(runs.size(), [&](std::size_t i) {
        std::size_t b = i / bars.size();
        runs[i] = sim::runBar(bars[i % bars.size()], *traces[b],
                              cfgs[b]);
    });
    if (report.probe().enabled()) {
        std::vector<std::uint64_t> digests;
        for (const RunResult &r : runs)
            digests.push_back(det::hashRunResult(r));
        report.probe().stageItems("replay", digests);
    }

    std::vector<sim::Figure5Row> rows;
    for (std::size_t b = 0; b < benches.size(); ++b) {
        sim::Figure5Row row;
        row.type = benches[b];
        for (std::size_t j = 0; j < bars.size(); ++j)
            row.bars.emplace_back(bars[j],
                                  std::move(runs[b * bars.size() + j]));
        sim::printFigure5Row(std::cout, row);
        for (const auto &[bar, r] : row.bars) {
            report.addSimulatedCycles(static_cast<double>(r.makespan));
            report.add(
                std::string(tpcc::txnTypeName(row.type)) + "/" +
                    sim::barName(bar),
                {{"makespan", static_cast<double>(r.makespan)},
                 {"speedup", row.speedup(bar)}});
        }
        rows.push_back(std::move(row));
    }
    if (report.probe().enabled()) {
        std::vector<std::uint64_t> agg;
        for (const sim::Figure5Row &row : rows) {
            det::Hash h;
            h.str(tpcc::txnTypeName(row.type));
            for (const auto &[bar, r] : row.bars) {
                h.str(sim::barName(bar));
                h.u64(r.makespan);
                h.f64(row.speedup(bar));
            }
            agg.push_back(h.value());
        }
        report.probe().stageItems("aggregate", agg);
    }

    sim::printSpeedupSummary(std::cout, rows);
    return session.finish();
}
