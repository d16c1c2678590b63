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
 * sim::runArtifact() captures serially and fans the (benchmark x bar)
 * simulation points out across --jobs workers; the report is
 * bit-identical for any job count.
 */

#include <iostream>

#include "bench/benchutil.h"
#include "sim/report.h"

using namespace tlsim;

int
main(int argc, char **argv)
{
    bench::BenchSession session("bench_figure5_overall", argc, argv);

    std::cout << "Machine configuration (paper Table 1):\n";
    bench::configFor(tpcc::TxnType::NewOrder, session.args)
        .machine.print(std::cout);
    std::cout << "\n";

    const std::vector<sim::Figure5Row> rows =
        session.run(sim::Artifact::Figure5).figure5;
    for (const sim::Figure5Row &row : rows) {
        sim::printFigure5Row(std::cout, row);
        for (const auto &[bar, r] : row.bars) {
            session.report.addSimulatedCycles(
                static_cast<double>(r.makespan));
            session.report.add(
                std::string(tpcc::txnTypeName(row.type)) + "/" +
                    sim::barName(bar),
                {{"makespan", static_cast<double>(r.makespan)},
                 {"speedup", row.speedup(bar)}});
        }
    }
    sim::printSpeedupSummary(std::cout, rows);
    return session.finish();
}
