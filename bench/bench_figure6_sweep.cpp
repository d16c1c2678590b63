/**
 * @file
 * Reproduces Figure 6 of the paper: performance of the five
 * loop-parallelized benchmarks while varying the number of sub-thread
 * contexts per thread (2, 4, 8) and the spacing between sub-thread
 * start points (speculative instructions per sub-thread).
 *
 * The BASELINE point is 8 sub-threads at 5,000 instructions. Shape
 * targets from the paper's Section 5.1: more sub-threads never hurt
 * (the extra contexts either widen coverage or increase checkpoint
 * density), very large sub-threads forfeit the benefit, and
 * DELIVERY OUTER shows the early-dependence re-timing effect that
 * small sub-threads unlock.
 *
 * With --prune=oracle only the critical-path oracle's predicted
 * frontier is simulated (sim::ArtifactRun::pruneOracle). Pruned points
 * report the calibrated predicted makespan ("simulated": 0 in the JSON
 * rows); the "critpath" report block carries the observed band error
 * and the pruning ratio (at least 2x fewer timing simulations,
 * enforced by tools/check_bench_json.py).
 *
 * With --placement=risk both the simulated machine and the analyzer
 * place sub-thread start points at predicted exposed-load risk
 * records instead of fixed spacing (TlsConfig::riskPlacement).
 *
 * sim::runArtifact() captures serially and fans all (benchmark x
 * {sequential reference, sweep point}) simulation points out across
 * --jobs workers; the report is bit-identical for any job count.
 */

#include <cstdio>
#include <iostream>

#include "base/log.h"
#include "bench/benchutil.h"
#include "sim/report.h"

using namespace tlsim;

int
main(int argc, char **argv)
{
    bench::BenchSession session("bench_figure6_sweep", argc, argv);
    bench::BenchReport &report = session.report;
    const bool oracle = session.args.prune == "oracle";

    const sim::ArtifactResult res = session.run(sim::Artifact::Figure6);
    report.add("index_builds/sweep-phase",
               {{"builds", static_cast<double>(res.indexBuilds)}});
    if (oracle) {
        const sim::OracleSummary &o = res.oracle;
        report.addBlock("critpath",
                        {{"predicted_makespan", o.predicted},
                         {"band_error", o.bandError},
                         {"points_total", static_cast<double>(o.total)},
                         {"points_simulated",
                          static_cast<double>(o.simulated)}});
        std::printf("oracle pruning: simulated %zu of %zu grid points "
                    "(band error %.1f%%, placement %s)\n\n",
                    o.simulated, o.total, o.bandError * 100.0,
                    session.args.placement.c_str());
    }

    for (const sim::Figure6Row &row : res.figure6) {
        const char *name = tpcc::txnTypeName(row.type);
        sim::printFigure6(std::cout, name, row.points, row.seqMakespan);
        report.addSimulatedCycles(static_cast<double>(row.seqMakespan));
        report.add(std::string(name) + "/SEQUENTIAL",
                   {{"makespan", static_cast<double>(row.seqMakespan)}});
        for (const sim::SweepPoint &p : row.points) {
            if (p.simulated)
                report.addSimulatedCycles(
                    static_cast<double>(p.run.makespan));
            bench::BenchReport::Fields fields = {
                {"makespan", static_cast<double>(p.run.makespan)},
                {"speedup", p.run.makespan
                                ? static_cast<double>(row.seqMakespan) /
                                      static_cast<double>(p.run.makespan)
                                : 0.0}};
            if (oracle)
                fields.emplace_back("simulated", p.simulated ? 1.0 : 0.0);
            report.add(strfmt("%s/k%u/s%llu", name, p.subthreads,
                              static_cast<unsigned long long>(p.spacing)),
                       std::move(fields));
        }
    }
    return session.finish();
}
