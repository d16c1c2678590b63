/**
 * @file
 * tlsim — command-line driver for the sub-threads TLS simulator.
 *
 *   tlsim capture --benchmark=NEW_ORDER [--out=no.trace] [--quick] ...
 *   tlsim info    --trace=no.trace
 *   tlsim replay  --trace=no.trace [machine options]
 *
 * `tlsim COMMAND --help` lists a command's flags (sim/cli.h; an
 * unknown flag or a malformed number exits 2). A capture takes the
 * benchmark's config from sim::configFor, as the bench binaries do;
 * they produce the paper's artifacts (bench_table2_stats,
 * bench_figure5_overall, bench_figure6_sweep).
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "base/log.h"
#include "core/machine.h"
#include "core/resulthash.h"
#include "sim/artifact.h"
#include "sim/cli.h"
#include "sim/traceio.h"
#include "tpcc/tpcc.h"
#include "verify/auditor.h"

using namespace tlsim;

namespace {

MachineConfig
machineConfig(const cli::Args &a)
{
    MachineConfig mc;
    mc.tls.subthreadsPerThread =
        a.u32("subthreads", mc.tls.subthreadsPerThread);
    mc.tls.subthreadSpacing =
        a.num("spacing", mc.tls.subthreadSpacing);
    mc.tls.numCpus = a.u32("cpus", mc.tls.numCpus);
    mc.tls.adaptiveSpacing = a.has("adaptive");
    if (a.has("no-start-table"))
        mc.tls.useStartTable = false;
    if (a.has("no-victim"))
        mc.tls.useVictimCache = false;
    if (a.has("lazy-updates"))
        mc.tls.aggressiveUpdates = false;
    mc.tls.auditLevel =
        parseAuditLevel(a.oneOf("audit", {"off", "commit", "full"}));
    return mc;
}

void
printRun(const RunResult &r)
{
    std::printf("makespan           %llu cycles\n",
                static_cast<unsigned long long>(r.makespan));
    std::printf("transactions       %llu (%.0f cycles each)\n",
                static_cast<unsigned long long>(r.txns),
                r.txns ? static_cast<double>(r.makespan) /
                             static_cast<double>(r.txns)
                       : 0.0);
    std::printf("epochs committed   %llu\n",
                static_cast<unsigned long long>(r.epochs));
    std::printf("violations         %llu primary, %llu secondary\n",
                static_cast<unsigned long long>(r.primaryViolations),
                static_cast<unsigned long long>(r.secondaryViolations));
    std::printf("squashes           %llu (%llu insts rewound)\n",
                static_cast<unsigned long long>(r.squashes),
                static_cast<unsigned long long>(r.rewoundInsts));
    std::printf("sub-threads        %llu started\n",
                static_cast<unsigned long long>(r.subthreadsStarted));
    std::printf("latch waits        %llu; overflow events %llu\n",
                static_cast<unsigned long long>(r.latchWaits),
                static_cast<unsigned long long>(r.overflowEvents));
    std::printf("breakdown          ");
    for (unsigned c = 0; c < kNumCats; ++c) {
        double frac = r.total.total()
                          ? 100.0 * static_cast<double>(
                                        r.total.cycles[c]) /
                                static_cast<double>(r.total.total())
                          : 0.0;
        std::printf("%s %.1f%%  ", catName(static_cast<Cat>(c)), frac);
    }
    std::printf("\n");
    std::printf("caches             L1 %.2f%% miss, L2 %.2f%% miss, "
                "%llu victim hits\n",
                r.l1Hits + r.l1Misses
                    ? 100.0 * static_cast<double>(r.l1Misses) /
                          static_cast<double>(r.l1Hits + r.l1Misses)
                    : 0.0,
                r.l2Hits + r.l2Misses
                    ? 100.0 * static_cast<double>(r.l2Misses) /
                          static_cast<double>(r.l2Hits + r.l2Misses)
                    : 0.0,
                static_cast<unsigned long long>(r.victimHits));
    std::printf("branches           %llu (%.2f%% mispredicted)\n",
                static_cast<unsigned long long>(r.branches),
                r.branches ? 100.0 * static_cast<double>(
                                         r.mispredicts) /
                                 static_cast<double>(r.branches)
                           : 0.0);
}

int
cmdCapture(const cli::Args &a)
{
    tpcc::TxnType type = a.benchmark("benchmark");
    sim::ExperimentConfig cfg = sim::configFor(
        type, a.has("quick"), a.u32("txns", 0));

    tpcc::CaptureOptions opts;
    opts.scale = cfg.scale;
    opts.txns = cfg.txns;
    opts.tlsBuild = !a.has("original");
    opts.parallelMode = !a.has("original");
    std::fprintf(stderr, "capturing %u %s transactions...\n",
                 opts.txns, tpcc::txnTypeName(type));
    WorkloadTrace w = tpcc::captureBenchmark(type, opts);

    std::string out = a.str("out", "workload.trace");
    sim::saveTraceFile(out, w);
    std::printf("wrote %s (%zu transactions)\n", out.c_str(),
                w.txns.size());
    return 0;
}

int
cmdInfo(const cli::Args &a)
{
    WorkloadTrace w;
    if (!sim::loadTraceFile(a.str("trace", "workload.trace"), &w))
        fatal("not a tlsim trace file");
    std::printf("transactions: %zu\n", w.txns.size());
    for (std::size_t i = 0; i < w.txns.size(); ++i) {
        const auto &t = w.txns[i];
        std::printf("  txn %2zu: %llu insts, coverage %.0f%%, "
                    "%llu epochs (%.1f per loop, %.0f insts each)\n",
                    i,
                    static_cast<unsigned long long>(t.totalInsts()),
                    100.0 * t.coverage(),
                    static_cast<unsigned long long>(t.epochCount()),
                    t.epochsPerLoop(), t.meanEpochInsts());
    }
    return 0;
}

int
cmdReplay(const cli::Args &a)
{
    WorkloadTrace w;
    if (!sim::loadTraceFile(a.str("trace", "workload.trace"), &w))
        fatal("not a tlsim trace file");
    MachineConfig mc = machineConfig(a);
    const std::string name = a.oneOf("mode", {"tls", "serial", "nospec"});
    const ExecMode mode = name == "tls"      ? ExecMode::Tls
                          : name == "serial" ? ExecMode::Serial
                                             : ExecMode::NoSpeculation;
    unsigned warmup = a.u32("warmup", 0);

    TlsMachine m(mc);
    RunResult r = verify::runWithAudit(m, w, mode, warmup);
    if (mc.tls.auditLevel != AuditLevel::Off)
        std::printf("audit              %llu invariant checks, 0 "
                    "violations\n",
                    static_cast<unsigned long long>(r.auditChecks));
    if (a.has("det-probe")) {
        // Canonical per-stage digests (base/dethash.h): the capture
        // digest covers the loaded trace bytes, the replay digest the
        // full RunResult. Two replays of the same trace file must
        // print identical lines whatever the machine's thread count.
        std::printf("det-probe          capture=%016llx replay=%016llx\n",
                    static_cast<unsigned long long>(
                        det::hashWorkloadTrace(w)),
                    static_cast<unsigned long long>(
                        det::hashRunResult(r)));
    }
    printRun(r);
    if (a.has("profile"))
        std::printf("\n%s", m.profiler().reportText(12).c_str());
    if (a.has("stats"))
        m.dumpStats(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using F = cli::Flag;
    setInformEnabled(false);
    const std::string cmd = argc >= 2 ? argv[1] : "";
    const cli::Flag trace{"trace", F::Text, "trace file (workload.trace)"};
    if (cmd == "capture")
        return cmdCapture(cli::Args(
            "tlsim capture",
            {{"benchmark", F::Text, "NEW_ORDER, NEW_ORDER_150, ..."},
             {"out", F::Text, "trace file to write (workload.trace)"},
             {"quick", F::Switch, "reduced TPC-C scale"},
             {"txns", F::Number, "transactions (default: sim::configFor)"},
             {"original", F::Switch, "the untuned, unparallelized build"}},
            argc, argv, 2));
    if (cmd == "info")
        return cmdInfo(cli::Args("tlsim info", {trace}, argc, argv, 2));
    if (cmd == "replay")
        return cmdReplay(cli::Args(
            "tlsim replay",
            {trace,
             {"mode", F::Text, "tls|serial|nospec (default tls)"},
             {"subthreads", F::Number, "sub-thread contexts per CPU"},
             {"spacing", F::Number, "speculative insts per sub-thread"},
             {"cpus", F::Number, "CPUs"},
             {"adaptive", F::Switch, "adaptive sub-thread spacing"},
             {"no-start-table", F::Switch, "no sub-thread start table"},
             {"no-victim", F::Switch, "no victim cache"},
             {"lazy-updates", F::Switch, "lazy speculative updates"},
             {"audit", F::Text, "invariant auditor: off|commit|full"},
             {"warmup", F::Number, "transactions left out of statistics"},
             {"profile", F::Switch, "print the dependence profiler"},
             {"stats", F::Switch, "dump the machine's statistics"},
             {"det-probe", F::Switch, "print capture/replay digests"}},
            argc, argv, 2));
    std::fprintf(cmd == "help" ? stdout : stderr,
                 "usage: tlsim <capture|info|replay> [--flag[=value] "
                 "...]\n");
    return cmd == "help" ? 0 : 2;
}
