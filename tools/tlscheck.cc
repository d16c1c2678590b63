/**
 * @file
 * tlscheck — offline trace checker and simulator cross-validator.
 *
 * Mode 1, raw trace:
 *   tlscheck --trace=FILE [--idx=FILE] [--line-bytes=N]
 * Replays the captured trace through the independent happens-before
 * checker (src/verify/checker) and diffs its per-record conflict /
 * covered-load classification against a TraceIndex — the one loaded
 * from --idx if given, else one built in-process. Any disagreement is
 * a hard error: a mis-classified line would make the simulator skip
 * violation scans.
 *
 * Mode 2, benchmark:
 *   tlscheck --benchmark=NAME [--quick] [--txns=N] [--warmup=N]
 *            [--trace-cache=DIR] [--audit=off|commit|full]
 * Captures (or reloads) the benchmark's traces, checks both against
 * their shared indexes, then runs the full TLS simulation and
 * validates the RunResult against the checker's ground truth: commit
 * order serializable, violation bookkeeping consistent, and every
 * violated line independently proven a RAW candidate. --audit
 * additionally attaches the runtime invariant auditor to the
 * simulation.
 *
 * Mode 2 captures with the benchmark's config from sim::configFor,
 * the one the bench binaries use.
 *
 * Exit status: 0 all checks passed, 1 any mismatch, 2 a usage error
 * (sim/cli.h).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "base/log.h"
#include "core/machine.h"
#include "core/traceindex.h"
#include "sim/artifact.h"
#include "sim/cli.h"
#include "sim/tracecache.h"
#include "sim/traceio.h"
#include "tpcc/tpcc.h"
#include "verify/auditor.h"
#include "verify/checker.h"

using namespace tlsim;

namespace {

int
report(const char *what, const std::vector<std::string> &errors)
{
    if (errors.empty()) {
        std::printf("tlscheck: %s OK\n", what);
        return 0;
    }
    std::printf("tlscheck: %s FAILED (%zu mismatches)\n", what,
                errors.size());
    for (const std::string &e : errors)
        std::printf("  %s\n", e.c_str());
    return 1;
}

void
printSummary(const char *name, const verify::CheckResult &chk)
{
    std::printf("%s: %llu parallel epochs, %llu exposed loads, "
                "lines %llu private / %llu read-shared / %llu "
                "conflict (%zu RAW candidates)\n",
                name,
                static_cast<unsigned long long>(chk.parallelEpochs),
                static_cast<unsigned long long>(chk.exposedLoads),
                static_cast<unsigned long long>(chk.epochPrivate),
                static_cast<unsigned long long>(chk.readShared),
                static_cast<unsigned long long>(chk.conflict),
                chk.rawLines.size());
}

int
checkTraceFile(const cli::Args &a)
{
    WorkloadTrace w;
    if (!sim::loadTraceFile(a.str("trace"), &w))
        fatal("not a tlsim trace file: %s", a.str("trace").c_str());
    const unsigned line_bytes = a.u32("line-bytes", MemConfig{}.lineBytes);

    verify::CheckResult chk = verify::checkTrace(w, line_bytes);
    printSummary(a.str("trace").c_str(), chk);

    std::unique_ptr<TraceIndex> owned;
    if (a.has("idx")) {
        owned = TraceIndex::loadFile(a.str("idx"), w, line_bytes);
        if (!owned)
            fatal("cannot load trace index %s against this trace",
                  a.str("idx").c_str());
    } else {
        owned = std::make_unique<TraceIndex>(w, line_bytes);
    }
    return report("index diff",
                  verify::diffAgainstIndex(chk, *owned, w));
}

int
checkBenchmark(const cli::Args &a)
{
    tpcc::TxnType type = a.benchmark("benchmark");
    sim::ExperimentConfig cfg = sim::configFor(
        type, a.has("quick"), a.u32("txns", 0));
    cfg.warmupTxns = a.u32("warmup", cfg.warmupTxns);
    cfg.machine.tls.auditLevel =
        parseAuditLevel(a.oneOf("audit", {"off", "commit", "full"}));

    std::fprintf(stderr, "tlscheck: capturing %s...\n",
                 tpcc::txnTypeName(type));
    sim::SharedTraces traces =
        sim::captureTracesShared(type, cfg, a.str("trace-cache"));
    unsigned line_bytes = cfg.machine.mem.lineBytes;

    int rc = 0;

    // Independent classification of both captures, diffed against the
    // indexes the simulator will trust.
    verify::CheckResult chk_orig =
        verify::checkTrace(traces->original, line_bytes);
    printSummary("original trace", chk_orig);
    rc |= report("original index diff",
                 verify::diffAgainstIndex(chk_orig,
                                          *traces->originalIndex,
                                          traces->original));

    verify::CheckResult chk_tls =
        verify::checkTrace(traces->tls, line_bytes);
    printSummary("tls trace", chk_tls);
    rc |= report("tls index diff",
                 verify::diffAgainstIndex(chk_tls, *traces->tlsIndex,
                                          traces->tls));

    // Full TLS simulation (auditor attached when --audit is not off),
    // validated against the checker's ground truth.
    TlsMachine m(cfg.machine);
    RunResult r =
        verify::runWithAudit(m, traces->tls, ExecMode::Tls,
                             cfg.warmupTxns, traces->tlsIndex.get());
    std::printf("simulation: %llu epochs, %llu primary violations, "
                "%llu audit checks\n",
                static_cast<unsigned long long>(r.epochs),
                static_cast<unsigned long long>(r.primaryViolations),
                static_cast<unsigned long long>(r.auditChecks));
    rc |= report("run diff", verify::diffAgainstRun(chk_tls, r));
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    using F = cli::Flag;
    setInformEnabled(false);
    const cli::Args a(
        "tlscheck",
        {{"trace", F::Text, "mode 1: check this trace file"},
         {"idx", F::Text, "mode 1: against this index (default: built)"},
         {"line-bytes", F::Number, "mode 1: cache line size"},
         {"benchmark", F::Text, "mode 2: check NEW_ORDER, ..."},
         {"quick", F::Switch, "mode 2: reduced TPC-C scale"},
         {"txns", F::Number, "mode 2: transactions to capture"},
         {"warmup", F::Number, "mode 2: warm-up transactions"},
         {"trace-cache", F::Text, "mode 2: reuse on-disk traces"},
         {"audit", F::Text, "mode 2: invariant auditor level"}},
        argc, argv, 1);
    if (a.has("trace"))
        return checkTraceFile(a);
    if (a.has("benchmark"))
        return checkBenchmark(a);
    a.fail("give --trace or --benchmark");
}
