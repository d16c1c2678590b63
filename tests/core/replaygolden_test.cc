/**
 * @file
 * Golden replay pins: the RunResult digest of every execution mode and
 * of each TLS mechanism knob, and the bytes of the saved trace index,
 * all over the address-free workload of goldentrace.h. Captured traces
 * carry host heap addresses, so their results can only be compared
 * within one process or one trace cache; these pins hold across
 * processes and builds, so a change to how the replay engine reads a
 * trace must leave every one of them unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "base/dethash.h"
#include "core/critpath/analyzer.h"
#include "core/critpath/graph.h"
#include "core/machine.h"
#include "core/resulthash.h"
#include "core/traceindex.h"
#include "goldentrace.h"

namespace tlsim {
namespace {

constexpr unsigned kWarmupTxns = 1;

const WorkloadTrace &
workload()
{
    static const WorkloadTrace w = golden::replayWorkload();
    return w;
}

struct Pin
{
    const char *name;
    ExecMode mode;
    void (*apply)(MachineConfig &);
    std::uint64_t digest; ///< det::hashRunResult
};

const Pin kPins[] = {
    {"serial", ExecMode::Serial, [](MachineConfig &) {},
     0x6fa5a25d99f1fc31ull},
    {"no-speculation", ExecMode::NoSpeculation,
     [](MachineConfig &) {}, 0xedc58c0bee772df9ull},
    {"tls-k1", ExecMode::Tls,
     [](MachineConfig &c) { c.tls.subthreadsPerThread = 1; },
     0x96ee8adffda2b80aull},
    {"tls-k8-s5000", ExecMode::Tls, [](MachineConfig &) {},
     0x74a5eea56e309ec4ull},
    {"tls-k8-s5000-no-oracle", ExecMode::Tls,
     [](MachineConfig &c) { c.tls.useConflictOracle = false; },
     0x74a5eea56e309ec4ull},
    {"lazy-updates", ExecMode::Tls,
     [](MachineConfig &c) { c.tls.aggressiveUpdates = false; },
     0xb7fb6474d9c2e030ull},
    {"adaptive-spacing", ExecMode::Tls,
     [](MachineConfig &c) { c.tls.adaptiveSpacing = true; },
     0x910547d497b2f4b2ull},
    {"risk-placement", ExecMode::Tls,
     [](MachineConfig &c) { c.tls.riskPlacement = true; },
     0x927bb9bfa80e2540ull},
    {"dependence-predictor", ExecMode::Tls,
     [](MachineConfig &c) { c.tls.useDependencePredictor = true; },
     0x66ab322548922becull},
    {"victim4-tiny-l2", ExecMode::Tls,
     [](MachineConfig &c) {
         c.mem.l2Bytes = 512 * 4 * 32; // 64 KiB: 512 sets x 4 ways
         c.mem.victimEntries = 4;
     },
     0x16109e6c669e4257ull},
};

RunResult
runPin(const Pin &p)
{
    MachineConfig cfg;
    p.apply(cfg);
    TlsMachine m(cfg);
    return m.run(workload(), p.mode, kWarmupTxns);
}

TEST(ReplayGolden, WorkloadCoversTheReplayPaths)
{
    // The pins below only prove something if the workload exercises
    // the paths they guard: conflict lines, covered loads, escapes,
    // an epoch whose addresses span more than 4 GiB, and overflow.
    const WorkloadTrace &w = workload();
    TraceIndex idx(w, 32);
    EXPECT_GT(idx.totals().conflict, 0u);
    EXPECT_GT(idx.totals().readShared, 0u);
    EXPECT_GT(idx.totals().epochPrivate, 0u);

    bool wide = false, covered = false, risky = false, escapes = false;
    for (const TransactionTrace &txn : w.txns) {
        for (const TraceSection &sec : txn.sections) {
            for (const EpochTrace &e : sec.epochs) {
                Addr lo = std::numeric_limits<Addr>::max(), hi = 0;
                for (const TraceRecord &r : e.records) {
                    if (r.op != TraceOp::Load && r.op != TraceOp::Store)
                        continue;
                    lo = std::min(lo, r.addr);
                    hi = std::max(hi, r.addr);
                }
                wide |= hi > lo && hi - lo > (Addr{1} << 32);
                escapes |= !e.escapeSpans.empty();
                const EpochView *v = idx.viewOf(&e);
                risky |= !v->riskOffsets.empty();
                for (std::uint8_t f : v->flags)
                    covered |= (f & EpochView::kCovered) != 0;
            }
        }
    }
    EXPECT_TRUE(wide);
    EXPECT_TRUE(escapes);
    EXPECT_TRUE(covered);
    EXPECT_TRUE(risky);

    MachineConfig cfg;
    TlsMachine m(cfg);
    RunResult r = m.run(w, ExecMode::Tls, kWarmupTxns);
    EXPECT_GT(r.primaryViolations, 0u);
    EXPECT_GT(r.subthreadsStarted, 0u);
    EXPECT_GT(r.branches, 0u);

    // The last pin's 4-entry victim cache over a 64 KiB L2 overflows.
    EXPECT_GT(runPin(kPins[std::size(kPins) - 1]).overflowEvents, 0u);
}

TEST(ReplayGolden, RunResultsArePinned)
{
    for (const Pin &p : kPins) {
        SCOPED_TRACE(p.name);
        RunResult r = runPin(p);
        EXPECT_EQ(det::hashRunResult(r), p.digest)
            << std::hex << "0x" << det::hashRunResult(r) << std::dec
            << " records " << r.recordsReplayed << " makespan "
            << r.makespan;
    }
}

TEST(ReplayGolden, CritpathPredictionsArePinned)
{
    // The critical-path oracle reads the same records and oracle bits
    // as the machine; its graph and predictions are pinned alike.
    MachineConfig cfg;
    TraceIndex idx(workload(), cfg.mem.lineBytes);
    critpath::DepGraph g(workload(), idx, cfg);
    critpath::Analyzer an(g);
    det::Hash h;
    h.u64(g.rawEdges());
    for (const critpath::EpochNode &n : g.epochs()) {
        h.u64(n.baseCycles);
        h.u64(n.prefixReplay.back());
    }
    for (unsigned k : {1u, 8u}) {
        for (critpath::Placement pl :
             {critpath::Placement::Fixed, critpath::Placement::Risk}) {
            critpath::AnalyzerConfig ac;
            ac.subthreads = k;
            ac.placement = pl;
            ac.warmupTxns = kWarmupTxns;
            critpath::Prediction p = an.predict(ac);
            h.u64(p.makespan);
            h.u64(p.violations);
            for (Cycle c : p.edgeCycles)
                h.u64(c);
        }
    }
    EXPECT_EQ(h.hex(), "54651d9f5bf2a1ab");
}

TEST(ReplayGolden, IndexBytesArePinned)
{
    TraceIndex idx(workload(), 32);
    std::stringstream ss;
    idx.save(ss);
    std::string bytes = ss.str();
    det::Hash h;
    h.bytes(bytes.data(), bytes.size());
    EXPECT_EQ(bytes.size(), std::size_t{44338});
    EXPECT_EQ(h.hex(), "7cd703bb40d4cf58");
}

} // namespace
} // namespace tlsim
