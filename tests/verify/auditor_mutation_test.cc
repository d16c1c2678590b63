/**
 * @file
 * Mutation harness for the protocol invariant auditor and the offline
 * checker: seed known corruption classes into otherwise-consistent
 * speculative state (or into the simulator's self-reported results)
 * and require that each one is caught. A verifier that never fires is
 * indistinguishable from one that is wired up wrong, so every negative
 * test here is paired with a positive control on the uncorrupted
 * state.
 *
 * Corruption classes:
 *   1. dropped SM bit        — buffered L2 version with no modifier
 *                              metadata (and the converse);
 *   2. stale victim entry    — duplicated or dead-thread victim-cache
 *                              versions;
 *   3. skipped violation     — simulator results whose violation
 *                              bookkeeping disagrees with the offline
 *                              checker's happens-before ground truth;
 * plus structural protocol corruptions (dead-context metadata,
 * non-monotone spawns, out-of-order commits) seeded through the same
 * AuditView seam the machine uses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "core/machine.h"
#include "core/site.h"
#include "core/specstate.h"
#include "core/traceindex.h"
#include "core/tracer.h"
#include "mem/memsys.h"
#include "verify/auditor.h"
#include "verify/checker.h"

namespace tlsim {
namespace {

MachineConfig
testConfig(unsigned subthreads = 8, std::uint64_t spacing = 1000)
{
    MachineConfig cfg;
    cfg.tls.subthreadsPerThread = subthreads;
    cfg.tls.subthreadSpacing = spacing;
    return cfg;
}

/**
 * Hand-built machine state behind an AuditView: a SpecState, a real
 * MemSystem, and per-CPU epoch slots the tests can activate and
 * corrupt directly — the same seam TlsMachine::refreshAuditView()
 * fills, minus the machine.
 */
class SyntheticState
{
  public:
    SyntheticState()
        : cfg_(testConfig()),
          numCpus_(cfg_.tls.numCpus),
          k_(cfg_.tls.subthreadsPerThread),
          spec_(numCpus_ * k_),
          mem_(cfg_),
          tables_(numCpus_,
                  std::vector<std::pair<std::uint64_t, unsigned>>(
                      numCpus_ * k_))
    {
        cpus_.resize(numCpus_);
        for (unsigned c = 0; c < numCpus_; ++c)
            cpus_[c].startTable = &tables_[c];
    }

    void
    activate(CpuId cpu, std::uint64_t seq, unsigned cur_sub = 0)
    {
        cpus_[cpu].active = true;
        cpus_[cpu].seq = seq;
        cpus_[cpu].curSub = cur_sub;
    }

    /** A consistent speculative store: SM bits plus the L2 version. */
    void
    consistentStore(CpuId cpu, unsigned sub, Addr line)
    {
        spec_.recordStore(cpu * k_ + sub, line, 0xF);
        ASSERT_TRUE(
            mem_.l2().insert(line, static_cast<std::uint8_t>(cpu)));
    }

    AuditView
    view()
    {
        AuditView v;
        v.spec = &spec_;
        v.mem = &mem_;
        v.numCpus = numCpus_;
        v.k = k_;
        v.cpus = cpus_;
        return v;
    }

    unsigned k() const { return k_; }
    SpecState &spec() { return spec_; }
    MemSystem &mem() { return mem_; }

  private:
    MachineConfig cfg_;
    unsigned numCpus_;
    unsigned k_;
    SpecState spec_;
    MemSystem mem_;
    std::vector<std::vector<std::pair<std::uint64_t, unsigned>>> tables_;
    std::vector<AuditCpuState> cpus_;
};

/** The invariant name a corrupted state must be rejected under. */
void
expectViolation(const std::function<void(verify::Auditor &)> &probe,
                const char *invariant)
{
    verify::Auditor a(AuditLevel::Full);
    try {
        probe(a);
        FAIL() << "corruption not caught (expected " << invariant
               << ")";
    } catch (const verify::AuditViolation &v) {
        EXPECT_EQ(v.invariant(), invariant) << v.what();
    }
}

TEST(AuditorMutation, ConsistentStatePassesAllHooks)
{
    SyntheticState s;
    s.activate(0, 5);
    s.consistentStore(0, 0, 100);

    verify::Auditor a(AuditLevel::Full);
    AuditView v = s.view();
    EXPECT_NO_THROW(a.onRunStart(v));
    EXPECT_NO_THROW(a.onAccess(v, 0, 100));
    EXPECT_GT(a.checks(), 0u);
}

// Class 1a: dropped SM bit — the thread's metadata vanished while its
// buffered L2 version survived (e.g. a clearContext that forgot to
// drop the version).
TEST(AuditorMutation, DroppedSmBitLeavesOrphanedVersion)
{
    SyntheticState s;
    s.activate(0, 5);
    s.consistentStore(0, 0, 100);
    s.spec().clearContext(0, std::uint64_t{1} << 0); // SM gone, L2 stays

    AuditView v = s.view();
    expectViolation([&](verify::Auditor &a) { a.onRunStart(v); },
                    "I2.version-iff-sm");
    expectViolation([&](verify::Auditor &a) { a.onAccess(v, 0, 100); },
                    "I2.version-iff-sm");
}

// Class 1b: the converse — SM bits recorded but the version was never
// allocated (or was silently evicted without victim backup).
TEST(AuditorMutation, SmBitsWithoutBufferedVersion)
{
    SyntheticState s;
    s.activate(0, 5);
    s.spec().recordStore(0, 200, 0xF); // no L2 insert

    AuditView v = s.view();
    expectViolation([&](verify::Auditor &a) { a.onRunStart(v); },
                    "I2.version-iff-sm");
}

// Class 2a: stale victim entry duplicating a live L2 version.
TEST(AuditorMutation, StaleVictimEntryDuplicatesL2Version)
{
    SyntheticState s;
    s.activate(0, 5);
    s.consistentStore(0, 0, 100);
    s.mem().victim().insert(100, 0); // stale duplicate

    AuditView v = s.view();
    expectViolation([&](verify::Auditor &a) { a.onAccess(v, 0, 100); },
                    "I3.single-buffer");
    expectViolation([&](verify::Auditor &a) { a.onRunStart(v); },
                    "I3.single-buffer");
}

// Class 2b: a victim entry of a thread that no longer exists.
TEST(AuditorMutation, DeadThreadVictimEntry)
{
    SyntheticState s;
    s.activate(0, 5);
    s.mem().victim().insert(300, 2); // cpu 2 has no live epoch

    AuditView v = s.view();
    expectViolation([&](verify::Auditor &a) { a.onRunStart(v); },
                    "I2.version-iff-sm");
}

// Structural: metadata owned by a context outside any live epoch.
TEST(AuditorMutation, DeadContextMetadata)
{
    SyntheticState s;
    s.activate(0, 5);
    // cpu 1 inactive, yet its context 0 holds an SL bit.
    s.spec().recordLoadExposed(1 * s.k() + 0, 400);

    AuditView v = s.view();
    expectViolation([&](verify::Auditor &a) { a.onRunStart(v); },
                    "I1.holders-live");
}

// Structural: a spawn that skips a sub-thread index.
TEST(AuditorMutation, NonMonotoneSpawn)
{
    SyntheticState s;
    s.activate(0, 5, /*cur_sub=*/2);

    AuditView v = s.view();
    expectViolation(
        [&](verify::Auditor &a) {
            a.onRunStart(v);
            a.onSpawn(v, 0, 2); // sub 1 never spawned
        },
        "I4.spawn-monotone");
}

// Structural: homefree token passed out of program order.
TEST(AuditorMutation, OutOfOrderCommit)
{
    SyntheticState s;
    AuditView v = s.view();
    expectViolation(
        [&](verify::Auditor &a) {
            a.onRunStart(v);
            a.onCommit(v, 0, 5);
            a.onCommit(v, 1, 3); // older epoch after younger
        },
        "I6.commit-order");
}

// ---------------------------------------------------------------------
// Class 3: skipped / fabricated violations, caught by diffing the
// simulator's results against the offline checker's ground truth.
// ---------------------------------------------------------------------

/** Same synthetic-workload builder as the machine tests. */
class TraceBuilder
{
  public:
    TraceBuilder()
        : mem_(16384, 0)
    {
        Tracer::Options o;
        o.parallelMode = true;
        o.spawnOverheadInsts = 50;
        tracer_ = std::make_unique<Tracer>(o);
        pc_ = SiteRegistry::instance().intern("test.verify.site");
    }

    void *addr(std::size_t word) { return &mem_.at(word); }

    WorkloadTrace
    loopTxn(const std::vector<std::function<void(Tracer &)>> &bodies)
    {
        tracer_->txnBegin();
        tracer_->compute(pc_, 100);
        tracer_->loopBegin();
        for (const auto &body : bodies) {
            tracer_->iterBegin();
            body(*tracer_);
        }
        tracer_->loopEnd();
        tracer_->compute(pc_, 100);
        tracer_->txnEnd();
        return tracer_->takeWorkload();
    }

    Pc pc() const { return pc_; }

  private:
    std::vector<std::uint64_t> mem_;
    std::unique_ptr<Tracer> tracer_;
    Pc pc_;
};

/** A workload with one guaranteed RAW dependence. */
WorkloadTrace
rawWorkload(TraceBuilder &b)
{
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 8000);
        t.store(b.pc(), b.addr(8000), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.compute(b.pc(), 200);
        t.load(b.pc(), b.addr(8000), 8);
        t.compute(b.pc(), 20000);
    };
    return b.loopTxn({writer, reader});
}

TEST(CheckerMutation, HonestRunPassesAndDoctoredRunsFail)
{
    TraceBuilder b;
    WorkloadTrace w = rawWorkload(b);

    MachineConfig cfg = testConfig();
    cfg.tls.auditLevel = AuditLevel::Full;
    TlsMachine m(cfg);
    RunResult r = verify::runWithAudit(m, w, ExecMode::Tls);
    ASSERT_GE(r.primaryViolations, 1u);
    EXPECT_GT(r.auditChecks, 0u);

    verify::CheckResult chk =
        verify::checkTrace(w, cfg.mem.lineBytes);
    ASSERT_FALSE(chk.rawLines.empty());

    // Positive control: the honest run diffs clean.
    EXPECT_TRUE(verify::diffAgainstRun(chk, r).empty());

    // Skipped violation: a violated line was dropped from the log, so
    // the count no longer matches.
    {
        RunResult doctored = r;
        doctored.violatedLines.pop_back();
        EXPECT_FALSE(verify::diffAgainstRun(chk, doctored).empty());
    }

    // Fabricated violation: a line the happens-before analysis proves
    // can never carry a RAW dependence.
    {
        RunResult doctored = r;
        Addr bogus = 0;
        while (chk.rawLines.count(bogus))
            ++bogus;
        doctored.violatedLines.push_back(bogus);
        ++doctored.primaryViolations;
        EXPECT_FALSE(verify::diffAgainstRun(chk, doctored).empty());
    }

    // Serializability: a non-monotone commit order.
    {
        RunResult doctored = r;
        ASSERT_GE(doctored.commitOrder.size(), 2u);
        std::swap(doctored.commitOrder.front(),
                  doctored.commitOrder.back());
        EXPECT_FALSE(verify::diffAgainstRun(chk, doctored).empty());
    }
}

TEST(CheckerMutation, IndexBitDisagreementIsCaught)
{
    TraceBuilder b;
    WorkloadTrace w = rawWorkload(b);
    unsigned line_bytes = MemConfig{}.lineBytes;

    TraceIndex idx(w, line_bytes);
    verify::CheckResult chk = verify::checkTrace(w, line_bytes);

    // Positive control: checker and oracle agree bit-for-bit.
    ASSERT_TRUE(verify::diffAgainstIndex(chk, idx, w).empty());

    // Flip one classification bit (as a corrupted .idx would) — the
    // diff must flag it; a skipped conflict bit means the simulator
    // would never scan that line for violations.
    bool flipped = false;
    for (auto &flags : chk.epochFlags) {
        for (auto &f : flags) {
            if (f & EpochView::kConflict) {
                f = static_cast<std::uint8_t>(f & ~EpochView::kConflict);
                flipped = true;
                break;
            }
        }
        if (flipped)
            break;
    }
    ASSERT_TRUE(flipped) << "RAW workload produced no conflict bits";
    EXPECT_FALSE(verify::diffAgainstIndex(chk, idx, w).empty());
}

TEST(CheckerMutation, CheckerFindsTheSeededRawLine)
{
    TraceBuilder b;
    WorkloadTrace w = rawWorkload(b);
    verify::CheckResult chk =
        verify::checkTrace(w, MemConfig{}.lineBytes);
    EXPECT_EQ(chk.parallelEpochs, 2u);
    EXPECT_EQ(chk.rawLines.size(), 1u);
    EXPECT_GE(chk.exposedLoads, 1u);
}

// End-to-end: the auditor must be invisible — an audited run produces
// exactly the same simulation as an unaudited one, just with checks.
TEST(AuditorMutation, AuditedRunMatchesPlainRun)
{
    TraceBuilder b;
    WorkloadTrace w = rawWorkload(b);

    TlsMachine plain(testConfig());
    RunResult r0 = plain.run(w, ExecMode::Tls);

    MachineConfig cfg = testConfig();
    cfg.tls.auditLevel = AuditLevel::Full;
    TlsMachine audited(cfg);
    RunResult r1 = verify::runWithAudit(audited, w, ExecMode::Tls);

    EXPECT_EQ(r0.makespan, r1.makespan);
    EXPECT_EQ(r0.primaryViolations, r1.primaryViolations);
    EXPECT_EQ(r0.squashes, r1.squashes);
    EXPECT_EQ(r0.epochs, r1.epochs);
    EXPECT_EQ(r0.commitOrder, r1.commitOrder);
    EXPECT_EQ(r0.auditChecks, 0u);
    EXPECT_GT(r1.auditChecks, 0u);
}

} // namespace
} // namespace tlsim
