/**
 * @file
 * The TLS machine: replays a captured workload trace on the simulated
 * CMP, implementing the paper's execution model —
 *
 *  - epochs (speculative threads) assigned round-robin to CPU slots,
 *    committing in program order via the homefree token;
 *  - sub-threads: a lightweight checkpoint every `subthreadSpacing`
 *    speculative instructions, up to `subthreadsPerThread` contexts; a
 *    violation rewinds only to the sub-thread containing the exposed
 *    load (Section 2.2);
 *  - violation detection at the L2 from SL/SM metadata, with primary
 *    violations and selective secondary violations through the
 *    sub-thread start table (Figure 4(b));
 *  - escaped speculation: latch acquire/release and other
 *    isolation-unsafe work runs non-speculatively, serializes between
 *    epochs, and is never re-executed after a rewind;
 *  - speculative-state overflow handling when a line cannot be
 *    buffered even in the victim cache;
 *  - the dependence profiler of Section 3.1.
 *
 * Execution modes map to the paper's Figure 5 bars: Serial replays
 * everything on CPU 0 (SEQUENTIAL / TLS-SEQ depending on the trace);
 * Tls is full TLS; NoSpeculation ignores dependences (upper bound).
 */

#ifndef CORE_MACHINE_H
#define CORE_MACHINE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/config.h"
#include "base/lineset.h"
#include "base/poison.h"
#include "base/types.h"
#include "core/audithooks.h"
#include "core/profiler.h"
#include "core/schedulehooks.h"
#include "core/specstate.h"
#include "core/trace.h"
#include "core/traceindex.h"
#include "cpu/breakdown.h"
#include "cpu/core.h"
#include "mem/memsys.h"
#include "mem/tlshooks.h"

namespace tlsim {

/** How to execute the trace (Figure 5 bars). */
enum class ExecMode {
    Serial,        ///< all records on CPU 0, no speculation
    Tls,           ///< full TLS with sub-threads per the config
    NoSpeculation, ///< parallel, dependences ignored (upper bound)
};

const char *execModeName(ExecMode m);

/** Everything a run produces. */
struct RunResult
{
    Cycle makespan = 0;       ///< wall cycles of the measured region
    Breakdown total;          ///< summed over all CPUs
    std::uint64_t txns = 0;
    std::uint64_t epochs = 0;
    InstCount totalInsts = 0; ///< dynamic instructions (committed work)

    std::uint64_t primaryViolations = 0;
    std::uint64_t secondaryViolations = 0;
    std::uint64_t squashes = 0;       ///< rewinds actually applied
    InstCount rewoundInsts = 0;
    std::uint64_t subthreadsStarted = 0;
    std::uint64_t overflowEvents = 0;
    std::uint64_t latchWaits = 0;
    std::uint64_t escapeSkips = 0; ///< escaped regions not re-executed
    std::uint64_t predictorStalls = 0; ///< predictor-synchronized loads
    /** Trace records dispatched in the measured region (including
     *  rewind replays); the bench replay-throughput denominator. */
    std::uint64_t recordsReplayed = 0;

    std::uint64_t l1Hits = 0, l1Misses = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0, victimHits = 0;
    std::uint64_t branches = 0, mispredicts = 0;

    /** Invariant checks performed by an attached auditor (0 if none). */
    std::uint64_t auditChecks = 0;
    /** Lines of primary violations, in detection order (measured
     *  region only; the offline checker diffs these against its
     *  independently computed conflict set). */
    std::vector<Addr> violatedLines;
    /** Epoch sequence numbers in homefree-commit order (speculative
     *  sections of the measured region only). */
    std::vector<std::uint64_t> commitOrder;

    double speedupVs(const RunResult &base) const
    {
        return makespan ? static_cast<double>(base.makespan) / makespan
                        : 0.0;
    }
};

/** The simulated CMP executing captured traces. */
class TlsMachine : public TlsHooks
{
  public:
    explicit TlsMachine(const MachineConfig &cfg);

    /**
     * Die with fatal() unless the machine supports `cfg`:
     * MachineConfig::validate() plus the SpecState context budget
     * (numCpus * subthreadsPerThread <= SpecState::kMaxContexts).
     * The constructor calls it; so does anything that wants to reject
     * a configuration before deciding whether to build a machine.
     */
    static void checkConfig(const MachineConfig &cfg);

    /**
     * Execute a workload. The first `warmup_txns` transactions run
     * with full machine state but are excluded from the measured
     * statistics (they warm caches and the predictor).
     *
     * `index` is the workload's trace pre-analysis; pass the one the
     * trace cache built so it is shared across simulation points. If
     * absent (or built from a different workload object), the machine
     * builds and keeps its own. Whether the analysis' *oracle bits*
     * are consulted is governed by TlsConfig::useConflictOracle; the
     * records are read through the index's views either way.
     */
    RunResult run(const WorkloadTrace &workload, ExecMode mode,
                  unsigned warmup_txns = 0,
                  const TraceIndex *index = nullptr);

    /** The Section 3.1 profiler (valid after a Tls-mode run). */
    const DependenceProfiler &profiler() const { return profiler_; }

    /**
     * Attach (or detach, with nullptr) a protocol invariant auditor.
     * The sink is borrowed, not owned, and must outlive any run(). The
     * per-access hook fires only when TlsConfig::auditLevel is Full.
     */
    void setAuditSink(AuditSink *sink);

    /**
     * Attach (or detach, with nullptr) an external scheduler for
     * parallel sections (core/schedulehooks.h). Borrowed, not owned;
     * must outlive any run(). With no oracle (or on kDefaultPick) the
     * machine keeps its min-clock policy.
     */
    void setScheduleOracle(ScheduleOracle *oracle);

    /** Dump machine-level statistics (per-CPU caches, predictor,
     *  breakdown) in the gem5-style "name value # desc" format. */
    void dumpStats(std::ostream &os) const;

    const MachineConfig &config() const { return cfg_; }

    // TlsHooks
    std::uint64_t epochSeq(CpuId cpu) const override;
    bool lineHasSpecState(Addr line_num) const override;

  private:
    // ----- runtime structures ----------------------------------------

    struct Checkpoint
    {
        std::uint32_t recIdx = 0;
        CoreCheckpoint core;
        std::uint64_t specInsts = 0;
        std::uint32_t deferredCount = 0; ///< deferredChecks high-water
    };

    enum class RunState { Running, LatchWait, Done, Committed };

    struct EpochRun
    {
        const EpochTrace *trace = nullptr;
        const EpochView *view = nullptr; ///< records + oracle flags
        std::uint64_t seq = 0; ///< global program order
        CpuId cpu = 0;
        std::uint32_t cursor = 0;
        RunState st = RunState::Running;

        unsigned curSub = 0;
        std::vector<Checkpoint> cps;
        std::uint64_t specInsts = 0;
        std::uint64_t nextSpawn = 0;
        std::uint64_t spacing = 0; ///< per-epoch sub-thread spacing

        /**
         * Predicted-risk placement (TlsConfig::riskPlacement): the
         * epoch's explicit spawn thresholds, ascending; spawnIdx is
         * the next one to fire (== nextSpawn while any remain). Empty
         * under fixed placement, where nextSpawn advances by spacing.
         */
        std::vector<std::uint64_t> spawnPoints;
        std::size_t spawnIdx = 0;

        bool inEscape = false;
        unsigned escapedDone = 0; ///< completed escape regions (high water)
        unsigned latchesHeld = 0;

        bool pendingSquash = false;
        unsigned squashSub = 0;
        Cycle squashAt = 0;
        Pc squashStorePc = 0;
        Addr squashLine = 0;
        bool squashSecondary = false;
        std::uint64_t waitLatch = 0; ///< latch id blocked on (LatchWait)
        std::vector<std::uint64_t> heldLatches;

        /** startTable[ctx] = (origin epoch seq, my sub at that time) */
        std::vector<std::pair<std::uint64_t, unsigned>> startTable;

        /** Deferred violation checks (non-aggressive update mode). */
        std::vector<std::pair<Addr, Pc>> deferredChecks;

        /** Reset for reuse, keeping the vectors' capacity (the run
         *  pool makes epoch start allocation-free in steady state). */
        void
        recycle()
        {
            trace = nullptr;
            view = nullptr;
            seq = 0;
            cpu = 0;
            cursor = 0;
            st = RunState::Running;
            curSub = 0;
            cps.clear();
            specInsts = 0;
            nextSpawn = 0;
            spacing = 0;
            spawnPoints.clear();
            spawnIdx = 0;
            inEscape = false;
            escapedDone = 0;
            latchesHeld = 0;
            pendingSquash = false;
            squashSub = 0;
            squashAt = 0;
            squashStorePc = 0;
            squashLine = 0;
            squashSecondary = false;
            waitLatch = 0;
            heldLatches.clear();
            startTable.clear();
            deferredChecks.clear();
        }

#if TLSIM_POISON
        poison::Token poisonTok; ///< pool lifecycle canary

        /**
         * Release-time scribble: every scalar recycle() must restore
         * gets a canary, so a field the reset path misses still holds
         * it at the next acquire and assertRecycled() names the bug.
         * Vectors are left alone — recycle() clears them and their
         * retained capacity is the pool's whole point.
         */
        void
        poisonScalars()
        {
            seq = poison::kU64;
            cpu = poison::kU32;
            cursor = poison::kU32;
            curSub = poison::kU32;
            specInsts = poison::kU64;
            nextSpawn = poison::kU64;
            spacing = poison::kU64;
            spawnIdx = poison::kU32;
            escapedDone = poison::kU32;
            latchesHeld = poison::kU32;
            squashSub = poison::kU32;
            squashAt = poison::kU64;
            squashStorePc = poison::kU32;
            squashLine = poison::kU64;
            waitLatch = poison::kU64;
        }

        /** Acquire-time cross-check: recycle() restored every field
         *  to its checkout baseline (no canary survived, no vector
         *  kept elements). The runtime twin of tlsa's P2 pass. */
        void
        assertRecycled() const
        {
            bool clean = !trace && !view && seq == 0 && cpu == 0 &&
                         cursor == 0 && st == RunState::Running &&
                         curSub == 0 && cps.empty() &&
                         specInsts == 0 && nextSpawn == 0 &&
                         spacing == 0 && spawnPoints.empty() &&
                         spawnIdx == 0 && !inEscape &&
                         escapedDone == 0 && latchesHeld == 0 &&
                         !pendingSquash && squashSub == 0 &&
                         squashAt == 0 && squashStorePc == 0 &&
                         squashLine == 0 && !squashSecondary &&
                         waitLatch == 0 && heldLatches.empty() &&
                         startTable.empty() && deferredChecks.empty();
            if (!clean)
                panic("poison: EpochRun acquired with stale state "
                      "(recycle() missed a field)");
        }
#endif
    };

    struct LatchState
    {
        std::uint64_t id = 0;
        std::uint64_t gen = 0; ///< generation that wrote this slot
        bool held = false;
        CpuId owner = 0;
        std::vector<CpuId> waiters; ///< FIFO; stays tiny (< numCpus)
    };

    /**
     * Open-addressed flat table of latch states keyed by latch id
     * (linear probing, power-of-two capacity). Latch acquire/release
     * is a hot per-record path in TPC-C traces, and a node-based map
     * costs an allocation per latch per run. There is no within-run
     * deletion, so probe chains never break; clear() is O(1) via a
     * generation stamp, and per-slot waiter vectors keep their
     * capacity across generations.
     */
    class LatchTable
    {
      public:
        LatchTable() : slots_(kMinCap) {}

        /** Find the latch's state, inserting a fresh one if absent. */
        LatchState &
        acquire(std::uint64_t id)
        {
            if ((live_ + 1) * 4 > slots_.size() * 3)
                grow();
            std::size_t mask = slots_.size() - 1;
            std::size_t idx = hashId(id) & mask;
            for (;;) {
                LatchState &s = slots_[idx];
                if (s.gen != gen_) { // dead slot terminates the probe
                    s.id = id;
                    s.gen = gen_;
                    s.held = false;
                    s.owner = 0;
                    s.waiters.clear();
                    if (s.waiters.capacity() == 0)
                        s.waiters.reserve(8); // FIFO stays < numCpus
                    ++live_;
                    return s;
                }
                if (s.id == id)
                    return s;
                idx = (idx + 1) & mask;
            }
        }

        /** Find the latch's state, or nullptr. */
        LatchState *
        find(std::uint64_t id)
        {
            std::size_t mask = slots_.size() - 1;
            std::size_t idx = hashId(id) & mask;
            for (;;) {
                LatchState &s = slots_[idx];
                if (s.gen != gen_)
                    return nullptr;
                if (s.id == id)
                    return &s;
                idx = (idx + 1) & mask;
            }
        }

        void
        clear()
        {
            ++gen_;
            live_ = 0;
        }

      private:
        static constexpr std::size_t kMinCap = 256;

        static std::size_t
        hashId(std::uint64_t id)
        {
            std::uint64_t x = id + 0x9e3779b97f4a7c15ull;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
            return static_cast<std::size_t>(x ^ (x >> 31));
        }

        void
        grow()
        {
            std::vector<LatchState> old(slots_.size() * 2);
            old.swap(slots_);
            std::size_t mask = slots_.size() - 1;
            for (LatchState &s : old) {
                if (s.gen != gen_)
                    continue;
                std::size_t idx = hashId(s.id) & mask;
                while (slots_[idx].gen == gen_)
                    idx = (idx + 1) & mask;
                slots_[idx] = std::move(s);
            }
        }

        std::vector<LatchState> slots_;
        std::uint64_t gen_ = 1; ///< 0 marks never-written slots
        std::size_t live_ = 0;  ///< slots written this generation
    };

    // ----- helpers -----------------------------------------------------

    ContextId ctxId(CpuId cpu, unsigned sub) const
    {
        return cpu * k_ + sub;
    }

    std::uint64_t threadMask(CpuId cpu, unsigned up_to_sub) const
    {
        return ((std::uint64_t{2} << up_to_sub) - 1) << (cpu * k_);
    }

    EpochRun *runOn(CpuId cpu) { return runs_[cpu].get(); }

    /** Take a recycled EpochRun from the pool (or allocate one). */
    std::unique_ptr<EpochRun> acquireRun();
    /** Return the run occupying `cpu`'s slot to the pool. */
    void releaseRun(CpuId cpu);

    void runParallelSection(const TraceSection &sec, ExecMode mode);
    void runSerialEpoch(const EpochTrace &e);
    void startNextEpoch(CpuId cpu);

    /** Process one record (or pending state) on `cpu`. */
    void stepCpu(CpuId cpu);

    /**
     * Step `cpu` repeatedly until a step mutates another CPU's
     * clock/state (schedEvent_), the run leaves Running (or takes a
     * pending squash), or the local clock passes `bound` (ties
     * re-break by CPU index against `bound_idx`). Replays exactly the
     * step sequence the unbatched scheduler loop would have chosen;
     * the body is flattened so the per-record work inlines into one
     * loop instead of a cross-function call per trace record.
     */
    void stepCpuBatch(CpuId cpu, Cycle bound, int bound_idx);

    /** `flags` is the record's EpochView oracle byte. */
    void execLoad(EpochRun &run, const TraceRecord &r,
                  std::uint8_t flags, bool spec);
    void execStore(EpochRun &run, const TraceRecord &r,
                   std::uint8_t flags, bool spec);
    void execLatchAcquire(EpochRun &run, Pc pc, std::uint64_t latch_id);
    void execLatchRelease(EpochRun &run, Pc pc, std::uint64_t latch_id);
    void releaseLatch(std::uint64_t latch_id, Cycle at);

    bool isOldest(const EpochRun &run) const;
    void maybeSpawnSubthread(EpochRun &run);
    void checkViolations(EpochRun &storer, Addr line, Pc store_pc);
    void scheduleSquash(EpochRun &victim, unsigned sub, Cycle at,
                        Pc store_pc, Addr line, bool secondary);
    void applySquash(EpochRun &run);
    void handleOverflow(EpochRun &run);
    void commitEpoch(EpochRun &run);
    void finishEpochBody(EpochRun &run);

    /** Charge instruction-side costs common to every record. */
    void chargeRecord(EpochRun &run, InstCount insts);

    void resetAccounting();
    void collect(RunResult &out);

    /** Rebuild auditView_ from live machine state (audit_ attached). */
    void refreshAuditView();

    // ----- state --------------------------------------------------------

    MachineConfig cfg_;
    unsigned k_;       ///< sub-thread contexts per thread
    unsigned numCpus_;
    bool oracleOn_;    ///< consult the pre-analysis oracle bits
    bool tlsActive_ = false;    ///< current section runs parallel epochs
    bool specTracking_ = false; ///< SL/SM tracking + violations enabled

    /** The active workload's pre-analysis (caller's or ownedIndex_). */
    const TraceIndex *index_ = nullptr;
    std::unique_ptr<TraceIndex> ownedIndex_;

    MemSystem mem_;
    std::vector<Core> cores_;
    SpecState spec_;
    std::vector<ExposedLoadTable> exposed_;
    DependenceProfiler profiler_;

    std::vector<std::unique_ptr<EpochRun>> runs_; ///< per CPU slot
    std::vector<std::unique_ptr<EpochRun>> runPool_; ///< recycled runs
    std::vector<std::deque<std::pair<std::uint64_t, const EpochTrace *>>>
        queues_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t nextCommitSeq_ = 0;
    Cycle lastCommitTime_ = 0;

    /**
     * Cross-CPU scheduling event flag for the batched scheduler: set
     * whenever a step mutates another CPU's clock or run state (squash
     * scheduling, latch hand-off). While it stays false, stepping the
     * picked CPU cannot change which CPU the min-clock scan would pick
     * next, so the scan can be skipped.
     */
    bool schedEvent_ = false;

    LatchTable latches_;

    /** Scratch for checkViolations (avoids per-call allocation). */
    std::vector<unsigned> ownSubScratch_;

    /** Scratch for squash dead-version lines (reused across rewinds). */
    std::vector<Addr> deadLineScratch_;

    /** EpochRun arena tallies, flushed to the "replay.*" global
     *  counter group once per run() (no per-epoch mutex traffic). */
    std::uint64_t poolHits_ = 0;
    std::uint64_t poolAllocs_ = 0;

    /**
     * Mirror of epochSeq(cpu) for every CPU, shared with MemSystem via
     * setEpochSeqArray so propagateStore needs no virtual calls. Kept
     * in sync wherever runs_[cpu] or tlsActive_ changes.
     */
    std::vector<std::uint64_t> cpuSeqs_;

    /** Load PCs that have caused violations (dependence predictor). */
    LineSet predictedLoads_;

    AuditSink *audit_ = nullptr; ///< borrowed invariant auditor
    bool auditFull_ = false;     ///< per-access hook armed (Full level)
    AuditView auditView_;
    ScheduleOracle *schedOracle_ = nullptr; ///< borrowed scheduler

    // measured-region statistics (counter values at measure start)
    RunResult stats_;
    std::uint64_t baseL1Hits_ = 0, baseL1Misses_ = 0;
    std::uint64_t baseL2Hits_ = 0, baseL2Misses_ = 0;
    std::uint64_t baseVictimHits_ = 0;
    std::uint64_t baseBranches_ = 0, baseMispredicts_ = 0;
};

} // namespace tlsim

#endif // CORE_MACHINE_H
