#include "core/machine.h"

#include <algorithm>
#include <ostream>

#include "base/hotpath.h"
#include "base/log.h"
#include "base/stats.h"
#include "core/critpath/placement.h"

namespace tlsim {

namespace {

/** nextSpawn sentinel: no further sub-thread spawns this epoch. */
constexpr std::uint64_t kNoSpawn = ~std::uint64_t{0};

} // namespace

const char *
execModeName(ExecMode m)
{
    switch (m) {
      case ExecMode::Serial: return "serial";
      case ExecMode::Tls: return "tls";
      case ExecMode::NoSpeculation: return "no_speculation";
    }
    return "?";
}

TlsMachine::TlsMachine(const MachineConfig &cfg)
    : cfg_(cfg), k_(cfg.tls.subthreadsPerThread),
      numCpus_(cfg.tls.numCpus), oracleOn_(cfg.tls.useConflictOracle),
      mem_(cfg), spec_(numCpus_ * k_),
      exposed_(numCpus_), runs_(numCpus_), queues_(numCpus_)
{
    checkConfig(cfg_);
    cores_.reserve(numCpus_);
    for (unsigned i = 0; i < numCpus_; ++i)
        cores_.emplace_back(cfg_.cpu, i);
    mem_.setHooks(this);
    cpuSeqs_.assign(numCpus_, kNoEpoch);
    mem_.setEpochSeqArray(cpuSeqs_.data());
}

void
TlsMachine::checkConfig(const MachineConfig &cfg)
{
    cfg.validate();
    const std::uint64_t contexts =
        std::uint64_t{cfg.tls.numCpus} * cfg.tls.subthreadsPerThread;
    if (contexts > SpecState::kMaxContexts)
        fatal("numCpus * subthreadsPerThread = %llu exceeds the %u "
              "supported contexts",
              static_cast<unsigned long long>(contexts),
              SpecState::kMaxContexts);
}

std::uint64_t
TlsMachine::epochSeq(CpuId cpu) const
{
    if (!tlsActive_ || !runs_[cpu])
        return kNoEpoch;
    return runs_[cpu]->seq;
}

bool
TlsMachine::lineHasSpecState(Addr line_num) const
{
    return spec_.lineHasSpecState(line_num);
}

void
TlsMachine::setAuditSink(AuditSink *sink)
{
    audit_ = sink;
    auditFull_ = audit_ && cfg_.tls.auditLevel == AuditLevel::Full;
}

void
TlsMachine::setScheduleOracle(ScheduleOracle *oracle)
{
    schedOracle_ = oracle;
}

void
TlsMachine::refreshAuditView()
{
    auditView_.spec = &spec_;
    auditView_.mem = &mem_;
    auditView_.numCpus = numCpus_;
    auditView_.k = k_;
    auditView_.cpus.assign(numCpus_, AuditCpuState{});
    for (unsigned cpu = 0; cpu < numCpus_; ++cpu) {
        const EpochRun *r = runs_[cpu].get();
        if (!r || r->st == RunState::Committed)
            continue;
        AuditCpuState &s = auditView_.cpus[cpu];
        s.active = true;
        s.seq = r->seq;
        s.curSub = r->curSub;
        s.pendingSquash = r->pendingSquash;
        s.startTable = &r->startTable;
    }
}

// ---------------------------------------------------------------------
// Top-level run loop
// ---------------------------------------------------------------------

RunResult
TlsMachine::run(const WorkloadTrace &workload, ExecMode mode,
                unsigned warmup_txns, const TraceIndex *index)
{
    // Resolve the trace pre-analysis: use the caller's if it covers
    // exactly this workload at our line size, else (re)build our own.
    // The owned index is cached, so repeated runs of one workload on
    // one machine analyse it once.
    if (!index || !index->matches(&workload, cfg_.mem.lineBytes)) {
        if (!ownedIndex_ ||
            !ownedIndex_->matches(&workload, cfg_.mem.lineBytes))
            ownedIndex_ = std::make_unique<TraceIndex>(
                workload, cfg_.mem.lineBytes);
        index = ownedIndex_.get();
    }
    index_ = index;

    // Full machine reset.
    mem_.reset();
    spec_.reset();
    spec_.reserveLines(index_->maxSectionLines());
    profiler_.reset();
    latches_.clear();
    for (auto &c : cores_)
        c.reset();
    for (auto &t : exposed_)
        t.reset();
    for (auto &q : queues_)
        q.clear();
    for (auto &r : runs_)
        r.reset();
    std::fill(cpuSeqs_.begin(), cpuSeqs_.end(), kNoEpoch);
    nextSeq_ = 0;
    nextCommitSeq_ = 0;
    lastCommitTime_ = 0;
    predictedLoads_.clear();
    stats_ = RunResult{};
    resetAccounting();
    if (audit_) {
        refreshAuditView();
        audit_->onRunStart(auditView_);
    }
    Cycle measure_start = 0;

    auto barrier = [this]() {
        Cycle bar = 0;
        for (auto &c : cores_)
            bar = std::max(bar, c.now());
        for (auto &c : cores_)
            c.advanceTo(bar, Cat::Idle);
        return bar;
    };

    for (std::size_t t = 0; t < workload.txns.size(); ++t) {
        if (t == warmup_txns) {
            // Synchronize before the measured region so every core's
            // breakdown covers exactly [measure_start, end].
            measure_start = barrier();
            resetAccounting();
        }
        const TransactionTrace &txn = workload.txns[t];
        for (const TraceSection &sec : txn.sections) {
            // Section barrier: all cores meet at the section start.
            barrier();

            if (mode == ExecMode::Serial || !sec.parallel) {
                for (const EpochTrace &e : sec.epochs)
                    runSerialEpoch(e);
            } else {
                runParallelSection(sec, mode);
            }
        }
        ++stats_.txns;
    }

    // Final barrier: idle everyone up to the makespan.
    Cycle end = barrier();

    RunResult out = stats_;
    out.makespan = end - measure_start;
    collect(out);

    // Replay-path allocation accounting, one mutex crossing per run:
    // pool hits vs fresh EpochRun allocations measure how well the
    // run arena absorbs the per-epoch churn.
    auto &gc = stats::GlobalCounters::instance();
    gc.add("replay.runs");
    gc.add("replay.epochs", out.epochs);
    gc.add("replay.records", out.recordsReplayed);
    gc.add("replay.runPoolHits", poolHits_);
    gc.add("replay.runPoolAllocs", poolAllocs_);
    if (out.auditChecks)
        gc.add("audit.checks", out.auditChecks);
    poolHits_ = 0;
    poolAllocs_ = 0;
    return out;
}

void
TlsMachine::resetAccounting()
{
    stats_ = RunResult{};
    // One-time sizing: violation lines are appended on the replay
    // hot path; reserving here keeps the common case allocation-free.
    stats_.violatedLines.reserve(64);
    for (auto &c : cores_)
        c.breakdown() = Breakdown{};
    baseL1Hits_ = 0;
    baseL1Misses_ = 0;
    for (unsigned i = 0; i < numCpus_; ++i) {
        baseL1Hits_ += mem_.dcache(i).hits() + mem_.icache(i).hits();
        baseL1Misses_ += mem_.dcache(i).misses() + mem_.icache(i).misses();
    }
    baseL2Hits_ = mem_.l2().hits();
    baseL2Misses_ = mem_.l2().misses();
    baseVictimHits_ = mem_.victim().hits();
    baseBranches_ = 0;
    baseMispredicts_ = 0;
    for (auto &c : cores_) {
        baseBranches_ += c.gshare().branches();
        baseMispredicts_ += c.gshare().mispredicts();
    }
}

void
TlsMachine::collect(RunResult &out)
{
    for (auto &c : cores_)
        out.total += c.breakdown();

    std::uint64_t l1h = 0, l1m = 0, br = 0, mis = 0;
    for (unsigned i = 0; i < numCpus_; ++i) {
        l1h += mem_.dcache(i).hits() + mem_.icache(i).hits();
        l1m += mem_.dcache(i).misses() + mem_.icache(i).misses();
        br += cores_[i].gshare().branches();
        mis += cores_[i].gshare().mispredicts();
    }
    out.l1Hits = l1h - baseL1Hits_;
    out.l1Misses = l1m - baseL1Misses_;
    out.l2Hits = mem_.l2().hits() - baseL2Hits_;
    out.l2Misses = mem_.l2().misses() - baseL2Misses_;
    out.victimHits = mem_.victim().hits() - baseVictimHits_;
    out.branches = br - baseBranches_;
    out.mispredicts = mis - baseMispredicts_;
    if (audit_)
        out.auditChecks = audit_->checks();
}

void
TlsMachine::dumpStats(std::ostream &os) const
{
    using stats::Scalar;
    using stats::StatGroup;
    using stats::Vector;

    for (unsigned i = 0; i < numCpus_; ++i) {
        StatGroup g(strfmt("cpu%u", i));
        Scalar cycles(&g, "cycles", "local clock");
        cycles = static_cast<double>(cores_[i].now());
        Vector cats(&g, "breakdown", "cycle attribution",
                    {"busy", "cache_miss", "latch_stall", "sync",
                     "idle", "failed"});
        for (unsigned c = 0; c < kNumCats; ++c)
            cats[c] = static_cast<double>(
                cores_[i].breakdown().cycles[c]);
        Scalar dhits(&g, "dcache_hits", "L1D hits");
        Scalar dmiss(&g, "dcache_misses", "L1D misses");
        Scalar ihits(&g, "icache_hits", "L1I hits");
        Scalar imiss(&g, "icache_misses", "L1I misses");
        auto &m = const_cast<MemSystem &>(mem_);
        dhits = static_cast<double>(m.dcache(i).hits());
        dmiss = static_cast<double>(m.dcache(i).misses());
        ihits = static_cast<double>(m.icache(i).hits());
        imiss = static_cast<double>(m.icache(i).misses());
        Scalar br(&g, "branches", "conditional branches");
        Scalar mis(&g, "mispredicts", "GShare mispredictions");
        br = static_cast<double>(cores_[i].gshare().branches());
        mis = static_cast<double>(cores_[i].gshare().mispredicts());
        g.dump(os);
    }

    StatGroup l2g("l2");
    Scalar l2h(&l2g, "hits", "L2 hits");
    Scalar l2m(&l2g, "misses", "L2 misses");
    Scalar spill(&l2g, "spec_evictions",
                 "speculative lines spilled to the victim cache");
    Scalar ovf(&l2g, "overflows", "victim-cache overflow events");
    auto &m = const_cast<MemSystem &>(mem_);
    l2h = static_cast<double>(m.l2().hits());
    l2m = static_cast<double>(m.l2().misses());
    spill = static_cast<double>(m.l2().specEvictions());
    ovf = static_cast<double>(m.l2().overflows());
    Scalar vh(&l2g, "victim_hits", "victim-cache hits");
    vh = static_cast<double>(m.victim().hits());
    l2g.dump(os);

    StatGroup tg("tls");
    Scalar live(&tg, "live_spec_lines",
                "lines with speculative metadata right now");
    live = static_cast<double>(spec_.liveLines());
    Scalar viol(&tg, "violations_recorded",
                "violations seen by the profiler");
    viol = static_cast<double>(profiler_.totalViolations());
    tg.dump(os);
}

// ---------------------------------------------------------------------
// Section execution
// ---------------------------------------------------------------------

std::unique_ptr<TlsMachine::EpochRun>
TlsMachine::acquireRun()
{
    if (!runPool_.empty()) {
        auto run = std::move(runPool_.back());
        runPool_.pop_back();
        run->recycle();
#if TLSIM_POISON
        run->assertRecycled(); // recycle() beat every release canary?
        run->poisonTok.markAcquired("EpochRun");
#endif
        ++poolHits_;
        return run;
    }
    ++poolAllocs_;
    auto run = std::make_unique<EpochRun>();
#if TLSIM_POISON
    run->poisonTok.markAcquired("EpochRun");
#endif
    // One-time sizing: recycle() keeps capacity, so reserving here
    // makes the steady-state run loop allocation-free.
    run->cps.reserve(cfg_.tls.subthreadsPerThread + 1);
    run->heldLatches.reserve(16);
    run->deferredChecks.reserve(64);
    return run;
}

void
TlsMachine::releaseRun(CpuId cpu)
{
    if (runs_[cpu]) {
#if TLSIM_POISON
        runs_[cpu]->poisonTok.markReleased("EpochRun");
        runs_[cpu]->poisonScalars();
#endif
        runPool_.push_back(std::move(runs_[cpu]));
    }
    cpuSeqs_[cpu] = kNoEpoch;
}

void
TlsMachine::runSerialEpoch(const EpochTrace &e)
{
    tlsActive_ = false;
    specTracking_ = false;
    auto run = acquireRun();
    run->trace = &e;
    run->view = index_->viewOf(&e);
    run->cpu = 0;
    run->cps.push_back({0, cores_[0].checkpoint(), 0, 0});
    runs_[0] = std::move(run);
    cpuSeqs_[0] = kNoEpoch; // serial epochs are non-speculative
    // A serial epoch has the machine to itself: no bound, no
    // scheduling events (nothing to squash, no latch contention), so
    // each batch runs until the epoch leaves Running.
    while (runs_[0]->st != RunState::Done)
        stepCpuBatch(0, kCycleMax, 0);
    cores_[0].drainLoads();
    stats_.totalInsts += e.instCount;
    releaseRun(0);
}

void
TlsMachine::startNextEpoch(CpuId cpu)
{
    releaseRun(cpu); // recycle the committed occupant, if any
    auto [seq, trace] = queues_[cpu].front();
    queues_[cpu].pop_front();
    auto run = acquireRun();
    run->trace = trace;
    run->view = index_->viewOf(trace);
    run->seq = seq;
    run->cpu = cpu;
    run->spacing = cfg_.tls.subthreadSpacing;
    if (cfg_.tls.adaptiveSpacing && k_ > 1) {
        // Divide the thread evenly over its k contexts (Section 5.1).
        run->spacing = std::max<std::uint64_t>(
            200, trace->specInstCount / k_ + 1);
    }
    run->nextSpawn = run->spacing;
    if (cfg_.tls.riskPlacement && k_ > 1) {
        // Predicted-risk placement: spawn right before the exposed
        // conflict loads the trace pre-analysis flagged, instead of on
        // the fixed grid. Same selection the critical-path analyzer
        // prices (core/critpath/placement.h).
        critpath::selectRiskSpawnPoints(run->view->riskOffsets,
                                        trace->specInstCount, k_,
                                        run->spacing,
                                        run->spawnPoints);
        run->spawnIdx = 0;
        run->nextSpawn = run->spawnPoints.empty()
                             ? kNoSpawn
                             : run->spawnPoints.front();
    }
    run->startTable.assign(static_cast<std::size_t>(numCpus_) * k_,
                           {kNoEpoch, 0});
    mem_.epochBoundary(cpu);
    run->cps.push_back({0, cores_[cpu].checkpoint(), 0, 0});
    runs_[cpu] = std::move(run);
    cpuSeqs_[cpu] = tlsActive_ ? runs_[cpu]->seq : kNoEpoch;
    if (audit_ && specTracking_) {
        refreshAuditView();
        audit_->onEpochStart(auditView_, cpu, runs_[cpu]->seq);
    }
}

void
TlsMachine::runParallelSection(const TraceSection &sec, ExecMode mode)
{
    tlsActive_ = true;
    specTracking_ = (mode == ExecMode::Tls);

    std::uint64_t first_seq = nextSeq_;
    for (std::size_t i = 0; i < sec.epochs.size(); ++i)
        queues_[i % numCpus_].push_back({nextSeq_++, &sec.epochs[i]});
    nextCommitSeq_ = first_seq;

    for (unsigned cpu = 0; cpu < numCpus_; ++cpu)
        if (!queues_[cpu].empty())
            startNextEpoch(cpu);

    std::vector<ScheduleChoice> choices;
    std::uint64_t remaining = sec.epochs.size();
    while (remaining > 0) {
        // Pick the runnable CPU with the smallest local clock so shared
        // state is touched in (approximately) global time order. An
        // attached schedule oracle overrides the choice (it sees the
        // same runnable set), turning the machine into a deterministic
        // executor of an externally chosen interleaving.
        int pick = -1;
        Cycle best = kCycleMax;
        // Runner-up clock among the non-picked runnables, and the
        // lowest CPU index achieving it: the batching loop below may
        // keep stepping `pick` while it would still win the rescan.
        Cycle bound = kCycleMax;
        int bound_idx = static_cast<int>(numCpus_);
        if (schedOracle_)
            choices.clear();
        for (unsigned cpu = 0; cpu < numCpus_; ++cpu) {
            EpochRun *r = runs_[cpu].get();
            if (!r)
                continue;
            bool commit_ready =
                r->st == RunState::Done &&
                (!specTracking_ || r->seq == nextCommitSeq_);
            bool runnable = r->st == RunState::Running || commit_ready;
            if (!runnable)
                continue;
            if (schedOracle_)
                choices.push_back({cpu, r->seq, commit_ready});
            Cycle c = cores_[cpu].now();
            if (c < best) {
                bound = best; // the demoted best is the new runner-up
                bound_idx = pick;
                best = c;
                pick = static_cast<int>(cpu);
            } else if (c < bound) {
                bound = c;
                bound_idx = static_cast<int>(cpu);
            }
        }
        if (pick < 0)
            panic("TLS machine deadlock: no runnable CPU "
                  "(remaining epochs %llu)",
                  static_cast<unsigned long long>(remaining));
        if (schedOracle_) {
            std::size_t o = schedOracle_->pick(choices);
            if (o != ScheduleOracle::kDefaultPick) {
                if (o >= choices.size())
                    panic("schedule oracle picked %zu of %zu runnable "
                          "slots",
                          o, choices.size());
                pick = static_cast<int>(choices[o].cpu);
            }
        }

        EpochRun &r = *runs_[pick];
        if (r.st == RunState::Done) {
            commitEpoch(r);
            --remaining;
        } else if (schedOracle_) {
            // An oracle must observe every individual choice point.
            stepCpu(static_cast<CpuId>(pick));
        } else {
            // Batched stepping: `pick` is the lowest-indexed CPU with
            // the minimum clock, so the scan above would keep choosing
            // it until either its clock passes the best other runnable
            // clock (`bound`; ties rebreak by index) or a step mutates
            // another CPU's clock/state (schedEvent_). Other CPUs'
            // clocks, states, and commit readiness are frozen while
            // schedEvent_ stays false: squash scheduling and latch
            // hand-off set it, and nextCommitSeq_ only moves in
            // commitEpoch above. Replays the exact same step sequence
            // as the unbatched loop, just without rescanning.
            stepCpuBatch(static_cast<CpuId>(pick), bound, bound_idx);
        }
    }

    tlsActive_ = false;
    specTracking_ = false;
    for (unsigned cpu = 0; cpu < numCpus_; ++cpu)
        releaseRun(cpu);
}

void
TlsMachine::commitEpoch(EpochRun &run)
{
    CpuId cpu = run.cpu;
    Core &core = cores_[cpu];
    if (specTracking_) {
        // Homefree token: wait for the previous epoch's commit.
        core.advanceTo(lastCommitTime_, Cat::Sync);
        // Lazy update propagation: younger readers of this epoch's
        // stores learn about them only now.
        if (!cfg_.tls.aggressiveUpdates) {
            for (const auto &[line, pc] : run.deferredChecks)
                checkViolations(run, line, pc);
            run.deferredChecks.clear();
        }
        spec_.clearThread(threadMask(cpu, k_ - 1), ctxId(cpu, 0), k_);
        mem_.commitThreadVersions(cpu);
    }
    mem_.epochBoundary(cpu);
    lastCommitTime_ = core.now();
    if (specTracking_)
        ++nextCommitSeq_;
    run.st = RunState::Committed;
    ++stats_.epochs;
    stats_.totalInsts += run.trace->instCount;
    if (specTracking_) {
        stats_.commitOrder.push_back(run.seq);
        if (audit_) {
            refreshAuditView();
            audit_->onCommit(auditView_, cpu, run.seq);
        }
    }

    if (!queues_[cpu].empty())
        startNextEpoch(cpu);
    else
        releaseRun(cpu);
}

// ---------------------------------------------------------------------
// Record execution
// ---------------------------------------------------------------------

namespace {

/**
 * Index of the escape region whose EscapeBegin is at `idx`. `hint` is
 * the region forward execution reaches next (the run's escapedDone);
 * it is checked first, and the search runs only when it misses (a
 * rewound run re-meeting an escape it already performed).
 */
unsigned
regionOfBegin(const EpochTrace &e, std::uint32_t idx, unsigned hint)
{
    if (hint < e.escapeSpans.size() && e.escapeSpans[hint].first == idx)
        return hint;
    auto it = std::lower_bound(
        e.escapeSpans.begin(), e.escapeSpans.end(), idx,
        [](const auto &span, std::uint32_t v) { return span.first < v; });
    if (it == e.escapeSpans.end() || it->first != idx)
        panic("EscapeBegin at record %u has no span", idx);
    return static_cast<unsigned>(it - e.escapeSpans.begin());
}

/** Index of the escape region whose EscapeEnd is at `idx`; `hint` as
 *  for regionOfBegin. */
unsigned
regionOfEnd(const EpochTrace &e, std::uint32_t idx, unsigned hint)
{
    if (hint < e.escapeSpans.size() && e.escapeSpans[hint].second == idx)
        return hint;
    auto it = std::lower_bound(
        e.escapeSpans.begin(), e.escapeSpans.end(), idx,
        [](const auto &span, std::uint32_t v) { return span.second < v; });
    if (it == e.escapeSpans.end() || it->second != idx)
        panic("EscapeEnd at record %u has no span", idx);
    return static_cast<unsigned>(it - e.escapeSpans.begin());
}

} // namespace

void
TlsMachine::chargeRecord(EpochRun &run, InstCount insts)
{
    if (tlsActive_ && !run.inEscape)
        run.specInsts += insts;
    ++run.cursor;
    ++stats_.recordsReplayed;
}

void
TlsMachine::stepCpu(CpuId cpu)
{
    EpochRun &run = *runs_[cpu];
    Core &core = cores_[cpu];
#if TLSIM_POISON
    run.poisonTok.assertLive("EpochRun");
#endif

    if (run.pendingSquash) {
        applySquash(run);
        return;
    }

    const EpochView &v = *run.view;
    if (run.cursor >= v.size()) {
        finishEpochBody(run);
        return;
    }

    if (tlsActive_ && specTracking_ && !run.inEscape &&
        run.curSub + 1 < k_ && run.specInsts >= run.nextSpawn) {
        maybeSpawnSubthread(run);
        return;
    }

    const TraceRecord &r = v.records[run.cursor];
    const TraceOp op = r.op;
    const Pc pc = r.pc;

    // Instruction fetch for the record's code site.
    Cycle fr = mem_.ifetch(cpu, pc, core.now());
    core.advanceTo(fr, Cat::CacheMiss);

    bool spec = tlsActive_ && !run.inEscape;

    switch (op) {
      case TraceOp::Load:
      case TraceOp::Store:
        if (op == TraceOp::Load)
            execLoad(run, r, v.flags[run.cursor], spec);
        else
            execStore(run, r, v.flags[run.cursor], spec);
        break;
      case TraceOp::Compute:
        core.doCompute(r.addr, static_cast<ComputeClass>(r.aux));
        chargeRecord(run, r.addr);
        break;
      case TraceOp::Branch:
        core.doBranch(pc, r.aux & kAuxTaken);
        chargeRecord(run, 1);
        break;
      case TraceOp::LatchAcquire:
        execLatchAcquire(run, pc, r.addr);
        break;
      case TraceOp::LatchRelease:
        execLatchRelease(run, pc, r.addr);
        break;
      case TraceOp::EscapeBegin: {
        unsigned region =
            regionOfBegin(*run.trace, run.cursor, run.escapedDone);
        if (region < run.escapedDone) {
            // Already performed before a rewind: escaped work is never
            // re-executed.
            ++stats_.escapeSkips;
            run.cursor = run.trace->escapeSpans[region].second + 1;
        } else {
            run.inEscape = true;
            core.doCompute(2, ComputeClass::Int);
            ++run.cursor;
        }
        ++stats_.recordsReplayed;
        break;
      }
      case TraceOp::EscapeEnd: {
        unsigned region =
            regionOfEnd(*run.trace, run.cursor, run.escapedDone);
        run.inEscape = false;
        run.escapedDone = std::max(run.escapedDone, region + 1);
        core.doCompute(2, ComputeClass::Int);
        ++run.cursor;
        ++stats_.recordsReplayed;
        break;
      }
    }
}

TLSIM_HOT [[gnu::flatten]] void
TlsMachine::stepCpuBatch(CpuId cpu, Cycle bound, int bound_idx)
{
    // `run` is stable across the batch: nothing inside stepCpu
    // reassigns runs_[cpu] (commitEpoch/startNextEpoch run only from
    // the outer scheduler loop), so hoisting the deref out of the
    // loop is safe. [[gnu::flatten]] additionally inlines the whole
    // per-record path (stepCpu -> exec*) into this one loop body.
    const Core &core = cores_[cpu];
    EpochRun *run = runs_[cpu].get();
    schedEvent_ = false;
    do {
        stepCpu(cpu);
    } while (!schedEvent_ && run->st == RunState::Running &&
             !run->pendingSquash &&
             (core.now() < bound ||
              (core.now() == bound && static_cast<int>(cpu) < bound_idx)));
}

void
TlsMachine::finishEpochBody(EpochRun &run)
{
    if (run.latchesHeld != 0)
        panic("epoch %llu finished still holding %u latches "
              "(database latch discipline bug)",
              static_cast<unsigned long long>(run.seq), run.latchesHeld);
    cores_[run.cpu].drainLoads();
    run.st = RunState::Done;
}

bool
TlsMachine::isOldest(const EpochRun &run) const
{
    return run.seq == nextCommitSeq_;
}

void
TlsMachine::execLoad(EpochRun &run, const TraceRecord &r,
                     std::uint8_t flags, bool spec)
{
    Core &core = cores_[run.cpu];
    // The oldest running epoch is non-speculative (Section 2.1: the
    // design supports "mixing speculative and non-speculative work"):
    // its accesses need no SL/SM tracking and no version buffering.
    bool strack = spec && specTracking_ && !isOldest(run);

    // Dependence predictor (Section 1.2 ablation): a load whose PC has
    // violated before synchronizes — stall until this thread is the
    // oldest and the value is guaranteed final. PC granularity makes
    // this grossly conservative, which is the paper's point.
    if (strack && cfg_.tls.useDependencePredictor &&
        run.latchesHeld == 0 && predictedLoads_.count(r.pc)) {
        // (Bypassed while holding a latch: an older epoch might be
        // waiting on it, and synchronizing here would deadlock.)
        ++stats_.predictorStalls;
        core.advanceTo(core.now() + 50, Cat::Sync);
        return; // record retried; progresses once oldest
    }

    Cycle issue = core.prepareLoad(r.aux & kAuxDependent);
    MemAccess res = mem_.load(run.cpu, r.addr, issue, strack);
    if (res.overflow) {
        handleOverflow(run);
        return; // record retried after the overflow resolves
    }
    core.finishLoad(res.readyAt);
    if (strack) {
        Addr line = mem_.geom().lineNum(r.addr);
        if (oracleOn_) {
            // The pre-analysis already decided exposure: a covered
            // load changes no speculative state at all, an exposed
            // one sets its SL bit without the per-word SM merge.
            if (!(flags & EpochView::kCovered)) {
                spec_.recordLoadExposed(ctxId(run.cpu, run.curSub),
                                        line);
                exposed_[run.cpu].record(line, r.pc);
            }
        } else {
            std::uint32_t wm = mem_.geom().wordMask(r.addr, r.size);
            bool exposed =
                spec_.recordLoad(ctxId(run.cpu, run.curSub),
                                 threadMask(run.cpu, run.curSub),
                                 line, wm);
            if (exposed)
                exposed_[run.cpu].record(line, r.pc);
        }
        if (auditFull_) {
            refreshAuditView();
            audit_->onAccess(auditView_, run.cpu, line);
        }
    }
    chargeRecord(run, r.aux >> kAuxInstShift);
}

void
TlsMachine::execStore(EpochRun &run, const TraceRecord &r,
                      std::uint8_t flags, bool spec)
{
    Core &core = cores_[run.cpu];
    bool strack = spec && specTracking_ && !isOldest(run);
    MemAccess res = mem_.store(run.cpu, r.addr, core.now(), strack);
    if (res.overflow) {
        handleOverflow(run);
        return;
    }
    Addr line = mem_.geom().lineNum(r.addr);
    if (strack) {
        std::uint32_t wm = mem_.geom().wordMask(r.addr, r.size);
        spec_.recordStore(ctxId(run.cpu, run.curSub), line, wm);
        if (auditFull_) {
            refreshAuditView();
            audit_->onAccess(auditView_, run.cpu, line);
        }
    }
    if (tlsActive_ && specTracking_ &&
        (!oracleOn_ || (flags & EpochView::kConflict))) {
        // Escaped stores are non-speculative but still produce values
        // that younger speculative readers must not have consumed.
        // With the oracle on, stores to non-conflict-candidate lines
        // skip this scan: the pre-analysis proved no younger epoch
        // ever reads the line, so no SL holder can exist.
        if (cfg_.tls.aggressiveUpdates || !strack)
            checkViolations(run, line, r.pc);
        else
            run.deferredChecks.emplace_back(line, r.pc);
    }
    core.doStore(res.readyAt);
    chargeRecord(run, r.aux >> kAuxInstShift);
}

void
TlsMachine::execLatchAcquire(EpochRun &run, Pc pc,
                             std::uint64_t latch_id)
{
    (void)pc;
    Core &core = cores_[run.cpu];
    LatchState &latch = latches_.acquire(latch_id);
    if (latch.held && latch.owner == run.cpu) {
        // Granted while waking from the wait queue (or re-held across a
        // rewind replay).
        ++run.latchesHeld;
        run.heldLatches.push_back(latch_id);
        core.doCompute(4, ComputeClass::Int);
        chargeRecord(run, 4);
        return;
    }
    if (!latch.held) {
        latch.held = true;
        latch.owner = run.cpu;
        ++run.latchesHeld;
        run.heldLatches.push_back(latch_id);
        core.doCompute(4, ComputeClass::Int);
        chargeRecord(run, 4);
        return;
    }
    // Blocked: leave the cursor on the acquire; the releaser wakes us.
    latch.waiters.push_back(run.cpu);
    run.st = RunState::LatchWait;
    run.waitLatch = latch_id;
    ++stats_.latchWaits;
}

void
TlsMachine::releaseLatch(std::uint64_t latch_id, Cycle at)
{
    LatchState *lp = latches_.find(latch_id);
    if (!lp)
        return;
    LatchState &latch = *lp;
    if (!latch.waiters.empty()) {
        CpuId w = latch.waiters.front();
        latch.waiters.erase(latch.waiters.begin());
        latch.owner = w; // direct hand-off
        EpochRun *rw = runs_[w].get();
        if (!rw || rw->st != RunState::LatchWait)
            panic("latch hand-off to cpu %u which is not waiting", w);
        cores_[w].advanceTo(at + 1, Cat::LatchStall);
        rw->st = RunState::Running;
        rw->waitLatch = 0;
        schedEvent_ = true; // another CPU's clock and state changed
    } else {
        latch.held = false;
    }
}

void
TlsMachine::execLatchRelease(EpochRun &run, Pc pc,
                             std::uint64_t latch_id)
{
    (void)pc;
    Core &core = cores_[run.cpu];
    core.doCompute(4, ComputeClass::Int);

    auto held_it = std::find(run.heldLatches.begin(),
                             run.heldLatches.end(), latch_id);
    if (held_it == run.heldLatches.end()) {
        // Replay residue: the violation handler already released this
        // latch during a rewind. Charge the cost and move on.
        chargeRecord(run, 4);
        return;
    }
    run.heldLatches.erase(held_it);
    --run.latchesHeld;
    releaseLatch(latch_id, core.now());
    chargeRecord(run, 4);
}

// ---------------------------------------------------------------------
// Sub-threads and violations
// ---------------------------------------------------------------------

void
TlsMachine::maybeSpawnSubthread(EpochRun &run)
{
    Core &core = cores_[run.cpu];
    ++run.curSub;
    run.cps.push_back(
        {run.cursor, core.checkpoint(), run.specInsts,
         static_cast<std::uint32_t>(run.deferredChecks.size())});
    if (!run.spawnPoints.empty()) {
        ++run.spawnIdx;
        run.nextSpawn = run.spawnIdx < run.spawnPoints.size()
                            ? run.spawnPoints[run.spawnIdx]
                            : kNoSpawn;
    } else {
        run.nextSpawn += run.spacing;
    }
    ++stats_.subthreadsStarted;

    // subthreadStart message: logically-later threads record which of
    // their sub-threads is current (the sub-thread start table).
    ContextId ctx = ctxId(run.cpu, run.curSub);
    for (unsigned d = 0; d < numCpus_; ++d) {
        EpochRun *r = runs_[d].get();
        if (!r || r == &run || r->seq <= run.seq)
            continue;
        r->startTable[ctx] = {run.seq, r->curSub};
    }
    if (audit_) {
        refreshAuditView();
        audit_->onSpawn(auditView_, run.cpu, run.curSub);
    }
}

void
TlsMachine::checkViolations(EpochRun &storer, Addr line, Pc store_pc)
{
    std::uint64_t holders = spec_.slHolders(line);
    holders &= ~threadMask(storer.cpu, k_ - 1); // never self-violate
    if (!holders)
        return;

    // Which younger threads performed exposed loads of this line, and
    // at which sub-thread? (member scratch: no per-call allocation)
    std::vector<unsigned> &own_sub = ownSubScratch_;
    own_sub.assign(numCpus_, k_);
    EpochRun *primary = nullptr;
    while (holders) {
        unsigned ctx = static_cast<unsigned>(__builtin_ctzll(holders));
        holders &= holders - 1;
        CpuId cpu_h = ctx / k_;
        unsigned sub_h = ctx % k_;
        EpochRun *r = runs_[cpu_h].get();
        if (!r || r->seq <= storer.seq)
            continue; // older threads legitimately read the old value
        own_sub[cpu_h] = std::min(own_sub[cpu_h], sub_h);
        if (!primary || r->seq < primary->seq)
            primary = r;
    }
    if (!primary)
        return;

    Cycle now = cores_[storer.cpu].now();
    unsigned primary_sub = own_sub[primary->cpu];
    ++stats_.primaryViolations;
    stats_.violatedLines.push_back(line);
    scheduleSquash(*primary, primary_sub, now, store_pc, line, false);

    // Secondary violations, originated by the primary's restarted
    // sub-thread; with the start table only dependent sub-threads
    // restart (Figure 4(b)), otherwise whole threads restart (4(a)).
    ContextId origin_ctx = ctxId(primary->cpu, primary_sub);
    for (unsigned d = 0; d < numCpus_; ++d) {
        EpochRun *r = runs_[d].get();
        if (!r || r == primary || r->seq <= primary->seq)
            continue;
        unsigned sub = 0;
        if (cfg_.tls.useStartTable) {
            const auto &e = r->startTable[origin_ctx];
            if (e.first == primary->seq)
                sub = e.second;
        }
        if (own_sub[d] < sub)
            sub = own_sub[d]; // it also read the line directly
        ++stats_.secondaryViolations;
        scheduleSquash(*r, sub, now, store_pc, line, true);
    }
}

void
TlsMachine::scheduleSquash(EpochRun &victim, unsigned sub, Cycle at,
                           Pc store_pc, Addr line, bool secondary)
{
    schedEvent_ = true; // victim's run state / runnability may change
    if (sub > victim.curSub)
        sub = victim.curSub;
    if (victim.pendingSquash) {
        if (sub < victim.squashSub) {
            victim.squashSub = sub;
            victim.squashStorePc = store_pc;
            victim.squashLine = line;
            victim.squashSecondary = secondary;
        }
        victim.squashAt = std::min(victim.squashAt, at);
    } else {
        victim.pendingSquash = true;
        victim.squashSub = sub;
        victim.squashAt = at;
        victim.squashStorePc = store_pc;
        victim.squashLine = line;
        victim.squashSecondary = secondary;
    }

    if (victim.st == RunState::LatchWait) {
        // Pull it out of the wait queue: it has not been granted the
        // latch, so blocking-state removal is safe.
        if (LatchState *l = latches_.find(victim.waitLatch)) {
            auto &w = l->waiters;
            w.erase(std::remove(w.begin(), w.end(), victim.cpu), w.end());
        }
        victim.waitLatch = 0;
        victim.st = RunState::Running;
    } else if (victim.st == RunState::Done) {
        // Pulled back from the homefree wait.
        victim.st = RunState::Running;
    }
}

void
TlsMachine::applySquash(EpochRun &run)
{
    Core &core = cores_[run.cpu];
    unsigned sub = std::min(run.squashSub, run.curSub);
    Checkpoint &cp = run.cps[sub];

    // Section 3.1 profiling: failed cycles attributed to the
    // (load PC, store PC) pair. Overflow-induced squashes carry no
    // store PC and are not dependence violations.
    if (run.squashStorePc != 0) {
        Cycle failed =
            core.now() > cp.core.now ? core.now() - cp.core.now : 0;
        Pc load_pc = exposed_[run.cpu].lookup(run.squashLine);
        profiler_.recordViolation(load_pc, run.squashStorePc, failed);
        if (cfg_.tls.useDependencePredictor && load_pc != 0)
            predictedLoads_.insert(load_pc);
    }

    // Violation handler: release every latch held (the escaped
    // recovery code of the VLDB'05 design); replay will re-acquire.
    for (std::uint64_t latch_id : run.heldLatches)
        releaseLatch(latch_id, core.now());
    run.heldLatches.clear();
    run.latchesHeld = 0;

    // Discard speculative state of sub-threads sub..curSub (youngest
    // first so dead-version detection sees the surviving contexts).
    for (unsigned s = run.curSub + 1; s-- > sub;) {
        std::uint64_t surviving =
            s == 0 ? 0 : threadMask(run.cpu, s - 1);
        deadLineScratch_.clear();
        spec_.clearContext(ctxId(run.cpu, s), surviving,
                           &deadLineScratch_);
        for (Addr l : deadLineScratch_)
            mem_.dropThreadVersion(run.cpu, l);
    }
    if (!cfg_.tls.l1SubthreadAware)
        mem_.squashL1(run.cpu);

    ++stats_.squashes;
    stats_.rewoundInsts += core.instSeq() - cp.core.instSeq;

    Cycle restart =
        std::max(core.now(),
                 run.squashAt + cfg_.tls.violationDeliveryLatency);
    core.rewindTo(cp.core, restart);

    run.cursor = cp.recIdx;
    run.curSub = sub;
    run.specInsts = cp.specInsts;
    if (!run.spawnPoints.empty()) {
        // Re-arm at the first threshold past the restored checkpoint.
        run.spawnIdx = static_cast<std::size_t>(
            std::upper_bound(run.spawnPoints.begin(),
                             run.spawnPoints.end(), cp.specInsts) -
            run.spawnPoints.begin());
        run.nextSpawn = run.spawnIdx < run.spawnPoints.size()
                            ? run.spawnPoints[run.spawnIdx]
                            : kNoSpawn;
    } else {
        run.nextSpawn = cp.specInsts + run.spacing;
    }
    if (run.deferredChecks.size() > cp.deferredCount)
        run.deferredChecks.resize(cp.deferredCount);
    run.inEscape = false; // checkpoints never sit inside escapes
    run.cps.resize(sub + 1);
    run.cps[sub].core = core.checkpoint();
    run.pendingSquash = false;
    run.st = RunState::Running;
    if (audit_ && specTracking_) {
        refreshAuditView();
        audit_->onSquash(auditView_, run.cpu, sub);
    }
}

void
TlsMachine::handleOverflow(EpochRun &run)
{
    ++stats_.overflowEvents;
    Core &core = cores_[run.cpu];
    Cycle now = core.now();

    // Find the youngest speculative thread holding state in the full
    // set; squashing it frees buffering space.
    EpochRun *victim = nullptr;
    for (const auto &[line, ver] : mem_.lastOverflowSet()) {
        std::uint64_t holders = 0;
        if (ver != kCommittedVersion) {
            holders = threadMask(ver, k_ - 1);
        } else {
            holders = spec_.stateHolders(line);
        }
        while (holders) {
            unsigned ctx = static_cast<unsigned>(__builtin_ctzll(holders));
            holders &= holders - 1;
            EpochRun *r = runs_[ctx / k_].get();
            if (!r)
                continue;
            if (!victim || r->seq > victim->seq)
                victim = r;
        }
    }

    if (victim && victim != &run) {
        scheduleSquash(*victim, 0, now, 0, 0, false);
    } else {
        // Our own speculative state fills the set (or nothing
        // identifiable does): squash ourselves back to the start.
        // Replay makes progress once this epoch becomes the oldest,
        // because the oldest epoch runs non-speculatively and needs no
        // buffering. The squash also releases any held latches, so
        // older epochs can always drain.
        scheduleSquash(run, 0, now, 0, 0, false);
    }
    // Back off and retry the access.
    core.advanceTo(now + 25, Cat::Sync);
}

} // namespace tlsim
