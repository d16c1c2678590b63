#include "core/critpath/graph.h"

#include <algorithm>

#include "base/addr.h"
#include "base/detorder.h"
#include "base/lineset.h"
#include "base/log.h"
#include "base/narrow.h"
#include "cpu/core.h"

namespace tlsim {
namespace critpath {

const char *
edgeClassName(EdgeClass c)
{
    switch (c) {
      case EdgeClass::Program: return "program";
      case EdgeClass::Occupancy: return "occupancy";
      case EdgeClass::Raw: return "raw";
      case EdgeClass::Commit: return "commit";
    }
    return "?";
}

std::pair<const EpochNode::MemEvent *, const EpochNode::MemEvent *>
EpochNode::storesOnLine(Addr line) const
{
    auto cmp = [](const MemEvent &e, Addr l) { return e.line < l; };
    const MemEvent *lo = std::lower_bound(
        stores.data(), stores.data() + stores.size(), line, cmp);
    const MemEvent *hi = lo;
    while (hi != stores.data() + stores.size() && hi->line == line)
        ++hi;
    return {lo, hi};
}

/**
 * Prices one epoch's program-order chain on a real cpu/Core interval
 * model against a one-epoch line-reuse memory model: the first access
 * to a line inside the epoch pays the L2 path (hit latency + line
 * transfer), later accesses pay the L1 hit. The Core instance is
 * shared across all epochs so the GShare predictor warms in global
 * record order, exactly as a serial replay would.
 */
class BasePricer
{
  public:
    BasePricer(const CpuConfig &cpu, const MemConfig &mem,
               unsigned line_transfer)
        : core_(cpu, 0), geom_(mem.lineBytes),
          l1Hit_(mem.l1HitLatency),
          missCost_(mem.l2HitLatency + line_transfer)
    {
    }

    Core &core() { return core_; }
    const LineGeom &geom() const { return geom_; }

    void
    beginEpoch()
    {
        seen_.clear();
        firstTouches_ = 0;
    }

    std::uint32_t firstTouches() const { return firstTouches_; }

    void
    load(Addr addr, bool dependent)
    {
        Cycle issue = core_.prepareLoad(dependent);
        core_.finishLoad(issue + access(geom_.lineNum(addr)));
    }

    void
    store(Addr addr)
    {
        access(geom_.lineNum(addr));
        core_.doStore(core_.now());
    }

  private:
    /** Touch a line; returns its data latency. */
    Cycle
    access(Addr line)
    {
        if (!seen_.insert(line))
            return l1Hit_;
        ++firstTouches_;
        return missCost_;
    }

    Core core_;
    LineGeom geom_;
    Cycle l1Hit_;
    Cycle missCost_;
    LineSet seen_;
    std::uint32_t firstTouches_ = 0;
};

DepGraph::DepGraph(const WorkloadTrace &workload,
                   const TraceIndex &index, const MachineConfig &cfg)
    : cfg_(cfg)
{
    if (!index.matches(&workload, cfg.mem.lineBytes))
        panic("DepGraph: trace index does not cover this workload at "
              "line size %u",
              cfg.mem.lineBytes);

    lineTransferCycles_ =
        std::max(1u, cfg.mem.lineBytes / cfg.mem.crossbarBytesPerCycle);
    txnCount_ = checkedNarrow<std::uint32_t>(workload.txns.size());

    std::size_t total_epochs = 0;
    for (const TransactionTrace &txn : workload.txns)
        for (const TraceSection &sec : txn.sections)
            total_epochs += sec.epochs.size();
    epochs_.resize(total_epochs);

    BasePricer pricer(cfg.cpu, cfg.mem, lineTransferCycles_);

    std::uint32_t ei = 0;
    std::uint32_t ti = 0;
    for (const TransactionTrace &txn : workload.txns) {
        for (const TraceSection &sec : txn.sections) {
            SectionNode sn;
            sn.parallel = sec.parallel;
            sn.txn = ti;
            sn.firstEpoch = ei;
            sn.epochCount =
                checkedNarrow<std::uint32_t>(sec.epochs.size());
            sections_.push_back(sn);
            for (const EpochTrace &e : sec.epochs) {
                EpochNode &node = epochs_[ei];
                node.trace = &e;
                node.view = index.viewOf(&e);
                buildEpoch(e, node, pricer);
                rawEdges_ += node.exposedLoads.size();
                ++ei;
            }
        }
        ++ti;
    }
}

void
DepGraph::buildEpoch(const EpochTrace &e, EpochNode &node,
                     BasePricer &pricer)
{
    const EpochView &v = *node.view;
    const std::size_t n = v.size();
    Core &core = pricer.core();
    const LineGeom &geom = pricer.geom();

    node.specInstCount = e.specInstCount;
    node.prefixCycles.resize(n + 1);
    node.prefixSpec.resize(n + 1);

    pricer.beginEpoch();
    const Cycle start = core.now();
    const Breakdown snap = core.breakdown();

    bool esc = false;
    std::uint64_t spec = 0;
    for (std::size_t i = 0; i < n; ++i) {
        node.prefixCycles[i] =
            checkedNarrow<std::uint32_t>(core.now() - start);
        node.prefixSpec[i] = checkedNarrow<std::uint32_t>(spec);

        const TraceRecord &r = v.records[i];
        const TraceOp op = r.op;
        std::uint64_t insts = 0;
        switch (op) {
          case TraceOp::Load:
            pricer.load(r.addr, r.aux & kAuxDependent);
            insts = r.aux >> kAuxInstShift;
            if (!esc && (v.flags[i] & (EpochView::kConflict |
                                       EpochView::kCovered)) ==
                            EpochView::kConflict)
                node.exposedLoads.push_back(
                    {checkedNarrow<std::uint32_t>(i),
                     geom.lineNum(r.addr)});
            break;
          case TraceOp::Store:
            pricer.store(r.addr);
            insts = r.aux >> kAuxInstShift;
            if (v.flags[i] & EpochView::kConflict)
                node.stores.push_back(
                    {checkedNarrow<std::uint32_t>(i),
                     geom.lineNum(r.addr), esc});
            break;
          case TraceOp::Compute:
            insts = r.addr;
            core.doCompute(insts, static_cast<ComputeClass>(r.aux));
            break;
          case TraceOp::Branch:
            core.doBranch(r.pc, r.aux & kAuxTaken);
            insts = 1;
            break;
          case TraceOp::LatchAcquire:
          case TraceOp::LatchRelease:
            core.doCompute(4, ComputeClass::Int);
            insts = 4;
            break;
          case TraceOp::EscapeBegin:
            esc = true;
            core.doCompute(2, ComputeClass::Int);
            insts = 0; // the machine charges escape brackets no spec work
            break;
          case TraceOp::EscapeEnd:
            esc = false;
            core.doCompute(2, ComputeClass::Int);
            insts = 0;
            break;
        }
        if (!esc && op != TraceOp::EscapeEnd)
            spec += insts;
    }
    core.drainLoads();

    node.prefixCycles[n] = checkedNarrow<std::uint32_t>(core.now() - start);
    node.prefixSpec[n] = checkedNarrow<std::uint32_t>(spec);

    // Replay pricing: escape spans (brackets included) cost nothing
    // the second time around — the machine's escapedDone skip jumps
    // the cursor over them.
    node.prefixReplay.resize(n + 1);
    esc = false;
    std::uint32_t replay = 0;
    for (std::size_t i = 0; i < n; ++i) {
        node.prefixReplay[i] = replay;
        const TraceOp op = v.records[i].op;
        if (op == TraceOp::EscapeBegin)
            esc = true;
        if (!esc)
            replay += node.prefixCycles[i + 1] - node.prefixCycles[i];
        if (op == TraceOp::EscapeEnd)
            esc = false;
    }
    node.prefixReplay[n] = replay;
    node.baseCycles = core.now() - start;
    node.busyCycles = core.breakdown()[Cat::Busy] - snap[Cat::Busy];
    node.firstTouchLines = pricer.firstTouches();

    // Flat lookup table: stores sorted by (line, rec) so the analyzer
    // resolves "stores of epoch A on line L" with one binary search.
    // Each store record appears once, so the key is total.
    det::canonicalSort(node.stores, [](const EpochNode::MemEvent &e) {
        return std::make_pair(e.line, e.rec);
    });
}

} // namespace critpath
} // namespace tlsim
