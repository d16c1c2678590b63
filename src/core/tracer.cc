#include "core/tracer.h"

#include "base/log.h"
#include "core/site.h"

namespace tlsim {

Tracer::Tracer(Options opts) : opts_(opts), geom_(opts.lineBytes) {}

EpochTrace &
Tracer::cur()
{
    return workload_.txns.back().sections.back().epochs.back();
}

void
Tracer::append(const TraceRecord &rec)
{
    cur().records.push_back(rec);
}

void
Tracer::memAccess(TraceOp op, Pc pc, Addr a, std::size_t size,
                  bool dependent)
{
    // Split accesses at line boundaries so the replay engine never sees
    // a record spanning two lines. The first chunk carries the whole
    // access's instruction cost (a run of 8-byte moves) and, for
    // loads, the dependent flag; the rest are continuation accesses.
    std::uint16_t insts =
        static_cast<std::uint16_t>(size ? (size + 7) / 8 : 1);
    bool first = true;
    while (size > 0) {
        Addr line_end = geom_.lineAddr(a) + geom_.lineBytes();
        std::size_t chunk = std::min<std::size_t>(size, line_end - a);
        std::uint16_t aux = first
                                ? static_cast<std::uint16_t>(
                                      insts << kAuxInstShift)
                                : 0;
        if (op == TraceOp::Load && dependent && first)
            aux |= kAuxDependent;
        append({op, static_cast<std::uint8_t>(chunk), aux, pc, a});
        a += chunk;
        size -= chunk;
        first = false;
    }
}

void
Tracer::txnBegin()
{
    if (capturing_)
        panic("txnBegin inside an open transaction");
    workload_.txns.emplace_back();
    capturing_ = true;
    inLoop_ = false;
    pendingLoop_ = false;
    escapeDepth_ = 0;
    openSection(false);
}

void
Tracer::openSection(bool parallel)
{
    auto &txn = workload_.txns.back();
    if (!txn.sections.empty())
        closeEpoch();
    txn.sections.emplace_back();
    txn.sections.back().parallel = parallel;
    openEpoch(parallel);
}

void
Tracer::openEpoch(bool add_spawn_overhead)
{
    auto &sec = workload_.txns.back().sections.back();
    sec.epochs.emplace_back();
    // Epochs run hundreds of records; pre-size to skip the early
    // doubling reallocations on the capture hot path.
    sec.epochs.back().records.reserve(kRecordsReserve);
    if (add_spawn_overhead && opts_.parallelMode &&
        opts_.spawnOverheadInsts > 0) {
        static const Site spawn_site("tls.spawn_epoch");
        append({TraceOp::Compute, 0,
                static_cast<std::uint16_t>(ComputeClass::Int),
                spawn_site.pc, opts_.spawnOverheadInsts});
    }
}

void
Tracer::closeEpoch()
{
    EpochTrace &e = cur();
    e.instCount = 0;
    e.specInstCount = 0;
    e.escapeSpans.clear();
    unsigned depth = 0;
    std::uint32_t begin_idx = 0;
    for (std::uint32_t i = 0; i < e.records.size(); ++i) {
        const TraceRecord &r = e.records[i];
        InstCount n = recordInsts(r);
        e.instCount += n;
        if (r.op == TraceOp::EscapeBegin) {
            if (depth++ == 0)
                begin_idx = i;
        } else if (r.op == TraceOp::EscapeEnd) {
            if (depth == 0)
                panic("unbalanced EscapeEnd in epoch trace");
            if (--depth == 0)
                e.escapeSpans.emplace_back(begin_idx, i);
        } else if (depth == 0) {
            e.specInstCount += n;
        }
    }
    if (depth != 0)
        panic("escaped region left open at end of epoch");
}

void
Tracer::txnEnd()
{
    if (!capturing_)
        panic("txnEnd without txnBegin");
    if (inLoop_ || pendingLoop_)
        panic("txnEnd inside a parallel loop");
    if (escapeDepth_ != 0)
        panic("txnEnd inside an escaped region");
    closeEpoch();
    // Drop empty trailing/intermediate sequential sections.
    auto &txn = workload_.txns.back();
    std::erase_if(txn.sections, [](const TraceSection &s) {
        return !s.parallel && s.epochs.size() == 1 &&
               s.epochs[0].records.empty();
    });
    capturing_ = false;
}

void
Tracer::loopBegin()
{
    if (!capturing_ || !opts_.parallelMode)
        return;
    if (inLoop_ || pendingLoop_)
        panic("nested parallel loops are not supported");
    if (escapeDepth_ != 0)
        panic("loopBegin inside an escaped region");
    pendingLoop_ = true;
}

void
Tracer::iterBegin()
{
    if (!capturing_ || !opts_.parallelMode)
        return;
    if (pendingLoop_) {
        pendingLoop_ = false;
        inLoop_ = true;
        openSection(true);
        return;
    }
    if (!inLoop_)
        panic("iterBegin outside a parallel loop");
    if (escapeDepth_ != 0)
        panic("iterBegin inside an escaped region");
    closeEpoch();
    openEpoch(true);
}

void
Tracer::loopEnd()
{
    if (!capturing_ || !opts_.parallelMode)
        return;
    if (pendingLoop_) {
        // Loop body never ran; nothing was opened.
        pendingLoop_ = false;
        return;
    }
    if (!inLoop_)
        panic("loopEnd without loopBegin");
    if (escapeDepth_ != 0)
        panic("loopEnd inside an escaped region");
    inLoop_ = false;
    openSection(false);
}

void
Tracer::latchAcquire(Pc pc, std::uint64_t latch_id)
{
    if (!capturing_)
        return;
    if (escapeDepth_ == 0)
        panic("latchAcquire outside an escaped region (site %s)",
              SiteRegistry::instance().name(pc).c_str());
    append({TraceOp::LatchAcquire, 0, 0, pc, latch_id});
}

void
Tracer::latchRelease(Pc pc, std::uint64_t latch_id)
{
    if (!capturing_)
        return;
    if (escapeDepth_ == 0)
        panic("latchRelease outside an escaped region (site %s)",
              SiteRegistry::instance().name(pc).c_str());
    append({TraceOp::LatchRelease, 0, 0, pc, latch_id});
}

void
Tracer::escapeBegin(Pc pc)
{
    if (!capturing_)
        return;
    if (escapeDepth_++ == 0)
        append({TraceOp::EscapeBegin, 0, 0, pc, 0});
}

void
Tracer::escapeEnd(Pc pc)
{
    if (!capturing_)
        return;
    if (escapeDepth_ == 0)
        panic("escapeEnd without escapeBegin");
    if (--escapeDepth_ == 0)
        append({TraceOp::EscapeEnd, 0, 0, pc, 0});
}

WorkloadTrace
Tracer::takeWorkload()
{
    if (capturing_)
        panic("takeWorkload inside an open transaction");
    WorkloadTrace out = std::move(workload_);
    workload_ = WorkloadTrace{};
    // Loop-structure state is per-transaction, but an aborted capture
    // (txnEnd never reached) would leak it into the next workload's
    // first transaction: a stale inLoop_ turns its opening section
    // parallel. Recycle it with the capture.
    inLoop_ = false;
    pendingLoop_ = false;
    escapeDepth_ = 0;
    return out;
}

} // namespace tlsim
