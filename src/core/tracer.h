/**
 * @file
 * Capture tracer: the instrumentation channel between the natively
 * executing database / workload code and the trace-driven simulator.
 *
 * The workload calls txnBegin()/txnEnd() around each transaction and
 * loopBegin()/iterBegin()/loopEnd() around the loop it wants
 * parallelized; everything else (load/store/compute/branch/latch) is
 * called from the database as it runs. When `parallelMode` is false the
 * loop markers are ignored and the capture is a plain sequential trace
 * (the paper's SEQUENTIAL binary); when true, iterations become epochs
 * and each epoch is charged the TLS spawn overhead (the paper's
 * TLS-SEQ / parallel binaries).
 */

#ifndef CORE_TRACER_H
#define CORE_TRACER_H

#include <cstddef>
#include <cstdint>

#include "base/addr.h"
#include "base/types.h"
#include "core/trace.h"

namespace tlsim {

/** Records the execution of instrumented code into a WorkloadTrace. */
class Tracer
{
  public:
    struct Options
    {
        bool parallelMode = false;    ///< honor loop markers
        unsigned spawnOverheadInsts = 100; ///< software cost per epoch
        unsigned lineBytes = 32;      ///< for splitting wide accesses
    };

    Tracer() : Tracer(Options{}) {}
    explicit Tracer(Options opts);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    // --- Transaction / loop structure (workload code) ---------------
    void txnBegin();
    void txnEnd();
    void loopBegin();
    void iterBegin();
    void loopEnd();

    /** All transactions captured so far. */
    WorkloadTrace &workload() { return workload_; }
    const WorkloadTrace &workload() const { return workload_; }
    /** Move the capture out and reset. */
    WorkloadTrace takeWorkload();

    // --- Events (database code) --------------------------------------
    void
    load(Pc pc, const void *p, std::size_t size, bool dependent = false)
    {
        if (!capturing_)
            return;
        memAccess(TraceOp::Load, pc, reinterpret_cast<Addr>(p), size,
                  dependent);
    }

    void
    store(Pc pc, const void *p, std::size_t size)
    {
        if (!capturing_)
            return;
        memAccess(TraceOp::Store, pc, reinterpret_cast<Addr>(p), size,
                  false);
    }

    /**
     * Compute records are split into chunks of at most
     * kMaxComputeChunk instructions so the replay machine can place
     * sub-thread checkpoints (and interleave CPUs) inside long
     * computations.
     */
    static constexpr std::uint64_t kMaxComputeChunk = 2000;

    /** Initial record capacity of a freshly opened epoch. */
    static constexpr std::size_t kRecordsReserve = 256;

    void
    compute(Pc pc, std::uint64_t n, ComputeClass cls = ComputeClass::Int)
    {
        if (!capturing_ || n == 0)
            return;
        while (n > 0) {
            std::uint64_t chunk = std::min(n, kMaxComputeChunk);
            append({TraceOp::Compute, 0,
                    static_cast<std::uint16_t>(cls), pc, chunk});
            n -= chunk;
        }
    }

    void
    branch(Pc pc, bool taken)
    {
        if (!capturing_)
            return;
        append({TraceOp::Branch, 0,
                static_cast<std::uint16_t>(taken ? kAuxTaken : 0), pc, 0});
    }

    void latchAcquire(Pc pc, std::uint64_t latch_id);
    void latchRelease(Pc pc, std::uint64_t latch_id);
    void escapeBegin(Pc pc);
    void escapeEnd(Pc pc);

    bool capturing() const { return capturing_; }
    bool parallelMode() const { return opts_.parallelMode; }

  private:
    void memAccess(TraceOp op, Pc pc, Addr a, std::size_t size,
                   bool dependent);
    void append(const TraceRecord &rec);
    void openSection(bool parallel);
    void openEpoch(bool add_spawn_overhead);
    void closeEpoch();

    /** The epoch currently being appended to. */
    EpochTrace &cur();

    Options opts_;
    LineGeom geom_;
    WorkloadTrace workload_;

    bool capturing_ = false;  ///< inside txnBegin/txnEnd
    bool inLoop_ = false;     ///< inside a marked parallel loop
    bool pendingLoop_ = false;///< loopBegin seen, first iterBegin not yet
    unsigned escapeDepth_ = 0;
    std::uint32_t escapeBeginIdx_ = 0;
};

/**
 * RAII helper for escaped regions:
 *     { EscapedRegion esc(tracer, site.pc); ... }
 */
class EscapedRegion
{
  public:
    EscapedRegion(Tracer &tracer, Pc pc) : tracer_(tracer), pc_(pc)
    {
        tracer_.escapeBegin(pc_);
    }

    ~EscapedRegion() { tracer_.escapeEnd(pc_); }

    EscapedRegion(const EscapedRegion &) = delete;
    EscapedRegion &operator=(const EscapedRegion &) = delete;

  private:
    Tracer &tracer_;
    Pc pc_;
};

} // namespace tlsim

#endif // CORE_TRACER_H
