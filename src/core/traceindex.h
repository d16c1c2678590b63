/**
 * @file
 * Trace pre-analysis for the replay engine.
 *
 * A captured trace is replayed thousands of times across the sweep
 * points of one experiment, yet the replay inner loop used to pay the
 * full speculative-versioning cost (per-word SM merges on every load,
 * a cross-context violation scan on every store) even though the trace
 * is fully known ahead of time. TraceIndex runs one analysis pass per
 * capture and answers two questions the hot path can then trust:
 *
 *  - line classification: every cache line touched by a parallel
 *    section is *epoch-private* (one epoch only), *read-shared*
 *    (several epochs, but no earlier epoch ever stores a line a later
 *    epoch accesses), or a *conflict candidate* (an earlier epoch
 *    stores it and a later epoch loads or stores it). Only conflict
 *    candidates can ever produce a violation, so stores to the other
 *    two classes skip the violation scan entirely;
 *
 *  - covered loads: a speculative load is *exposed* iff its word mask
 *    is not fully covered by the union of the same epoch's earlier
 *    non-escaped stores. That union is a static property of the record
 *    index — rewinds re-execute exactly the records past the restart
 *    checkpoint, escaped stores never record SM, and the oldest-epoch
 *    transition is absorbing — so the exposure decision the SpecState
 *    merge computes dynamically is precomputed here, bit-exact.
 *
 * The answers are one flag byte per record (the same bytes the .idx
 * file stores); the replay engine reads each record from the captured
 * trace itself and its oracle bits from that column, so the index adds
 * one byte per record to the trace it describes and never a second
 * copy of it.
 *
 * The index is a pure acceleration structure: with the oracle enabled
 * or disabled (TlsConfig::useConflictOracle), every RunResult field is
 * identical. Enforced by tests/sim/goldenequiv_test.cc.
 */

#ifndef CORE_TRACEINDEX_H
#define CORE_TRACEINDEX_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.h"
#include "core/trace.h"

namespace tlsim {

/**
 * One epoch as the replay engine reads it: the captured records, one
 * oracle flag byte per record, and the epoch's risk offsets.
 */
struct EpochView
{
    /** Flag bit: the record's line is a conflict candidate
     *  (Load/Store only). */
    static constexpr std::uint8_t kConflict = 1;
    /** Flag bit: the load is covered by the epoch's own earlier
     *  non-escaped stores. */
    static constexpr std::uint8_t kCovered = 2;

    std::span<const TraceRecord> records; ///< the source epoch's own
    std::vector<std::uint8_t> flags;      ///< one per record

    /**
     * Risk offsets: the speculative-instruction counts at which this
     * epoch issues an exposed load of a conflict-candidate line —
     * i.e. the machine's specInsts value right before the record, the
     * coordinate a sub-thread spawn threshold is compared against.
     * Ascending, deduplicated, 0 excluded (the epoch start is already
     * a checkpoint). Input to predicted-risk sub-thread placement
     * (core/critpath/placement.h).
     */
    std::vector<std::uint32_t> riskOffsets;

    std::size_t size() const { return records.size(); }
};

/**
 * The per-capture analysis product: one EpochView per epoch, line
 * classification totals, and the sizing hints the machine uses to
 * pre-reserve speculative-state storage.
 *
 * A TraceIndex is immutable after construction and references the
 * WorkloadTrace it was built from by address; build it only once the
 * workload has reached its final location (see matches()). Read-only
 * sharing across concurrent simulation points is safe.
 */
class TraceIndex
{
  public:
    struct ClassTotals
    {
        std::uint64_t epochPrivate = 0;
        std::uint64_t readShared = 0;
        std::uint64_t conflict = 0;

        std::uint64_t
        total() const
        {
            return epochPrivate + readShared + conflict;
        }
    };

    /** Run the full analysis (counted by builds()). */
    TraceIndex(const WorkloadTrace &workload, unsigned line_bytes);

    TraceIndex(const TraceIndex &) = delete;
    TraceIndex &operator=(const TraceIndex &) = delete;

    /**
     * True if this index was built from exactly this workload object
     * at this line size. Identity, not content equality: the object's
     * address and its transaction storage must both be unchanged. A
     * workload moved into place (`traces.tls = std::move(other)`)
     * brings other's storage and so stops matching; a copy assigned
     * over it may reuse the old storage, so reset the index then.
     */
    bool matches(const WorkloadTrace *workload,
                 unsigned line_bytes) const
    {
        return source_ == workload &&
               sourceTxns_ == workload->txns.data() &&
               lineBytes_ == line_bytes;
    }

    unsigned lineBytes() const { return lineBytes_; }

    /** View of one epoch of the source workload (panics if foreign). */
    const EpochView *viewOf(const EpochTrace *epoch) const;

    /** Line classification summed over all parallel sections. */
    const ClassTotals &totals() const { return totals_; }

    /** Most distinct speculative lines touched by one parallel
     *  section (SpecState sizing hint). */
    std::size_t maxSectionLines() const { return maxSectionLines_; }

    /** Number of full analysis passes ever run in this process.
     *  bench_figure6_sweep asserts this stays flat across sweep
     *  points: one capture must mean one analysis. */
    static std::uint64_t builds();

    // ----- persistence (alongside the trace in the trace cache) ------

    /** Serialize the analysis results (oracle bits + totals). */
    void save(std::ostream &os) const;

    /**
     * Rebuild an index from a saved analysis and its source workload.
     * Returns nullptr (with a log message) if the file is malformed or
     * does not match the workload's shape / line size; the caller then
     * falls back to a fresh build. Does not count toward builds().
     */
    static std::unique_ptr<TraceIndex>
    load(std::istream &is, const WorkloadTrace &workload,
         unsigned line_bytes);

    static std::unique_ptr<TraceIndex>
    loadFile(const std::string &path, const WorkloadTrace &workload,
             unsigned line_bytes);
    void saveFile(const std::string &path) const;

  private:
    struct PrivateTag
    {
    };

    /** One view per epoch, in workload traversal order; flags and
     *  risk offsets are filled by analyse() or load(). */
    TraceIndex(const WorkloadTrace &workload, unsigned line_bytes,
               PrivateTag);

    void analyse();

    const WorkloadTrace *source_;
    const TransactionTrace *sourceTxns_; ///< source_->txns.data() at build
    unsigned lineBytes_;
    ClassTotals totals_;
    std::size_t maxSectionLines_ = 0;

    std::vector<EpochView> views_;
    // tlsa:allow(D1): viewOf point lookups only, never iterated
    std::unordered_map<const EpochTrace *, std::uint32_t> viewIdx_;
};

} // namespace tlsim

#endif // CORE_TRACEINDEX_H
