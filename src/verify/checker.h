/**
 * @file
 * Offline trace checker (the analysis half of tlscheck).
 *
 * Replays a captured workload trace with a plain happens-before
 * algorithm — no caches, no timing, no oracle, none of the simulator's
 * data structures — and independently computes, per parallel section:
 *
 *  - the per-record conflict / covered-load classification (the
 *    TraceIndex oracle's flag bytes, EpochView::flags);
 *  - the RAW-violation candidate set: lines an earlier epoch stores
 *    and a later epoch reads with an *exposed* load (one not covered
 *    by the reader's own earlier stores);
 *  - the line classification totals (epoch-private / read-shared /
 *    conflict).
 *
 * diffAgainstIndex() then demands bit-exact agreement with a
 * TraceIndex: a conflicting line the index classifies as private or
 * read-shared would make the simulator silently skip its violation
 * scan, so any disagreement is a hard error. diffAgainstRun() checks a
 * simulator RunResult for serializability evidence: the committed
 * epoch order must be strictly increasing, and every violation the
 * machine raised must be on a line the checker proved a RAW candidate
 * (the converse is timing-dependent — a potential dependence the
 * scheduling never exposes is not an error).
 */

#ifndef VERIFY_CHECKER_H
#define VERIFY_CHECKER_H

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/machine.h"
#include "core/trace.h"
#include "core/traceindex.h"

namespace tlsim {
namespace verify {

/** Everything one checkTrace() pass derives from a workload. */
struct CheckResult
{
    /** Per epoch (workload traversal order), one byte per record:
     *  bit 0 = conflict-candidate line, bit 1 = covered load. */
    std::vector<std::vector<std::uint8_t>> epochFlags;

    /** Lines where a later epoch's exposed load reads an earlier
     *  epoch's store (union over all parallel sections). */
    std::unordered_set<Addr> rawLines;

    /** All conflict-candidate lines (superset of rawLines). */
    std::unordered_set<Addr> conflictLines;

    /** Line classification, one count per (section, line) pair —
     *  matches TraceIndex::ClassTotals semantics. */
    std::uint64_t epochPrivate = 0;
    std::uint64_t readShared = 0;
    std::uint64_t conflict = 0;

    std::uint64_t exposedLoads = 0; ///< non-escaped, non-covered loads
    std::uint64_t parallelEpochs = 0;
};

/** Analyse `workload` at `line_bytes` line granularity. */
CheckResult checkTrace(const WorkloadTrace &workload,
                       unsigned line_bytes);

/**
 * Compare the checker's classification against a built (or loaded)
 * TraceIndex for the same workload. Returns human-readable mismatch
 * descriptions; empty means bit-exact agreement.
 */
std::vector<std::string> diffAgainstIndex(const CheckResult &chk,
                                          const TraceIndex &index,
                                          const WorkloadTrace &workload);

/**
 * Validate a simulator run against the checker's ground truth:
 * committed epoch order strictly increasing (serializability of the
 * commit schedule), primary-violation bookkeeping consistent, and
 * every violated line a checker-proven RAW candidate.
 */
std::vector<std::string> diffAgainstRun(const CheckResult &chk,
                                        const RunResult &run);

} // namespace verify
} // namespace tlsim

#endif // VERIFY_CHECKER_H
