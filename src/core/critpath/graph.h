/**
 * @file
 * Dependence-graph builder for the critical-path prediction oracle.
 *
 * A Figure-6 style sweep replays the same captured workload once per
 * (sub-thread count, spacing) grid point, yet almost everything the
 * timing simulator computes is identical across those points: the
 * per-record base cost of every epoch, the cross-epoch RAW dependences,
 * and the L2/crossbar traffic are properties of the *trace*, not of
 * the sub-thread configuration. DepGraph extracts that invariant part
 * once per workload:
 *
 *  - nodes are trace records. Per epoch, one analytic replay pass over
 *    the epoch's EpochView (the same records and oracle flags the
 *    replay hot loop reads) prices the program-order edges: records run
 *    through a real cpu/Core interval model — dispatch width, ROB and
 *    load-MLP overlap, unpipelined divide/sqrt, GShare-driven branch
 *    penalties — against a one-epoch line-reuse memory model (first
 *    touch of a line pays the L2 path, reuse pays the L1 hit). The
 *    result is a per-record prefix-cycle array, so the cost of any
 *    record span — a whole epoch, or the tail re-executed after a
 *    rewind — is one subtraction;
 *
 *  - cross-epoch RAW edges come from the TraceIndex oracle bits: the
 *    exposed conflict loads of each epoch (potential violation sinks)
 *    and every store to a conflict-candidate line (potential sources),
 *    the latter held in a flat (line, record) table sorted for
 *    equal_range lookup;
 *
 *  - L2/crossbar occupancy edges are summarized as the per-epoch
 *    first-touch line count (each first touch crosses the crossbar and
 *    occupies an L2 bank for one line transfer);
 *
 *  - rewind/restart edges are latent: the analyzer materializes them
 *    per configuration from the RAW events and the sub-thread
 *    checkpoint placement (core/critpath/analyzer.h).
 *
 * The graph depends on the workload, the line size, and the fixed
 * Table-1 machine parameters — NOT on the sub-thread count, spacing,
 * or placement policy. One build serves every point of a sweep.
 */

#ifndef CORE_CRITPATH_GRAPH_H
#define CORE_CRITPATH_GRAPH_H

#include <cstdint>
#include <utility>
#include <vector>

#include "base/config.h"
#include "base/types.h"
#include "core/trace.h"
#include "core/traceindex.h"

namespace tlsim {
namespace critpath {

/** Classes of graph edges a predicted cycle is attributed to. */
enum class EdgeClass : unsigned {
    Program = 0, ///< program-order dispatch/compute/branch edges
    Occupancy,   ///< L1-miss / L2 / crossbar occupancy edges
    Raw,         ///< cross-epoch RAW violation rewind/restart edges
    Commit,      ///< in-order homefree commit serialization edges
};

inline constexpr unsigned kNumEdgeClasses = 4;

const char *edgeClassName(EdgeClass c);

/** One epoch's invariant node/edge data. */
struct EpochNode
{
    const EpochTrace *trace = nullptr;
    const EpochView *view = nullptr;

    /**
     * prefixCycles[i] = analytic cost (cycles from epoch start) of
     * records [0, i); size() + 1 entries. The program-order critical
     * path through the epoch's records, with load overlap resolved.
     */
    std::vector<std::uint32_t> prefixCycles;

    /**
     * prefixSpec[i] = speculative (non-escaped) dynamic instructions
     * dispatched before record i; the coordinate system of sub-thread
     * spawn thresholds. size() + 1 entries.
     */
    std::vector<std::uint32_t> prefixSpec;

    /**
     * prefixReplay[i] = cost of records [0, i) when every escape span
     * (EscapeBegin through EscapeEnd) is free — the machine never
     * re-executes escaped work after a rewind (the escapedDone skip),
     * so a replayed span costs only its speculative records. Used by
     * the analyzer to price rewind segments over already-reached
     * records. size() + 1 entries.
     */
    std::vector<std::uint32_t> prefixReplay;

    Cycle baseCycles = 0; ///< == prefixCycles.back()
    Cycle busyCycles = 0; ///< dispatch/compute share of baseCycles
    std::uint64_t specInstCount = 0;
    std::uint32_t firstTouchLines = 0; ///< distinct lines (L2 traffic)

    /** A RAW endpoint: record index + the cache line it touches. */
    struct MemEvent
    {
        std::uint32_t rec = 0;
        Addr line = 0;
        /** Store inside an escape region. Escaped stores check
         *  violations on their one and only execution — the machine's
         *  escapedDone skip means a rewind never re-executes them — so
         *  the analyzer freezes their firing time at the original
         *  timeline. Always false for loads (exposedLoads excludes
         *  escaped records entirely). */
        bool escaped = false;
    };

    /** Exposed conflict loads (violation sinks), in record order. */
    std::vector<MemEvent> exposedLoads;

    /**
     * Stores to conflict-candidate lines (violation sources, escaped
     * stores included — they check violations too), sorted by
     * (line, rec) for equal_range lookup.
     */
    std::vector<MemEvent> stores;

    /** The sub-span of `stores` hitting `line` (rec ascending). */
    std::pair<const MemEvent *, const MemEvent *>
    storesOnLine(Addr line) const;
};

/** One section of the workload, referencing a run of epoch nodes. */
struct SectionNode
{
    bool parallel = false;
    std::uint32_t txn = 0;        ///< owning transaction index
    std::uint32_t firstEpoch = 0; ///< index into DepGraph::epochs()
    std::uint32_t epochCount = 0;
};

/**
 * The full dependence graph of one captured workload. Immutable after
 * construction; safe to share read-only across analyzer instances.
 */
class DepGraph
{
  public:
    /**
     * Build the graph: one analytic pricing pass per epoch (a single
     * Core instance replays all epochs in global order, so the GShare
     * predictor warms exactly as a serial replay would) plus the RAW
     * event extraction from the TraceIndex oracle bits. `index` must
     * cover `workload` at cfg.mem.lineBytes.
     */
    DepGraph(const WorkloadTrace &workload, const TraceIndex &index,
             const MachineConfig &cfg);

    DepGraph(const DepGraph &) = delete;
    DepGraph &operator=(const DepGraph &) = delete;

    const std::vector<EpochNode> &epochs() const { return epochs_; }
    const std::vector<SectionNode> &sections() const { return sections_; }
    const MachineConfig &config() const { return cfg_; }
    unsigned txnCount() const { return txnCount_; }

    /** Total RAW edges (exposed conflict loads) in the graph. */
    std::uint64_t rawEdges() const { return rawEdges_; }

    /** Cycles one line transfer occupies a crossbar port / L2 bank. */
    unsigned lineTransferCycles() const { return lineTransferCycles_; }

  private:
    void buildEpoch(const EpochTrace &e, EpochNode &node,
                    class BasePricer &pricer);

    MachineConfig cfg_;
    unsigned txnCount_ = 0;
    unsigned lineTransferCycles_ = 0;
    std::vector<EpochNode> epochs_;
    std::vector<SectionNode> sections_;
    std::uint64_t rawEdges_ = 0;
};

} // namespace critpath
} // namespace tlsim

#endif // CORE_CRITPATH_GRAPH_H
