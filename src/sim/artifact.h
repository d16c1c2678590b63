/**
 * @file
 * The paper's three evaluation artifacts (Table 2, Figure 5 and
 * Figure 6) through one runner, and the one per-benchmark config
 * source of every driver (the bench binaries, `tlsim capture`,
 * tlscheck and perfbench), so one artifact name always means one set
 * of numbers.
 *
 * runArtifact() runs three stages:
 *
 *  - capture: each benchmark the artifact covers, serially and in
 *    index order (synthetic PCs are interned in first-use order),
 *    through the trace cache, with indexes built;
 *  - simulate: one parallelFor over a flat, benchmark-major list of
 *    simulation points through sim::simulate(), each result in its
 *    index-assigned slot, so the output is bit-identical for any job
 *    count;
 *  - fold: the artifact's rows from those results.
 *
 * An enabled det::Probe gets the "capture" digest after the first
 * stage, the "replay" digest (the simulated RunResults in point order)
 * after the second, and an "aggregate" digest of the folded rows.
 * Table 2's "replay" digest is of its folded rows instead (each one a
 * SEQUENTIAL run plus trace statistics) and it has no "aggregate".
 */

#ifndef SIM_ARTIFACT_H
#define SIM_ARTIFACT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/dethash.h"
#include "sim/experiment.h"

namespace tlsim {
namespace sim {

/**
 * One benchmark's capture config: TPC-C scale (full single-warehouse,
 * or the reduced --quick scale), transactions and warm-up on the
 * default machine (paper Table 1). One transaction of the large-thread
 * benchmarks already holds hundreds of thousands of instructions of
 * parallel work, so NEW ORDER 150 captures 6 with 1 warm-up, DELIVERY
 * and DELIVERY OUTER 8 with 2, the rest 12 with 2. A non-zero `txns`
 * overrides the count, with warm-up `txns > 4 ? 2 : 1`.
 */
ExperimentConfig configFor(tpcc::TxnType type, bool quick,
                           unsigned txns);

/** Figure 6's sub-thread counts, spacings and benchmarks. */
const std::vector<unsigned> &sweepCounts();
const std::vector<std::uint64_t> &sweepSpacings();
const std::vector<tpcc::TxnType> &sweepBenchmarks();

enum class Artifact { Table2, Figure5, Figure6 };

/** What runArtifact() runs. */
struct ArtifactRun
{
    Artifact artifact = Artifact::Figure5;
    /** Each benchmark's config (capture and machine). */
    std::function<ExperimentConfig(tpcc::TxnType)> config;
    std::string traceCache; ///< empty: capture afresh
    /**
     * Figure 6 only: the critical-path analyzer scores every grid
     * point (placing sub-threads as the machine's riskPlacement says),
     * and only the predicted frontier is simulated: the BASELINE
     * (8 x 5000, which also calibrates the analyzer's scale), and per
     * count the predicted-best and the largest spacing. A pruned point
     * has SweepPoint::simulated false and the calibrated prediction as
     * its makespan.
     */
    bool pruneOracle = false;
};

/** One benchmark's Figure 6 sweep, count-major. */
struct Figure6Row
{
    tpcc::TxnType type;
    Cycle seqMakespan; ///< the benchmark's SEQUENTIAL run
    std::vector<SweepPoint> points;
};

/** The oracle's pruning totals (bench JSON "critpath" block). */
struct OracleSummary
{
    double predicted = 0;  ///< calibrated prediction, summed over the grid
    double bandError = 0;  ///< worst relative error off the BASELINE
    std::size_t total = 0; ///< grid points scored
    std::size_t simulated = 0;
};

/** The rows of the artifact that ran; the others stay empty. */
struct ArtifactResult
{
    std::vector<Table2Row> table2;
    std::vector<Figure5Row> figure5;
    std::vector<Figure6Row> figure6;
    /** Trace index builds after capture: the runner dies unless 0,
     *  since every point shares its capture's index. */
    std::uint64_t indexBuilds = 0;
    OracleSummary oracle; ///< Figure 6 with pruneOracle
};

ArtifactResult runArtifact(const ArtifactRun &run, SimExecutor &ex,
                           det::Probe &probe);

} // namespace sim
} // namespace tlsim

#endif // SIM_ARTIFACT_H
