/**
 * @file
 * Experiment harness: glues the TPC-C capture driver to the TLS
 * machine and reproduces the paper's evaluation artifacts —
 *
 *  - Figure 5: the five bars (SEQUENTIAL, TLS-SEQ, NO SUB-THREAD,
 *    BASELINE, NO SPECULATION) per benchmark, with normalized cycle
 *    breakdowns;
 *  - Figure 6: the sub-thread count x spacing sweep;
 *  - Table 2: benchmark statistics from the captured traces and the
 *    sequential run.
 */

#ifndef SIM_EXPERIMENT_H
#define SIM_EXPERIMENT_H

#include <memory>
#include <string>
#include <vector>

#include "base/config.h"
#include "core/machine.h"
#include "core/trace.h"
#include "tpcc/tpcc.h"

namespace tlsim {
namespace sim {

class SimExecutor;

/** The Figure 5 configurations. */
enum class Bar {
    Sequential,
    TlsSeq,
    NoSubthread,
    Baseline,
    NoSpeculation,
};

const char *barName(Bar b);
const std::vector<Bar> &allBars();

/** The two captures a benchmark needs. */
struct BenchmarkTraces
{
    WorkloadTrace original; ///< untuned DB, no markers (SEQUENTIAL)
    WorkloadTrace tls;      ///< tuned DB + markers (all other bars)

    /**
     * Trace pre-analyses, shared read-only by every simulation point
     * that replays the corresponding workload (the analysis depends
     * only on the trace and the line size, not on any TLS knob).
     * Null until buildIndexes() — runBar() and the machine tolerate
     * that by building a private index, but then the work repeats per
     * run instead of once per capture.
     */
    std::shared_ptr<const TraceIndex> originalIndex;
    std::shared_ptr<const TraceIndex> tlsIndex;

    /** Analyse both workloads (no-op if already built for this
     *  object; must be re-run if the traces are moved/reassigned). */
    void buildIndexes(unsigned line_bytes);
};

/** Experiment-wide knobs. */
struct ExperimentConfig
{
    tpcc::TpccConfig scale;
    unsigned txns = 12;       ///< captured transactions per benchmark
    unsigned warmupTxns = 2;  ///< excluded from measured statistics
    std::uint64_t inputSeed = 42;
    std::uint64_t loadSeed = 7;
    MachineConfig machine;    ///< baseline machine (Table 1)

    /** A scaled-down preset for tests. */
    static ExperimentConfig testPreset();
};

/**
 * Capture both traces for a benchmark. Both captures open the
 * database image `db_image` if it is valid, else the first one loads
 * afresh and writes it (tpcc::CaptureOptions::dbImage). Empty: both
 * load afresh.
 */
BenchmarkTraces captureTraces(tpcc::TxnType type,
                              const ExperimentConfig &cfg,
                              const std::string &db_image = "");

/** Run one Figure 5 bar over previously captured traces. */
RunResult runBar(Bar bar, const BenchmarkTraces &traces,
                 const ExperimentConfig &cfg);

/** One benchmark's Figure 5 column set. */
struct Figure5Row
{
    tpcc::TxnType type;
    std::vector<std::pair<Bar, RunResult>> bars;

    const RunResult &result(Bar b) const;
    /** makespan(SEQUENTIAL) / makespan(b). */
    double speedup(Bar b) const;
};

Figure5Row runFigure5(tpcc::TxnType type, const ExperimentConfig &cfg);

/**
 * Parallel variant over previously captured traces: the five bars fan
 * out across `ex`. Bit-identical to the serial runFigure5 (each bar is
 * an independent, self-contained machine run).
 */
Figure5Row runFigure5(tpcc::TxnType type, const ExperimentConfig &cfg,
                      const BenchmarkTraces &traces, SimExecutor &ex);

/** Figure 6: one (sub-thread count, spacing) measurement. */
struct SweepPoint
{
    unsigned subthreads;
    std::uint64_t spacing;
    RunResult run;
};

std::vector<SweepPoint>
runFigure6(tpcc::TxnType type, const ExperimentConfig &cfg,
           const std::vector<unsigned> &counts,
           const std::vector<std::uint64_t> &spacings);

/**
 * Parallel variant over previously captured traces: all
 * (count, spacing) points fan out across `ex`. Results are placed by
 * index, so the output vector is bit-identical to the serial sweep no
 * matter how the points are scheduled.
 */
std::vector<SweepPoint>
runFigure6(tpcc::TxnType type, const ExperimentConfig &cfg,
           const std::vector<unsigned> &counts,
           const std::vector<std::uint64_t> &spacings,
           const BenchmarkTraces &traces, SimExecutor &ex);

/** Table 2: per-benchmark workload statistics. */
struct Table2Row
{
    tpcc::TxnType type;
    double execMcycles;      ///< sequential execution time (measured)
    double coverage;         ///< fraction of insts in parallel loops
    double threadSizeInsts;  ///< mean dynamic insts per epoch
    double specInstsPerThread;
    double threadsPerTxn;    ///< mean epochs per parallel loop
    std::uint64_t epochs;
    std::uint64_t recordsReplayed; ///< by the sequential run
};

Table2Row table2Row(tpcc::TxnType type, const ExperimentConfig &cfg);

/** Table 2 over previously captured traces (no re-capture). */
Table2Row table2Row(tpcc::TxnType type, const ExperimentConfig &cfg,
                    const BenchmarkTraces &traces);

} // namespace sim
} // namespace tlsim

#endif // SIM_EXPERIMENT_H
