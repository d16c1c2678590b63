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
 *
 * Each benchmark is captured once into a BenchmarkTraces (made by
 * captureTracesShared(), sim/tracecache.h): both workloads, their
 * indexes and a memo of the points already run. Every artifact replays
 * it through the one simulate().
 */

#ifndef SIM_EXPERIMENT_H
#define SIM_EXPERIMENT_H

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/config.h"
#include "base/sync.h"
#include "base/threadannot.h"
#include "core/machine.h"
#include "core/trace.h"
#include "core/traceindex.h"
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

/** Which of a benchmark's two captures a simulation point replays. */
enum class TraceBuild {
    Original, ///< BenchmarkTraces::original
    Tls,      ///< BenchmarkTraces::tls
};

/**
 * The results of the simulation points already run over one capture
 * (see simulate()). It lives inside the BenchmarkTraces it serves, so
 * a key needs no trace identity. Thread-safe: executor tasks share it
 * through a const BenchmarkTraces.
 */
class ResultMemo
{
  public:
    /** Everything a run's result depends on, given the capture. */
    struct Key
    {
        TraceBuild build = TraceBuild::Tls;
        ExecMode mode = ExecMode::Serial;
        unsigned warmup = 0;
        MachineConfig machine;

        /** Defaulted, so no field can be left out of the match. */
        bool operator==(const Key &) const = default;
    };

    /**
     * The result for `key`: `run()` computes it on the first call and
     * later calls return the stored copy. Concurrent calls with one key
     * are single-flight: one caller runs, the others wait for it. An
     * exception from `run` is stored and rethrown to every caller.
     * Counts "sim.memo.hit" or "sim.memo.miss" in
     * stats::GlobalCounters.
     */
    RunResult getOrRun(const Key &key,
                       const std::function<RunResult()> &run)
        TLSIM_EXCLUDES(mtx_);

    /** Number of distinct keys seen so far. */
    std::size_t keyCount() const TLSIM_EXCLUDES(mtx_);

  private:
    struct Entry
    {
        Key key;
        bool done = false;
        RunResult result;
        std::exception_ptr error;
    };

    mutable Mutex mtx_;
    CondVar ready_; ///< some entry became done
    /** Insertion order; searched linearly (a few hundred entries at
     *  most, each lookup far cheaper than the run it saves). */
    std::vector<Entry> entries_ TLSIM_GUARDED_BY(mtx_);
};

/**
 * The two captures a benchmark needs, their pre-analyses and the
 * results already simulated over them: the one object every
 * simulation point of the benchmark replays. It is built once, always
 * indexed, and never changed, copied or moved, so the indexes (which
 * reference their workloads by address) and the result memo stay
 * valid for its whole life. captureTracesShared() makes one.
 */
struct BenchmarkTraces
{
    /**
     * Take both workloads and index them for `line_bytes`-byte lines.
     * With an `idx_stem` (the trace cache's), an index file
     * `<idx_stem>.{orig,tls}.idx` that matches its workload is loaded,
     * and each index built instead is saved there.
     */
    BenchmarkTraces(WorkloadTrace original, WorkloadTrace tls,
                    unsigned line_bytes,
                    const std::string &idx_stem = "");

    BenchmarkTraces(const BenchmarkTraces &) = delete;
    BenchmarkTraces &operator=(const BenchmarkTraces &) = delete;

    const WorkloadTrace original; ///< untuned DB, no markers (SEQUENTIAL)
    const WorkloadTrace tls;      ///< tuned DB + markers (all other bars)

    /**
     * Trace pre-analyses, shared read-only by every simulation point
     * that replays the corresponding workload (the analysis depends
     * only on the trace and the line size, not on any TLS knob).
     */
    const std::unique_ptr<const TraceIndex> originalIndex;
    const std::unique_ptr<const TraceIndex> tlsIndex;

    /** Results of simulate() over these traces, filled on demand. */
    mutable ResultMemo results;
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

/** One simulation point: what simulate() replays, and how. */
struct SimPoint
{
    TraceBuild build = TraceBuild::Tls;
    MachineConfig machine;
    ExecMode mode = ExecMode::Tls;
    unsigned warmup = 0;
};

/**
 * Run one simulation point: the `p.build` capture of `traces`,
 * replayed on `p.machine` in `p.mode` with `p.warmup` warm-up
 * transactions. Every experiment below simulates through here, so a
 * point that another artifact (or another bar) already ran over the
 * same traces is served from BenchmarkTraces::results instead of being
 * replayed again; hits and runs count as "sim.memo.hit"/"sim.memo.miss"
 * in stats::GlobalCounters.
 *
 * Points that cannot differ share one entry: for ExecMode::Tls with
 * fixed spacing (no adaptiveSpacing, no riskPlacement), the key's
 * sub-thread count is
 * min(k, 1 + maxSpec / spacing), where maxSpec is the largest
 * speculative instruction count of any parallel epoch, because
 * sub-thread j only starts once an epoch has run j * spacing
 * speculative instructions (DESIGN.md section 4.1). With one context
 * the spacing is never read and the key uses the default. The
 * reduced configuration is what runs, so the result of a key does not
 * depend on which of its points came first.
 *
 * An invalid `p.machine` dies in TlsMachine::checkConfig before any of
 * this, and one whose line size differs from the indexes' dies in
 * fatal().
 */
RunResult simulate(const BenchmarkTraces &traces, const SimPoint &p);

/** The point behind one Figure 5 bar under `cfg`. */
SimPoint barPoint(Bar bar, const ExperimentConfig &cfg);

/** The Figure 6 point under `cfg`: k sub-threads at spacing s. */
SimPoint sweepPoint(const ExperimentConfig &cfg, unsigned k,
                    std::uint64_t s);

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

/**
 * Figure 5 over previously captured traces: the five bars fan out
 * across `ex`. Bit-identical for any job count (each bar is an
 * independent, self-contained machine run).
 */
Figure5Row runFigure5(tpcc::TxnType type, const ExperimentConfig &cfg,
                      const BenchmarkTraces &traces, SimExecutor &ex);

/** Figure 6: one (sub-thread count, spacing) measurement. */
struct SweepPoint
{
    unsigned subthreads;
    std::uint64_t spacing;
    RunResult run;
    /** False: pruned by the critical-path oracle (ArtifactRun), and
     *  run.makespan is the calibrated prediction. */
    bool simulated = true;
};

/**
 * Figure 6 over previously captured traces: all (count, spacing)
 * points, count-major, fan out across `ex`. Results are placed by
 * index, so the output vector is bit-identical no matter how the
 * points are scheduled.
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
};

/** Table 2 over previously captured traces (no re-capture); the
 *  sequential time is runBar(Bar::Sequential, ...). */
Table2Row table2Row(tpcc::TxnType type, const ExperimentConfig &cfg,
                    const BenchmarkTraces &traces);

/** The same, from the SEQUENTIAL run `seq` of `traces` under `cfg`. */
Table2Row table2Row(tpcc::TxnType type, const ExperimentConfig &cfg,
                    const BenchmarkTraces &traces, const RunResult &seq);

} // namespace sim
} // namespace tlsim

#endif // SIM_EXPERIMENT_H
