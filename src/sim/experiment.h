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
 * (see simulate()). Thread-safe: executor tasks share it through a
 * const BenchmarkTraces. A copy starts empty, because the entries are
 * keyed by the addresses of the traces they were run on.
 */
class ResultMemo
{
  public:
    /** Everything a run's result depends on. */
    struct Key
    {
        const WorkloadTrace *trace = nullptr;
        /** Identity only. Holding it keeps the index alive, so a
         *  rebuilt index can never reuse this one's address. */
        std::shared_ptr<const TraceIndex> index;
        ExecMode mode = ExecMode::Serial;
        unsigned warmup = 0;
        MachineConfig machine;

        /** Defaulted, so no field can be left out of the match. */
        bool operator==(const Key &) const = default;
    };

    ResultMemo() = default;
    ResultMemo(const ResultMemo &) {}
    ResultMemo &operator=(const ResultMemo &other) TLSIM_EXCLUDES(mtx_);

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

/**
 * Capture both traces for a benchmark. Both captures open the
 * database image `db_image` if it is valid, else the first one loads
 * afresh and writes it (tpcc::CaptureOptions::dbImage). Empty: both
 * load afresh.
 */
BenchmarkTraces captureTraces(tpcc::TxnType type,
                              const ExperimentConfig &cfg,
                              const std::string &db_image = "");

/**
 * Run one simulation point: `which` capture of `traces`, replayed on
 * `machine` in `mode` with `warmup` warm-up transactions. Every
 * experiment below simulates through here, so a point that another
 * artifact (or another bar) already ran over the same traces is
 * served from BenchmarkTraces::results instead of being replayed
 * again; hits and runs count as "sim.memo.hit"/"sim.memo.miss" in
 * stats::GlobalCounters.
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
 * An invalid `machine` dies in TlsMachine::checkConfig before any of
 * this. Without a built index for the trace (buildIndexes()) the
 * point runs directly and is not stored.
 */
RunResult simulate(const BenchmarkTraces &traces, TraceBuild which,
                   const MachineConfig &machine, ExecMode mode,
                   unsigned warmup);

/** One simulation point: what simulate() replays, and how. */
struct SimPoint
{
    TraceBuild build = TraceBuild::Tls;
    MachineConfig machine;
    ExecMode mode = ExecMode::Tls;
    unsigned warmup = 0;
};

/** simulate() of `p`. */
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

/** Capture, index, then the executor variant on one worker. */
Figure5Row runFigure5(tpcc::TxnType type, const ExperimentConfig &cfg);

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

/** Capture, index, then the executor variant on one worker. */
std::vector<SweepPoint>
runFigure6(tpcc::TxnType type, const ExperimentConfig &cfg,
           const std::vector<unsigned> &counts,
           const std::vector<std::uint64_t> &spacings);

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

/** Capture, index, then the variant below. */
Table2Row table2Row(tpcc::TxnType type, const ExperimentConfig &cfg);

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
