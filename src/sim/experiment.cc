#include "sim/experiment.h"

#include <algorithm>
#include <filesystem>

#include "base/log.h"
#include "base/stats.h"
#include "sim/executor.h"
#include "verify/auditor.h"

namespace tlsim {
namespace sim {

const char *
barName(Bar b)
{
    switch (b) {
      case Bar::Sequential: return "SEQUENTIAL";
      case Bar::TlsSeq: return "TLS-SEQ";
      case Bar::NoSubthread: return "NO SUB-THREAD";
      case Bar::Baseline: return "BASELINE";
      case Bar::NoSpeculation: return "NO SPECULATION";
    }
    return "?";
}

const std::vector<Bar> &
allBars()
{
    static const std::vector<Bar> v = {
        Bar::Sequential, Bar::TlsSeq, Bar::NoSubthread, Bar::Baseline,
        Bar::NoSpeculation,
    };
    return v;
}

ExperimentConfig
ExperimentConfig::testPreset()
{
    ExperimentConfig cfg;
    cfg.scale = tpcc::TpccConfig::tiny();
    cfg.txns = 6;
    cfg.warmupTxns = 1;
    return cfg;
}

namespace {

/**
 * The index of `w` for `line_bytes`-byte lines. With a `stem`, it is
 * loaded from `<stem><suffix>` if that file matches `w`, else built and
 * saved there.
 */
std::unique_ptr<const TraceIndex>
indexFor(const WorkloadTrace &w, unsigned line_bytes,
         const std::string &stem, const char *suffix)
{
    const std::string path = stem.empty() ? "" : stem + suffix;
    if (!path.empty() && std::filesystem::exists(path))
        if (std::unique_ptr<const TraceIndex> idx =
                TraceIndex::loadFile(path, w, line_bytes))
            return idx;
    auto idx = std::make_unique<const TraceIndex>(w, line_bytes);
    if (!path.empty())
        idx->saveFile(path);
    return idx;
}

} // namespace

BenchmarkTraces::BenchmarkTraces(WorkloadTrace orig_trace,
                                 WorkloadTrace tls_trace,
                                 unsigned line_bytes,
                                 const std::string &idx_stem)
    : original(std::move(orig_trace)), tls(std::move(tls_trace)),
      originalIndex(indexFor(original, line_bytes, idx_stem, ".orig.idx")),
      tlsIndex(indexFor(tls, line_bytes, idx_stem, ".tls.idx"))
{
}

RunResult
ResultMemo::getOrRun(const Key &key,
                     const std::function<RunResult()> &run)
{
    stats::GlobalCounters &gc = stats::GlobalCounters::instance();
    std::size_t slot = 0;
    bool found = false;
    RunResult result;
    std::exception_ptr error;
    {
        UniqueLock lk(mtx_);
        while (slot < entries_.size() && !(entries_[slot].key == key))
            ++slot;
        found = slot < entries_.size();
        if (found) {
            while (!entries_[slot].done)
                ready_.wait(lk);
            result = entries_[slot].result;
            error = entries_[slot].error;
        } else {
            entries_.emplace_back();
            entries_.back().key = key;
        }
    }
    // Counted and run outside the lock: the memo lock nests with
    // nothing (tools/lockorder.txt).
    gc.add(found ? "sim.memo.hit" : "sim.memo.miss");
    if (!found) {
        try {
            result = run();
        } catch (...) {
            error = std::current_exception();
        }
        {
            MutexLock lk(mtx_);
            Entry &e = entries_[slot];
            e.done = true;
            e.result = result;
            e.error = error;
        }
        ready_.notify_all();
    }
    if (error)
        std::rethrow_exception(error);
    return result;
}

std::size_t
ResultMemo::keyCount() const
{
    MutexLock lk(mtx_);
    return entries_.size();
}

namespace {

/** Largest speculative instruction count of any parallel epoch. */
std::uint64_t
maxSpecInsts(const WorkloadTrace &w)
{
    std::uint64_t most = 0;
    for (const TransactionTrace &txn : w.txns)
        for (const TraceSection &sec : txn.sections)
            if (sec.parallel)
                for (const EpochTrace &e : sec.epochs)
                    most = std::max<std::uint64_t>(most,
                                                   e.specInstCount);
    return most;
}

/**
 * The configuration that stands for `mc` on `w`: the sub-thread count
 * reduced to the contexts a fixed-spacing epoch of `w` can reach
 * (simulate()'s comment; DESIGN.md section 4.1).
 */
MachineConfig
effectiveConfig(const MachineConfig &mc, ExecMode mode,
                const WorkloadTrace &w)
{
    MachineConfig eff = mc;
    TlsConfig &t = eff.tls;
    if (mode != ExecMode::Tls || t.adaptiveSpacing || t.riskPlacement)
        return eff;
    const std::uint64_t reach = 1 + maxSpecInsts(w) / t.subthreadSpacing;
    if (reach < t.subthreadsPerThread)
        t.subthreadsPerThread = static_cast<unsigned>(reach);
    if (t.subthreadsPerThread == 1)
        t.subthreadSpacing = TlsConfig{}.subthreadSpacing;
    return eff;
}

} // namespace

RunResult
simulate(const BenchmarkTraces &traces, const SimPoint &p)
{
    TlsMachine::checkConfig(p.machine);
    const bool orig = p.build == TraceBuild::Original;
    const WorkloadTrace &trace = orig ? traces.original : traces.tls;
    const TraceIndex &index =
        orig ? *traces.originalIndex : *traces.tlsIndex;
    if (p.machine.mem.lineBytes != index.lineBytes())
        fatal("simulate: a machine with %u-byte lines over traces "
              "indexed for %u-byte lines",
              p.machine.mem.lineBytes, index.lineBytes());

    const ResultMemo::Key key{p.build, p.mode, p.warmup,
                              effectiveConfig(p.machine, p.mode, trace)};
    return traces.results.getOrRun(key, [&] {
        TlsMachine m(key.machine);
        return verify::runWithAudit(m, trace, p.mode, p.warmup, &index);
    });
}

SimPoint
barPoint(Bar bar, const ExperimentConfig &cfg)
{
    SimPoint p{TraceBuild::Tls, cfg.machine, ExecMode::Tls,
               cfg.warmupTxns};
    switch (bar) {
      case Bar::Sequential:
        p.build = TraceBuild::Original;
        p.mode = ExecMode::Serial;
        break;
      case Bar::TlsSeq:
        p.mode = ExecMode::Serial;
        break;
      case Bar::NoSubthread:
        p.machine.tls.subthreadsPerThread = 1;
        break;
      case Bar::Baseline:
        break;
      case Bar::NoSpeculation:
        p.mode = ExecMode::NoSpeculation;
        break;
    }
    return p;
}

SimPoint
sweepPoint(const ExperimentConfig &cfg, unsigned k, std::uint64_t s)
{
    SimPoint p{TraceBuild::Tls, cfg.machine, ExecMode::Tls,
               cfg.warmupTxns};
    p.machine.tls.subthreadsPerThread = k;
    p.machine.tls.subthreadSpacing = s;
    return p;
}

RunResult
runBar(Bar bar, const BenchmarkTraces &traces,
       const ExperimentConfig &cfg)
{
    return simulate(traces, barPoint(bar, cfg));
}

const RunResult &
Figure5Row::result(Bar b) const
{
    for (const auto &[bar, run] : bars)
        if (bar == b)
            return run;
    panic("Figure5Row: bar %s missing", barName(b));
}

double
Figure5Row::speedup(Bar b) const
{
    return result(b).speedupVs(result(Bar::Sequential));
}

Figure5Row
runFigure5(tpcc::TxnType type, const ExperimentConfig &cfg,
           const BenchmarkTraces &traces, SimExecutor &ex)
{
    const std::vector<Bar> &bars = allBars();
    std::vector<RunResult> results(bars.size());
    ex.parallelFor(bars.size(), [&](std::size_t i) {
        results[i] = runBar(bars[i], traces, cfg);
    });
    Figure5Row row;
    row.type = type;
    for (std::size_t i = 0; i < bars.size(); ++i)
        row.bars.emplace_back(bars[i], std::move(results[i]));
    return row;
}

std::vector<SweepPoint>
runFigure6(tpcc::TxnType type, const ExperimentConfig &cfg,
           const std::vector<unsigned> &counts,
           const std::vector<std::uint64_t> &spacings,
           const BenchmarkTraces &traces, SimExecutor &ex)
{
    (void)type;
    std::vector<SweepPoint> out(counts.size() * spacings.size());
    ex.parallelFor(out.size(), [&](std::size_t i) {
        unsigned k = counts[i / spacings.size()];
        std::uint64_t s = spacings[i % spacings.size()];
        out[i] = {k, s, simulate(traces, sweepPoint(cfg, k, s))};
    });
    return out;
}

Table2Row
table2Row(tpcc::TxnType type, const ExperimentConfig &cfg,
          const BenchmarkTraces &traces)
{
    return table2Row(type, cfg, traces,
                     runBar(Bar::Sequential, traces, cfg));
}

Table2Row
table2Row(tpcc::TxnType type, const ExperimentConfig &cfg,
          const BenchmarkTraces &traces, const RunResult &seq)
{
    Table2Row row{};
    row.type = type;
    row.execMcycles = static_cast<double>(seq.makespan) / 1e6;

    // Workload statistics over the measured transactions of the TLS
    // trace (the decomposition the parallel bars execute).
    double cov_num = 0, cov_den = 0;
    std::uint64_t epochs = 0, loops = 0;
    double insts = 0, spec_insts = 0;
    for (std::size_t i = cfg.warmupTxns; i < traces.tls.txns.size();
         ++i) {
        const TransactionTrace &t = traces.tls.txns[i];
        cov_num += static_cast<double>(t.parallelInsts());
        cov_den += static_cast<double>(t.totalInsts());
        epochs += t.epochCount();
        for (const auto &sec : t.sections) {
            if (!sec.parallel)
                continue;
            ++loops;
            for (const auto &e : sec.epochs) {
                insts += static_cast<double>(e.instCount);
                spec_insts += static_cast<double>(e.specInstCount);
            }
        }
    }
    row.coverage = cov_den > 0 ? cov_num / cov_den : 0;
    row.threadSizeInsts = epochs ? insts / epochs : 0;
    row.specInstsPerThread = epochs ? spec_insts / epochs : 0;
    // threads per transaction = epochs per parallel-loop instance
    row.threadsPerTxn =
        loops ? static_cast<double>(epochs) / static_cast<double>(loops)
              : 0;
    row.epochs = epochs;
    return row;
}

} // namespace sim
} // namespace tlsim
