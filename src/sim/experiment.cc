#include "sim/experiment.h"

#include "base/log.h"
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

void
BenchmarkTraces::buildIndexes(unsigned line_bytes)
{
    if (!originalIndex || !originalIndex->matches(&original, line_bytes))
        originalIndex =
            std::make_shared<const TraceIndex>(original, line_bytes);
    if (!tlsIndex || !tlsIndex->matches(&tls, line_bytes))
        tlsIndex = std::make_shared<const TraceIndex>(tls, line_bytes);
}

BenchmarkTraces
captureTraces(tpcc::TxnType type, const ExperimentConfig &cfg,
              const std::string &db_image)
{
    BenchmarkTraces out;

    tpcc::CaptureOptions orig;
    orig.txns = cfg.txns;
    orig.tlsBuild = false;
    orig.parallelMode = false;
    orig.inputSeed = cfg.inputSeed;
    orig.loadSeed = cfg.loadSeed;
    orig.scale = cfg.scale;
    orig.dbImage = db_image;
    out.original = tpcc::captureBenchmark(type, orig);

    tpcc::CaptureOptions tls = orig;
    tls.tlsBuild = true;
    tls.parallelMode = true;
    tls.spawnOverheadInsts = cfg.machine.tls.spawnOverheadInsts;
    out.tls = tpcc::captureBenchmark(type, tls);

    return out;
}

RunResult
runBar(Bar bar, const BenchmarkTraces &traces,
       const ExperimentConfig &cfg)
{
    MachineConfig mc = cfg.machine;
    const TraceIndex *orig_idx = traces.originalIndex.get();
    const TraceIndex *tls_idx = traces.tlsIndex.get();
    switch (bar) {
      case Bar::Sequential: {
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.original, ExecMode::Serial, cfg.warmupTxns,
                     orig_idx);
      }
      case Bar::TlsSeq: {
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.tls, ExecMode::Serial, cfg.warmupTxns,
                     tls_idx);
      }
      case Bar::NoSubthread: {
        mc.tls.subthreadsPerThread = 1;
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.tls, ExecMode::Tls, cfg.warmupTxns,
                     tls_idx);
      }
      case Bar::Baseline: {
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.tls, ExecMode::Tls, cfg.warmupTxns,
                     tls_idx);
      }
      case Bar::NoSpeculation: {
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.tls, ExecMode::NoSpeculation,
                     cfg.warmupTxns, tls_idx);
      }
    }
    panic("unknown bar");
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
runFigure5(tpcc::TxnType type, const ExperimentConfig &cfg)
{
    BenchmarkTraces traces = captureTraces(type, cfg);
    traces.buildIndexes(cfg.machine.mem.lineBytes);
    Figure5Row row;
    row.type = type;
    for (Bar b : allBars())
        row.bars.emplace_back(b, runBar(b, traces, cfg));
    return row;
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
        MachineConfig mc = cfg.machine;
        mc.tls.subthreadsPerThread = k;
        mc.tls.subthreadSpacing = s;
        TlsMachine m(mc);
        out[i] = {k, s,
                  verify::runWithAudit(m, traces.tls, ExecMode::Tls,
                                       cfg.warmupTxns,
                                       traces.tlsIndex.get())};
    });
    return out;
}

std::vector<SweepPoint>
runFigure6(tpcc::TxnType type, const ExperimentConfig &cfg,
           const std::vector<unsigned> &counts,
           const std::vector<std::uint64_t> &spacings)
{
    BenchmarkTraces traces = captureTraces(type, cfg);
    traces.buildIndexes(cfg.machine.mem.lineBytes);
    std::vector<SweepPoint> out;
    for (unsigned k : counts) {
        for (std::uint64_t s : spacings) {
            MachineConfig mc = cfg.machine;
            mc.tls.subthreadsPerThread = k;
            mc.tls.subthreadSpacing = s;
            TlsMachine m(mc);
            out.push_back(
                {k, s,
                 verify::runWithAudit(m, traces.tls, ExecMode::Tls,
                                      cfg.warmupTxns,
                                      traces.tlsIndex.get())});
        }
    }
    return out;
}

Table2Row
table2Row(tpcc::TxnType type, const ExperimentConfig &cfg)
{
    BenchmarkTraces traces = captureTraces(type, cfg);
    traces.buildIndexes(cfg.machine.mem.lineBytes);
    return table2Row(type, cfg, traces);
}

Table2Row
table2Row(tpcc::TxnType type, const ExperimentConfig &cfg,
          const BenchmarkTraces &traces)
{
    Table2Row row{};
    row.type = type;

    TlsMachine m(cfg.machine);
    RunResult seq =
        verify::runWithAudit(m, traces.original, ExecMode::Serial,
                             cfg.warmupTxns,
                             traces.originalIndex.get());
    row.execMcycles = static_cast<double>(seq.makespan) / 1e6;
    row.recordsReplayed = seq.recordsReplayed;

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
