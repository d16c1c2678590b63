/**
 * @file
 * Reproduces Table 2 of the paper: per-benchmark workload statistics
 * (sequential execution time, speculative coverage, thread size,
 * speculative instructions per thread, threads per transaction).
 *
 * Paper reference values (absolute instruction counts depend on the
 * BerkeleyDB cost model; the shape is what must match):
 *   NEW ORDER      62 Mcyc  78%   ~62k insts  ~35k spec   9.7 thr/txn
 *   NEW ORDER 150            ~97%  ~61k        ~35k       99.6
 *   DELIVERY                 63%   ~33k                   ~10
 *   DELIVERY OUTER           99%   ~490k       ~327k      ~10
 *   STOCK LEVEL              ~76%  ~7.5k                  ~20
 *   PAYMENT        26 Mcyc   3%    ~52k        ~32k       2.0
 *   ORDER STATUS             38%   ~8k         ~4k        2.7
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "base/log.h"
#include "bench/benchutil.h"
#include "core/resulthash.h"
#include "sim/report.h"

using namespace tlsim;

int
main(int argc, char **argv)
{
    bench::BenchSession session("bench_table2_stats", argc, argv);
    bench::BenchArgs &args = session.args;
    sim::SimExecutor &ex = session.ex;
    bench::BenchReport &report = session.report;

    const auto &benches = tpcc::allBenchmarks();

    // Capture/decode-ahead pipeline: the produce stage captures (or
    // loads from the trace cache) benchmark i+1 while the consume
    // stage replays benchmark i. Captures stay in index order on one
    // thread — synthetic-PC assignment is interning-order dependent —
    // and replay never interns, so the rows are byte-identical to the
    // serial capture-then-replay loop.
    std::vector<sim::ExperimentConfig> cfgs(benches.size());
    std::vector<sim::SharedTraces> traces(benches.size());
    std::vector<sim::Table2Row> rows(benches.size());
    // Per-index probe digests filled from inside the pipeline stages
    // (index-assigned slots, so the pipelined overlap cannot reorder
    // them) and folded after the barrier below.
    std::vector<std::uint64_t> capDigests(benches.size());
    std::vector<std::uint64_t> rowDigests(benches.size());
    bool probing = report.probe().enabled();
    ex.pipeline(
        benches.size(),
        [&](std::size_t i) {
            std::fprintf(stderr, "capturing %s...\n",
                         tpcc::txnTypeName(benches[i]));
            cfgs[i] = bench::configFor(benches[i], args);
            traces[i] = bench::capture(benches[i], cfgs[i], args);
            if (probing) {
                det::Hash h;
                h.u64(det::hashWorkloadTrace(traces[i]->original));
                h.u64(det::hashWorkloadTrace(traces[i]->tls));
                capDigests[i] = h.value();
            }
        },
        [&](std::size_t i) {
            rows[i] = sim::table2Row(benches[i], cfgs[i], *traces[i]);
            if (probing) {
                const sim::Table2Row &r = rows[i];
                det::Hash h;
                h.str(tpcc::txnTypeName(r.type));
                h.f64(r.execMcycles);
                h.f64(r.coverage);
                h.f64(r.threadSizeInsts);
                h.f64(r.specInstsPerThread);
                h.f64(r.threadsPerTxn);
                h.u64(r.epochs);
                rowDigests[i] = h.value();
            }
            // The shared traces are only needed for this row; free
            // them as the pipeline advances to bound live memory at
            // the prefetch window.
            traces[i] = sim::SharedTraces{};
        });
    if (probing) {
        report.probe().stageItems("capture", capDigests);
        report.probe().stageItems("replay", rowDigests);
    }

    sim::printTable2(std::cout, rows);
    for (const auto &r : rows) {
        report.addSimulatedCycles(r.execMcycles * 1e6);
        report.add(tpcc::txnTypeName(r.type),
                   {{"exec_mcycles", r.execMcycles},
                    {"coverage", r.coverage},
                    {"thread_size_insts", r.threadSizeInsts},
                    {"spec_insts_per_thread", r.specInstsPerThread},
                    {"threads_per_txn", r.threadsPerTxn},
                    {"epochs", static_cast<double>(r.epochs)}});
    }
    return session.finish();
}
