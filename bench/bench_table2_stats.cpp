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

#include <iostream>

#include "bench/benchutil.h"
#include "sim/report.h"

using namespace tlsim;

int
main(int argc, char **argv)
{
    bench::BenchSession session("bench_table2_stats", argc, argv);
    const std::vector<sim::Table2Row> rows =
        session.run(sim::Artifact::Table2).table2;

    sim::printTable2(std::cout, rows);
    for (const auto &r : rows) {
        session.report.addSimulatedCycles(r.execMcycles * 1e6);
        session.report.add(
            tpcc::txnTypeName(r.type),
            {{"exec_mcycles", r.execMcycles},
             {"coverage", r.coverage},
             {"thread_size_insts", r.threadSizeInsts},
             {"spec_insts_per_thread", r.specInstsPerThread},
             {"threads_per_txn", r.threadsPerTxn},
             {"epochs", static_cast<double>(r.epochs)}});
    }
    return session.finish();
}
