/**
 * @file
 * Quickstart: capture a small TPC-C NEW ORDER workload, run it through
 * the simulated CMP in every Figure-5 configuration, and print the
 * normalized breakdown — the whole public API in ~30 lines.
 */

#include <iostream>

#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/tracecache.h"

using namespace tlsim;

int
main()
{
    // A reduced-scale TPC-C database so the quickstart finishes in
    // seconds; the bench/ binaries use the full single-warehouse scale.
    sim::ExperimentConfig cfg;
    cfg.scale = tpcc::TpccConfig::tiny();
    cfg.scale.items = 2000;
    cfg.scale.customersPerDistrict = 120;
    cfg.scale.ordersPerDistrict = 120;
    cfg.scale.firstNewOrder = 61;
    cfg.txns = 8;
    cfg.warmupTxns = 2;

    std::cout << "Simulated machine (paper Table 1):\n";
    cfg.machine.print(std::cout);
    std::cout << "\n";

    // Capture the workload once, analyse it, then replay all five
    // bars across the host's cores.
    const sim::SharedTraces traces =
        sim::captureTracesShared(tpcc::TxnType::NewOrder, cfg);
    sim::SimExecutor ex;
    sim::Figure5Row row =
        sim::runFigure5(tpcc::TxnType::NewOrder, cfg, *traces, ex);
    sim::printFigure5Row(std::cout, row);

    std::cout << "NEW ORDER speedup with sub-threads: "
              << row.speedup(sim::Bar::Baseline) << "x (vs "
              << row.speedup(sim::Bar::NoSubthread)
              << "x without)\n";
    return 0;
}
