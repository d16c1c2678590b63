/**
 * @file
 * Explores the Section 5.1 question — how many sub-threads, how far
 * apart? — on DELIVERY OUTER, the benchmark with the largest threads
 * (hundreds of thousands of instructions), where the answer matters
 * most. Also demonstrates the adaptive spacing policy the paper
 * suggests ("customize the sub-thread size such that the average
 * thread size is divided evenly into sub-threads").
 */

#include <cstdio>
#include <iostream>

#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/tracecache.h"

using namespace tlsim;

int
main()
{
    sim::ExperimentConfig cfg;
    cfg.scale = tpcc::TpccConfig::tiny();
    cfg.scale.items = 4000;
    cfg.scale.customersPerDistrict = 300;
    cfg.scale.ordersPerDistrict = 300;
    cfg.scale.firstNewOrder = 151;
    cfg.txns = 6;
    cfg.warmupTxns = 1;

    std::cout << "Sub-thread count/spacing sweep on DELIVERY OUTER\n\n";

    // One capture and one analysis, shared by every machine below.
    const sim::SharedTraces traces =
        sim::captureTracesShared(tpcc::TxnType::DeliveryOuter, cfg);
    RunResult seq = sim::runBar(sim::Bar::Sequential, *traces, cfg);

    std::vector<sim::SweepPoint> points;
    for (unsigned k : {2u, 4u, 8u}) {
        for (std::uint64_t s :
             {1000ull, 5000ull, 25000ull, 100000ull}) {
            MachineConfig mc = cfg.machine;
            mc.tls.subthreadsPerThread = k;
            mc.tls.subthreadSpacing = s;
            TlsMachine m(mc);
            points.push_back(
                {k, s, m.run(traces->tls, ExecMode::Tls, cfg.warmupTxns,
                             traces->tlsIndex.get())});
        }
    }
    sim::printFigure6(std::cout, "DELIVERY OUTER", points,
                      seq.makespan);

    // The Section 5.1 suggestion: adapt spacing to the thread size.
    MachineConfig adaptive = cfg.machine;
    adaptive.tls.adaptiveSpacing = true;
    TlsMachine m(adaptive);
    RunResult r = m.run(traces->tls, ExecMode::Tls, cfg.warmupTxns,
                        traces->tlsIndex.get());
    std::printf("adaptive spacing (size/k): normalized time %.3f "
                "(%llu sub-threads started)\n",
                static_cast<double>(r.makespan) /
                    static_cast<double>(seq.makespan),
                static_cast<unsigned long long>(r.subthreadsStarted));
    return 0;
}
