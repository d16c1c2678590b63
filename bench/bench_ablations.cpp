/**
 * @file
 * Design-choice ablations on the real NEW ORDER workload (DESIGN.md
 * §6), each tied to a claim in the paper:
 *
 *  - aggressive update propagation (write-through L1 + immediate
 *    violation checks) vs lazy commit-time propagation — Section 2.1
 *    motivates the write-through design by reduced violations;
 *  - L1 sub-thread awareness — Section 2.2: "we have found this
 *    support to be not worthwhile" (we model its best case: no L1
 *    flush on a violation at all);
 *  - speculative victim cache sizing — Section 2.1 footnote: 64
 *    entries cover the worst case, "a smaller victim cache would
 *    likely be sufficient for the common case";
 *  - CPU scaling — the paper's CMP is 4-way; the mechanism is not
 *    limited to it;
 *  - violation delivery latency sensitivity.
 *
 * Every machine run is registered as a sim::simulate() point up front
 * and fanned out across --jobs workers; a point that several sections
 * show (the default machine on NEW ORDER appears eight times) runs
 * once. Sections print in order afterwards, so the report is
 * bit-identical for any job count.
 */

#include <cstdio>
#include <vector>

#include "base/log.h"
#include "bench/benchutil.h"
#include "core/resulthash.h"
#include "sim/experiment.h"

using namespace tlsim;

namespace {

bench::BenchReport *g_report = nullptr;

void
line(const std::string &label, const RunResult &r, Cycle seq)
{
    std::printf("  %-38s speedup %5.2f  violations %5llu  failed "
                "%9llu  overflow %llu\n",
                label.c_str(),
                r.makespan ? static_cast<double>(seq) /
                                 static_cast<double>(r.makespan)
                           : 0.0,
                static_cast<unsigned long long>(r.primaryViolations +
                                                r.secondaryViolations),
                static_cast<unsigned long long>(r.total[Cat::Failed]),
                static_cast<unsigned long long>(r.overflowEvents));
    if (g_report) {
        g_report->addSimulatedCycles(static_cast<double>(r.makespan));
        g_report->add(
            label,
            {{"makespan", static_cast<double>(r.makespan)},
             {"speedup", r.makespan
                             ? static_cast<double>(seq) /
                                   static_cast<double>(r.makespan)
                             : 0.0},
             {"violations",
              static_cast<double>(r.primaryViolations +
                                  r.secondaryViolations)},
             {"failed_cycles",
              static_cast<double>(r.total[Cat::Failed])},
             {"overflows", static_cast<double>(r.overflowEvents)}});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchSession session("bench_ablations", argc, argv);
    bench::BenchArgs &args = session.args;
    sim::SimExecutor &ex = session.ex;
    bench::BenchReport &report = session.report;
    g_report = &report;

    sim::ExperimentConfig cfg =
        bench::configFor(tpcc::TxnType::NewOrder, args);
    std::fprintf(stderr, "capturing NEW ORDER...\n");
    sim::SharedTraces traces =
        sim::captureTracesShared(tpcc::TxnType::NewOrder, cfg,
                                 args.traceCache);

    // The Section 1 narrative also needs a naively-parallelized
    // capture of the *untuned* database (never cached: it is specific
    // to this ablation). Captures stay serial and up front.
    tpcc::CaptureOptions uopts;
    uopts.scale = cfg.scale;
    uopts.txns = cfg.txns;
    uopts.tlsBuild = false;
    uopts.parallelMode = true; // naive parallelization attempt
    const sim::BenchmarkTraces untuned(
        WorkloadTrace{},
        tpcc::captureBenchmark(tpcc::TxnType::NewOrder, uopts),
        cfg.machine.mem.lineBytes);

    // ----- job registration (results land by index) -------------------
    struct Job
    {
        const sim::BenchmarkTraces *traces;
        sim::SimPoint point;
    };
    std::vector<Job> jobs;
    auto add = [&](const sim::BenchmarkTraces &t, sim::TraceBuild build,
                   const MachineConfig &mc, ExecMode mode,
                   unsigned warmup) {
        jobs.push_back({&t, {build, mc, mode, warmup}});
        return jobs.size() - 1;
    };
    auto tls = [&](const MachineConfig &mc) {
        return add(*traces, sim::TraceBuild::Tls, mc, ExecMode::Tls,
                   cfg.warmupTxns);
    };
    auto serial = [&](const MachineConfig &mc) {
        return add(*traces, sim::TraceBuild::Original, mc,
                   ExecMode::Serial, cfg.warmupTxns);
    };

    std::size_t j_seq = serial(cfg.machine);

    std::size_t j_aggr = tls(cfg.machine);
    MachineConfig lazy_mc = cfg.machine;
    lazy_mc.tls.aggressiveUpdates = false;
    std::size_t j_lazy = tls(lazy_mc);

    MachineConfig aware_mc = cfg.machine;
    aware_mc.tls.l1SubthreadAware = true;
    std::size_t j_unaware = tls(cfg.machine);
    std::size_t j_aware = tls(aware_mc);

    const unsigned victim_sizes[] = {0, 4, 16, 64, 256};
    std::size_t j_victim[5];
    for (std::size_t i = 0; i < 5; ++i) {
        MachineConfig mc = cfg.machine;
        mc.mem.victimEntries = victim_sizes[i];
        mc.tls.useVictimCache = victim_sizes[i] > 0;
        j_victim[i] = tls(mc);
    }

    const unsigned cpu_counts[] = {2, 4, 8};
    std::size_t j_cpu_seq[3], j_cpu_tls[3];
    for (std::size_t i = 0; i < 3; ++i) {
        MachineConfig mc = cfg.machine;
        mc.tls.numCpus = cpu_counts[i];
        // Sequential reference uses the same idle-CPU accounting.
        j_cpu_seq[i] = serial(mc);
        j_cpu_tls[i] = tls(mc);
    }

    const unsigned latencies[] = {0, 10, 50, 200};
    std::size_t j_lat[4];
    for (std::size_t i = 0; i < 4; ++i) {
        MachineConfig mc = cfg.machine;
        mc.tls.violationDeliveryLatency = latencies[i];
        j_lat[i] = tls(mc);
    }

    MachineConfig pred_mc = cfg.machine;
    pred_mc.tls.useDependencePredictor = true;
    std::size_t j_nopred = tls(cfg.machine);
    std::size_t j_pred = tls(pred_mc);

    // Sub-thread start-point placement: fixed spacing vs predicted
    // exposed-load risk records (core/critpath/placement.h; the same
    // selection the --placement=risk sweeps use). Run per benchmark:
    // whether risk records cluster (DELIVERY's btree walks) or spread
    // evenly (NEW ORDER) decides which policy wins, so a single
    // transaction type would over- or under-sell the mechanism.
    // Each benchmark runs with its own capture config's warm-up.
    const std::vector<tpcc::TxnType> &place_txns = sim::sweepBenchmarks();
    const std::size_t kPlaceBench = place_txns.size();
    std::vector<sim::SharedTraces> place_traces(kPlaceBench);
    std::vector<std::size_t> j_place_fixed(kPlaceBench),
        j_place_risk(kPlaceBench), j_place_seq(kPlaceBench);
    for (std::size_t i = 0; i < kPlaceBench; ++i) {
        sim::ExperimentConfig pcfg = bench::configFor(place_txns[i], args);
        place_traces[i] =
            place_txns[i] == tpcc::TxnType::NewOrder
                ? traces
                : sim::captureTracesShared(place_txns[i], pcfg,
                                           args.traceCache);
        MachineConfig fixed_mc = pcfg.machine;
        fixed_mc.tls.riskPlacement = false;
        MachineConfig risk_mc = pcfg.machine;
        risk_mc.tls.riskPlacement = true;
        const sim::BenchmarkTraces &t = *place_traces[i];
        j_place_fixed[i] = add(t, sim::TraceBuild::Tls, fixed_mc,
                               ExecMode::Tls, pcfg.warmupTxns);
        j_place_risk[i] = add(t, sim::TraceBuild::Tls, risk_mc,
                              ExecMode::Tls, pcfg.warmupTxns);
        j_place_seq[i] = add(t, sim::TraceBuild::Original, pcfg.machine,
                             ExecMode::Serial, pcfg.warmupTxns);
    }

    // Software tuning x sub-thread support (2x2 matrix).
    std::size_t j_matrix[2][2];
    for (int tuned = 0; tuned < 2; ++tuned) {
        for (int sub = 0; sub < 2; ++sub) {
            MachineConfig mc = cfg.machine;
            mc.tls.subthreadsPerThread = sub ? 8 : 1;
            j_matrix[tuned][sub] =
                add(tuned ? *traces : untuned, sim::TraceBuild::Tls, mc,
                    ExecMode::Tls, cfg.warmupTxns);
        }
    }

    if (report.probe().enabled()) {
        std::vector<std::uint64_t> caps;
        {
            det::Hash h;
            h.u64(det::hashWorkloadTrace(traces->original));
            h.u64(det::hashWorkloadTrace(traces->tls));
            caps.push_back(h.value());
        }
        caps.push_back(det::hashWorkloadTrace(untuned.tls));
        for (std::size_t i = 0; i < kPlaceBench; ++i) {
            if (place_traces[i] == traces)
                continue;
            det::Hash h;
            h.u64(det::hashWorkloadTrace(place_traces[i]->original));
            h.u64(det::hashWorkloadTrace(place_traces[i]->tls));
            caps.push_back(h.value());
        }
        report.probe().stageItems("capture", caps);
    }

    // ----- parallel execution ----------------------------------------
    std::vector<RunResult> res(jobs.size());
    ex.parallelFor(jobs.size(), [&](std::size_t i) {
        res[i] = sim::simulate(*jobs[i].traces, jobs[i].point);
    });

    if (report.probe().enabled()) {
        std::vector<std::uint64_t> digests;
        for (const RunResult &r : res)
            digests.push_back(det::hashRunResult(r));
        report.probe().stageItems("replay", digests);
    }

    Cycle seq = res[j_seq].makespan;

    // ----- report (original section order) ---------------------------
    std::printf("=== Ablation: update propagation (Section 2.1) ===\n");
    line("aggressive (write-through, baseline)", res[j_aggr], seq);
    line("lazy (checks deferred to commit)", res[j_lazy], seq);

    std::printf("\n=== Ablation: L1 sub-thread awareness (Section 2.2) "
                "===\n");
    line("L1 unaware (flush on violation)", res[j_unaware], seq);
    line("L1 sub-thread aware (best case)", res[j_aware], seq);

    std::printf("\n=== Ablation: victim cache size ===\n");
    for (std::size_t i = 0; i < 5; ++i)
        line(strfmt("%u entries", victim_sizes[i]), res[j_victim[i]],
             seq);

    std::printf("\n=== Ablation: CPU count ===\n");
    for (std::size_t i = 0; i < 3; ++i)
        line(strfmt("%u CPUs", cpu_counts[i]), res[j_cpu_tls[i]],
             res[j_cpu_seq[i]].makespan);

    std::printf("\n=== Ablation: violation delivery latency ===\n");
    for (std::size_t i = 0; i < 4; ++i)
        line(strfmt("%u cycles", latencies[i]), res[j_lat[i]], seq);

    std::printf("\n=== Ablation: PC-indexed dependence predictor "
                "(Section 1.2) ===\n");
    line("sub-threads (no predictor)", res[j_nopred], seq);
    line("predictor synchronizes hot PCs", res[j_pred], seq);
    std::printf("  (predictor stalled %llu loads: only some "
                "dynamic instances of a load PC are truly "
                "dependent, so it over-synchronizes)\n",
                static_cast<unsigned long long>(
                    res[j_pred].predictorStalls));

    std::printf("\n=== Ablation: sub-thread start-point placement "
                "===\n");
    for (std::size_t i = 0; i < kPlaceBench; ++i) {
        const char *nm = tpcc::txnTypeName(place_txns[i]);
        Cycle bench_seq = res[j_place_seq[i]].makespan;
        line(strfmt("%s, fixed spacing", nm), res[j_place_fixed[i]],
             bench_seq);
        line(strfmt("%s, predicted-risk", nm), res[j_place_risk[i]],
             bench_seq);
    }

    // The paper's Section 1 narrative as a 2x2 matrix: the untuned
    // database sees "no speedup on a conventional all-or-nothing TLS
    // architecture", and sub-threads + tuning together unlock the
    // full gain.
    std::printf("\n=== Software tuning x sub-thread support "
                "(Section 1) ===\n");
    for (int tuned = 0; tuned < 2; ++tuned)
        for (int sub = 0; sub < 2; ++sub)
            line(strfmt("%s DB, %s", tuned ? "tuned" : "untuned",
                        sub ? "8 sub-threads" : "all-or-nothing"),
                 res[j_matrix[tuned][sub]], seq);

    return session.finish();
}
