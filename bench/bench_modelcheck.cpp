/**
 * @file
 * Model-checker substrate bench (tlsmc, DESIGN.md Section 4.4):
 *
 *  - exhaustively sweeps the CI bounds (2 epochs x length-2 programs
 *    and 3 epochs x length-1 programs, k=2 sub-thread contexts, 2
 *    cache lines) with DPOR and reports explored states per second;
 *  - measures the DPOR reduction (naive vs reduced schedule count) on
 *    three directed low-conflict 3-epoch instances — the same
 *    instances the modelcheck_explorer unit test bounds;
 *  - replays a sample of model schedules bit-for-bit through the real
 *    TlsMachine (bisimulation).
 *
 * The totals land in the report's "modelcheck" JSON block, which
 * tools/check_bench_json.py validates (violations must be 0 and the
 * DPOR reduction at least 5x). Any violation or bisim divergence
 * fails the run outright.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/benchutil.h"
#include "verify/modelcheck/bisim.h"
#include "verify/modelcheck/explorer.h"
#include "verify/modelcheck/model.h"
#include "verify/modelcheck/programs.h"

using namespace tlsim;
namespace mc = tlsim::verify::mc;

namespace {

mc::ModelConfig
bounds(unsigned epochs)
{
    mc::ModelConfig cfg;
    cfg.epochs = epochs;
    cfg.k = 2;
    cfg.lines = 2;
    cfg.spacing = 1;
    return cfg;
}

double
seconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchSession session("bench_modelcheck", argc, argv);
    bench::BenchReport &report = session.report;

    std::uint64_t states = 0;    // transitions executed, all phases
    std::uint64_t schedules = 0; // maximal schedules completed
    unsigned violations = 0;

    // --- Exhaustive sweeps at the CI bounds. -------------------------
    struct SweepBound
    {
        const char *name;
        unsigned epochs;
        unsigned len;
    };
    const SweepBound sweeps[] = {{"sweep_2ep_len2", 2, 2},
                                 {"sweep_3ep_len1", 3, 1}};
    for (const SweepBound &sw : sweeps) {
        mc::ModelConfig cfg = bounds(sw.epochs);
        auto families = mc::programFamilies(sw.epochs, sw.len, cfg.lines,
                                            /*interacting_only=*/true);
        std::vector<mc::ExploreResult> results(families.size());
        auto t0 = std::chrono::steady_clock::now();
        session.ex.parallelFor(families.size(), [&](std::size_t i) {
            mc::ExploreConfig xcfg;
            xcfg.dpor = true;
            results[i] = mc::explore(cfg, families[i], xcfg);
        });
        double secs = seconds(t0);
        std::uint64_t sw_states = 0, sw_scheds = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            sw_states += results[i].stats.transitions;
            sw_scheds += results[i].stats.schedulesCompleted;
            if (!results[i].ok()) {
                ++violations;
                std::fprintf(
                    stderr, "%s: violation in tuple %zu: %s\n", sw.name,
                    i, results[i].violations.front().toString().c_str());
            }
        }
        states += sw_states;
        schedules += sw_scheds;
        std::printf("%s: %zu tuples, %llu states, %llu schedules, "
                    "%.0f states/s\n",
                    sw.name, families.size(),
                    static_cast<unsigned long long>(sw_states),
                    static_cast<unsigned long long>(sw_scheds),
                    secs > 0 ? sw_states / secs : 0.0);
        report.add(sw.name,
                   {{"tuples", static_cast<double>(families.size())},
                    {"states", static_cast<double>(sw_states)},
                    {"schedules", static_cast<double>(sw_scheds)},
                    {"seconds", secs},
                    {"states_per_second",
                     secs > 0 ? sw_states / secs : 0.0}});
    }

    // --- DPOR reduction on directed 3-epoch instances. ---------------
    // Low-conflict tuples: interleavings of independent steps dominate
    // the naive tree, which is exactly where a partial-order reduction
    // must win. (All-conflict tuples are inherently near-naive.)
    using mc::Op;
    using mc::OpKind;
    const Op T{OpKind::Tick, 0}, L0{OpKind::Load, 0},
        S0{OpKind::Store, 0}, L1{OpKind::Load, 1}, S1{OpKind::Store, 1};
    const std::vector<std::vector<mc::Program>> instances = {
        {{S0, T}, {L0}, {L1}},
        {{S0}, {L0}, {L1, S1}},
        {{S0}, {T, L0}, {L1, T}},
    };
    mc::ModelConfig rcfg = bounds(3);
    std::vector<mc::ExploreResult> naive(instances.size());
    std::vector<mc::ExploreResult> reduced(instances.size());
    session.ex.parallelFor(2 * instances.size(), [&](std::size_t i) {
        mc::ExploreConfig xcfg;
        xcfg.dpor = i % 2 != 0;
        (xcfg.dpor ? reduced : naive)[i / 2] =
            mc::explore(rcfg, instances[i / 2], xcfg);
    });
    std::uint64_t naive_scheds = 0, dpor_scheds = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
        if (!naive[i].ok() || !reduced[i].ok())
            ++violations;
        naive_scheds += naive[i].stats.schedulesCompleted;
        dpor_scheds += reduced[i].stats.schedulesCompleted;
        states += naive[i].stats.transitions +
                  reduced[i].stats.transitions;
        schedules += reduced[i].stats.schedulesCompleted;
        char name[32];
        std::snprintf(name, sizeof name, "reduction_instance_%zu", i);
        report.add(name,
                   {{"naive_schedules",
                     static_cast<double>(
                         naive[i].stats.schedulesCompleted)},
                    {"dpor_schedules",
                     static_cast<double>(
                         reduced[i].stats.schedulesCompleted)},
                    {"ratio",
                     static_cast<double>(
                         naive[i].stats.schedulesCompleted) /
                         reduced[i].stats.schedulesCompleted}});
    }
    double reduction = dpor_scheds
                           ? static_cast<double>(naive_scheds) /
                                 static_cast<double>(dpor_scheds)
                           : 0.0;
    std::printf("reduction: naive %llu vs dpor %llu schedules "
                "(%.1fx)\n",
                static_cast<unsigned long long>(naive_scheds),
                static_cast<unsigned long long>(dpor_scheds), reduction);

    // --- Model/machine bisimulation sample. --------------------------
    unsigned samples = session.args.quick ? 100 : 500;
    mc::BisimSweep bs =
        mc::sampleBisim(bounds(3), samples, 0x5eed, /*program_len=*/3);
    if (!bs.ok()) {
        ++violations;
        std::fprintf(stderr, "bisim: %u divergences, first: %s\n",
                     bs.failures, bs.firstFailure.c_str());
    }
    states += bs.modelSteps;
    std::printf("bisim: %u samples, %llu model steps, %llu machine "
                "audit checks, %u divergences\n",
                bs.samples,
                static_cast<unsigned long long>(bs.modelSteps),
                static_cast<unsigned long long>(bs.auditChecks),
                bs.failures);
    report.add("bisim", {{"samples", static_cast<double>(bs.samples)},
                         {"model_steps",
                          static_cast<double>(bs.modelSteps)},
                         {"audit_checks",
                          static_cast<double>(bs.auditChecks)},
                         {"divergences",
                          static_cast<double>(bs.failures)}});

    report.addBlock("modelcheck",
                    {{"states_explored", static_cast<double>(states)},
                     {"schedules", static_cast<double>(schedules)},
                     {"dpor_reduction", reduction},
                     {"violations", static_cast<double>(violations)}});
    if (report.probe().enabled()) {
        // Timing fields (seconds, states/s) are excluded: the probe
        // digests only the schedule-exploration counts, which must be
        // identical for any --jobs value.
        det::Hash h;
        h.u64(states);
        h.u64(schedules);
        h.f64(reduction);
        h.u64(violations);
        h.u64(naive_scheds);
        h.u64(dpor_scheds);
        h.u64(bs.samples);
        h.u64(bs.modelSteps);
        h.u64(bs.auditChecks);
        h.u64(bs.failures);
        report.probe().stage("aggregate", h.value());
    }
    if (violations) {
        std::fprintf(stderr, "bench_modelcheck: %u violations\n",
                     violations);
        return 1;
    }
    return session.finish();
}
