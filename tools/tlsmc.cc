/**
 * @file
 * tlsmc — bounded exhaustive model checker for the sub-thread TLS
 * protocol (DESIGN.md Section 4.4).
 *
 * Modes:
 *   --sweep   (default) enumerate every canonical interacting program
 *             tuple at the given bounds and explore every interleaving
 *             of each (DPOR unless --no-dpor). Any invariant,
 *             serializability, or liveness violation fails the run and
 *             prints the reproducing schedule.
 *   --bisim   sample random (programs, schedule) pairs and replay each
 *             schedule bit-for-bit through the real TlsMachine via the
 *             ScheduleOracle seam, under the full protocol Auditor.
 *   --mutate=<wrong-start-table|missed-secondary|premature-recycle>
 *             inject the named protocol bug into the model and sweep
 *             until it is caught; exits 0 only if a violation is
 *             found (the regression corpus of the modelcheck tests).
 *   --cross-check  after each DPOR exploration, re-explore naively
 *             and require the same set of terminal outcomes
 *             (empirical soundness check of the reduction).
 *
 * Exit status: 0 success, 1 violation found (or, for --mutate, the
 * seeded bug escaped), 2 usage error (sim/cli.h: an unknown flag, a
 * malformed number or a --shard that is not I/N).
 */

#include <charconv>
#include <cstdio>
#include <string>
#include <system_error>
#include <vector>

#include "sim/cli.h"
#include "verify/modelcheck/bisim.h"
#include "verify/modelcheck/explorer.h"
#include "verify/modelcheck/model.h"
#include "verify/modelcheck/programs.h"

using namespace tlsim;
using namespace tlsim::verify::mc;

namespace {

struct Args
{
    bool bisim = false;
    bool dpor = true;
    bool crossCheck = false;
    bool quiet = false;
    unsigned epochs = 3;
    unsigned k = 2;
    unsigned lines = 2;
    unsigned len = 2;
    std::uint64_t spacing = 1;
    std::uint64_t tick = 100;
    unsigned samples = 200;
    std::uint64_t seed = 0x5eed;
    std::uint64_t maxSteps = 0;
    bool wholeThread = false; ///< Figure 4(a): no start table
    bool progress = false;    ///< periodic progress lines to stderr
    unsigned shardIndex = 0;  ///< --shard=I/N: explore tuples I mod N
    unsigned shardCount = 1;
    Mutation mutation = Mutation::None;
    std::string jsonPath;
};

Args
parse(int argc, char **argv)
{
    using F = cli::Flag;
    const cli::Args c(
        "tlsmc",
        {
            {"sweep", F::Switch, "exhaustive sweep (the default mode)"},
            {"bisim", F::Switch, "replay sampled schedules on the machine"},
            {"epochs", F::Number, "model bound: epochs"},
            {"k", F::Number, "model bound: sub-threads per epoch"},
            {"lines", F::Number, "model bound: cache lines"},
            {"len", F::Number, "model bound: operations per epoch"},
            {"spacing", F::Number, "spawn spacing"},
            {"tick", F::Number, "tick cost"},
            {"whole-thread", F::Switch, "Figure 4(a): no start table"},
            {"no-dpor", F::Switch, "naive full enumeration"},
            {"cross-check", F::Switch, "DPOR vs naive outcome sets"},
            {"mutate", F::Text,
             "seeded bug: wrong-start-table, missed-secondary or "
             "premature-recycle"},
            {"samples", F::Number, "bisim samples"},
            {"seed", F::Number, "bisim seed (default 24301)"},
            {"max-steps", F::Number, "path depth bound"},
            {"shard", F::Text, "I/N: explore tuples I mod N"},
            {"progress", F::Switch, "progress lines to stderr"},
            {"json", F::Text, "write a JSON summary to this path"},
            {"quiet", F::Switch, "no summary on stderr"},
        },
        argc, argv, 1);
    if (c.has("sweep") && c.has("bisim"))
        c.fail("--sweep and --bisim exclude each other");

    Args a;
    a.bisim = c.has("bisim");
    a.dpor = !c.has("no-dpor");
    a.crossCheck = c.has("cross-check");
    a.wholeThread = c.has("whole-thread");
    a.quiet = c.has("quiet");
    a.progress = c.has("progress");
    a.epochs = c.u32("epochs", a.epochs);
    a.k = c.u32("k", a.k);
    a.lines = c.u32("lines", a.lines);
    a.len = c.u32("len", a.len);
    a.spacing = c.num("spacing", a.spacing);
    a.tick = c.num("tick", a.tick);
    a.samples = c.u32("samples", a.samples);
    a.seed = c.num("seed", a.seed);
    a.maxSteps = c.num("max-steps", a.maxSteps);
    a.jsonPath = c.str("json");
    if (c.has("mutate")) {
        for (Mutation m : {Mutation::WrongStartTable,
                           Mutation::MissedSecondary,
                           Mutation::PrematureRecycle})
            if (c.str("mutate") == mutationName(m))
                a.mutation = m;
        if (a.mutation == Mutation::None)
            c.fail("bad value for --mutate=" + c.str("mutate"));
    }
    if (c.has("shard")) {
        const std::string v = c.str("shard");
        const char *end = v.data() + v.size();
        const auto [slash, ec] =
            std::from_chars(v.data(), end, a.shardIndex);
        std::from_chars_result count{};
        if (ec == std::errc() && slash != end && *slash == '/')
            count = std::from_chars(slash + 1, end, a.shardCount);
        if (count.ptr != end || count.ec != std::errc() ||
            a.shardCount == 0 || a.shardIndex >= a.shardCount)
            c.fail("bad value for --shard=" + v + " (want I/N, I < N)");
    }
    return a;
}

ModelConfig
modelConfig(const Args &a)
{
    ModelConfig cfg;
    cfg.epochs = a.epochs;
    cfg.k = a.k;
    cfg.lines = a.lines;
    cfg.spacing = a.spacing;
    cfg.tickInsts = a.tick;
    cfg.useStartTable = !a.wholeThread;
    cfg.mutation = a.mutation;
    return cfg;
}

struct SweepTotals
{
    std::uint64_t tuples = 0;
    std::uint64_t transitions = 0;
    std::uint64_t schedules = 0;
    std::uint64_t sleepBlocked = 0;
    std::uint64_t naiveTransitions = 0; ///< cross-check mode only
    bool caught = false;
    ModelViolation violation;
    std::vector<Program> violationPrograms;
};

int
runSweep(const Args &a, SweepTotals &tot)
{
    ModelConfig cfg = modelConfig(a);
    auto families =
        programFamilies(a.epochs, a.len, a.lines, /*interacting=*/true);

    ExploreConfig xcfg;
    xcfg.dpor = a.dpor;
    xcfg.maxSteps = a.maxSteps;
    xcfg.collectOutcomes = a.crossCheck;

    for (std::size_t fi = 0; fi < families.size(); ++fi) {
        if (fi % a.shardCount != a.shardIndex)
            continue;
        const auto &programs = families[fi];
        ++tot.tuples;
        if (a.progress)
            std::fprintf(stderr,
                         "tlsmc sweep: tuple %zu (%llu done), %llu "
                         "transitions, %llu schedules\n",
                         fi,
                         static_cast<unsigned long long>(tot.tuples),
                         static_cast<unsigned long long>(tot.transitions),
                         static_cast<unsigned long long>(tot.schedules));
        ExploreResult res = explore(cfg, programs, xcfg);
        tot.transitions += res.stats.transitions;
        tot.schedules += res.stats.schedulesCompleted;
        tot.sleepBlocked += res.stats.sleepBlocked;
        if (!res.ok()) {
            tot.caught = true;
            tot.violation = res.violations.front();
            tot.violationPrograms = programs;
            return a.mutation == Mutation::None ? 1 : 0;
        }
        if (a.crossCheck && a.dpor) {
            ExploreConfig ncfg = xcfg;
            ncfg.dpor = false;
            ExploreResult naive = explore(cfg, programs, ncfg);
            tot.naiveTransitions += naive.stats.transitions;
            if (!naive.ok()) {
                tot.caught = true;
                tot.violation = naive.violations.front();
                tot.violationPrograms = programs;
                return a.mutation == Mutation::None ? 1 : 0;
            }
            if (naive.outcomes != res.outcomes) {
                tot.caught = true;
                tot.violation = {"dpor.unsound",
                                 "naive and DPOR explorations reach "
                                 "different terminal outcomes",
                                 {}};
                tot.violationPrograms = programs;
                return 1;
            }
        }
    }
    // A seeded mutation that no sweep caught is itself a failure.
    return a.mutation == Mutation::None ? 0 : 1;
}

const char *
opToString(const Op &op)
{
    static char buf[16];
    switch (op.kind) {
      case OpKind::Tick: return "T";
      case OpKind::Load:
        std::snprintf(buf, sizeof buf, "L%u", op.line);
        return buf;
      case OpKind::Store:
        std::snprintf(buf, sizeof buf, "S%u", op.line);
        return buf;
    }
    return "?";
}

void
printPrograms(const std::vector<Program> &programs)
{
    for (std::size_t e = 0; e < programs.size(); ++e) {
        std::fprintf(stderr, "  epoch %zu:", e);
        for (const Op &op : programs[e])
            std::fprintf(stderr, " %s", opToString(op));
        std::fprintf(stderr, "\n");
    }
}

void
writeJson(const Args &a, const SweepTotals &tot, const BisimSweep &bs,
          int status)
{
    std::FILE *f = std::fopen(a.jsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "tlsmc: cannot write %s\n",
                     a.jsonPath.c_str());
        return;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"tlsmc-v1\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"bounds\": {\"epochs\": %u, \"k\": %u, "
                 "\"lines\": %u, \"len\": %u},\n"
                 "  \"dpor\": %s,\n"
                 "  \"mutation\": \"%s\",\n"
                 "  \"tuples\": %llu,\n"
                 "  \"transitions\": %llu,\n"
                 "  \"schedules\": %llu,\n"
                 "  \"naive_transitions\": %llu,\n"
                 "  \"bisim_samples\": %u,\n"
                 "  \"bisim_failures\": %u,\n"
                 "  \"violations\": %d,\n"
                 "  \"status\": %d\n"
                 "}\n",
                 a.bisim ? "bisim" : "sweep",
                 a.epochs, a.k, a.lines, a.len,
                 a.dpor ? "true" : "false", mutationName(a.mutation),
                 static_cast<unsigned long long>(tot.tuples),
                 static_cast<unsigned long long>(tot.transitions),
                 static_cast<unsigned long long>(tot.schedules),
                 static_cast<unsigned long long>(tot.naiveTransitions),
                 bs.samples, bs.failures, tot.caught ? 1 : 0, status);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parse(argc, argv);
    SweepTotals tot;
    BisimSweep bs;
    int status = 0;

    if (a.bisim) {
        if (a.mutation != Mutation::None) {
            std::fprintf(stderr,
                         "tlsmc: --mutate is a model-only mode\n");
            return 2;
        }
        bs = sampleBisim(modelConfig(a), a.samples, a.seed, a.len);
        status = bs.ok() ? 0 : 1;
        if (!a.quiet) {
            std::fprintf(stderr,
                         "tlsmc bisim: %u samples, %llu model steps, "
                         "%llu machine audit checks, %u divergences\n",
                         bs.samples,
                         static_cast<unsigned long long>(bs.modelSteps),
                         static_cast<unsigned long long>(bs.auditChecks),
                         bs.failures);
            if (!bs.ok())
                std::fprintf(stderr, "tlsmc bisim: first failure: %s\n",
                             bs.firstFailure.c_str());
        }
    } else {
        status = runSweep(a, tot);
        if (!a.quiet) {
            std::fprintf(
                stderr,
                "tlsmc sweep: %llu tuples, %llu transitions, "
                "%llu schedules%s\n",
                static_cast<unsigned long long>(tot.tuples),
                static_cast<unsigned long long>(tot.transitions),
                static_cast<unsigned long long>(tot.schedules),
                a.dpor ? " (dpor)" : " (naive)");
            if (tot.caught) {
                std::fprintf(stderr, "tlsmc sweep: violation: %s\n",
                             tot.violation.toString().c_str());
                printPrograms(tot.violationPrograms);
            } else if (a.mutation != Mutation::None) {
                std::fprintf(stderr,
                             "tlsmc sweep: seeded mutation '%s' was "
                             "NOT caught\n",
                             mutationName(a.mutation));
            }
        }
    }

    if (!a.jsonPath.empty())
        writeJson(a, tot, bs, status);
    return status;
}
