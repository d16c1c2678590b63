/**
 * @file
 * pbdriver: one measured iteration of a perfbench workload, run in a
 * fresh process by run.py.
 *
 *   pbdriver regen   --seed=N --spans=0|1 --cache=DIR --out=FILE
 *   pbdriver capture --seed=N --spans=0|1 --cache=DIR --out=FILE
 *                    [--benches=A,B,...] [--txns=N]
 *   common options:  [--quick] [--check-captures=0|1]
 *
 * `regen` captures (or loads from DIR) all seven benchmarks and then
 * regenerates Table 2, Figure 5 and the full Figure 6 with one
 * worker, exactly as the bench_* binaries define them. `capture`
 * only captures the listed benchmarks into DIR (default: all seven).
 * The seed is ExperimentConfig::inputSeed; everything else is the
 * bench binaries' full-scale configuration (bench::configFor), or the
 * reduced one with --quick.
 *
 * The measured phase is timed in-process (wall, user+system CPU, peak
 * RSS). After it, with span recording off, the driver digests every
 * operation: a capture by det::hashWorkloadTrace of both builds, a
 * simulation point by det::hashRunResult, plus the artifact text.
 * A capture that missed the cache is read back from DIR and must hash
 * the same as what was captured. --check-captures=0 skips both for
 * the captures that missed (they take seconds at full scale); run.py
 * then compares their cache files byte for byte with those of a
 * checked iteration. The result is one JSON object in FILE; run.py
 * compares digests across processes.
 *
 * Every option must have the same length in runs whose digests are
 * compared (run.py pads them): heap addresses end up in the traces,
 * and the argument strings shift the initial stack and heap.
 */

#include <sys/personality.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/dethash.h"
#include "base/log.h"
#include "base/stats.h"
#include "bench/benchutil.h"
#include "core/resulthash.h"
#include "perfbench/spans.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/tracecache.h"
#include "sim/traceio.h"

using namespace tlsim;
using perfbench::nowNs;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

namespace {

struct Args
{
    std::string mode;
    std::uint64_t seed = 42;
    bool spans = false;
    std::string cache;
    std::string out;
    std::string benches;
    unsigned txns = 0;
    bool quick = false;
    bool checkCaptures = true;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "pbdriver: %s\nusage: pbdriver regen|capture --seed=N "
                 "--spans=0|1 --cache=DIR --out=FILE [--benches=A,B] "
                 "[--txns=N] [--quick] [--check-captures=0|1]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseNumber(const std::string &flag, const std::string &v)
{
    std::size_t pos = 0;
    std::uint64_t n = 0;
    try {
        n = std::stoull(v, &pos);
    } catch (const std::exception &) {
        pos = std::string::npos;
    }
    if (v.empty() || pos != v.size() || v[0] == '-')
        usage(("bad value for " + flag + ": '" + v + "'").c_str());
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Args a;
    a.mode = argv[1];
    if (a.mode != "regen" && a.mode != "capture")
        usage(("unknown mode '" + a.mode + "'").c_str());
    for (int i = 2; i < argc; ++i) {
        std::string s = argv[i];
        std::size_t eq = s.find('=');
        std::string key = s.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : s.substr(eq + 1);
        if (key == "--seed")
            a.seed = parseNumber(key, val);
        else if (key == "--spans")
            a.spans = parseNumber(key, val) != 0;
        else if (key == "--cache")
            a.cache = val;
        else if (key == "--out")
            a.out = val;
        else if (key == "--benches")
            a.benches = val;
        else if (key == "--txns")
            a.txns = static_cast<unsigned>(parseNumber(key, val));
        else if (s == "--quick")
            a.quick = true;
        else if (key == "--check-captures")
            a.checkCaptures = parseNumber(key, val) != 0;
        else
            usage(("unknown argument '" + s + "'").c_str());
    }
    if (a.cache.empty() || a.out.empty())
        usage("--cache and --out are required");
    if (a.mode == "regen" && !a.benches.empty())
        usage("--benches applies to capture only");
    return a;
}

/** "NEW ORDER 150" -> "NEW_ORDER_150" (cache file and op names). */
std::string
slug(tpcc::TxnType t)
{
    std::string s = tpcc::txnTypeName(t);
    for (char &c : s)
        if (c == ' ')
            c = '_';
    return s;
}

std::vector<tpcc::TxnType>
benchList(const std::string &spec)
{
    if (spec.empty())
        return tpcc::allBenchmarks();
    std::vector<tpcc::TxnType> out;
    std::stringstream ss(spec);
    std::string name;
    while (std::getline(ss, name, ',')) {
        bool found = false;
        for (tpcc::TxnType t : tpcc::allBenchmarks()) {
            if (slug(t) == name) {
                out.push_back(t);
                found = true;
            }
        }
        if (!found)
            usage(("unknown benchmark '" + name + "'").c_str());
    }
    return out;
}

sim::ExperimentConfig
configOf(tpcc::TxnType t, const Args &a)
{
    bench::BenchArgs ba;
    ba.quick = a.quick;
    ba.txns = a.txns;
    sim::ExperimentConfig cfg = bench::configFor(t, ba);
    cfg.inputSeed = a.seed;
    return cfg;
}

double
cpuSeconds()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

double
peakRssMb()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
seconds(std::uint64_t from, std::uint64_t to)
{
    return static_cast<double>(to - from) / 1e9;
}

std::uint64_t
traceDigest(const WorkloadTrace &orig, const WorkloadTrace &tls)
{
    det::Hash h;
    h.u64(det::hashWorkloadTrace(orig));
    h.u64(det::hashWorkloadTrace(tls));
    return h.value();
}

std::uint64_t
recordCount(const WorkloadTrace &w)
{
    std::uint64_t n = 0;
    for (const TransactionTrace &txn : w.txns)
        for (const TraceSection &sec : txn.sections)
            for (const EpochTrace &e : sec.epochs)
                n += e.records.size();
    return n;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One checked operation: a capture or a simulation point. */
struct Op
{
    std::string name;
    std::string digest;
    bool ok;
};

/** Simulated counts summed over every simulation point. */
struct SimTotals
{
    double primary = 0, secondary = 0, squashes = 0, rewound = 0;
    double subthreads = 0, insts = 0;
    double l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    double victimHits = 0, branches = 0, mispredicts = 0;
    double cycles = 0;
    Breakdown baseline; ///< summed over the Figure 5 BASELINE bars

    void
    add(const RunResult &r)
    {
        primary += static_cast<double>(r.primaryViolations);
        secondary += static_cast<double>(r.secondaryViolations);
        squashes += static_cast<double>(r.squashes);
        rewound += static_cast<double>(r.rewoundInsts);
        subthreads += static_cast<double>(r.subthreadsStarted);
        insts += static_cast<double>(r.totalInsts);
        l1Hits += static_cast<double>(r.l1Hits);
        l1Misses += static_cast<double>(r.l1Misses);
        l2Hits += static_cast<double>(r.l2Hits);
        l2Misses += static_cast<double>(r.l2Misses);
        victimHits += static_cast<double>(r.victimHits);
        branches += static_cast<double>(r.branches);
        mispredicts += static_cast<double>(r.mispredicts);
        cycles += static_cast<double>(r.makespan);
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

class JsonObject
{
  public:
    void
    num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0);
        field(k, buf);
    }
    void str(const std::string &k, const std::string &v)
    {
        field(k, jsonStr(v));
    }
    void raw(const std::string &k, const std::string &v) { field(k, v); }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    void
    field(const std::string &k, const std::string &v)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += jsonStr(k) + ": " + v;
    }
    std::string body_;
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    setInformEnabled(false);
    const std::vector<tpcc::TxnType> benches = benchList(args.benches);
    const bool regen = args.mode == "regen";
    stats::GlobalCounters &gc = stats::GlobalCounters::instance();
    sim::SimExecutor ex(1);

    std::vector<sim::ExperimentConfig> cfgs;
    for (tpcc::TxnType t : benches)
        cfgs.push_back(configOf(t, args));

    // Figure 6 grid, as bench_figure6_sweep defines it.
    const std::vector<unsigned> counts = {2, 4, 8};
    const std::vector<std::uint64_t> spacings = {1000,  2500,  5000,
                                                 10000, 25000, 50000};
    const std::vector<tpcc::TxnType> sweep = {
        tpcc::TxnType::NewOrder, tpcc::TxnType::NewOrder150,
        tpcc::TxnType::Delivery, tpcc::TxnType::DeliveryOuter,
        tpcc::TxnType::StockLevel,
    };

    std::vector<sim::SharedTraces> traces;
    std::vector<char> hits;
    std::vector<sim::Table2Row> rows2;
    std::vector<sim::Figure5Row> rows5;
    std::vector<RunResult> seq6;
    std::vector<std::vector<sim::SweepPoint>> pts6;
    std::string artifact;
    double stageS[5] = {0, 0, 0, 0, 0};
    const char *stageNames[5] = {"capture", "table2", "figure5",
                                 "figure6", "report"};
    traces.reserve(benches.size());
    hits.reserve(benches.size());

    // ---- measured phase ---------------------------------------------
    const std::uint64_t recs0 = gc.value("replay.records");
    const double cpu0 = cpuSeconds();
    const std::uint64_t t0 = nowNs();
    SpanLog::setEnabled(args.spans);
    {
        ScopedSpan run("perfbench.run");
        std::uint64_t s = nowNs();
        {
            ScopedSpan st("perfbench.capture");
            for (std::size_t i = 0; i < benches.size(); ++i) {
                const std::uint64_t hit0 = gc.value("tracecache.hit");
                ScopedSpan sp("sim.tracecache.captureTracesShared");
                traces.push_back(sim::captureTracesShared(
                    benches[i], cfgs[i], args.cache));
                hits.push_back(gc.value("tracecache.hit") != hit0);
                sp.a = static_cast<std::uint64_t>(hits.back());
            }
        }
        stageS[0] = seconds(s, nowNs());
        if (regen) {
            s = nowNs();
            {
                ScopedSpan st("sim.experiment.table2");
                for (std::size_t i = 0; i < benches.size(); ++i)
                    rows2.push_back(
                        sim::table2Row(benches[i], cfgs[i], *traces[i]));
            }
            stageS[1] = seconds(s, nowNs());
            s = nowNs();
            {
                ScopedSpan st("sim.experiment.figure5");
                for (std::size_t i = 0; i < benches.size(); ++i)
                    rows5.push_back(sim::runFigure5(benches[i], cfgs[i],
                                                    *traces[i], ex));
            }
            stageS[2] = seconds(s, nowNs());
            s = nowNs();
            {
                ScopedSpan st("sim.experiment.figure6");
                for (tpcc::TxnType t : sweep) {
                    std::size_t i = 0;
                    while (benches[i] != t)
                        ++i;
                    seq6.push_back(sim::runBar(sim::Bar::Sequential,
                                               *traces[i], cfgs[i]));
                    pts6.push_back(sim::runFigure6(t, cfgs[i], counts,
                                                   spacings, *traces[i],
                                                   ex));
                }
            }
            stageS[3] = seconds(s, nowNs());
            s = nowNs();
            {
                ScopedSpan st("sim.report.print");
                std::ostringstream os;
                sim::printTable2(os, rows2);
                for (const sim::Figure5Row &row : rows5)
                    sim::printFigure5Row(os, row);
                sim::printSpeedupSummary(os, rows5);
                for (std::size_t j = 0; j < sweep.size(); ++j)
                    sim::printFigure6(os, tpcc::txnTypeName(sweep[j]),
                                      pts6[j], seq6[j].makespan);
                artifact = os.str();
            }
            stageS[4] = seconds(s, nowNs());
        }
    }
    SpanLog::setEnabled(false);
    const std::uint64_t t1 = nowNs();
    const double cpu1 = cpuSeconds();
    const double rss = peakRssMb();
    const std::uint64_t recs = gc.value("replay.records") - recs0;

    // ---- output check (not timed) -----------------------------------
    std::vector<Op> ops;
    std::uint64_t captured = 0; // records of the captures that missed
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const sim::BenchmarkTraces &tr = *traces[i];
        if (!hits[i]) {
            captured += recordCount(tr.original) + recordCount(tr.tls);
            if (!args.checkCaptures)
                continue;
        }
        const std::uint64_t d = traceDigest(tr.original, tr.tls);
        bool ok = true;
        if (!hits[i]) {
            // A fresh capture must read back from the cache unchanged.
            const std::string stem =
                args.cache + "/" + slug(benches[i]) + "-" +
                sim::traceCacheKey(benches[i], cfgs[i]);
            WorkloadTrace o, t;
            ok = sim::loadTraceFile(stem + ".orig.trace", &o) &&
                 sim::loadTraceFile(stem + ".tls.trace", &t) &&
                 traceDigest(o, t) == d;
        }
        ops.push_back({"capture/" + slug(benches[i]), hex(d), ok});
    }
    SimTotals tot;
    for (const sim::Table2Row &r : rows2) {
        det::Hash h;
        h.str(tpcc::txnTypeName(r.type));
        h.f64(r.execMcycles);
        h.f64(r.coverage);
        h.f64(r.threadSizeInsts);
        h.f64(r.specInstsPerThread);
        h.f64(r.threadsPerTxn);
        h.u64(r.epochs);
        ops.push_back({"table2/" + slug(r.type), hex(h.value()), true});
    }
    double geo = 0;
    double delivOuter = 0;
    for (const sim::Figure5Row &row : rows5) {
        for (const auto &[bar, r] : row.bars) {
            ops.push_back({"figure5/" + slug(row.type) + "/" +
                               sim::barName(bar),
                           hex(det::hashRunResult(r)), true});
            tot.add(r);
            if (bar == sim::Bar::Baseline)
                tot.baseline += r.total;
        }
        geo += std::log(row.speedup(sim::Bar::Baseline));
        if (row.type == tpcc::TxnType::DeliveryOuter)
            delivOuter = row.speedup(sim::Bar::Baseline);
    }
    for (std::size_t j = 0; j < pts6.size(); ++j) {
        ops.push_back({"figure6/" + slug(sweep[j]) + "/SEQUENTIAL",
                       hex(det::hashRunResult(seq6[j])), true});
        tot.add(seq6[j]);
        for (const sim::SweepPoint &p : pts6[j]) {
            ops.push_back({strfmt("figure6/%s/k%u/s%llu",
                                  slug(sweep[j]).c_str(), p.subthreads,
                                  static_cast<unsigned long long>(
                                      p.spacing)),
                           hex(det::hashRunResult(p.run)), true});
            tot.add(p.run);
        }
    }

    // ---- result -----------------------------------------------------
    JsonObject o;
    o.str("mode", args.mode);
    o.num("seed", static_cast<double>(args.seed));
    o.num("jobs", ex.jobs());
    o.num("aslr_off",
          (personality(0xffffffff) & ADDR_NO_RANDOMIZE) ? 1 : 0);
    o.num("capture_records", static_cast<double>(captured));
    o.num("wall_s", seconds(t0, t1));
    o.num("cpu_s", cpu1 - cpu0);
    o.num("peak_rss_mb", rss);
    o.num("replay_records", static_cast<double>(recs));
    o.num("replay_s", stageS[1] + stageS[2] + stageS[3]);
    JsonObject stages;
    for (int i = 0; i < 5; ++i)
        stages.num(stageNames[i], stageS[i]);
    o.raw("stages", stages.text());
    JsonObject counters;
    for (const auto &[name, v] : gc.snapshot())
        counters.num(name, static_cast<double>(v));
    o.raw("counters", counters.text());
    if (regen) {
        const double bt = static_cast<double>(tot.baseline.total());
        const double busy = static_cast<double>(tot.baseline[Cat::Busy]);
        JsonObject sim;
        sim.num("core.violations.primary", tot.primary);
        sim.num("core.violations.secondary", tot.secondary);
        sim.num("core.squashes", tot.squashes);
        sim.num("core.rewound_insts", tot.rewound);
        sim.num("core.subthreads_started", tot.subthreads);
        sim.num("core.machine.useful_ratio",
                ratio(tot.insts, tot.insts + tot.rewound));
        sim.num("mem.l1_miss_ratio",
                ratio(tot.l1Misses, tot.l1Hits + tot.l1Misses));
        sim.num("mem.l2_miss_ratio",
                ratio(tot.l2Misses, tot.l2Hits + tot.l2Misses));
        sim.num("mem.victim_hits", tot.victimHits);
        sim.num("cpu.mispredict_ratio",
                ratio(tot.mispredicts, tot.branches));
        sim.num("cpu.share.busy", ratio(busy, bt));
        sim.num("cpu.share.miss",
                ratio(static_cast<double>(tot.baseline[Cat::CacheMiss]),
                      bt));
        sim.num("cpu.share.idle",
                ratio(static_cast<double>(tot.baseline[Cat::Idle]), bt));
        sim.num("cpu.share.failed",
                ratio(static_cast<double>(tot.baseline[Cat::Failed]),
                      bt));
        sim.num("cpu.share.sync",
                ratio(static_cast<double>(tot.baseline[Cat::Sync]), bt));
        sim.num("cpu.share.latch",
                ratio(static_cast<double>(tot.baseline[Cat::LatchStall]),
                      bt));
        sim.num("sim.cycles_total", tot.cycles);
        sim.num("sim.fig5.baseline_speedup_geomean",
                rows5.empty() ? 0
                              : std::exp(geo / static_cast<double>(
                                                   rows5.size())));
        sim.num("sim.fig5.delivery_outer.baseline_speedup", delivOuter);
        o.raw("sim", sim.text());
        det::Hash h;
        h.str(artifact);
        o.str("artifact", h.hex());
    }
    std::string opsJson = "[";
    for (std::size_t i = 0; i < ops.size(); ++i)
        opsJson += (i ? ", [" : "[") + jsonStr(ops[i].name) + ", " +
                   jsonStr(ops[i].digest) + ", " +
                   (ops[i].ok ? "1" : "0") + "]";
    o.raw("ops", opsJson + "]");
    o.num("spans_overflowed", SpanLog::overflowed() ? 1 : 0);
    std::string spans = "[";
    for (std::size_t i = 0; i < SpanLog::count(); ++i) {
        const perfbench::Span &sp = SpanLog::at(i);
        spans += strfmt("%s[%s, %llu, %llu, %d, %llu, %llu]",
                        i ? ", " : "", jsonStr(sp.name).c_str(),
                        static_cast<unsigned long long>(sp.start - t0),
                        static_cast<unsigned long long>(sp.end - t0),
                        sp.parent,
                        static_cast<unsigned long long>(sp.a),
                        static_cast<unsigned long long>(sp.b));
    }
    o.raw("spans", spans + "]");

    std::ofstream os(args.out);
    os << o.text() << "\n";
    if (!os) {
        std::fprintf(stderr, "pbdriver: cannot write %s\n",
                     args.out.c_str());
        return 1;
    }
    if (regen) {
        std::ofstream txt(args.out + ".txt");
        txt << artifact;
    }
    return 0;
}
