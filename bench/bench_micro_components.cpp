/**
 * @file
 * google-benchmark microbenchmarks of the simulator's substrates:
 * simulation-rate engineering numbers rather than paper artifacts.
 * Useful for keeping the trace-replay loop fast enough that the
 * Figure 5/6 sweeps stay interactive.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "bench/benchutil.h"
#include "core/machine.h"
#include "core/site.h"
#include "core/traceindex.h"
#include "core/tracer.h"
#include "cpu/gshare.h"
#include "db/btree.h"
#include "db/page.h"
#include "mem/l1cache.h"
#include "mem/l2cache.h"
#include "sim/traceio.h"
#include "tests/core/goldentrace.h"

using namespace tlsim;

namespace {

void
BM_L1CacheAccess(benchmark::State &state)
{
    L1Cache c(32 * 1024, 4, 32);
    Rng rng(1);
    for (Addr l = 0; l < 1024; ++l)
        c.insert(l);
    for (auto _ : state) {
        Addr l = static_cast<Addr>(rng.uniform(0, 2047));
        benchmark::DoNotOptimize(c.access(l));
        if (!c.present(l))
            c.insert(l);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L1CacheAccess);

void
BM_L2VersionedInsert(benchmark::State &state)
{
    MemConfig m;
    VictimCache victim(64);
    L2Cache l2(m, victim);
    Rng rng(2);
    for (auto _ : state) {
        Addr l = static_cast<Addr>(rng.uniform(0, 1 << 18));
        benchmark::DoNotOptimize(
            l2.insert(l, static_cast<std::uint8_t>(rng.uniform(0, 3))));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2VersionedInsert);

void
BM_GSharePredict(benchmark::State &state)
{
    GShare g(16 * 1024, 8);
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.predictAndUpdate(
            static_cast<Pc>(rng.uniform(0, 255)) * 64,
            rng.chance(0.6)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GSharePredict);

void
BM_SpecStateLoadStore(benchmark::State &state)
{
    SpecState s(32);
    Rng rng(4);
    std::uint64_t mask = 0xFF;
    unsigned i = 0;
    for (auto _ : state) {
        Addr line = static_cast<Addr>(rng.uniform(0, 4095));
        if (i++ & 1)
            // tlsa:allow(A2): standalone SpecState microbenchmark; no protocol state, the machine's audited seam is not involved
            s.recordStore(3, line, 0xF);
        else
            // tlsa:allow(A2): standalone SpecState microbenchmark; no protocol state, the machine's audited seam is not involved
            benchmark::DoNotOptimize(s.recordLoad(2, mask, line, 0x3));
        if ((i & 0xFFF) == 0)
            s.reset();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpecStateLoadStore);

/**
 * The pre-flat-table SpecState (node-based unordered_map), preserved
 * here so `--benchmark_filter=SpecState` reports the open-addressed
 * table's win over the old layout on the identical access pattern.
 */
class BaselineSpecState
{
  public:
    static constexpr unsigned kMaxContexts = 64;

    bool
    recordLoad(ContextId ctx, std::uint64_t thread_mask, Addr line,
               std::uint32_t word_mask)
    {
        auto it = lines_.find(line);
        if (it != lines_.end()) {
            std::uint32_t own = 0;
            std::uint64_t owners = it->second.smOwners & thread_mask;
            while (owners) {
                unsigned c =
                    static_cast<unsigned>(__builtin_ctzll(owners));
                owners &= owners - 1;
                own |= it->second.sm[c];
            }
            if ((word_mask & ~own) == 0)
                return false;
        }
        LineSpec &ls = lines_[line];
        ls.sl |= std::uint64_t{1} << ctx;
        return true;
    }

    void
    recordStore(ContextId ctx, Addr line, std::uint32_t word_mask)
    {
        LineSpec &ls = lines_[line];
        ls.sm[ctx] |= word_mask;
        ls.smOwners |= std::uint64_t{1} << ctx;
    }

    std::uint64_t
    slHolders(Addr line) const
    {
        auto it = lines_.find(line);
        return it == lines_.end() ? 0 : it->second.sl;
    }

    void reset() { lines_.clear(); }

  private:
    struct LineSpec
    {
        std::uint64_t sl = 0;
        std::uint64_t smOwners = 0;
        std::array<std::uint32_t, kMaxContexts> sm{};
    };

    std::unordered_map<Addr, LineSpec> lines_;
};

void
BM_SpecStateBaselineMap(benchmark::State &state)
{
    BaselineSpecState s;
    Rng rng(4); // same stream as BM_SpecStateLoadStore
    std::uint64_t mask = 0xFF;
    unsigned i = 0;
    for (auto _ : state) {
        Addr line = static_cast<Addr>(rng.uniform(0, 4095));
        if (i++ & 1)
            // tlsa:allow(A2): standalone SpecState microbenchmark; no protocol state, the machine's audited seam is not involved
            s.recordStore(3, line, 0xF);
        else
            // tlsa:allow(A2): standalone SpecState microbenchmark; no protocol state, the machine's audited seam is not involved
            benchmark::DoNotOptimize(s.recordLoad(2, mask, line, 0x3));
        if ((i & 0xFFF) == 0)
            s.reset();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpecStateBaselineMap);

/** Store-then-check on one line: the last-line cache's fast path. */
void
BM_SpecStateSameLineProbe(benchmark::State &state)
{
    SpecState s(32);
    Addr line = 1234;
    for (auto _ : state) {
        // tlsa:allow(A2): standalone SpecState microbenchmark; no protocol state, the machine's audited seam is not involved
        s.recordStore(3, line, 0xF);
        benchmark::DoNotOptimize(s.slHolders(line));
        // tlsa:allow(A2): standalone SpecState microbenchmark; no protocol state, the machine's audited seam is not involved
        benchmark::DoNotOptimize(s.recordLoad(2, 0xFF, line, 0x3));
    }
    state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_SpecStateSameLineProbe);

void
BM_PageInsertRemove(benchmark::State &state)
{
    alignas(64) std::uint8_t frame[db::kPageSize];
    db::Page::init(frame, 1, 0);
    db::Page p(frame);
    Rng rng(5);
    for (auto _ : state) {
        std::string key = strfmt("k%05lld", (long long)rng.uniform(0, 99999));
        auto [idx, found] = p.lowerBound(key);
        if (found)
            p.remove(idx);
        else if (p.fits(static_cast<unsigned>(key.size()), 24))
            p.insert(idx, key, "twenty-four-byte-value!!");
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageInsertRemove);

void
BM_BTreeGet(benchmark::State &state)
{
    db::DbConfig cfg;
    Tracer tracer; // not capturing: traces are no-ops
    db::BufferPool pool(cfg, tracer);
    db::BTree tree(pool, tracer, cfg, "bench");
    for (int i = 0; i < 100000; ++i)
        tree.put(strfmt("key%06d", i), "some-value-bytes", false);
    Rng rng(6);
    db::Bytes v;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tree.get(
            strfmt("key%06lld", (long long)rng.uniform(0, 99999)), &v));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeGet);

void
BM_BTreePut(benchmark::State &state)
{
    db::DbConfig cfg;
    Tracer tracer;
    db::BufferPool pool(cfg, tracer);
    db::BTree tree(pool, tracer, cfg, "bench");
    Rng rng(7);
    for (auto _ : state) {
        tree.put(strfmt("key%07lld", (long long)rng.uniform(0, 2000000)),
                 "value-payload-of-some-size", true);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreePut);

/** End-to-end replay rate of the TLS machine (records/second). */
void
BM_MachineReplay(benchmark::State &state)
{
    static Pc pc = SiteRegistry::instance().intern("bench.replay");
    std::vector<std::uint64_t> mem(8192);
    Tracer::Options o;
    o.parallelMode = true;
    Tracer t(o);
    t.txnBegin();
    t.loopBegin();
    for (int e = 0; e < 8; ++e) {
        t.iterBegin();
        for (int i = 0; i < 500; ++i) {
            t.compute(pc, 60);
            t.load(pc, &mem[512 * e + i % 256], 8);
            t.store(pc, &mem[512 * e + 256 + i % 256], 8);
        }
    }
    t.loopEnd();
    t.txnEnd();
    WorkloadTrace w = t.takeWorkload();

    std::uint64_t records = 0;
    for (const auto &txn : w.txns)
        for (const auto &sec : txn.sections)
            for (const auto &e : sec.epochs)
                records += e.records.size();

    MachineConfig cfg;
    TlsMachine m(cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(m.run(w, ExecMode::Tls));
    state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_MachineReplay);

/**
 * Replay throughput on real TPC-C captures, with the conflict-oracle
 * fast path off (arg 0) and on (arg 1). The pre-analysis index is
 * built once per workload and shared, as the sweep harnesses do; the
 * oracle must change only the records/second rate, never the results
 * (tests/sim/goldenequiv_test.cc enforces the latter).
 */
sim::BenchmarkTraces &
quickTraces(tpcc::TxnType type)
{
    static std::unordered_map<unsigned,
                              std::unique_ptr<sim::BenchmarkTraces>>
        cache;
    auto &slot = cache[static_cast<unsigned>(type)];
    if (!slot) {
        sim::ExperimentConfig cfg;
        cfg.scale = tpcc::TpccConfig::tiny();
        cfg.txns = 4;
        cfg.warmupTxns = 1;
        slot = std::make_unique<sim::BenchmarkTraces>(
            sim::captureTraces(type, cfg));
        slot->buildIndexes(cfg.machine.mem.lineBytes);
    }
    return *slot;
}

void
BM_ReplayTpcc(benchmark::State &state, tpcc::TxnType type)
{
    sim::BenchmarkTraces &traces = quickTraces(type);
    MachineConfig cfg;
    cfg.tls.useConflictOracle = state.range(0) != 0;
    TlsMachine m(cfg);
    std::uint64_t records = 0;
    for (auto _ : state) {
        RunResult r = m.run(traces.tls, ExecMode::Tls,
                            /*warmup_txns=*/1, traces.tlsIndex.get());
        records += r.recordsReplayed;
        benchmark::DoNotOptimize(r.makespan);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK_CAPTURE(BM_ReplayTpcc, NEW_ORDER, tpcc::TxnType::NewOrder)
    ->Arg(0)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_ReplayTpcc, STOCK_LEVEL,
                  tpcc::TxnType::StockLevel)
    ->Arg(0)
    ->Arg(1);

/**
 * Replay throughput on the address-free workload of the golden replay
 * pins (tests/core/goldentrace.h): fixed integer addresses, so unlike
 * BM_ReplayTpcc every process replays the same records whatever the
 * ASLR layout or argv length. One index, shared as the sweeps share
 * theirs; the machine is reused across iterations.
 */
void
BM_ReplaySynthetic(benchmark::State &state, ExecMode mode)
{
    static const WorkloadTrace w = golden::replayWorkload();
    MachineConfig cfg;
    static const TraceIndex index(w, cfg.mem.lineBytes);
    TlsMachine m(cfg);
    std::uint64_t records = 0;
    for (auto _ : state) {
        RunResult r = m.run(w, mode, /*warmup_txns=*/1, &index);
        records += r.recordsReplayed;
        benchmark::DoNotOptimize(r.makespan);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK_CAPTURE(BM_ReplaySynthetic, Serial, ExecMode::Serial);
BENCHMARK_CAPTURE(BM_ReplaySynthetic, Tls, ExecMode::Tls);

/** Capture-side throughput: tracer append path (records/second). */
void
BM_TraceCapture(benchmark::State &state)
{
    static Pc pc = SiteRegistry::instance().intern("bench.capture");
    std::vector<std::uint64_t> mem(4096);
    std::uint64_t records = 0;
    for (auto _ : state) {
        Tracer::Options o;
        o.parallelMode = true;
        Tracer t(o);
        t.txnBegin();
        t.loopBegin();
        for (int e = 0; e < 4; ++e) {
            t.iterBegin();
            for (int i = 0; i < 400; ++i) {
                t.compute(pc, 40);
                t.load(pc, &mem[512 * e + i % 256], 8);
                t.store(pc, &mem[512 * e + 256 + i % 256], 8);
            }
        }
        t.loopEnd();
        t.txnEnd();
        WorkloadTrace w = t.takeWorkload();
        records = 0;
        for (const auto &txn : w.txns)
            for (const auto &sec : txn.sections)
                for (const auto &e : sec.epochs)
                    records += e.records.size();
        benchmark::DoNotOptimize(records);
    }
    state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_TraceCapture);

// ----- trace codec: v4 encode, decode and index build ----------------
//
// The workload is generated from fixed integers, not captured from
// host memory, so every process and build times exactly the same
// bytes: TPC-C-like parallel sections of near-sequential accesses with
// occasional far jumps, compute and branch records, and latch-holding
// escapes.

/** 24 epochs x 3000 records of synthetic, address-free trace. */
const WorkloadTrace &
codecTrace()
{
    static const WorkloadTrace w = [] {
        Rng rng(16);
        WorkloadTrace out;
        TransactionTrace txn;
        TraceSection sec;
        sec.parallel = true;
        std::uint64_t heap = 0x7f3a00000000ull;
        for (int e = 0; e < 24; ++e) {
            EpochTrace et;
            std::uint64_t addr = heap + 0x100000 * e;
            while (et.records.size() < 3000) {
                auto pc = static_cast<Pc>(rng.uniform(0, 199));
                TraceRecord r{TraceOp::Compute, 0, 0, pc,
                              static_cast<std::uint64_t>(
                                  rng.uniform(1, 60))};
                std::int64_t kind = rng.uniform(0, 99);
                if (kind < 60) {
                    addr = rng.chance(0.97)
                               ? addr + 8 * rng.uniform(-6, 8)
                               : heap + 8 * rng.uniform(0, 1 << 18);
                    r.op = kind < 40 ? TraceOp::Load : TraceOp::Store;
                    r.size = 8;
                    r.aux = 1 << kAuxInstShift;
                    r.addr = addr;
                } else if (kind < 75) {
                    r.op = TraceOp::Branch;
                    r.aux = rng.chance(0.6) ? kAuxTaken : 0;
                    r.addr = 0;
                } else if (kind == 99) {
                    auto b = static_cast<std::uint32_t>(
                        et.records.size());
                    et.records.push_back(
                        {TraceOp::EscapeBegin, 0, 0, pc, 0});
                    et.records.push_back(
                        {TraceOp::LatchAcquire, 0, 0, pc, 7});
                    et.records.push_back(
                        {TraceOp::LatchRelease, 0, 0, pc, 7});
                    r.op = TraceOp::EscapeEnd;
                    r.addr = 0;
                    et.escapeSpans.emplace_back(b, b + 3);
                }
                et.records.push_back(r);
            }
            for (const TraceRecord &r : et.records)
                et.instCount += recordInsts(r);
            et.specInstCount = et.instCount;
            sec.epochs.push_back(std::move(et));
        }
        txn.sections.push_back(std::move(sec));
        out.txns.push_back(std::move(txn));
        return out;
    }();
    return w;
}

std::int64_t
codecRecords()
{
    std::int64_t n = 0;
    for (const EpochTrace &e : codecTrace().txns[0].sections[0].epochs)
        n += static_cast<std::int64_t>(e.records.size());
    return n;
}

// Both codec benchmarks run against in-memory streams, rewound each
// iteration: the buffers stay allocated, so they time the codec at
// memory speed rather than the file system.

void
BM_TraceSave(benchmark::State &state)
{
    const WorkloadTrace &w = codecTrace();
    std::ostringstream os;
    std::int64_t bytes = 0;
    for (auto _ : state) {
        os.seekp(0);
        sim::saveTrace(os, w);
        bytes += static_cast<std::int64_t>(os.tellp());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * codecRecords());
    state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_TraceSave);

void
BM_TraceLoad(benchmark::State &state)
{
    std::ostringstream os;
    sim::saveTrace(os, codecTrace());
    const auto bytes = static_cast<std::int64_t>(os.tellp());
    std::istringstream is(os.str());
    for (auto _ : state) {
        is.clear();
        is.seekg(0);
        WorkloadTrace w;
        if (!sim::loadTrace(is, &w))
            state.SkipWithError("codec trace rejected");
        benchmark::DoNotOptimize(w.txns.data());
    }
    state.SetItemsProcessed(state.iterations() * codecRecords());
    state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_TraceLoad);

void
BM_TraceIndexBuild(benchmark::State &state)
{
    const WorkloadTrace &w = codecTrace();
    for (auto _ : state) {
        TraceIndex idx(w, 32);
        benchmark::DoNotOptimize(idx.totals().conflict);
    }
    // Bytes: the in-memory records the analysis reads.
    state.SetItemsProcessed(state.iterations() * codecRecords());
    state.SetBytesProcessed(state.iterations() * codecRecords() *
                            std::int64_t{sizeof(TraceRecord)});
}
BENCHMARK(BM_TraceIndexBuild);

/**
 * Reporter that tees per-benchmark results into the tlsim-bench-v1
 * JSON report while still printing the normal console table.
 */
class CollectingReporter : public benchmark::ConsoleReporter
{
  public:
    explicit CollectingReporter(tlsim::bench::BenchReport &report)
        : report_(report)
    {
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            tlsim::bench::BenchReport::Fields fields = {
                {"real_time_ns", run.GetAdjustedRealTime()},
                {"iterations",
                 static_cast<double>(run.iterations)},
            };
            for (const char *rate :
                 {"items_per_second", "bytes_per_second"}) {
                auto it = run.counters.find(rate);
                if (it != run.counters.end())
                    fields.emplace_back(rate, it->second.value);
            }
            report_.add(run.benchmark_name(), std::move(fields));
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    tlsim::bench::BenchReport &report_;
};

} // namespace

int
main(int argc, char **argv)
{
    // Split the command line: --benchmark_* flags go to google
    // benchmark untouched; everything else must be a tlsim bench flag
    // (unknown ones are fatal, as everywhere else).
    std::vector<char *> ours{argv[0]};
    std::vector<char *> gbench_args{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--benchmark_", 0) == 0)
            gbench_args.push_back(argv[i]);
        else
            ours.push_back(argv[i]);
    }
    tlsim::bench::BenchArgs args = tlsim::bench::parseArgs(
        static_cast<int>(ours.size()), ours.data());

    // --quick: cap measurement time so the full suite stays in CI
    // budget. Explicit --benchmark_min_time on the command line comes
    // later in argv and wins.
    static char quick_flag[] = "--benchmark_min_time=0.05";
    if (args.quick)
        gbench_args.insert(gbench_args.begin() + 1, quick_flag);

    int gargc = static_cast<int>(gbench_args.size());
    benchmark::Initialize(&gargc, gbench_args.data());
    if (benchmark::ReportUnrecognizedArguments(gargc,
                                               gbench_args.data()))
        return 2;

    tlsim::bench::BenchSession session("bench_micro_components",
                                       std::move(args));
    CollectingReporter reporter(session.report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return session.finish();
}
