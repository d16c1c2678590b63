/**
 * @file
 * Trace-cache tests: key stability/distinctness and the on-disk
 * roundtrip (the second captureTracesShared() loads from disk and must
 * replay identically to the first).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include "base/stats.h"
#include "sim/executor.h"
#include "sim/tracecache.h"
#include "sim/traceio.h"

namespace tlsim {
namespace sim {
namespace {

ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    cfg.txns = 4;
    cfg.warmupTxns = 1;
    return cfg;
}

std::string
freshCacheDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "/tlsim_tc_" + tag + "_" +
                      std::to_string(::getpid());
    return dir;
}

TEST(TraceCacheKey, StableForIdenticalConfigs)
{
    ExperimentConfig a = tinyConfig();
    ExperimentConfig b = tinyConfig();
    EXPECT_EQ(traceCacheKey(tpcc::TxnType::NewOrder, a),
              traceCacheKey(tpcc::TxnType::NewOrder, b));
}

TEST(TraceCacheKey, DistinguishesCaptureParameters)
{
    ExperimentConfig base = tinyConfig();
    std::string k0 = traceCacheKey(tpcc::TxnType::NewOrder, base);

    EXPECT_NE(k0, traceCacheKey(tpcc::TxnType::Payment, base));

    ExperimentConfig more_txns = base;
    more_txns.txns += 1;
    EXPECT_NE(k0, traceCacheKey(tpcc::TxnType::NewOrder, more_txns));

    ExperimentConfig other_seed = base;
    other_seed.inputSeed += 1;
    EXPECT_NE(k0, traceCacheKey(tpcc::TxnType::NewOrder, other_seed));

    ExperimentConfig other_load = base;
    other_load.loadSeed += 1;
    EXPECT_NE(k0, traceCacheKey(tpcc::TxnType::NewOrder, other_load));
}

TEST(TraceCacheKey, IgnoresReplayOnlyKnobs)
{
    ExperimentConfig base = tinyConfig();
    ExperimentConfig replay = base;
    replay.warmupTxns += 1;
    replay.machine.tls.subthreadsPerThread += 2;
    EXPECT_EQ(traceCacheKey(tpcc::TxnType::NewOrder, base),
              traceCacheKey(tpcc::TxnType::NewOrder, replay));
}

TEST(TraceCache, EmptyDirBypassesDisk)
{
    ExperimentConfig cfg = tinyConfig();
    SharedTraces t =
        captureTracesShared(tpcc::TxnType::StockLevel, cfg, "");
    ASSERT_NE(t, nullptr);
    EXPECT_FALSE(t->tls.txns.empty());
}

TEST(TraceCache, SecondLoadReplaysIdentically)
{
    ExperimentConfig cfg = tinyConfig();
    std::string dir = freshCacheDir("roundtrip");

    // First call captures and writes the cache files.
    SharedTraces first =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg, dir);
    ASSERT_NE(first, nullptr);

    std::string key = traceCacheKey(tpcc::TxnType::NewOrder, cfg);
    std::string base = dir + "/NEW_ORDER-" + key;
    EXPECT_TRUE(std::ifstream(base + ".orig.trace").good());
    EXPECT_TRUE(std::ifstream(base + ".tls.trace").good());

    // Second call must come from disk and replay identically.
    SharedTraces second =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg, dir);
    ASSERT_NE(second, nullptr);

    for (Bar bar : allBars()) {
        RunResult a = runBar(bar, *first, cfg);
        RunResult b = runBar(bar, *second, cfg);
        EXPECT_EQ(a.makespan, b.makespan) << barName(bar);
        EXPECT_EQ(a.totalInsts, b.totalInsts) << barName(bar);
        EXPECT_EQ(a.primaryViolations, b.primaryViolations)
            << barName(bar);
        EXPECT_EQ(a.epochs, b.epochs) << barName(bar);
    }
}

TEST(TraceCache, ParallelSameKeySingleCapture)
{
    // Concurrent executor tasks asking for the same (benchmark,
    // config) must be serialized single-flight: exactly one capture
    // writes the cache files, everyone else loads them. Before the
    // per-stem lock, two concurrent captures could interleave their
    // writes to the same paths and leave a torn trace on disk.
    ExperimentConfig cfg = tinyConfig();
    std::string dir = freshCacheDir("parallel");
    auto &gc = stats::GlobalCounters::instance();
    gc.reset();

    constexpr std::size_t kCallers = 8;
    std::vector<SharedTraces> got(kCallers);
    SimExecutor ex(kCallers);
    ex.parallelFor(kCallers, [&](std::size_t i) {
        got[i] = captureTracesShared(tpcc::TxnType::Delivery, cfg, dir);
    });

    for (std::size_t i = 0; i < kCallers; ++i)
        ASSERT_NE(got[i], nullptr) << "caller " << i;
    EXPECT_EQ(gc.value("tracecache.capture"), 1u);
    EXPECT_EQ(gc.value("tracecache.hit"), kCallers - 1);

    // The files the racers left behind are complete and loadable.
    std::string key = traceCacheKey(tpcc::TxnType::Delivery, cfg);
    std::string base = dir + "/DELIVERY-" + key;
    WorkloadTrace orig, tls;
    EXPECT_TRUE(loadTraceFile(base + ".orig.trace", &orig));
    EXPECT_TRUE(loadTraceFile(base + ".tls.trace", &tls));

    // Every caller sees the same shape (they share one capture).
    for (std::size_t i = 1; i < kCallers; ++i)
        EXPECT_EQ(got[i]->tls.txns.size(), got[0]->tls.txns.size());
    gc.reset();
}

TEST(TraceCache, ParallelDistinctBenchmarksLoadTheDatabaseOnce)
{
    // Every benchmark captures into one empty cache at once. The first
    // capture to reach the database image loads the database and
    // writes the image; the other 13 captures (7 benchmarks, 2 builds)
    // wait for it and open the image instead of loading.
    ExperimentConfig cfg = tinyConfig();
    std::string dir = freshCacheDir("image");
    auto &gc = stats::GlobalCounters::instance();
    gc.reset();

    const auto &benches = tpcc::allBenchmarks();
    std::vector<SharedTraces> got(benches.size());
    SimExecutor ex(4);
    ex.parallelFor(benches.size(), [&](std::size_t i) {
        got[i] = captureTracesShared(benches[i], cfg, dir);
    });

    for (std::size_t i = 0; i < benches.size(); ++i)
        ASSERT_NE(got[i], nullptr) << tpcc::txnTypeName(benches[i]);
    EXPECT_EQ(gc.value("tracecache.capture"), benches.size());
    EXPECT_EQ(gc.value("dbimage.create"), 1u);
    EXPECT_EQ(gc.value("dbimage.open"), 2 * benches.size() - 1);
    EXPECT_TRUE(std::ifstream(dbImagePath(dir, cfg)).good());

    // The image is the loaded database whatever the build, so the
    // TLS-build transactions match a capture that loaded afresh.
    SharedTraces fresh =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg, "");
    std::size_t no = 0;
    while (benches[no] != tpcc::TxnType::NewOrder)
        ++no;
    ASSERT_EQ(got[no]->tls.txns.size(), fresh->tls.txns.size());
    for (std::size_t t = 0; t < fresh->tls.txns.size(); ++t) {
        EXPECT_EQ(got[no]->tls.txns[t].totalInsts(),
                  fresh->tls.txns[t].totalInsts());
        EXPECT_EQ(got[no]->original.txns[t].totalInsts(),
                  fresh->original.txns[t].totalInsts());
    }
    gc.reset();
}

TEST(TraceCache, DbImageKeyIgnoresCaptureOnlyParameters)
{
    ExperimentConfig base = tinyConfig();
    std::string p0 = dbImagePath("d", base);

    ExperimentConfig capture_only = base;
    capture_only.txns += 1;
    capture_only.inputSeed += 1;
    capture_only.machine.tls.spawnOverheadInsts += 1;
    EXPECT_EQ(p0, dbImagePath("d", capture_only));

    ExperimentConfig other_load = base;
    other_load.loadSeed += 1;
    EXPECT_NE(p0, dbImagePath("d", other_load));
    ExperimentConfig other_scale = base;
    other_scale.scale.items += 1;
    EXPECT_NE(p0, dbImagePath("d", other_scale));
}

TEST(TraceCache, CorruptCacheFileFallsBackToCapture)
{
    ExperimentConfig cfg = tinyConfig();
    std::string dir = freshCacheDir("corrupt");

    SharedTraces first =
        captureTracesShared(tpcc::TxnType::OrderStatus, cfg, dir);
    ASSERT_NE(first, nullptr);

    std::string key = traceCacheKey(tpcc::TxnType::OrderStatus, cfg);
    std::string path = dir + "/ORDER_STATUS-" + key + ".tls.trace";
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "junk that is not a trace";
    }

    // Wrong magic is treated as a miss, not a panic. The re-capture
    // records fresh heap addresses, so compare address-independent
    // structure rather than timing.
    SharedTraces again =
        captureTracesShared(tpcc::TxnType::OrderStatus, cfg, dir);
    ASSERT_NE(again, nullptr);
    ASSERT_EQ(again->tls.txns.size(), first->tls.txns.size());
    for (std::size_t t = 0; t < first->tls.txns.size(); ++t)
        EXPECT_EQ(again->tls.txns[t].sections.size(),
                  first->tls.txns[t].sections.size());

    // The corrupt file was replaced by a valid one.
    WorkloadTrace reloaded;
    EXPECT_TRUE(loadTraceFile(path, &reloaded));
}

} // namespace
} // namespace sim
} // namespace tlsim
