/**
 * @file
 * SimExecutor unit tests plus the parallel-determinism regression: a
 * runFigure6 sweep with --jobs=8 must produce bit-identical RunResults
 * (makespan and the full cycle breakdown) to the serial path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/tracecache.h"

namespace tlsim {
namespace sim {
namespace {

TEST(SimExecutor, RunsEveryIndexExactlyOnce)
{
    SimExecutor ex(4);
    EXPECT_EQ(ex.jobs(), 4u);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    ex.parallelFor(n, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(SimExecutor, ReusableAcrossBatches)
{
    SimExecutor ex(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<int> sum{0};
        ex.parallelFor(round * 7 + 1,
                       [&](std::size_t) { sum++; });
        EXPECT_EQ(sum.load(), round * 7 + 1);
    }
}

TEST(SimExecutor, UnevenTasksAllComplete)
{
    // Mix one long task among many short ones: the long task pins a
    // worker while the others drain the rest of the cursor.
    SimExecutor ex(4);
    constexpr std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    ex.parallelFor(n, [&](std::size_t i) {
        if (i == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        hits[i]++;
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(SimExecutor, ExceptionPropagatesToCaller)
{
    SimExecutor ex(4);
    constexpr std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    try {
        ex.parallelFor(n, [&](std::size_t i) {
            if (i == 37 || i == 80)
                throw std::runtime_error("boom " + std::to_string(i));
            hits[i]++;
        });
        FAIL() << "parallelFor swallowed the task's exception";
    } catch (const std::runtime_error &e) {
        // The lowest failing index wins, whichever thread ran it.
        EXPECT_STREQ(e.what(), "boom 37");
    }
    // Every other task still ran, exactly once.
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), i == 37 || i == 80 ? 0 : 1)
            << "index " << i;
    // The executor must stay usable after a failed batch.
    std::atomic<int> sum{0};
    ex.parallelFor(10, [&](std::size_t) { sum++; });
    EXPECT_EQ(sum.load(), 10);
}

TEST(SimExecutor, SingleJobRunsInlineOnCallerThread)
{
    SimExecutor ex(1);
    std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(8);
    ex.parallelFor(8, [&](std::size_t i) {
        seen[i] = std::this_thread::get_id();
    });
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

TEST(SimExecutor, AutoJobsIsAtLeastOne)
{
    SimExecutor ex(0);
    EXPECT_GE(ex.jobs(), 1u);
}

TEST(SimExecutor, ManySmallBatchesStress)
{
    // Hammer the start/drain/join cycle: with 4 workers and batches
    // as small as a single task, a cursor or result slot that leaks
    // between calls shows up as a lost or double execution — and as
    // a TSan report in the instrumented build.
    SimExecutor ex(4);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = 1 + round % 7;
        std::atomic<std::size_t> sum{0};
        ex.parallelFor(n, [&](std::size_t) { sum++; });
        ASSERT_EQ(sum.load(), n) << "round " << round;
    }
}

TEST(SimExecutor, ConcurrentAndNestedSubmissionsComplete)
{
    // Calls share no state: a second thread submitting while a call
    // is in flight, and a task submitting to its own executor, both
    // run to completion. The outer tasks wait until both outer calls
    // are inside, so the overlap is certain, not a lucky interleaving.
    SimExecutor ex(2);
    constexpr std::size_t outer = 4, inner = 3;
    std::vector<std::atomic<int>> hits(2 * outer * inner);
    std::atomic<int> inside{0};
    auto submit = [&](std::size_t which) {
        ex.parallelFor(outer, [&, which](std::size_t i) {
            if (i == 0) {
                inside++;
                while (inside.load() < 2)
                    std::this_thread::yield();
            }
            ex.parallelFor(inner, [&, which, i](std::size_t k) {
                hits[(which * outer + i) * inner + k]++;
            });
        });
    };
    std::thread other(submit, 1);
    submit(0);
    other.join();
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

// ---------------------------------------------------------------------
// Determinism regression: parallel == serial, bit for bit.
// ---------------------------------------------------------------------

void
expectRunEq(const RunResult &a, const RunResult &b, const char *what)
{
    EXPECT_EQ(a.makespan, b.makespan) << what;
    for (unsigned c = 0; c < kNumCats; ++c)
        EXPECT_EQ(a.total.cycles[c], b.total.cycles[c])
            << what << " cat " << catName(static_cast<Cat>(c));
    EXPECT_EQ(a.txns, b.txns) << what;
    EXPECT_EQ(a.epochs, b.epochs) << what;
    EXPECT_EQ(a.totalInsts, b.totalInsts) << what;
    EXPECT_EQ(a.primaryViolations, b.primaryViolations) << what;
    EXPECT_EQ(a.secondaryViolations, b.secondaryViolations) << what;
    EXPECT_EQ(a.squashes, b.squashes) << what;
    EXPECT_EQ(a.rewoundInsts, b.rewoundInsts) << what;
    EXPECT_EQ(a.subthreadsStarted, b.subthreadsStarted) << what;
    EXPECT_EQ(a.overflowEvents, b.overflowEvents) << what;
    EXPECT_EQ(a.latchWaits, b.latchWaits) << what;
    EXPECT_EQ(a.escapeSkips, b.escapeSkips) << what;
    EXPECT_EQ(a.predictorStalls, b.predictorStalls) << what;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.victimHits, b.victimHits) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<tpcc::TxnType>
{
};

// A fresh capture records raw heap addresses, which differ between
// captures even within one process, so the serial reference must
// replay the SAME captured workloads as the parallel sweep — exactly
// the contract the benches rely on (capture once, fan the replays
// out). Each leg has its own BenchmarkTraces of those workloads, so
// the parallel leg runs every point rather than reading the serial
// leg's results from the memo.

TEST_P(ParallelDeterminism, Figure6ParallelMatchesSerial)
{
    tpcc::TxnType type = GetParam();
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    const std::vector<unsigned> counts = {2, 8};
    const std::vector<std::uint64_t> spacings = {1000, 5000, 25000};

    const SharedTraces serial_t = captureTracesShared(type, cfg);
    const BenchmarkTraces par_t(serial_t->original, serial_t->tls,
                                cfg.machine.mem.lineBytes);

    // jobs == 1 runs the sweep inline in index order: the serial path.
    SimExecutor serial_ex(1);
    std::vector<SweepPoint> serial =
        runFigure6(type, cfg, counts, spacings, *serial_t, serial_ex);

    SimExecutor ex(8);
    std::vector<SweepPoint> parallel =
        runFigure6(type, cfg, counts, spacings, par_t, ex);

    ASSERT_EQ(serial.size(), counts.size() * spacings.size());
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].subthreads, parallel[i].subthreads);
        EXPECT_EQ(serial[i].spacing, parallel[i].spacing);
        expectRunEq(serial[i].run, parallel[i].run,
                    tpcc::txnTypeName(type));
    }
}

TEST_P(ParallelDeterminism, Figure5ParallelMatchesSerial)
{
    tpcc::TxnType type = GetParam();
    ExperimentConfig cfg = ExperimentConfig::testPreset();

    const SharedTraces serial_t = captureTracesShared(type, cfg);
    const BenchmarkTraces par_t(serial_t->original, serial_t->tls,
                                cfg.machine.mem.lineBytes);

    // Serial reference: the plain bar-by-bar loop, no executor at all.
    std::vector<std::pair<Bar, RunResult>> serial;
    for (Bar bar : allBars())
        serial.emplace_back(bar, runBar(bar, *serial_t, cfg));

    SimExecutor ex(8);
    Figure5Row parallel = runFigure5(type, cfg, par_t, ex);

    ASSERT_EQ(serial.size(), parallel.bars.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].first, parallel.bars[i].first);
        expectRunEq(serial[i].second, parallel.bars[i].second,
                    barName(serial[i].first));
    }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, ParallelDeterminism,
                         ::testing::Values(tpcc::TxnType::NewOrder,
                                           tpcc::TxnType::StockLevel));

} // namespace
} // namespace sim
} // namespace tlsim
