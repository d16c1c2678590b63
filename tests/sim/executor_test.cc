/**
 * @file
 * SimExecutor unit tests plus the parallel-determinism regression: a
 * runFigure6 sweep with --jobs=8 must produce bit-identical RunResults
 * (makespan and the full cycle breakdown) to the serial path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/executor.h"
#include "sim/experiment.h"

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
    // worker while the rest get stolen and finished by the others.
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
    EXPECT_THROW(ex.parallelFor(100,
                                [&](std::size_t i) {
                                    if (i == 37)
                                        throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
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

TEST(SimExecutor, MapFillsByIndex)
{
    SimExecutor ex(4);
    std::vector<int> sq =
        ex.map<int>(50, [](std::size_t i) {
            return static_cast<int>(i * i);
        });
    ASSERT_EQ(sq.size(), 50u);
    for (std::size_t i = 0; i < sq.size(); ++i)
        EXPECT_EQ(sq[i], static_cast<int>(i * i));
}

TEST(SimExecutor, AutoJobsIsAtLeastOne)
{
    SimExecutor ex(0);
    EXPECT_GE(ex.jobs(), 1u);
}

TEST(SimExecutor, ManySmallBatchesStress)
{
    // Hammer the open/seed/drain/close cycle: with 4 workers and
    // batches as small as a single task, any window where the batch
    // state is published before it is fully initialized (or recycled
    // before the last worker is out) shows up as a lost or double
    // execution — and as a TSan report in the instrumented build.
    SimExecutor ex(4);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = 1 + round % 7;
        std::atomic<std::size_t> sum{0};
        ex.parallelFor(n, [&](std::size_t) { sum++; });
        ASSERT_EQ(sum.load(), n) << "round " << round;
    }
}

TEST(SimExecutorDeathTest, ConcurrentSubmissionPanics)
{
    // The executor is single-submitter by contract; a second
    // parallelFor while a batch is open must panic, not corrupt the
    // shared batch state. The first submitter's task blocks until the
    // overlapping submission has been made, so the overlap is
    // deterministic, not a lucky interleaving.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            SimExecutor ex(2);
            std::atomic<bool> inside{false};
            std::atomic<bool> release{false};
            std::thread submitter([&] {
                ex.parallelFor(1, [&](std::size_t) {
                    inside = true;
                    while (!release)
                        std::this_thread::yield();
                });
            });
            while (!inside)
                std::this_thread::yield();
            // Batch still open (its only task is spinning): the
            // overlapping submission must die here.
            ex.parallelFor(1, [](std::size_t) {});
            release = true;
            submitter.join();
        },
        "not reentrant");
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
// captures even within one process, so the serial reference must run
// over the SAME captured traces as the parallel sweep — exactly the
// contract the benches rely on (capture once, fan the replays out).

TEST_P(ParallelDeterminism, Figure6ParallelMatchesSerial)
{
    tpcc::TxnType type = GetParam();
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    const std::vector<unsigned> counts = {2, 8};
    const std::vector<std::uint64_t> spacings = {1000, 5000, 25000};

    BenchmarkTraces traces = captureTraces(type, cfg);

    // jobs == 1 runs the sweep inline in index order: the serial path.
    SimExecutor serial_ex(1);
    std::vector<SweepPoint> serial =
        runFigure6(type, cfg, counts, spacings, traces, serial_ex);

    SimExecutor ex(8);
    std::vector<SweepPoint> parallel =
        runFigure6(type, cfg, counts, spacings, traces, ex);

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

    BenchmarkTraces traces = captureTraces(type, cfg);

    // Serial reference: the plain bar-by-bar loop, no executor at all.
    std::vector<std::pair<Bar, RunResult>> serial;
    for (Bar bar : allBars())
        serial.emplace_back(bar, runBar(bar, traces, cfg));

    SimExecutor ex(8);
    Figure5Row parallel = runFigure5(type, cfg, traces, ex);

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
