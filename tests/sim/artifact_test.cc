/**
 * @file
 * The artifact runner (sim/artifact.h): its folded rows equal the
 * per-benchmark experiment functions over the same cached traces, it
 * records the documented det-probe stages, its results do not depend
 * on the job count, and oracle pruning only skips points.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/resulthash.h"
#include "sim/artifact.h"
#include "sim/executor.h"
#include "sim/tracecache.h"

namespace tlsim {
namespace sim {
namespace {

class ArtifactRunner : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        dir = ::testing::TempDir() + "/tlsim_artifact_" +
              std::to_string(::getpid());
    }

    static void
    TearDownTestSuite()
    {
        std::filesystem::remove_all(dir);
    }

    static ExperimentConfig
    cfg(tpcc::TxnType t)
    {
        return configFor(t, true, 3);
    }

    static ArtifactResult
    run(Artifact a, unsigned jobs, det::Probe &probe, bool prune = false)
    {
        SimExecutor ex(jobs);
        return runArtifact({a, cfg, dir, prune}, ex, probe);
    }

    static SharedTraces
    traces(tpcc::TxnType t)
    {
        return captureTracesShared(t, cfg(t), dir);
    }

    static std::vector<std::string>
    stageNames(const det::Probe &probe)
    {
        std::vector<std::string> out;
        for (const auto &[name, digest] : probe.stages())
            out.push_back(name);
        return out;
    }

    static std::string dir;
};

std::string ArtifactRunner::dir;

TEST_F(ArtifactRunner, Table2RowsMatchTable2Row)
{
    det::Probe probe(true);
    const ArtifactResult res = run(Artifact::Table2, 2, probe);
    ASSERT_EQ(res.table2.size(), tpcc::allBenchmarks().size());
    EXPECT_TRUE(res.figure5.empty());
    for (const Table2Row &r : res.table2) {
        const Table2Row want = table2Row(r.type, cfg(r.type),
                                         *traces(r.type));
        EXPECT_EQ(r.execMcycles, want.execMcycles);
        EXPECT_EQ(r.coverage, want.coverage);
        EXPECT_EQ(r.epochs, want.epochs);
    }
    EXPECT_EQ(stageNames(probe),
              (std::vector<std::string>{"capture", "replay"}));
}

TEST_F(ArtifactRunner, Figure5RowsMatchRunFigure5)
{
    det::Probe probe(true);
    const ArtifactResult res = run(Artifact::Figure5, 3, probe);
    ASSERT_EQ(res.figure5.size(), tpcc::allBenchmarks().size());
    SimExecutor ex(1);
    for (const Figure5Row &row : res.figure5) {
        const Figure5Row want =
            runFigure5(row.type, cfg(row.type), *traces(row.type), ex);
        ASSERT_EQ(row.bars.size(), want.bars.size());
        for (std::size_t j = 0; j < row.bars.size(); ++j) {
            EXPECT_EQ(row.bars[j].first, want.bars[j].first);
            EXPECT_EQ(det::hashRunResult(row.bars[j].second),
                      det::hashRunResult(want.bars[j].second));
        }
    }
    EXPECT_EQ(stageNames(probe), (std::vector<std::string>{
                                     "capture", "replay", "aggregate"}));
}

TEST_F(ArtifactRunner, Figure6IsJobsInvariantAndPruningOnlySkips)
{
    det::Probe p1(true), p4(true), pp(true);
    const ArtifactResult one = run(Artifact::Figure6, 1, p1);
    const ArtifactResult four = run(Artifact::Figure6, 4, p4);
    EXPECT_EQ(p1.stages(), p4.stages());
    EXPECT_EQ(one.indexBuilds, 0u);

    const ArtifactResult pruned = run(Artifact::Figure6, 2, pp, true);
    const std::size_t ns = sweepSpacings().size();
    const std::size_t grid = sweepCounts().size() * ns;
    EXPECT_EQ(pruned.oracle.total, grid * sweepBenchmarks().size());
    ASSERT_EQ(one.figure6.size(), sweepBenchmarks().size());
    std::size_t simulated = 0;
    for (std::size_t b = 0; b < one.figure6.size(); ++b) {
        const Figure6Row &full = one.figure6[b];
        const Figure6Row &cut = pruned.figure6[b];
        EXPECT_EQ(full.type, sweepBenchmarks()[b]);
        EXPECT_EQ(cut.seqMakespan, full.seqMakespan);
        ASSERT_EQ(full.points.size(), grid);
        for (std::size_t j = 0; j < grid; ++j) {
            const SweepPoint &f = full.points[j];
            EXPECT_TRUE(f.simulated);
            EXPECT_EQ(f.subthreads, sweepCounts()[j / ns]);
            EXPECT_EQ(f.spacing, sweepSpacings()[j % ns]);
            EXPECT_EQ(det::hashRunResult(f.run),
                      det::hashRunResult(four.figure6[b].points[j].run));
            if (cut.points[j].simulated) {
                ++simulated;
                EXPECT_EQ(det::hashRunResult(cut.points[j].run),
                          det::hashRunResult(f.run));
            }
        }
    }
    EXPECT_EQ(simulated, pruned.oracle.simulated);
    EXPECT_LE(2 * simulated, pruned.oracle.total);
}

} // namespace
} // namespace sim
} // namespace tlsim
