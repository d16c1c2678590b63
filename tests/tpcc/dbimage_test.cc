/**
 * @file
 * Database images (TpccDb::saveImage / openImage): a database opened
 * from an image must equal a fresh load byte for byte, before and
 * after the same transactions, for every benchmark and both builds;
 * and a damaged or mismatched image must be rejected, re-loaded and
 * rewritten rather than trusted.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.h"
#include "tpcc/tpcc.h"

namespace tlsim {
namespace tpcc {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kLoadSeed = 7;

std::string
imagePath(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "/tlsim_dbimage_" +
                      std::to_string(::getpid());
    fs::create_directories(dir);
    return dir + "/" + tag + ".db";
}

db::DbConfig
dbConfig(bool tls)
{
    db::DbConfig c;
    c.tuned = tls;
    return c;
}

/** Every page frame of `t`, concatenated in page order. */
std::vector<std::uint8_t>
frames(TpccDb &t)
{
    db::BufferPool &pool = t.database().pool();
    std::vector<std::uint8_t> out(pool.pagesAllocated() * db::kPageSize);
    for (db::PageId pid = 1; pid <= pool.pagesAllocated(); ++pid)
        std::memcpy(out.data() + (pid - 1) * db::kPageSize,
                    pool.frameAddr(pid), db::kPageSize);
    return out;
}

/** (root page, row count) per table. */
std::vector<std::pair<db::PageId, std::uint64_t>>
directory(TpccDb &t)
{
    std::vector<std::pair<db::PageId, std::uint64_t>> out;
    for (db::TableId i = 0; i < t.database().tableCount(); ++i)
        out.emplace_back(t.database().table(i).root(),
                         t.database().table(i).size());
    return out;
}

/** The two databases hold the same bytes and the same TPC-C state. */
void
expectSameDatabase(TpccDb &fresh, TpccDb &opened)
{
    EXPECT_TRUE(frames(fresh) == frames(opened))
        << "page frames differ";
    EXPECT_EQ(directory(fresh), directory(opened));
    for (std::uint32_t d = 1; d <= fresh.config().districts; ++d)
        EXPECT_EQ(fresh.districtNextOrderId(d),
                  opened.districtNextOrderId(d))
            << "district " << d;
    EXPECT_EQ(fresh.orderCount(), opened.orderCount());
    EXPECT_EQ(fresh.newOrderCount(), opened.newOrderCount());
    EXPECT_EQ(fresh.lastStockLevelResult(),
              opened.lastStockLevelResult());
    EXPECT_EQ(fresh.rollbacks(), opened.rollbacks());
    fresh.checkConsistency();
    opened.checkConsistency();
}

/** The capture loop of captureBenchmark(), on a given database. */
WorkloadTrace
runTxns(TpccDb &t, Tracer &tracer, TxnType type, unsigned txns)
{
    InputGen gen(t.config(), 42);
    for (unsigned i = 0; i < txns; ++i) {
        tracer.txnBegin();
        t.runTransaction(type, gen, (i % t.config().districts) + 1);
        tracer.txnEnd();
    }
    return tracer.takeWorkload();
}

Tracer::Options
tracerOptions(bool tls)
{
    Tracer::Options o;
    o.parallelMode = tls;
    return o;
}

class DbImageEquivalence
    : public ::testing::TestWithParam<std::pair<TxnType, bool>>
{
};

TEST_P(DbImageEquivalence, OpenedImageMatchesFreshLoad)
{
    const auto [type, tls] = GetParam();
    const TpccConfig scale = TpccConfig::tiny();
    const std::string path = imagePath(
        std::string(tls ? "tls_" : "orig_") +
        std::to_string(static_cast<int>(type)));

    // Before any transaction.
    Tracer tr_a(tracerOptions(tls));
    TpccDb fresh_a(scale, dbConfig(tls), tr_a);
    fresh_a.load(kLoadSeed);
    fresh_a.saveImage(path);
    Tracer tr_b(tracerOptions(tls));
    auto opened_a =
        TpccDb::openImage(path, scale, dbConfig(tls), tr_b, kLoadSeed);
    ASSERT_NE(opened_a, nullptr);
    expectSameDatabase(fresh_a, *opened_a);

    // After the same transactions, on a database that has read no
    // page yet (every read is a first touch during a transaction).
    Tracer tr_c(tracerOptions(tls));
    TpccDb fresh(scale, dbConfig(tls), tr_c);
    fresh.load(kLoadSeed);
    Tracer tr_d(tracerOptions(tls));
    auto opened =
        TpccDb::openImage(path, scale, dbConfig(tls), tr_d, kLoadSeed);
    ASSERT_NE(opened, nullptr);
    WorkloadTrace w_fresh = runTxns(fresh, tr_c, type, 6);
    WorkloadTrace w_opened = runTxns(*opened, tr_d, type, 6);
    ASSERT_EQ(w_fresh.txns.size(), w_opened.txns.size());
    for (std::size_t i = 0; i < w_fresh.txns.size(); ++i) {
        EXPECT_EQ(w_fresh.txns[i].totalInsts(),
                  w_opened.txns[i].totalInsts())
            << "txn " << i;
        EXPECT_EQ(w_fresh.txns[i].epochCount(),
                  w_opened.txns[i].epochCount())
            << "txn " << i;
    }
    expectSameDatabase(fresh, *opened);
    fs::remove(path);
}

std::vector<std::pair<TxnType, bool>>
allCases()
{
    std::vector<std::pair<TxnType, bool>> v;
    for (TxnType t : allBenchmarks())
        for (bool tls : {false, true})
            v.emplace_back(t, tls);
    return v;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksBothBuilds, DbImageEquivalence,
    ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<std::pair<TxnType, bool>> &info) {
        std::string name = txnTypeName(info.param.first);
        for (char &c : name)
            if (c == ' ')
                c = '_';
        return name + (info.param.second ? "_tls" : "_orig");
    });

TEST(DbImage, TunedAndUntunedLoadsAreByteIdentical)
{
    // Why the image key omits the build: one image serves both.
    const TpccConfig scale = TpccConfig::tiny();
    Tracer tr_orig, tr_tls;
    TpccDb orig(scale, dbConfig(false), tr_orig);
    TpccDb tls(scale, dbConfig(true), tr_tls);
    orig.load(kLoadSeed);
    tls.load(kLoadSeed);
    EXPECT_TRUE(frames(orig) == frames(tls));
    EXPECT_EQ(directory(orig), directory(tls));
}

TEST(DbImage, MissingFileIsAQuietMiss)
{
    Tracer tr;
    testing::internal::CaptureStdout();
    auto t = TpccDb::openImage(imagePath("absent"), TpccConfig::tiny(),
                               dbConfig(true), tr, kLoadSeed);
    EXPECT_EQ(t, nullptr);
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
}

// ---------------------------------------------------------------------
// Hardening: a capture given a damaged or mismatched image rejects it
// (with an inform() naming the defect), loads afresh, and atomically
// replaces the file with a valid image.
// ---------------------------------------------------------------------

CaptureOptions
imageOpts(const std::string &path)
{
    CaptureOptions o;
    o.scale = TpccConfig::tiny();
    o.txns = 3;
    o.dbImage = path;
    return o;
}

/** Overwrite 8 bytes at `offset` of `path` with `v`. */
void
patchWord(const std::string &path, std::streamoff offset,
          std::uint64_t v)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(offset);
    f.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

struct Defect
{
    const char *name;
    const char *reason; ///< expected in the inform() line
    void (*apply)(const std::string &path);
};

const Defect kDefects[] = {
    {"truncated", "truncated or oversized",
     [](const std::string &p) {
         fs::resize_file(p, fs::file_size(p) / 2);
     }},
    {"header_only", "unreadable or truncated header",
     [](const std::string &p) { fs::resize_file(p, 40); }},
    {"foreign_magic", "foreign file",
     [](const std::string &p) { patchWord(p, 0, 0x31534c54); }},
    {"other_version", "other image version",
     [](const std::string &p) { patchWord(p, 8, kDbImageVersion + 1); }},
    {"other_scale", "other scale or load seed",
     [](const std::string &p) {
         CaptureOptions o = imageOpts(p);
         o.scale.items += 100;
         fs::remove(p);
         captureBenchmark(TxnType::Payment, o);
     }},
    {"other_seed", "other scale or load seed",
     [](const std::string &p) {
         CaptureOptions o = imageOpts(p);
         o.loadSeed += 1;
         fs::remove(p);
         captureBenchmark(TxnType::Payment, o);
     }},
};

class DbImageHardening : public ::testing::TestWithParam<Defect>
{
};

TEST_P(DbImageHardening, RejectedReloadedAndRewritten)
{
    const Defect &defect = GetParam();
    const std::string path = imagePath(defect.name);
    fs::remove(path);
    auto &gc = stats::GlobalCounters::instance();

    // Reference: a capture with no image at all.
    CaptureOptions plain = imageOpts("");
    WorkloadTrace ref = captureBenchmark(TxnType::NewOrder, plain);

    captureBenchmark(TxnType::NewOrder, imageOpts(path));
    const auto good_size = fs::file_size(path);
    defect.apply(path);

    gc.reset();
    testing::internal::CaptureStdout();
    WorkloadTrace w = captureBenchmark(TxnType::NewOrder, imageOpts(path));
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("rejected: " + std::string(defect.reason)),
              std::string::npos)
        << out;
    EXPECT_EQ(gc.value("dbimage.create"), 1u);
    EXPECT_EQ(gc.value("dbimage.open"), 0u);

    // The capture ran on a fresh load.
    ASSERT_EQ(w.txns.size(), ref.txns.size());
    for (std::size_t i = 0; i < ref.txns.size(); ++i)
        EXPECT_EQ(w.txns[i].totalInsts(), ref.txns[i].totalInsts());

    // The image was replaced whole (no temporary left behind) and the
    // next capture opens it.
    EXPECT_EQ(fs::file_size(path), good_size);
    for (const auto &e : fs::directory_iterator(fs::path(path).parent_path()))
        EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
            << e.path();
    captureBenchmark(TxnType::NewOrder, imageOpts(path));
    EXPECT_EQ(gc.value("dbimage.open"), 1u);
    gc.reset();
    fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    Defects, DbImageHardening, ::testing::ValuesIn(kDefects),
    [](const ::testing::TestParamInfo<Defect> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace tpcc
} // namespace tlsim
