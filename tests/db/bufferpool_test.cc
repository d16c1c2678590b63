#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "base/poison.h"
#include "base/rng.h"
#include "base/stats.h"
#include "db/bufferpool.h"

namespace tlsim {
namespace db {
namespace {

TEST(BufferPool, AllocFormatsPages)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    PageId a = pool.allocPage(0);
    PageId b = pool.allocPage(1);
    EXPECT_NE(a, kInvalidPage);
    EXPECT_NE(a, b);
    Page pa = pool.fetch(a);
    Page pb = pool.fetch(b);
    EXPECT_EQ(pa.hdr().id, a);
    EXPECT_TRUE(pa.leaf());
    EXPECT_EQ(pb.hdr().level, 1);
    EXPECT_EQ(pool.pagesAllocated(), 2u);
}

TEST(BufferPool, FrameAddressesAreStable)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    PageId a = pool.allocPage(0);
    void *addr = pool.frameAddr(a);
    // Allocating thousands more pages (spanning chunks) must not move
    // existing frames — traces carry raw frame addresses.
    for (int i = 0; i < 3000; ++i)
        pool.allocPage(0);
    EXPECT_EQ(pool.frameAddr(a), addr);
}

TEST(BufferPool, FramesAreDistinctAndPageSized)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    PageId a = pool.allocPage(0);
    PageId b = pool.allocPage(0);
    auto *pa = static_cast<std::uint8_t *>(pool.frameAddr(a));
    auto *pb = static_cast<std::uint8_t *>(pool.frameAddr(b));
    EXPECT_GE(std::abs(pb - pa),
              static_cast<std::ptrdiff_t>(kPageSize));
}

TEST(BufferPoolDeathTest, BadPageIdPanics)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    EXPECT_DEATH(pool.frameAddr(kInvalidPage), "bad page id");
    EXPECT_DEATH(pool.frameAddr(55), "bad page id");
}

TEST(BufferPoolDeathTest, ExhaustionIsFatal)
{
    DbConfig cfg;
    cfg.maxPages = 4;
    Tracer tr;
    BufferPool pool(cfg, tr);
    for (int i = 0; i < 4; ++i)
        pool.allocPage(0);
    EXPECT_EXIT(pool.allocPage(0), ::testing::ExitedWithCode(1),
                "exhausted");
}

TEST(BufferPool, UntunedFetchTracesLruUpdates)
{
    DbConfig cfg;
    cfg.tuned = false;
    Tracer tr;
    BufferPool pool(cfg, tr);
    PageId a = pool.allocPage(0);

    tr.txnBegin();
    pool.fetch(a);
    tr.txnEnd();
    unsigned untuned_stores = 0;
    for (const auto &r : tr.workload()
                             .txns.at(0)
                             .sections.at(0)
                             .epochs.at(0)
                             .records)
        untuned_stores += r.op == TraceOp::Store;
    EXPECT_GE(untuned_stores, 1u); // the shared LRU head store

    DbConfig tuned_cfg;
    Tracer tr2;
    BufferPool pool2(tuned_cfg, tr2);
    PageId b = pool2.allocPage(0);
    tr2.txnBegin();
    pool2.fetch(b);
    tr2.txnEnd();
    unsigned tuned_stores = 0;
    for (const auto &r : tr2.workload()
                             .txns.at(0)
                             .sections.at(0)
                             .epochs.at(0)
                             .records)
        tuned_stores += r.op == TraceOp::Store;
    EXPECT_EQ(tuned_stores, 0u); // tuned build: no LRU store
}

// ---------------------------------------------------------------------
// Spilling to a writable image.
// ---------------------------------------------------------------------

/** A new, empty, unlinked image file open for reading and writing. */
int
scratchImage(const char *tag)
{
    std::string path = ::testing::TempDir() + "/tlsim_spill_" + tag +
                       "_" + std::to_string(::getpid());
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
    EXPECT_GE(fd, 0);
    ::unlink(path.c_str());
    return fd;
}

/**
 * Allocate `pages` pages filling each body with bytes drawn from
 * `seed`, rewriting an earlier page every step, and spill every
 * `spill_every` pages (never if 0). Returns each page's frame address
 * as allocated.
 */
std::vector<void *>
fillPool(BufferPool &pool, std::uint64_t seed, unsigned pages,
         unsigned spill_every)
{
    std::vector<void *> addr;
    Rng rng(seed);
    for (unsigned i = 1; i <= pages; ++i) {
        PageId pid = pool.allocPage(0);
        auto *frame = static_cast<std::uint8_t *>(pool.frameAddr(pid));
        addr.push_back(frame);
        for (unsigned b = sizeof(PageHeader); b < kPageSize; ++b)
            frame[b] = static_cast<std::uint8_t>(rng.uniform(0, 255));
        auto old = static_cast<PageId>(rng.uniform(1, pid));
        auto *back = static_cast<std::uint8_t *>(pool.frameAddr(old));
        back[kPageSize - 1 - i % 64] ^= static_cast<std::uint8_t>(i);
        if (spill_every && i % spill_every == 0)
            pool.spill();
    }
    return addr;
}

TEST(BufferPoolSpill, FramesStayPutAndBytesMatchAnUnspilledPool)
{
    // 2500 pages span three chunks; spills land mid-chunk too.
    constexpr unsigned kPages = 2500;
    DbConfig cfg;
    Tracer tr_ref, tr;
    BufferPool ref(cfg, tr_ref);
    fillPool(ref, 11, kPages, 0);

    BufferPool pool(cfg, tr);
    pool.attachImage(scratchImage("stable"), 0);
    const std::vector<void *> addr = fillPool(pool, 11, kPages, 300);
    pool.spill();
    EXPECT_EQ(pool.residentPages(), 0u);

    ASSERT_EQ(pool.pagesAllocated(), ref.pagesAllocated());
    for (PageId pid = 1; pid <= kPages; ++pid) {
        ASSERT_EQ(pool.frameAddr(pid), addr[pid - 1]) << "page " << pid;
        ASSERT_EQ(std::memcmp(pool.frameAddr(pid), ref.frameAddr(pid),
                              kPageSize),
                  0)
            << "page " << pid;
    }
    EXPECT_EQ(pool.residentPages(), kPages);
}

TEST(BufferPoolSpill, WithoutAnImageIsANoOp)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    PageId a = pool.allocPage(0);
    pool.spill();
    EXPECT_EQ(pool.residentPages(), 1u);
    EXPECT_EQ(Page(pool.frameAddr(a)).hdr().id, a);
}

TEST(BufferPoolSpill, ImageHoldsEachPageAtItsOffset)
{
    // The image layout: page p is the kPageSize bytes at p * kPageSize.
    constexpr unsigned kPages = 40;
    DbConfig cfg;
    Tracer tr_ref, tr;
    BufferPool ref(cfg, tr_ref);
    fillPool(ref, 23, kPages, 0);

    BufferPool pool(cfg, tr);
    const int fd = scratchImage("layout");
    const int peek = ::dup(fd);
    ASSERT_GE(peek, 0);
    pool.attachImage(fd, 0);
    fillPool(pool, 23, kPages, 7);
    pool.spill();

    std::vector<std::uint8_t> page(kPageSize);
    for (PageId pid = 1; pid <= kPages; ++pid) {
        ASSERT_EQ(::pread(peek, page.data(), kPageSize,
                          static_cast<off_t>(pid) * kPageSize),
                  static_cast<ssize_t>(kPageSize))
            << "page " << pid;
        ASSERT_EQ(std::memcmp(page.data(), ref.frameAddr(pid), kPageSize),
                  0)
            << "page " << pid;
    }
    ::close(peek);
}

TEST(BufferPoolSpill, RespillWritesOnlyPagesTouchedSinceTheLastOne)
{
    auto &gc = stats::GlobalCounters::instance();
    gc.reset();
    DbConfig cfg;
    Tracer tr;
    {
        BufferPool pool(cfg, tr);
        pool.attachImage(scratchImage("respill"), 0);
        for (int i = 0; i < 10; ++i)
            pool.allocPage(0);
        pool.spill();
        EXPECT_EQ(gc.value("dbpool.spilledPages"), 10u);
        EXPECT_EQ(gc.value("dbpool.imageReads"), 0u);

        // Touch three pages, change one of them, and spill again.
        static_cast<std::uint8_t *>(pool.frameAddr(4))[kPageSize - 1] =
            0xA5;
        pool.frameAddr(7);
        pool.frameAddr(9);
        EXPECT_EQ(pool.residentPages(), 3u);
        pool.spill();
        EXPECT_EQ(pool.residentPages(), 0u);
        EXPECT_EQ(gc.value("dbpool.spilledPages"), 13u);
        EXPECT_EQ(gc.value("dbpool.imageReads"), 3u);

        // The change survives the round trip through the image.
        EXPECT_EQ(
            static_cast<std::uint8_t *>(pool.frameAddr(4))[kPageSize - 1],
            0xA5);
        EXPECT_EQ(Page(pool.frameAddr(9)).hdr().id, 9u);
    }
    // The two reads since the last spill reach the counter when the
    // pool is destroyed.
    EXPECT_EQ(gc.value("dbpool.imageReads"), 5u);
    gc.reset();
}

TEST(BufferPoolSpill, PagesAllocatedAfterASpillGoOutWithTheNext)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    pool.attachImage(scratchImage("grow"), 0);
    for (int i = 0; i < 6; ++i)
        pool.allocPage(0);
    pool.spill();
    const PageId a = pool.allocPage(1);
    const PageId b = pool.allocPage(2);
    EXPECT_EQ(pool.residentPages(), 2u);
    pool.spill();
    EXPECT_EQ(pool.residentPages(), 0u);

    ASSERT_EQ(pool.pagesAllocated(), 8u);
    for (PageId pid = 1; pid <= 8; ++pid)
        EXPECT_EQ(Page(pool.frameAddr(pid)).hdr().id, pid);
    EXPECT_EQ(Page(pool.frameAddr(a)).hdr().level, 1);
    EXPECT_EQ(Page(pool.frameAddr(b)).hdr().level, 2);
}

TEST(BufferPoolSpill, SpilledImageOpensLazilyInAnotherPool)
{
    // 1500 pages span two chunks; the reader touches both.
    constexpr unsigned kPages = 1500;
    DbConfig cfg;
    Tracer tr_w, tr_r;
    BufferPool writer(cfg, tr_w);
    const int fd = scratchImage("reopen");
    const int reader_fd = ::dup(fd);
    ASSERT_GE(reader_fd, 0);
    writer.attachImage(fd, 0);
    fillPool(writer, 5, kPages, 500);
    writer.spill();

    BufferPool reader(cfg, tr_r);
    reader.attachImage(reader_fd, kPages);
    EXPECT_EQ(reader.pagesAllocated(), kPages);
    EXPECT_EQ(reader.residentPages(), 0u);
    for (PageId pid : {PageId{1}, PageId{1024}, PageId{1025},
                       PageId{kPages}})
        EXPECT_EQ(std::memcmp(reader.frameAddr(pid),
                              writer.frameAddr(pid), kPageSize),
                  0)
            << "page " << pid;
    EXPECT_EQ(reader.residentPages(), 4u);
    EXPECT_EQ(reader.allocPage(0), kPages + 1);
}

TEST(BufferPoolDeathTest, ImageOnABusyPoolPanics)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    pool.allocPage(0);
    const int fd = scratchImage("busy");
    // A pool holding pages cannot take an image's pages...
    EXPECT_DEATH(pool.attachImage(fd, 3), "non-empty pool");
    // ...nor a second image.
    pool.attachImage(fd, 0);
    const int second = scratchImage("busy2");
    EXPECT_DEATH(pool.attachImage(second, 0), "non-empty pool");
    ::close(second);
}

TEST(BufferPoolDeathTest, SpillToAReadOnlyImageIsFatal)
{
    std::string path = ::testing::TempDir() + "/tlsim_spill_ro_" +
                       std::to_string(::getpid());
    ::close(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600));
    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    ::unlink(path.c_str());

    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    pool.attachImage(fd, 0);
    pool.allocPage(0);
    EXPECT_EXIT(pool.spill(), ::testing::ExitedWithCode(1),
                "cannot write page");
}

#if TLSIM_POISON
TEST(BufferPoolSpill, StaleViewReadsTheCanary)
{
    // A Page view kept across a spill must not read plausible bytes.
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    pool.attachImage(scratchImage("poison"), 0);
    PageId a = pool.allocPage(0);
    auto *stale = static_cast<std::uint8_t *>(pool.frameAddr(a));
    pool.spill();
    std::uint64_t word;
    std::memcpy(&word, stale + 64, sizeof(word));
    EXPECT_EQ(word, poison::kU64);
    EXPECT_EQ(Page(pool.frameAddr(a)).hdr().id, a); // read back whole
}
#endif

} // namespace
} // namespace db
} // namespace tlsim
