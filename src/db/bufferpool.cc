#include "db/bufferpool.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "base/log.h"
#include "core/site.h"
#include "db/costs.h"

namespace tlsim {
namespace db {

BufferPool::BufferPool(const DbConfig &cfg, Tracer &tracer)
    : cfg_(cfg), tr_(tracer), buckets_(4096, 0)
{
}

BufferPool::~BufferPool()
{
    if (imageFd_ >= 0)
        ::close(imageFd_);
}

void
BufferPool::attachImage(int fd, PageId pages)
{
    if (nextPage_ != 1 || imageFd_ >= 0)
        panic("buffer pool: image attached to a non-empty pool");
    if (pages > cfg_.maxPages)
        panic("buffer pool: image of %u pages exceeds %u frames", pages,
              cfg_.maxPages);
    imageFd_ = fd;
    imagePages_ = pages;
    imageRead_.assign(static_cast<std::size_t>(pages) + 1, false);
    nextPage_ = pages + 1;
}

bool
BufferPool::writeFrames(std::FILE *f)
{
    // Chunk by chunk: the frames of one chunk are contiguous.
    for (PageId first = 1; first < nextPage_; first += kPagesPerChunk) {
        PageId n = std::min<PageId>(kPagesPerChunk, nextPage_ - first);
        for (PageId pid = first; pid < first + n; ++pid)
            frameAddr(pid);
        if (std::fwrite(frameAddr(first), kPageSize, n, f) != n)
            return false;
    }
    return true;
}

std::uint8_t *
BufferPool::frameOf(unsigned idx)
{
    if (idx / kPagesPerChunk >= chunks_.size())
        chunks_.resize(idx / kPagesPerChunk + 1);
    Chunk &c = chunks_[idx / kPagesPerChunk];
    // Uninitialized on purpose: allocPage formats every byte of a new
    // frame and an image page is read in whole, so untouched pages
    // never cost resident memory.
    if (!c.mem)
        c.mem = std::make_unique_for_overwrite<std::uint8_t[]>(
            kChunkBytes);
    return c.mem.get() +
           static_cast<std::size_t>(idx % kPagesPerChunk) * kPageSize;
}

void *
BufferPool::frameAddr(PageId pid)
{
    if (pid == kInvalidPage || pid >= nextPage_)
        panic("buffer pool: bad page id %u", pid);
    std::uint8_t *frame = frameOf(pid - 1);
    if (pid <= imagePages_ && !imageRead_[pid])
        readImagePage(pid, frame);
    return frame;
}

void
BufferPool::readImagePage(PageId pid, std::uint8_t *frame)
{
    const off_t base = static_cast<off_t>(pid) * kPageSize;
    std::size_t done = 0;
    while (done < kPageSize) {
        ssize_t n = ::pread(imageFd_, frame + done, kPageSize - done,
                            base + static_cast<off_t>(done));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            fatal("database image: cannot read page %u: %s", pid,
                  n == 0 ? "unexpected end of file"
                         : std::strerror(errno));
        done += static_cast<std::size_t>(n);
    }
    imageRead_[pid] = true;
}

PageId
BufferPool::allocPage(std::uint8_t level)
{
    static const Site s_alloc("bufpool.alloc_page");
    if (nextPage_ - 1 >= cfg_.maxPages)
        fatal("buffer pool exhausted (%u pages)", cfg_.maxPages);

    std::uint8_t *frame = frameOf(nextPage_ - 1);

    // The page-allocator counter is shared; splits running in
    // different epochs serialize on it. Tuned mode escapes the
    // allocation (it is isolation-unsafe work anyway).
    if (cfg_.tuned) {
        EscapedRegion esc(tr_, s_alloc.pc);
        tr_.latchAcquire(s_alloc.pc, namedLatch(kLatchPageAlloc));
        tr_.load(s_alloc.pc, &nextPage_, sizeof(nextPage_));
        tr_.store(s_alloc.pc, &nextPage_, sizeof(nextPage_));
        tr_.compute(s_alloc.pc, 60);
        tr_.latchRelease(s_alloc.pc, namedLatch(kLatchPageAlloc));
    } else {
        tr_.load(s_alloc.pc, &nextPage_, sizeof(nextPage_));
        tr_.store(s_alloc.pc, &nextPage_, sizeof(nextPage_));
        tr_.compute(s_alloc.pc, 60);
    }

    PageId pid = nextPage_++;
    Page::init(frame, pid, level);
    return pid;
}

Page
BufferPool::fetch(PageId pid, bool dependent)
{
    static const Site s_hash("bufpool.fetch.hash_probe");
    static const Site s_lru("bufpool.fetch.lru_update");

    // Hash-bucket probe (shared, read-mostly).
    unsigned h = pid & (buckets_.size() - 1);
    tr_.load(s_hash.pc, &buckets_[h], sizeof(buckets_[h]), dependent);
    tr_.compute(s_hash.pc, cost::kFetchPage);

    if (!cfg_.tuned) {
        // BerkeleyDB-style global LRU maintenance: every fetch stores
        // to the shared list head — a dependence between every pair of
        // concurrent epochs. The tuned build removes it.
        tr_.load(s_lru.pc, &lruHead_, sizeof(lruHead_));
        lruHead_ = pid;
        tr_.store(s_lru.pc, &lruHead_, sizeof(lruHead_));
        tr_.compute(s_lru.pc, 25);
    }

    return Page(frameAddr(pid));
}

void
BufferPool::unpin(PageId pid)
{
    static const Site s_unpin("bufpool.unpin");
    (void)pid;
    tr_.compute(s_unpin.pc, cost::kUnpinPage);
}

} // namespace db
} // namespace tlsim
