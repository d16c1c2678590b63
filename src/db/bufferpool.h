/**
 * @file
 * The buffer pool: owns every page frame (the workload is memory
 * resident, as in the paper: a buffer pool large enough that reads
 * never go to disk). fetch() models BerkeleyDB's memp_fget — a hash
 * probe, frame pinning, and (untuned) global LRU maintenance whose
 * shared head pointer is one of the cross-epoch dependences the
 * paper's iterative tuning removes.
 *
 * Frames live in 4MB chunks, each a separate heap allocation made the
 * first time one of its pages is touched. A pool attached to a
 * database image (attachImage) starts out holding the image's pages
 * without reading any of them: a page is read from the image into its
 * frame the first time it is touched, so a capture pays only for the
 * pages its transactions visit. A pool attached to a writable image
 * can also spill(): every page it holds goes out to the image and its
 * memory back to the OS, to be read back on its next touch. A pool
 * being destroyed hands its frames' memory back before freeing it.
 */

#ifndef DB_BUFFERPOOL_H
#define DB_BUFFERPOOL_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tracer.h"
#include "db/dbtypes.h"
#include "db/page.h"

namespace tlsim {
namespace db {

/** All page frames plus the traced metadata around them. */
class BufferPool
{
  public:
    BufferPool(const DbConfig &cfg, Tracer &tracer);
    ~BufferPool();

    BufferPool(const BufferPool &) = delete;
    BufferPool &operator=(const BufferPool &) = delete;

    /**
     * Take pages 1..`pages` from an image file open as `fd` (the pool
     * owns it from now on): page p is the kPageSize bytes at offset
     * p * kPageSize. Requires an empty pool, unless `pages` is 0:
     * then the image is still to be written, and spill() writes the
     * pool's pages to it, those it holds now and those it allocates.
     */
    void attachImage(int fd, PageId pages);

    /**
     * Write every page held in memory to the attached image (which
     * must be open for writing) and hand the frames' memory back to
     * the OS; each page is read back into the same frame on its next
     * touch, so frame addresses never change. Call it only while no
     * Page view is live. A no-op without an attached image.
     */
    void spill();

    /** Pages whose bytes are held in memory (not only in the image). */
    std::uint64_t residentPages() const
    {
        return nextPage_ - 1 - imagePages_ + readSinceSpill_;
    }

    /** Allocate and format a fresh page. */
    PageId allocPage(std::uint8_t level);

    /**
     * Pin a page and return a view of its frame. `dependent` marks the
     * probe as consuming a just-loaded pointer (B-tree descent).
     */
    Page fetch(PageId pid, bool dependent = false);

    /** Unpin (cost accounting only; the modelled pool never evicts). */
    void unpin(PageId pid);

    /**
     * Frame address without trace side effects. Reads the page from
     * the attached image if this is its first touch.
     */
    void *frameAddr(PageId pid);

    std::uint64_t pagesAllocated() const { return nextPage_ - 1; }

  private:
    struct Chunk
    {
        std::unique_ptr<std::uint8_t[]> mem;
    };

    static constexpr unsigned kPagesPerChunk = 1024;
    static constexpr std::size_t kChunkBytes =
        static_cast<std::size_t>(kPagesPerChunk) * kPageSize;

    /** Frame of page index `idx` (pid - 1); allocates its chunk on
     *  first touch. */
    std::uint8_t *frameOf(unsigned idx);

    /** Read image page `pid` into `frame` (its first touch). */
    void readImagePage(PageId pid, std::uint8_t *frame);

    /** Write the `n` frames of pages first..first+n-1 (one chunk) to
     *  the image. */
    void writeImagePages(PageId first, PageId n);

    /** Add readSinceSpill_ to the stats counter and zero it. */
    void flushImageReads();

    /** Whether page `pid`'s bytes are held in its frame. */
    bool resident(PageId pid) const
    {
        return pid > imagePages_ || imageRead_[pid];
    }

    const DbConfig &cfg_;
    Tracer &tr_;

    std::vector<Chunk> chunks_;
    PageId nextPage_ = 1; ///< page 0 is the invalid page

    int imageFd_ = -1;
    PageId imagePages_ = 0;
    /**
     * Image pages read since the last spill (or attach); added to the
     * "dbpool.imageReads" counter at each spill and on destruction.
     * It fills the padding after imagePages_: the pool's size and the
     * offset of the traced lruHead_ stay as they were.
     */
    PageId readSinceSpill_ = 0;
    /** Image pages already read, indexed by page id. */
    std::vector<bool> imageRead_;

    /** Modelled memp hash buckets (traced shared metadata). */
    std::vector<std::uint32_t> buckets_;
    /** Modelled global LRU head (traced hot spot when !tuned). */
    std::uint64_t lruHead_ = 0;
};

} // namespace db
} // namespace tlsim

#endif // DB_BUFFERPOOL_H
