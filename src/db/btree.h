/**
 * @file
 * B+-tree over slotted pages. Internal nodes hold (separator key,
 * child page id) pairs with the convention that a child covers keys
 * >= its separator and < the next separator; the first separator of
 * every internal node is the empty key. Leaves are chained through
 * rightSib for range scans. Deletion is lazy (no merging), as in
 * BerkeleyDB.
 *
 * Every access to page memory is traced with its real frame address,
 * so the B-tree's genuine cross-epoch dependences — leaf headers and
 * slot arrays under concurrent inserts, page latch words in the
 * untuned build, the page allocator during splits — appear in the
 * captured traces exactly where the paper's evaluation finds them.
 */

#ifndef DB_BTREE_H
#define DB_BTREE_H

#include <cstdint>
#include <string>

#include "core/tracer.h"
#include "db/bufferpool.h"
#include "db/dbtypes.h"
#include "db/page.h"

namespace tlsim {
namespace db {

/** One B+-tree index. */
class BTree
{
  public:
    BTree(BufferPool &pool, Tracer &tracer, const DbConfig &cfg,
          std::string name);

    /** Adopt the existing tree rooted at `root` holding `rows` records
     *  (a database opened from an image). */
    BTree(BufferPool &pool, Tracer &tracer, const DbConfig &cfg,
          std::string name, PageId root, std::uint64_t rows);

    /** Point lookup; traces the full descent. */
    bool get(BytesView key, Bytes *val);

    /**
     * Insert or (if `allow_update` and the key exists) replace.
     * Returns false iff the key existed and updates are not allowed.
     */
    bool put(BytesView key, BytesView val, bool allow_update = true);

    /** Remove a key; false if absent. */
    bool erase(BytesView key);

    /** Forward scan positioned by seek(). */
    class Cursor
    {
      public:
        explicit Cursor(BTree &tree) : tree_(tree) {}

        /** Position at the first record with key >= `key`. */
        bool seek(BytesView key);
        bool valid() const { return valid_; }
        BytesView key() const { return key_; }
        BytesView value() const { return val_; }
        /** Advance; false at end of tree. */
        bool next();

      private:
        void loadCurrent();
        bool skipToNonEmpty();

        BTree &tree_;
        PageId page_ = kInvalidPage;
        unsigned idx_ = 0;
        bool valid_ = false;
        Bytes key_, val_;
    };

    Cursor cursor() { return Cursor(*this); }

    std::uint64_t size() const { return count_; }
    PageId root() const { return root_; }
    const std::string &name() const { return name_; }
    unsigned height() const;

    /** Walk the whole tree checking structural invariants (tests). */
    void checkInvariants() const;

  private:
    friend class Cursor;

    /** Traced descent from the root to the leaf covering `key`. */
    PageId descendTraced(BytesView key);

    /** Traced binary search inside a node. */
    std::pair<unsigned, bool> searchTraced(Page &p, BytesView key);

    /** Child slot covering `key` in internal node `p`. */
    unsigned routeSlot(Page &p, BytesView key);

    /** Page latch modelling around node access. */
    void latchNode(Page &p, bool write);
    void unlatchNode(Page &p);

    struct SplitResult
    {
        bool split = false;
        Bytes upKey;
        PageId upChild = kInvalidPage;
    };

    SplitResult insertRec(PageId pid, BytesView key, BytesView val,
                          bool allow_update, bool *updated,
                          bool *inserted);
    SplitResult splitAndInsert(Page &p, PageId pid, unsigned idx,
                               BytesView key, BytesView val);
    void traceCellWrite(Page &p, unsigned idx, Pc pc);

    BufferPool &pool_;
    Tracer &tr_;
    const DbConfig &cfg_;
    std::string name_;
    PageId root_;
    std::uint64_t count_ = 0;
};

} // namespace db
} // namespace tlsim

#endif // DB_BTREE_H
