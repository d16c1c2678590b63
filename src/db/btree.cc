#include "db/btree.h"

#include <algorithm>
#include <vector>

#include "base/log.h"
#include "core/site.h"
#include "db/costs.h"

namespace tlsim {
namespace db {

namespace {

Bytes
childBytes(PageId pid)
{
    return Bytes(reinterpret_cast<const char *>(&pid), sizeof(pid));
}

} // namespace

BTree::BTree(BufferPool &pool, Tracer &tracer, const DbConfig &cfg,
             std::string name)
    : pool_(pool), tr_(tracer), cfg_(cfg), name_(std::move(name))
{
    root_ = pool_.allocPage(0);
}

BTree::BTree(BufferPool &pool, Tracer &tracer, const DbConfig &cfg,
             std::string name, PageId root, std::uint64_t rows)
    : pool_(pool), tr_(tracer), cfg_(cfg), name_(std::move(name)),
      root_(root), count_(rows)
{
}

unsigned
BTree::height() const
{
    unsigned h = 1;
    PageId pid = root_;
    for (;;) {
        Page p(pool_.frameAddr(pid));
        if (p.leaf())
            return h;
        pid = p.childAt(0);
        ++h;
    }
}

// ---------------------------------------------------------------------
// Traced primitives
// ---------------------------------------------------------------------

void
BTree::latchNode(Page &p, bool write)
{
    static const Site s_latch("btree.page_latch.acquire");
    static const Site s_spin("btree.page_latch.spin_word");
    (void)write;
    if (cfg_.tuned) {
        EscapedRegion esc(tr_, s_latch.pc);
        tr_.latchAcquire(s_latch.pc, pageLatch(p.hdr().id));
    } else {
        // Naive spin latch: a speculative read-modify-write of the
        // latch word in the page header. Under TLS this makes every
        // pair of epochs touching the node dependent — the behaviour
        // the iterative tuning process eliminates first.
        tr_.load(s_spin.pc, p.headerAddr(), 4);
        tr_.store(s_spin.pc, p.headerAddr(), 4);
        tr_.compute(s_spin.pc, 15);
    }
}

void
BTree::unlatchNode(Page &p)
{
    static const Site s_unlatch("btree.page_latch.release");
    static const Site s_spin("btree.page_latch.spin_word");
    if (cfg_.tuned) {
        EscapedRegion esc(tr_, s_unlatch.pc);
        tr_.latchRelease(s_unlatch.pc, pageLatch(p.hdr().id));
    } else {
        tr_.store(s_spin.pc, p.headerAddr(), 4);
        tr_.compute(s_spin.pc, 8);
    }
}

std::pair<unsigned, bool>
BTree::searchTraced(Page &p, BytesView key)
{
    static const Site s_hdr("btree.search.node_header");
    static const Site s_cmp("btree.search.key_compare");

    tr_.load(s_hdr.pc, p.headerAddr(), sizeof(PageHeader));
    tr_.compute(s_hdr.pc, 40);

    unsigned lo = 0, hi = p.slotCount();
    while (lo < hi) {
        unsigned mid = (lo + hi) / 2;
        tr_.load(s_cmp.pc, p.slotAddr(mid), 4);
        tr_.load(s_cmp.pc, p.cellAddr(mid),
                 std::min<std::size_t>(key.size() + 4, 32));
        int c = p.key(mid).compare(key);
        tr_.compute(s_cmp.pc,
                    cost::kSearchStep +
                        static_cast<unsigned>(key.size()) *
                            cost::kKeyMarshalPerByte / 4);
        tr_.branch(s_cmp.pc, c < 0);
        if (c < 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    bool found = lo < p.slotCount() && p.key(lo) == key;
    tr_.compute(s_cmp.pc, cost::kSearchStep);
    return {lo, found};
}

unsigned
BTree::routeSlot(Page &p, BytesView key)
{
    auto [idx, found] = searchTraced(p, key);
    if (found)
        return idx;
    if (idx == 0)
        panic("btree %s: key below the leftmost separator",
              name_.c_str());
    return idx - 1;
}

PageId
BTree::descendTraced(BytesView key)
{
    static const Site s_root("btree.descend.root_ptr");
    static const Site s_child("btree.descend.child_ptr");

    tr_.load(s_root.pc, &root_, sizeof(root_));
    tr_.compute(s_root.pc, cost::kDescendLevel);

    PageId pid = root_;
    bool dependent = false;
    for (;;) {
        Page p = pool_.fetch(pid, dependent);
        latchNode(p, false);
        if (p.leaf()) {
            unlatchNode(p);
            return pid;
        }
        unsigned slot = routeSlot(p, key);
        tr_.load(s_child.pc, p.cellAddr(slot), 16);
        tr_.compute(s_child.pc, cost::kDescendLevel);
        PageId child = p.childAt(slot);
        unlatchNode(p);
        pool_.unpin(pid);
        pid = child;
        dependent = true; // pointer chase from here on
    }
}

void
BTree::traceCellWrite(Page &p, unsigned idx, Pc pc)
{
    // Header (slot count / cell start) and the shifted slot-directory
    // region — the classic append-to-same-leaf dependence.
    tr_.store(pc, p.headerAddr(), 8);
    unsigned n = p.slotCount();
    unsigned shifted = (n > idx ? n - idx : 1) * 4;
    tr_.store(pc, p.slotAddr(idx), std::min(shifted, 64u));
    if (idx < n)
        tr_.store(pc, p.cellAddr(idx),
                  std::min<unsigned>(
                      static_cast<unsigned>(p.key(idx).size() +
                                            p.value(idx).size()) +
                          4,
                      96u));
}

// ---------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------

bool
BTree::get(BytesView key, Bytes *val)
{
    static const Site s_get("btree.get.leaf_read");
    PageId leaf = descendTraced(key);
    Page p = pool_.fetch(leaf, true);
    latchNode(p, false);
    auto [idx, found] = searchTraced(p, key);
    bool ok = false;
    if (found) {
        BytesView v = p.value(idx);
        tr_.load(s_get.pc, v.data(), v.size());
        tr_.compute(s_get.pc,
                    static_cast<unsigned>(v.size()) *
                        cost::kValMarshalPerByte);
        if (val)
            val->assign(v);
        ok = true;
    }
    unlatchNode(p);
    pool_.unpin(leaf);
    return ok;
}

bool
BTree::put(BytesView key, BytesView val, bool allow_update)
{
    if (Page::cellSize(static_cast<unsigned>(key.size()),
                       static_cast<unsigned>(val.size())) >
        kPageSize / 2 - 64) {
        fatal("btree %s: record too large (%zu + %zu bytes)",
              name_.c_str(), key.size(), val.size());
    }

    bool updated = false;
    bool inserted = false;
    SplitResult sr =
        insertRec(root_, key, val, allow_update, &updated, &inserted);
    if (sr.split) {
        static const Site s_newroot("btree.split.new_root");
        Page old_root(pool_.frameAddr(root_));
        PageId new_root =
            pool_.allocPage(old_root.hdr().level + 1);
        Page r = pool_.fetch(new_root);
        r.insert(0, BytesView{}, childBytes(root_));
        r.insert(1, sr.upKey, childBytes(sr.upChild));
        tr_.store(s_newroot.pc, r.headerAddr(), 32);
        root_ = new_root;
        tr_.store(s_newroot.pc, &root_, sizeof(root_));
        tr_.compute(s_newroot.pc, cost::kSplit / 4);
    }
    if (inserted)
        ++count_;
    return inserted || updated;
}

BTree::SplitResult
BTree::insertRec(PageId pid, BytesView key, BytesView val,
                 bool allow_update, bool *updated, bool *inserted)
{
    static const Site s_upd("btree.put.value_update");
    static const Site s_ins("btree.put.leaf_insert");
    static const Site s_child("btree.descend.child_ptr");
    static const Site s_pins("btree.put.parent_insert");

    Page p = pool_.fetch(pid, pid != root_);
    if (p.leaf()) {
        latchNode(p, true);
        auto [idx, found] = searchTraced(p, key);
        if (found) {
            if (!allow_update) {
                unlatchNode(p);
                pool_.unpin(pid);
                return {};
            }
            tr_.store(s_upd.pc, p.cellAddr(idx),
                      std::min<unsigned>(
                          static_cast<unsigned>(val.size()) + 4, 96u));
            tr_.compute(s_upd.pc,
                        cost::kLeafOp +
                            static_cast<unsigned>(val.size()) *
                                cost::kValMarshalPerByte);
            if (p.updateValue(idx, val)) {
                *updated = true;
                unlatchNode(p);
                pool_.unpin(pid);
                return {};
            }
            // No room for the bigger value: replace = remove + insert
            // (with a possible split below).
            p.remove(idx);
            --count_; // re-counted by the insert path
        }
        tr_.compute(s_ins.pc,
                    cost::kLeafOp +
                        static_cast<unsigned>(key.size() + val.size()) *
                            cost::kValMarshalPerByte);
        if (p.fits(static_cast<unsigned>(key.size()),
                   static_cast<unsigned>(val.size()))) {
            p.insert(idx, key, val);
            traceCellWrite(p, idx, s_ins.pc);
            *inserted = true;
            unlatchNode(p);
            pool_.unpin(pid);
            return {};
        }
        SplitResult sr = splitAndInsert(p, pid, idx, key, val);
        *inserted = true;
        unlatchNode(p);
        pool_.unpin(pid);
        return sr;
    }

    // Internal node: route and recurse.
    latchNode(p, false);
    unsigned slot = routeSlot(p, key);
    tr_.load(s_child.pc, p.cellAddr(slot), 16);
    tr_.compute(s_child.pc, cost::kDescendLevel);
    PageId child = p.childAt(slot);
    unlatchNode(p);

    SplitResult below =
        insertRec(child, key, val, allow_update, updated, inserted);
    if (!below.split) {
        pool_.unpin(pid);
        return {};
    }

    // Insert the new separator produced by the child split.
    latchNode(p, true);
    auto [cidx, cfound] = searchTraced(p, below.upKey);
    if (cfound)
        panic("btree %s: duplicate separator after split",
              name_.c_str());
    Bytes cb = childBytes(below.upChild);
    tr_.compute(s_pins.pc, cost::kLeafOp);
    SplitResult sr;
    if (p.fits(static_cast<unsigned>(below.upKey.size()),
               static_cast<unsigned>(cb.size()))) {
        p.insert(cidx, below.upKey, cb);
        traceCellWrite(p, cidx, s_pins.pc);
    } else {
        sr = splitAndInsert(p, pid, cidx, below.upKey, cb);
    }
    unlatchNode(p);
    pool_.unpin(pid);
    return sr;
}

BTree::SplitResult
BTree::splitAndInsert(Page &p, PageId pid, unsigned idx, BytesView key,
                      BytesView val)
{
    static const Site s_split("btree.split.distribute");
    (void)pid;

    // Choose the split point by *bytes*, over the combined sequence of
    // the page's cells with the new record virtually inserted at
    // `idx`: with mixed cell sizes a split by slot count can leave one
    // half unable to hold the new record.
    unsigned n = p.slotCount();
    std::vector<unsigned> sizes;
    sizes.reserve(n + 1);
    for (unsigned j = 0; j < n; ++j) {
        if (j == idx)
            sizes.push_back(
                Page::cellSize(static_cast<unsigned>(key.size()),
                               static_cast<unsigned>(val.size())));
        sizes.push_back(Page::cellSize(
            static_cast<unsigned>(p.key(j).size()),
            static_cast<unsigned>(p.value(j).size())));
    }
    if (idx == n)
        sizes.push_back(
            Page::cellSize(static_cast<unsigned>(key.size()),
                           static_cast<unsigned>(val.size())));

    const unsigned usable = kPageSize - sizeof(PageHeader);
    unsigned total = 0;
    for (unsigned s : sizes)
        total += s;

    unsigned best_k = 0;
    unsigned best_skew = ~0u;
    unsigned left = 0;
    for (unsigned k = 1; k < sizes.size(); ++k) {
        left += sizes[k - 1];
        unsigned right = total - left;
        if (left > usable || right > usable)
            continue;
        unsigned skew = left > right ? left - right : right - left;
        if (skew < best_skew) {
            best_skew = skew;
            best_k = k;
        }
    }
    if (best_k == 0)
        panic("btree %s: no feasible split point (record too large?)",
              name_.c_str());

    PageId new_pid = pool_.allocPage(p.hdr().level);
    Page np = pool_.fetch(new_pid);

    // Old cells with combined index >= best_k move to the new page.
    unsigned old_move_start = best_k <= idx ? best_k : best_k - 1;
    for (unsigned j = old_move_start; j < n; ++j)
        np.insert(j - old_move_start, p.key(j), p.value(j));
    for (unsigned j = n; j-- > old_move_start;)
        p.remove(j);
    np.hdr().rightSib = p.hdr().rightSib;
    p.hdr().rightSib = new_pid;

    tr_.store(s_split.pc, p.headerAddr(), 64);
    tr_.store(s_split.pc, np.headerAddr(), 64);
    tr_.compute(s_split.pc, cost::kSplit);

    Page &target = best_k <= idx ? np : p;
    unsigned tidx = best_k <= idx ? idx - old_move_start : idx;
    if (!target.fits(static_cast<unsigned>(key.size()),
                     static_cast<unsigned>(val.size())))
        panic("btree %s: record does not fit after split",
              name_.c_str());
    target.insert(tidx, key, val);
    traceCellWrite(target, tidx, s_split.pc);

    SplitResult sr;
    sr.split = true;
    sr.upKey = Bytes(np.key(0));
    sr.upChild = new_pid;
    return sr;
}

bool
BTree::erase(BytesView key)
{
    static const Site s_del("btree.erase.leaf_remove");
    PageId leaf = descendTraced(key);
    Page p = pool_.fetch(leaf, true);
    latchNode(p, true);
    auto [idx, found] = searchTraced(p, key);
    if (found) {
        p.remove(idx);
        traceCellWrite(p, idx < p.slotCount() ? idx : (idx ? idx - 1 : 0),
                       s_del.pc);
        tr_.compute(s_del.pc, cost::kLeafOp);
        --count_;
    }
    unlatchNode(p);
    pool_.unpin(leaf);
    return found;
}

// ---------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------

bool
BTree::Cursor::seek(BytesView key)
{
    static const Site s_seek("btree.cursor.seek");
    tree_.tr_.compute(s_seek.pc, cost::kCursorSetup);
    page_ = tree_.descendTraced(key);
    Page p = tree_.pool_.fetch(page_, true);
    auto [idx, found] = tree_.searchTraced(p, key);
    (void)found;
    idx_ = idx;
    valid_ = true;
    if (!skipToNonEmpty())
        return false;
    loadCurrent();
    return true;
}

bool
BTree::Cursor::skipToNonEmpty()
{
    static const Site s_sib("btree.cursor.next_leaf");
    for (;;) {
        Page p(tree_.pool_.frameAddr(page_));
        if (idx_ < p.slotCount())
            return true;
        tree_.tr_.load(s_sib.pc, p.headerAddr(), sizeof(PageHeader));
        PageId sib = p.hdr().rightSib;
        if (sib == kInvalidPage) {
            valid_ = false;
            return false;
        }
        tree_.pool_.fetch(sib, true);
        tree_.tr_.compute(s_sib.pc, cost::kFetchPage);
        page_ = sib;
        idx_ = 0;
    }
}

void
BTree::Cursor::loadCurrent()
{
    static const Site s_read("btree.cursor.read_record");
    Page p(tree_.pool_.frameAddr(page_));
    BytesView k = p.key(idx_);
    BytesView v = p.value(idx_);
    tree_.tr_.load(s_read.pc, p.slotAddr(idx_), 4);
    tree_.tr_.load(s_read.pc, k.data(), k.size());
    tree_.tr_.load(s_read.pc, v.data(), v.size());
    tree_.tr_.compute(s_read.pc,
                      cost::kSearchStep +
                          static_cast<unsigned>(k.size() + v.size()) *
                              cost::kValMarshalPerByte);
    key_.assign(k);
    val_.assign(v);
}

bool
BTree::Cursor::next()
{
    if (!valid_)
        return false;
    ++idx_;
    if (!skipToNonEmpty())
        return false;
    loadCurrent();
    return true;
}

// ---------------------------------------------------------------------
// Invariants (tests)
// ---------------------------------------------------------------------

namespace {

void
checkNode(const BufferPool &pool, PageId pid, const Bytes &lo,
          const Bytes *hi, unsigned level, std::uint64_t *count)
{
    Page p(const_cast<BufferPool &>(pool).frameAddr(pid));
    if (p.hdr().level != level)
        panic("btree invariant: page %u level %u, expected %u", pid,
              p.hdr().level, level);
    Bytes prev;
    bool have_prev = false;
    for (unsigned i = 0; i < p.slotCount(); ++i) {
        Bytes k(p.key(i));
        if (have_prev && !(prev < k))
            panic("btree invariant: page %u keys out of order at %u",
                  pid, i);
        if (i > 0 || level == 0) {
            // Separators may undercut their subtree, but every key
            // must respect the node's own bounds.
            if (k < lo)
                panic("btree invariant: page %u key below bound", pid);
        }
        if (hi && !(k < *hi))
            panic("btree invariant: page %u key above bound", pid);
        prev = std::move(k);
        have_prev = true;
        if (level == 0)
            ++*count;
    }
    if (level > 0) {
        for (unsigned i = 0; i < p.slotCount(); ++i) {
            Bytes child_lo = i == 0 ? lo : Bytes(p.key(i));
            Bytes next_sep;
            const Bytes *child_hi = hi;
            if (i + 1 < p.slotCount()) {
                next_sep = Bytes(p.key(i + 1));
                child_hi = &next_sep;
            }
            checkNode(pool, p.childAt(i), child_lo, child_hi, level - 1,
                      count);
        }
    }
}

} // namespace

void
BTree::checkInvariants() const
{
    Page root(const_cast<BufferPool &>(pool_).frameAddr(root_));
    std::uint64_t counted = 0;
    checkNode(pool_, root_, Bytes{}, nullptr, root.hdr().level,
              &counted);
    if (counted != count_)
        panic("btree %s invariant: %llu records counted, %llu expected",
              name_.c_str(), static_cast<unsigned long long>(counted),
              static_cast<unsigned long long>(count_));
}

} // namespace db
} // namespace tlsim
