#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "base/addr.h"
#include "core/site.h"
#include "core/traceindex.h"
#include "core/tracer.h"

namespace tlsim {
namespace {

constexpr unsigned kLineBytes = 32;

/** Words per cache line (mem_ holds 8-byte words). */
constexpr std::size_t kWordsPerLine = kLineBytes / 8;

class IndexBuilder
{
  public:
    IndexBuilder() : mem_(16384, 0)
    {
        pc_ = SiteRegistry::instance().intern("test.traceindex.site");
    }

    void *addr(std::size_t word) { return &mem_.at(word); }

    Addr lineOf(std::size_t word) const
    {
        return LineGeom(kLineBytes).lineNum(
            reinterpret_cast<Addr>(&mem_.at(word)));
    }

    WorkloadTrace
    loopTxn(const std::vector<std::function<void(Tracer &)>> &bodies)
    {
        Tracer::Options o;
        o.parallelMode = true;
        o.spawnOverheadInsts = 50;
        Tracer t(o);
        t.txnBegin();
        t.compute(pc_, 100);
        t.loopBegin();
        for (const auto &body : bodies) {
            t.iterBegin();
            body(t);
        }
        t.loopEnd();
        t.compute(pc_, 100);
        t.txnEnd();
        return t.takeWorkload();
    }

    Pc pc() const { return pc_; }

  private:
    std::vector<std::uint64_t> mem_;
    Pc pc_;
};

/** Distinct-line word indices (one line apart). */
std::size_t
word(std::size_t line_index)
{
    return line_index * kWordsPerLine;
}

TEST(TraceIndex, ClassifiesLinesBySharingPattern)
{
    IndexBuilder b;
    // Epoch 0: stores CONFLICT (word 100*4) and PRIVATE0, loads SHARED.
    // Epoch 1: loads CONFLICT (after an earlier epoch stored it),
    //          loads SHARED (no store anywhere), stores PRIVATE1.
    auto e0 = [&b](Tracer &t) {
        t.compute(b.pc(), 100);
        t.store(b.pc(), b.addr(word(100)), 8);
        t.store(b.pc(), b.addr(word(10)), 8);
        t.load(b.pc(), b.addr(word(50)), 8);
    };
    auto e1 = [&b](Tracer &t) {
        t.compute(b.pc(), 100);
        t.load(b.pc(), b.addr(word(100)), 8);
        t.load(b.pc(), b.addr(word(50)), 8);
        t.store(b.pc(), b.addr(word(20)), 8);
    };
    auto w = b.loopTxn({e0, e1});

    TraceIndex idx(w, kLineBytes);
    const TraceIndex::ClassTotals &t = idx.totals();
    EXPECT_EQ(t.conflict, 1u);     // CONFLICT line
    EXPECT_EQ(t.readShared, 1u);   // SHARED line
    EXPECT_EQ(t.epochPrivate, 2u); // PRIVATE0, PRIVATE1
    EXPECT_EQ(t.total(), 4u);
    EXPECT_EQ(idx.maxSectionLines(), 4u);
}

TEST(TraceIndex, StoreThenLaterEpochStoreIsConflict)
{
    IndexBuilder b;
    auto e0 = [&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(7)), 8);
    };
    auto e1 = [&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(7)), 8);
    };
    auto w = b.loopTxn({e0, e1});
    TraceIndex idx(w, kLineBytes);
    EXPECT_EQ(idx.totals().conflict, 1u);
    EXPECT_EQ(idx.totals().total(), 1u);
}

TEST(TraceIndex, CoveredBitTracksOwnEarlierStores)
{
    IndexBuilder b;
    auto e0 = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(word(5)), 8);  // exposed: no store yet
        t.store(b.pc(), b.addr(word(5)), 8); // covers the word
        t.load(b.pc(), b.addr(word(5)), 8);  // covered
        t.load(b.pc(), b.addr(word(5) + 1), 8); // other word: exposed
    };
    auto w = b.loopTxn({e0, e0});

    TraceIndex idx(w, kLineBytes);
    const EpochTrace &e =
        w.txns.at(0).sections.at(1).epochs.at(0);
    const EpochView *v = idx.viewOf(&e);
    ASSERT_NE(v, nullptr);

    std::vector<bool> covered;
    for (std::size_t i = 0; i < v->size(); ++i) {
        if (v->records[i].op == TraceOp::Load)
            covered.push_back((v->flags[i] & EpochView::kCovered) != 0);
    }
    ASSERT_EQ(covered.size(), 3u);
    EXPECT_FALSE(covered[0]);
    EXPECT_TRUE(covered[1]);
    EXPECT_FALSE(covered[2]);
}

TEST(TraceIndex, ViewReadsTheCapturedRecords)
{
    IndexBuilder b;
    auto body = [&b](Tracer &t) {
        t.compute(b.pc(), 500);
        t.load(b.pc(), b.addr(word(3)), 8, /*dependent=*/true);
        t.store(b.pc(), b.addr(word(3) + 2), 4);
        t.branch(b.pc(), true);
        t.escapeBegin(b.pc());
        t.latchAcquire(b.pc(), 17);
        t.compute(b.pc(), 50);
        t.latchRelease(b.pc(), 17);
        t.escapeEnd(b.pc());
        t.branch(b.pc(), false);
    };
    auto w = b.loopTxn({body, body});

    // The view is the captured records themselves (no copy) plus one
    // flag byte per record, set only on memory records.
    TraceIndex idx(w, kLineBytes);
    for (const auto &txn : w.txns) {
        for (const auto &sec : txn.sections) {
            for (const auto &e : sec.epochs) {
                const EpochView *v = idx.viewOf(&e);
                ASSERT_NE(v, nullptr);
                EXPECT_EQ(v->records.data(), e.records.data());
                ASSERT_EQ(v->size(), e.records.size());
                ASSERT_EQ(v->flags.size(), e.records.size());
                for (std::size_t i = 0; i < e.records.size(); ++i) {
                    TraceOp op = e.records[i].op;
                    if (op != TraceOp::Load && op != TraceOp::Store) {
                        EXPECT_EQ(v->flags[i], 0u);
                    }
                }
            }
        }
    }
}

TEST(TraceIndex, BuildCounterCountsOnlyFullAnalyses)
{
    IndexBuilder b;
    auto w = b.loopTxn({[&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(2)), 8);
    }});

    std::uint64_t before = TraceIndex::builds();
    TraceIndex idx(w, kLineBytes);
    EXPECT_EQ(TraceIndex::builds(), before + 1);

    std::stringstream ss;
    idx.save(ss);
    auto loaded = TraceIndex::load(ss, w, kLineBytes);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(TraceIndex::builds(), before + 1); // load is not a build
}

TEST(TraceIndex, SaveLoadRoundTripsAnalysis)
{
    IndexBuilder b;
    auto e0 = [&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(100)), 8);
        t.store(b.pc(), b.addr(word(100)), 8);
        t.load(b.pc(), b.addr(word(100)), 8); // covered after stores
    };
    auto e1 = [&b](Tracer &t) {
        t.compute(b.pc(), 10);
        t.load(b.pc(), b.addr(word(100)), 8); // exposed, conflict line
    };
    auto w = b.loopTxn({e0, e1});

    TraceIndex idx(w, kLineBytes);
    const EpochTrace &second = w.txns.at(0).sections.at(1).epochs.at(1);
    ASSERT_FALSE(idx.viewOf(&second)->riskOffsets.empty());
    std::stringstream ss;
    idx.save(ss);
    auto loaded = TraceIndex::load(ss, w, kLineBytes);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->matches(&w, kLineBytes));
    EXPECT_EQ(loaded->totals().conflict, idx.totals().conflict);
    EXPECT_EQ(loaded->totals().readShared, idx.totals().readShared);
    EXPECT_EQ(loaded->totals().epochPrivate,
              idx.totals().epochPrivate);
    EXPECT_EQ(loaded->maxSectionLines(), idx.maxSectionLines());

    for (const auto &txn : w.txns) {
        for (const auto &sec : txn.sections) {
            for (const auto &e : sec.epochs) {
                const EpochView *a = idx.viewOf(&e);
                const EpochView *l = loaded->viewOf(&e);
                EXPECT_EQ(l->records.data(), e.records.data());
                EXPECT_EQ(a->flags, l->flags);
                EXPECT_EQ(a->riskOffsets, l->riskOffsets);
            }
        }
    }
}

TEST(TraceIndex, LoadRejectsMismatchedLineSizeAndShape)
{
    IndexBuilder b;
    auto w = b.loopTxn({[&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(2)), 8);
    }});
    TraceIndex idx(w, kLineBytes);
    std::stringstream ss;
    idx.save(ss);
    EXPECT_EQ(TraceIndex::load(ss, w, 64), nullptr);

    auto other = b.loopTxn({[&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(2)), 8);
        t.store(b.pc(), b.addr(word(3)), 8);
    }});
    std::stringstream ss2;
    idx.save(ss2);
    EXPECT_EQ(TraceIndex::load(ss2, other, kLineBytes), nullptr);

    std::stringstream junk("not an index");
    EXPECT_EQ(TraceIndex::load(junk, w, kLineBytes), nullptr);
}

TEST(TraceIndex, LoadRejectsUnknownFlagBits)
{
    IndexBuilder b;
    auto w = b.loopTxn({[&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(2)), 8);
    }});
    TraceIndex idx(w, kLineBytes);
    std::stringstream ss;
    idx.save(ss);
    std::string bytes = ss.str();
    bytes.back() = 4; // the last record's flag byte: bit 2 is unused
    std::stringstream bad(bytes);
    EXPECT_EQ(TraceIndex::load(bad, w, kLineBytes), nullptr);
}

TEST(TraceIndex, ViewOfForeignEpochDies)
{
    IndexBuilder b;
    auto w = b.loopTxn({[&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(2)), 8);
    }});
    auto other = b.loopTxn({[&b](Tracer &t) {
        t.load(b.pc(), b.addr(word(2)), 8);
    }});
    TraceIndex idx(w, kLineBytes);
    const EpochTrace &foreign =
        other.txns.at(0).sections.at(1).epochs.at(0);
    EXPECT_DEATH(idx.viewOf(&foreign), "");
}

} // namespace
} // namespace tlsim
