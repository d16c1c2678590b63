#include "core/traceindex.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <vector>

#include "base/addr.h"
#include "base/lineset.h"
#include "base/log.h"
#include "base/narrow.h"

namespace tlsim {

namespace {

std::atomic<std::uint64_t> g_builds{0};

constexpr std::uint32_t kIndexMagic = 0x58494c54; // "TLIX"
constexpr std::uint32_t kIndexVersion = 1;
constexpr std::uint32_t kNoEpochIdx =
    std::numeric_limits<std::uint32_t>::max();

bool
isMemOp(TraceOp op)
{
    return op == TraceOp::Load || op == TraceOp::Store;
}

/**
 * Running state of the risk-offset scan (EpochView::riskOffsets) over
 * one epoch's records and flags. The machine's specInsts counts every
 * non-escaped record; escape brackets charge nothing.
 */
class RiskScan
{
  public:
    bool inEscape() const { return esc_; }

    /** Account record `r` (flags `f`), appending its offset to `out`
     *  if it is an exposed load of a conflict line. */
    void
    step(const TraceRecord &r, std::uint8_t f,
         std::vector<std::uint32_t> &out)
    {
        if (!esc_ && r.op == TraceOp::Load &&
            (f & (EpochView::kConflict | EpochView::kCovered)) ==
                EpochView::kConflict &&
            spec_ > 0) {
            auto at = checkedNarrow<std::uint32_t>(spec_);
            if (out.empty() || out.back() != at)
                out.push_back(at);
        }
        if (r.op == TraceOp::EscapeBegin)
            esc_ = true;
        else if (r.op == TraceOp::EscapeEnd)
            esc_ = false;
        else if (!esc_)
            spec_ += recordInsts(r);
    }

  private:
    bool esc_ = false;
    std::uint64_t spec_ = 0;
};

/**
 * Fold one non-escaped access into its epoch's own-store word masks
 * (`own` positions index `mask`). True iff it is a load those earlier
 * stores already cover.
 */
bool
coverStep(LineSet &own, std::vector<std::uint32_t> &mask, Addr line,
          std::uint32_t wm, bool store)
{
    if (store) {
        bool fresh = false;
        std::uint32_t at = own.index(line, &fresh);
        if (fresh)
            mask.push_back(0);
        mask[at] |= wm;
        return false;
    }
    std::uint32_t at = own.index(line);
    return at != LineSet::kAbsent && (wm & ~mask[at]) == 0;
}

template <typename T>
void
put(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
bool
get(std::istream &is, T *v)
{
    is.read(reinterpret_cast<char *>(v), sizeof(T));
    return static_cast<bool>(is);
}

} // namespace

std::uint64_t
TraceIndex::builds()
{
    return g_builds.load(std::memory_order_relaxed);
}

TraceIndex::TraceIndex(const WorkloadTrace &workload,
                       unsigned line_bytes, PrivateTag)
    : source_(&workload), sourceTxns_(workload.txns.data()),
      lineBytes_(line_bytes)
{
    if (!isPowerOf2(line_bytes))
        panic("TraceIndex: line size %u not a power of two",
              line_bytes);
    for (const TransactionTrace &txn : workload.txns) {
        for (const TraceSection &sec : txn.sections) {
            for (const EpochTrace &e : sec.epochs) {
                viewIdx_.emplace(
                    &e, checkedNarrow<std::uint32_t>(views_.size()));
                views_.emplace_back().records = e.records;
            }
        }
    }
}

TraceIndex::TraceIndex(const WorkloadTrace &workload,
                       unsigned line_bytes)
    : TraceIndex(workload, line_bytes, PrivateTag{})
{
    analyse();
    g_builds.fetch_add(1, std::memory_order_relaxed);
}

/**
 * The analysis pass. For each parallel section:
 *
 *  1. classify lines. A line is a conflict candidate iff some epoch i
 *     stores it (escaped stores included: they also drive the replay
 *     engine's violation scan) and some epoch j > i loads or stores
 *     it. Otherwise it is read-shared if several epochs touch it,
 *     epoch-private if only one does.
 *
 *  2. mark covered loads. Within one epoch, a non-escaped load is
 *     covered iff its word mask is a subset of the union of the word
 *     masks of the epoch's earlier non-escaped stores to the same
 *     line. This static union equals the dynamic own-thread SM union
 *     the SpecState merge computes at that record, under any rewind /
 *     escape-skip / oldest-transition history (see traceindex.h).
 *
 * The same per-record pass collects each epoch's risk offsets.
 */
void
TraceIndex::analyse()
{
    const LineGeom geom(lineBytes_);

    struct LineInfo
    {
        std::uint32_t minStore = kNoEpochIdx; ///< first storing epoch
        std::uint32_t firstEpoch = 0;         ///< first accessing epoch
        std::uint32_t lastEpoch = 0;          ///< last accessing epoch
        bool multi = false;                   ///< >1 accessing epoch
    };

    // Flat tables with parallel value arrays, reused across sections
    // and epochs; positions follow trace order, so the class totals
    // below are summed deterministically without sorting.
    LineSet lines;
    std::vector<LineInfo> info;
    LineSet own;
    std::vector<std::uint32_t> ownMask;

    std::size_t vi = 0; // views_ follow the same traversal order
    for (const TransactionTrace &txn : source_->txns) {
        for (const TraceSection &sec : txn.sections) {
            if (!sec.parallel) {
                for (const EpochTrace &e : sec.epochs)
                    views_[vi++].flags.assign(e.records.size(), 0);
                continue;
            }

            // Pass 1: per-line access summary across the epochs.
            lines.clear();
            info.clear();
            for (std::uint32_t ei = 0; ei < sec.epochs.size(); ++ei) {
                for (const TraceRecord &r : sec.epochs[ei].records) {
                    if (!isMemOp(r.op))
                        continue;
                    bool fresh = false;
                    std::uint32_t at =
                        lines.index(geom.lineNum(r.addr), &fresh);
                    if (fresh)
                        info.emplace_back();
                    LineInfo &li = info[at];
                    if (fresh)
                        li.firstEpoch = ei;
                    else if (li.firstEpoch != ei)
                        li.multi = true;
                    li.lastEpoch = ei;
                    if (r.op == TraceOp::Store)
                        li.minStore = std::min(li.minStore, ei);
                }
            }

            for (const LineInfo &li : info) {
                if (li.minStore != kNoEpochIdx &&
                    li.lastEpoch > li.minStore)
                    ++totals_.conflict;
                else if (li.multi)
                    ++totals_.readShared;
                else
                    ++totals_.epochPrivate;
            }
            maxSectionLines_ =
                std::max(maxSectionLines_, lines.size());

            // Pass 2: per-record flags and risk offsets.
            for (const EpochTrace &e : sec.epochs) {
                EpochView &v = views_[vi++];
                v.flags.assign(e.records.size(), 0);
                own.clear();
                ownMask.clear();
                RiskScan scan;
                for (std::size_t i = 0; i < e.records.size(); ++i) {
                    const TraceRecord &r = e.records[i];
                    if (isMemOp(r.op)) {
                        Addr line = geom.lineNum(r.addr);
                        const LineInfo &li = info[lines.index(line)];
                        if (li.minStore != kNoEpochIdx &&
                            li.lastEpoch > li.minStore)
                            v.flags[i] |= EpochView::kConflict;
                        // Escaped accesses never touch SM.
                        if (!scan.inEscape() &&
                            coverStep(own, ownMask, line,
                                      geom.wordMask(r.addr, r.size),
                                      r.op == TraceOp::Store))
                            v.flags[i] |= EpochView::kCovered;
                    }
                    scan.step(r, v.flags[i], v.riskOffsets);
                }
            }
        }
    }
}

const EpochView *
TraceIndex::viewOf(const EpochTrace *epoch) const
{
    auto it = viewIdx_.find(epoch);
    if (it == viewIdx_.end())
        panic("TraceIndex: epoch %p is not part of the indexed "
              "workload",
              static_cast<const void *>(epoch));
    return &views_[it->second];
}

// ---------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------

void
TraceIndex::save(std::ostream &os) const
{
    put<std::uint32_t>(os, kIndexMagic);
    put<std::uint32_t>(os, kIndexVersion);
    put<std::uint32_t>(os, lineBytes_);
    put<std::uint64_t>(os, totals_.epochPrivate);
    put<std::uint64_t>(os, totals_.readShared);
    put<std::uint64_t>(os, totals_.conflict);
    put<std::uint64_t>(os, maxSectionLines_);
    put<std::uint64_t>(os, views_.size());
    for (const EpochView &v : views_) {
        put<std::uint64_t>(os, v.size());
        os.write(reinterpret_cast<const char *>(v.flags.data()),
                 static_cast<std::streamsize>(v.flags.size()));
    }
}

std::unique_ptr<TraceIndex>
TraceIndex::load(std::istream &is, const WorkloadTrace &workload,
                 unsigned line_bytes)
{
    std::uint32_t magic = 0, version = 0, lb = 0;
    if (!get(is, &magic) || !get(is, &version) || !get(is, &lb) ||
        magic != kIndexMagic || version != kIndexVersion ||
        lb != line_bytes)
        return nullptr;

    std::unique_ptr<TraceIndex> idx(
        new TraceIndex(workload, line_bytes, PrivateTag{}));
    std::uint64_t epoch_count = 0;
    if (!get(is, &idx->totals_.epochPrivate) ||
        !get(is, &idx->totals_.readShared) ||
        !get(is, &idx->totals_.conflict))
        return nullptr;
    std::uint64_t msl = 0;
    if (!get(is, &msl) || !get(is, &epoch_count))
        return nullptr;
    idx->maxSectionLines_ = static_cast<std::size_t>(msl);

    if (epoch_count != idx->views_.size()) {
        inform("trace index: epoch count %llu does not match the "
               "workload's %zu, rebuilding",
               static_cast<unsigned long long>(epoch_count),
               idx->views_.size());
        return nullptr;
    }

    for (std::size_t ei = 0; ei < idx->views_.size(); ++ei) {
        EpochView &v = idx->views_[ei];
        std::uint64_t n = 0;
        if (!get(is, &n) || n != v.size()) {
            inform("trace index: record shape mismatch at epoch %zu, "
                   "rebuilding",
                   ei);
            return nullptr;
        }
        v.flags.resize(v.size());
        is.read(reinterpret_cast<char *>(v.flags.data()),
                static_cast<std::streamsize>(n));
        if (!is)
            return nullptr;
        RiskScan scan;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (v.flags[i] & ~(EpochView::kConflict | EpochView::kCovered))
                return nullptr;
            scan.step(v.records[i], v.flags[i], v.riskOffsets);
        }
    }
    return idx;
}

void
TraceIndex::saveFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot write trace index file %s", path.c_str());
    save(os);
    if (!os)
        fatal("error writing trace index file %s", path.c_str());
}

std::unique_ptr<TraceIndex>
TraceIndex::loadFile(const std::string &path,
                     const WorkloadTrace &workload,
                     unsigned line_bytes)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return nullptr;
    return load(is, workload, line_bytes);
}

} // namespace tlsim
