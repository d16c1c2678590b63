#include "core/traceindex.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <unordered_map>

#include "base/addr.h"
#include "base/detorder.h"
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

/** Epochs of a workload in deterministic traversal order. */
std::vector<const EpochTrace *>
epochsInOrder(const WorkloadTrace &w)
{
    std::vector<const EpochTrace *> out;
    for (const TransactionTrace &txn : w.txns)
        for (const TraceSection &sec : txn.sections)
            for (const EpochTrace &e : sec.epochs)
                out.push_back(&e);
    return out;
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
}

TraceIndex::TraceIndex(const WorkloadTrace &workload,
                       unsigned line_bytes)
    : TraceIndex(workload, line_bytes, PrivateTag{})
{
    EpochFlags flags;
    analyse(flags);
    pack(flags);
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
 */
void
TraceIndex::analyse(EpochFlags &flags)
{
    const LineGeom geom(lineBytes_);

    struct LineInfo
    {
        std::uint32_t minStore = kNoEpochIdx; ///< first storing epoch
        std::uint32_t firstEpoch = 0;         ///< first accessing epoch
        std::uint32_t lastEpoch = 0;          ///< last accessing epoch
        bool multi = false;                   ///< >1 accessing epoch
    };

    std::unordered_map<Addr, LineInfo> lines;
    std::unordered_map<Addr, std::uint32_t> own;

    for (const TransactionTrace &txn : source_->txns) {
        for (const TraceSection &sec : txn.sections) {
            if (!sec.parallel) {
                for (const EpochTrace &e : sec.epochs)
                    flags.emplace_back(e.records.size(), 0);
                continue;
            }

            // Pass 1: per-line access summary across the epochs.
            lines.clear();
            for (std::uint32_t ei = 0; ei < sec.epochs.size(); ++ei) {
                for (const TraceRecord &r : sec.epochs[ei].records) {
                    if (!isMemOp(r.op))
                        continue;
                    Addr line = geom.lineNum(r.addr);
                    auto [it, fresh] = lines.try_emplace(line);
                    LineInfo &li = it->second;
                    if (fresh)
                        li.firstEpoch = ei;
                    else if (li.firstEpoch != ei)
                        li.multi = true;
                    li.lastEpoch = ei;
                    if (r.op == TraceOp::Store)
                        li.minStore = std::min(li.minStore, ei);
                }
            }

            for (const auto &[line, li] : det::OrderedView(lines)) {
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

            // Pass 2: per-record flags.
            for (const EpochTrace &e : sec.epochs) {
                flags.emplace_back(e.records.size(), 0);
                std::vector<std::uint8_t> &f = flags.back();
                own.clear();
                bool esc = false;
                for (std::size_t i = 0; i < e.records.size(); ++i) {
                    const TraceRecord &r = e.records[i];
                    if (r.op == TraceOp::EscapeBegin) {
                        esc = true;
                        continue;
                    }
                    if (r.op == TraceOp::EscapeEnd) {
                        esc = false;
                        continue;
                    }
                    if (!isMemOp(r.op))
                        continue;
                    Addr line = geom.lineNum(r.addr);
                    const LineInfo &li = lines.at(line);
                    if (li.minStore != kNoEpochIdx &&
                        li.lastEpoch > li.minStore)
                        f[i] |= 1; // conflict candidate
                    if (esc)
                        continue;
                    std::uint32_t wm = geom.wordMask(r.addr, r.size);
                    if (r.op == TraceOp::Store) {
                        own[line] |= wm;
                    } else {
                        auto it = own.find(line);
                        if (it != own.end() &&
                            (wm & ~it->second) == 0)
                            f[i] |= 2; // covered load
                    }
                }
            }
        }
    }
}

void
TraceIndex::pack(const EpochFlags &flags)
{
    std::vector<const EpochTrace *> epochs = epochsInOrder(*source_);
    if (flags.size() != epochs.size())
        panic("TraceIndex: flag set covers %zu epochs, workload has "
              "%zu",
              flags.size(), epochs.size());

    const LineGeom geom(lineBytes_);
    views_.resize(epochs.size());
    viewIdx_.reserve(epochs.size());

    for (std::size_t ei = 0; ei < epochs.size(); ++ei) {
        const EpochTrace &e = *epochs[ei];
        const std::vector<std::uint8_t> &f = flags[ei];
        EpochView &v = views_[ei];
        const std::size_t n = e.records.size();

        std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
        for (const TraceRecord &r : e.records)
            if (isMemOp(r.op))
                base = std::min(base, r.addr);
        v.addrBase =
            base == std::numeric_limits<std::uint64_t>::max() ? 0
                                                              : base;

        v.head.resize(n);
        v.pc.resize(n);
        v.addr32.resize(n);
        std::vector<Addr> fp;
        bool esc = false;
        std::uint64_t spec = 0; // machine's specInsts before record i

        for (std::size_t i = 0; i < n; ++i) {
            const TraceRecord &r = e.records[i];
            if (!esc && r.op == TraceOp::Load && (f[i] & 1) &&
                !(f[i] & 2) && spec > 0 &&
                (v.riskOffsets.empty() ||
                 v.riskOffsets.back() !=
                     checkedNarrow<std::uint32_t>(spec)))
                v.riskOffsets.push_back(
                    checkedNarrow<std::uint32_t>(spec));
            if (r.size > EpochView::kSizeMask)
                panic("TraceIndex: record size %u exceeds the packed "
                      "head's 7-bit field",
                      r.size);
            // Widening packs: brace-init is narrowing-proof by
            // language rule, so a future field growth fails to
            // compile instead of silently truncating.
            std::uint32_t head =
                (static_cast<unsigned>(r.op) & EpochView::kOpMask) |
                (std::uint32_t{r.size} << EpochView::kSizeShift) |
                (std::uint32_t{r.aux} << EpochView::kAuxShift);
            if (f[i] & 1)
                head |= EpochView::kConflictBit;
            if (f[i] & 2)
                head |= EpochView::kCoveredBit;

            std::uint64_t raw =
                isMemOp(r.op) ? r.addr - v.addrBase : r.addr;
            if (raw > std::numeric_limits<std::uint32_t>::max()) {
                head |= EpochView::kWideBit;
                v.addr32[i] =
                    checkedNarrow<std::uint32_t>(v.wide.size());
                v.wide.push_back(r.addr);
            } else {
                v.addr32[i] = checkedNarrow<std::uint32_t>(raw);
            }
            v.head[i] = head;
            v.pc[i] = r.pc;

            if (r.op == TraceOp::EscapeBegin) {
                esc = true;
            } else if (r.op == TraceOp::EscapeEnd) {
                esc = false; // brackets charge no speculative insts
            } else if (!esc) {
                if (isMemOp(r.op))
                    fp.push_back(geom.lineNum(r.addr));
                spec += recordInsts(r);
            }
        }

        std::sort(fp.begin(), fp.end());
        fp.erase(std::unique(fp.begin(), fp.end()), fp.end());
        v.footprint = std::move(fp);
        viewIdx_.emplace(&e, checkedNarrow<std::uint32_t>(ei));
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
    std::vector<std::uint8_t> buf;
    for (const EpochView &v : views_) {
        put<std::uint64_t>(os, v.size());
        buf.resize(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            buf[i] = checkedNarrow<std::uint8_t>((v.head[i] >> 11) & 3);
        os.write(reinterpret_cast<const char *>(buf.data()),
                 static_cast<std::streamsize>(buf.size()));
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

    std::vector<const EpochTrace *> epochs = epochsInOrder(workload);
    if (epoch_count != epochs.size()) {
        inform("trace index: epoch count %llu does not match the "
               "workload's %zu, rebuilding",
               static_cast<unsigned long long>(epoch_count),
               epochs.size());
        return nullptr;
    }

    EpochFlags flags(epochs.size());
    for (std::size_t ei = 0; ei < epochs.size(); ++ei) {
        std::uint64_t n = 0;
        if (!get(is, &n) || n != epochs[ei]->records.size()) {
            inform("trace index: record shape mismatch at epoch %zu, "
                   "rebuilding",
                   ei);
            return nullptr;
        }
        flags[ei].resize(n);
        is.read(reinterpret_cast<char *>(flags[ei].data()),
                static_cast<std::streamsize>(n));
        if (!is)
            return nullptr;
        for (std::uint8_t b : flags[ei])
            if (b & ~std::uint8_t{3})
                return nullptr;
    }

    idx->pack(flags);
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
