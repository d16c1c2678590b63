#include "sim/traceio.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "base/log.h"
#include "base/narrow.h"
#include "core/site.h"
#include "sim/varint.h"

namespace tlsim {
namespace sim {

namespace {

// ----- v4 columnar epoch encoding ------------------------------------
//
// Per epoch the record fields are stored as separate streams (all ops,
// then all sizes, ...) with the 64-bit addr column zigzag-varint coded
// as deltas from the previous record's addr. Heap addresses in a
// transaction are near-sequential, so most deltas fit in 1-2 bytes;
// the column shrinks from 8 bytes to ~1.3 per record.
//
// Both directions work on memory, not on the stream. The encoder
// appends each epoch's columns to one reused byte buffer and hands the
// buffer to the stream once it passes kFlushBytes (so at most one
// write per epoch). The decoder reads every field through one
// fixed-size window over the stream: fixed-width columns are copied
// straight out of it and the address column goes through
// varint::decodeBlock (the branchless batch decoder), refilling the
// window whenever a field runs past its end.

using Bytes = std::vector<std::uint8_t>;

/** Bytes the encoder gathers before handing them to the stream. */
constexpr std::size_t kFlushBytes = std::size_t{64} << 10;

template <typename T>
void
put(Bytes &out, const T &v)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(T));
}

/** Append `n` bytes to `out`; returns where they start. */
std::uint8_t *
grow(Bytes &out, std::size_t n)
{
    out.resize(out.size() + n);
    return out.data() + out.size() - n;
}

/** Append one fixed-width column: `field` of every record. */
template <typename Field>
void
putColumn(Bytes &out, const EpochTrace &e, Field TraceRecord::*field)
{
    std::uint8_t *p = grow(out, e.records.size() * sizeof(Field));
    for (const TraceRecord &r : e.records) {
        std::memcpy(p, &(r.*field), sizeof(Field));
        p += sizeof(Field);
    }
}

void
putEpoch(Bytes &out, const EpochTrace &e)
{
    put<std::uint64_t>(out, e.records.size());
    putColumn(out, e, &TraceRecord::op);
    putColumn(out, e, &TraceRecord::size);
    putColumn(out, e, &TraceRecord::aux);
    putColumn(out, e, &TraceRecord::pc);
    std::uint8_t *p = grow(out, e.records.size() * varint::kMaxBytes);
    Addr prev = 0;
    for (const TraceRecord &r : e.records) {
        // The delta wraps modulo 2^64 by design: the decoder's
        // matching unsigned addition reconstructs the exact address.
        std::uint64_t delta = r.addr - prev;
        p += varint::encode(
            p, varint::zigzag(static_cast<std::int64_t>(delta)));
        prev = r.addr;
    }
    out.resize(static_cast<std::size_t>(p - out.data()));
    put<std::uint64_t>(out, e.instCount);
    put<std::uint64_t>(out, e.specInstCount);
    put<std::uint64_t>(out, e.escapeSpans.size());
    for (auto [b, en] : e.escapeSpans) {
        put<std::uint32_t>(out, b);
        put<std::uint32_t>(out, en);
    }
}

void
flush(std::ostream &os, Bytes &out)
{
    os.write(reinterpret_cast<const char *>(out.data()),
             static_cast<std::streamsize>(out.size()));
    out.clear();
}

/**
 * The decoder's view of the stream: a fixed-size buffer refilled with
 * one bulk read whenever a field needs more bytes than it holds (the
 * unread bytes move to the front first). It reads ahead of the trace;
 * giveBack() returns the unread look-ahead once, at the end.
 */
class Window
{
  public:
    static constexpr std::size_t kBytes = std::size_t{64} << 10;

    explicit Window(std::istream &is) : is_(is), buf_(kBytes) {}

    const std::uint8_t *data() const { return buf_.data() + pos_; }
    std::size_t avail() const { return len_ - pos_; }
    void skip(std::size_t n) { pos_ += n; }

    /** Make `n` (<= kBytes) bytes available; false at end of stream. */
    bool
    fill(std::size_t n)
    {
        while (avail() < n) {
            std::memmove(buf_.data(), data(), avail());
            len_ = avail();
            pos_ = 0;
            is_.read(reinterpret_cast<char *>(buf_.data()) + len_,
                     static_cast<std::streamsize>(kBytes - len_));
            auto got = static_cast<std::size_t>(is_.gcount());
            if (got == 0)
                return false;
            len_ += got;
        }
        return true;
    }

    /** fill() that panics on truncation, like every trace read. */
    void
    need(std::size_t n)
    {
        if (!fill(n))
            panic("trace file truncated");
    }

    template <typename T>
    T
    get()
    {
        need(sizeof(T));
        T v;
        std::memcpy(&v, data(), sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    /**
     * Seek a seekable stream back to the end of the trace. A stream
     * that cannot seek keeps the look-ahead consumed.
     */
    void
    giveBack()
    {
        is_.clear();
        if (avail() == 0)
            return;
        is_.seekg(-static_cast<std::streamoff>(avail()), std::ios::cur);
        is_.clear();
    }

  private:
    std::istream &is_;
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0, len_ = 0;
};

/**
 * Copy the next `n` values of one fixed-width column into `field`,
 * checking each record with `valid` as it lands; false at the first
 * record `valid` rejects.
 */
template <typename Field, typename Valid>
bool
column(Window &win, std::size_t n, TraceRecord *recs,
       Field TraceRecord::*field, Valid valid)
{
    constexpr std::size_t w = sizeof(Field);
    for (std::size_t i = 0; i < n;) {
        win.need(w);
        std::size_t k = std::min(n - i, win.avail() / w);
        const std::uint8_t *src = win.data();
        for (std::size_t j = 0; j < k; ++j) {
            std::memcpy(&(recs[i + j].*field), src + j * w, w);
            if (!valid(recs[i + j]))
                return false;
        }
        win.skip(k * w);
        i += k;
    }
    return true;
}

// Record checks for column(): lambdas, so that each inlines into its
// copy loop.
const auto validOp = [](const TraceRecord &r) {
    auto op = static_cast<unsigned>(r.op);
    if (op <= static_cast<unsigned>(TraceOp::EscapeEnd))
        return true;
    inform("trace file rejected: bad opcode %u", op);
    return false;
};

const auto validSize = [](const TraceRecord &r) {
    if ((r.op != TraceOp::Load && r.op != TraceOp::Store) ||
        (r.size != 0 && r.size <= 128))
        return true;
    inform("trace file rejected: access size %u", r.size);
    return false;
};

const auto anyValue = [](const TraceRecord &) { return true; };

/** Report a malformed varint. */
bool
rejectVarint(varint::Status st)
{
    if (st == varint::Status::TooLong)
        inform("trace file rejected: varint longer than 10 bytes");
    else
        inform("trace file rejected: varint payload exceeds 64 bits");
    return false;
}

/**
 * Decode the epoch's address column: `n` zigzag varint deltas,
 * accumulated into `recs[i].addr`, in blocks of varint::kBlock. False
 * (after inform) on malformed input; panics on truncation.
 */
bool
getAddrColumn(Window &win, std::size_t n, TraceRecord *recs)
{
    Addr prev = 0;
    std::array<std::uint64_t, varint::kBlock> z;
    std::size_t done = 0;
    while (done < n) {
        std::size_t want =
            std::min<std::size_t>(varint::kBlock, n - done);
        std::size_t decoded = 0, used = 0;
        varint::Status st = varint::decodeBlock(
            win.data(), win.avail(), want, z.data(), &decoded, &used);
        win.skip(used);
        for (std::size_t i = 0; i < decoded; ++i) {
            prev += static_cast<std::uint64_t>(varint::unzigzag(z[i]));
            recs[done + i].addr = prev;
        }
        done += decoded;
        if (st == varint::Status::Ok)
            continue;
        if (st != varint::Status::NeedMore)
            return rejectVarint(st);
        // The window ends inside a varint: pull in the rest.
        win.need(win.avail() + 1);
    }
    return true;
}

/** Read one epoch; false (after inform) if structurally malformed. */
bool
getEpoch(Window &win, EpochTrace *out)
{
    EpochTrace e;
    auto n = win.get<std::uint64_t>();
    if (n > (std::uint64_t{1} << 32)) {
        inform("trace file rejected: %llu records in one epoch",
               static_cast<unsigned long long>(n));
        return false;
    }
    e.records.resize(n);
    TraceRecord *recs = e.records.data();
    if (!column(win, n, recs, &TraceRecord::op, validOp) ||
        !column(win, n, recs, &TraceRecord::size, validSize))
        return false;
    column(win, n, recs, &TraceRecord::aux, anyValue);
    column(win, n, recs, &TraceRecord::pc, anyValue);
    if (!getAddrColumn(win, n, recs))
        return false;
    e.instCount = win.get<std::uint64_t>();
    e.specInstCount = win.get<std::uint64_t>();
    auto spans = win.get<std::uint64_t>();
    if (spans > n) {
        inform("trace file rejected: %llu escape spans for %llu records",
               static_cast<unsigned long long>(spans),
               static_cast<unsigned long long>(n));
        return false;
    }
    std::uint64_t prev_end = 0;
    for (std::uint64_t i = 0; i < spans; ++i) {
        auto b = win.get<std::uint32_t>();
        auto en = win.get<std::uint32_t>();
        if (b > en || en >= n || (i > 0 && b <= prev_end)) {
            inform("trace file rejected: escape span [%u,%u] unordered "
                   "or out of bounds (%llu records)",
                   b, en, static_cast<unsigned long long>(n));
            return false;
        }
        if (e.records[b].op != TraceOp::EscapeBegin ||
            e.records[en].op != TraceOp::EscapeEnd) {
            inform("trace file rejected: escape span [%u,%u] not "
                   "anchored on EscapeBegin/EscapeEnd",
                   b, en);
            return false;
        }
        prev_end = en;
        e.escapeSpans.emplace_back(b, en);
    }
    *out = std::move(e);
    return true;
}

} // namespace

void
saveTrace(std::ostream &os, const WorkloadTrace &w)
{
    Bytes out;
    put<std::uint32_t>(out, kTraceMagic);
    put<std::uint32_t>(out, kTraceVersion);

    // Site-name table: the writer's full registry, in PC order.
    const auto &names = SiteRegistry::instance().allNames();
    put<std::uint64_t>(out, names.size());
    for (const std::string &n : names) {
        put<std::uint32_t>(out, checkedNarrow<std::uint32_t>(n.size()));
        out.insert(out.end(), n.begin(), n.end());
    }

    put<std::uint64_t>(out, w.txns.size());
    for (const TransactionTrace &txn : w.txns) {
        put<std::uint64_t>(out, txn.sections.size());
        for (const TraceSection &sec : txn.sections) {
            put<std::uint8_t>(out, sec.parallel ? 1 : 0);
            put<std::uint64_t>(out, sec.epochs.size());
            for (const EpochTrace &e : sec.epochs) {
                putEpoch(out, e);
                if (out.size() >= kFlushBytes)
                    flush(os, out);
            }
        }
    }
    flush(os, out);
}

bool
loadTrace(std::istream &is, WorkloadTrace *out)
{
    Window win(is);
    if (!win.fill(8))
        return false;
    auto magic = win.get<std::uint32_t>();
    auto version = win.get<std::uint32_t>();
    if (magic != kTraceMagic || version != kTraceVersion)
        return false;

    // Rebuild the writer's site table and map its PCs into this
    // process's registry (indices may differ).
    auto &reg = SiteRegistry::instance();
    std::unordered_map<Pc, Pc> remap;
    auto site_count = win.get<std::uint64_t>();
    if (site_count > 1'000'000) {
        inform("trace file rejected: %llu sites",
               static_cast<unsigned long long>(site_count));
        return false;
    }
    for (std::uint64_t i = 0; i < site_count; ++i) {
        auto len = win.get<std::uint32_t>();
        if (len > 4096) {
            inform("trace file rejected: site name of %u bytes", len);
            return false;
        }
        if (!win.fill(len))
            panic("trace file truncated in site table");
        std::string name(reinterpret_cast<const char *>(win.data()), len);
        win.skip(len);
        Pc writer_pc = SiteRegistry::pcOfIndex(i);
        Pc local_pc = reg.intern(name);
        if (writer_pc != local_pc)
            remap.emplace(writer_pc, local_pc);
    }

    WorkloadTrace w;
    auto txns = win.get<std::uint64_t>();
    for (std::uint64_t t = 0; t < txns; ++t) {
        TransactionTrace txn;
        auto secs = win.get<std::uint64_t>();
        for (std::uint64_t s = 0; s < secs; ++s) {
            TraceSection sec;
            sec.parallel = win.get<std::uint8_t>() != 0;
            auto epochs = win.get<std::uint64_t>();
            for (std::uint64_t e = 0; e < epochs; ++e) {
                EpochTrace et;
                if (!getEpoch(win, &et))
                    return false;
                if (!remap.empty()) {
                    for (TraceRecord &r : et.records) {
                        auto it = remap.find(r.pc);
                        if (it != remap.end())
                            r.pc = it->second;
                    }
                }
                sec.epochs.push_back(std::move(et));
            }
            txn.sections.push_back(std::move(sec));
        }
        w.txns.push_back(std::move(txn));
    }
    win.giveBack();
    *out = std::move(w);
    return true;
}

void
saveTraceFile(const std::string &path, const WorkloadTrace &w)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot write trace file %s", path.c_str());
    saveTrace(os, w);
    if (!os)
        fatal("error writing trace file %s", path.c_str());
}

bool
loadTraceFile(const std::string &path, WorkloadTrace *out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot read trace file %s", path.c_str());
    return loadTrace(is, out);
}

} // namespace sim
} // namespace tlsim
