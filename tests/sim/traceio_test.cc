#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <streambuf>

#include "base/dethash.h"
#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"
#include "sim/traceio.h"
#include "sim/varint.h"

namespace tlsim {
namespace sim {
namespace {

WorkloadTrace
sampleWorkload(std::vector<std::uint64_t> &mem)
{
    Pc pc = SiteRegistry::instance().intern("traceio.test.site");
    Tracer::Options o;
    o.parallelMode = true;
    Tracer t(o);
    t.txnBegin();
    t.compute(pc, 500);
    t.loopBegin();
    for (int e = 0; e < 3; ++e) {
        t.iterBegin();
        t.compute(pc, 1000);
        t.load(pc, &mem[e], 8, e == 1);
        t.escapeBegin(pc);
        t.latchAcquire(pc, 5);
        t.compute(pc, 100);
        t.latchRelease(pc, 5);
        t.escapeEnd(pc);
        t.store(pc, &mem[100 + e], 8);
        t.branch(pc, true);
    }
    t.loopEnd();
    t.txnEnd();
    return t.takeWorkload();
}

bool
tracesEqual(const WorkloadTrace &a, const WorkloadTrace &b)
{
    if (a.txns.size() != b.txns.size())
        return false;
    for (std::size_t t = 0; t < a.txns.size(); ++t) {
        const auto &ta = a.txns[t], &tb = b.txns[t];
        if (ta.sections.size() != tb.sections.size())
            return false;
        for (std::size_t s = 0; s < ta.sections.size(); ++s) {
            const auto &sa = ta.sections[s], &sb = tb.sections[s];
            if (sa.parallel != sb.parallel ||
                sa.epochs.size() != sb.epochs.size())
                return false;
            for (std::size_t e = 0; e < sa.epochs.size(); ++e) {
                const auto &ea = sa.epochs[e], &eb = sb.epochs[e];
                if (ea.instCount != eb.instCount ||
                    ea.specInstCount != eb.specInstCount ||
                    ea.escapeSpans != eb.escapeSpans ||
                    ea.records.size() != eb.records.size())
                    return false;
                for (std::size_t r = 0; r < ea.records.size(); ++r) {
                    const auto &ra = ea.records[r];
                    const auto &rb = eb.records[r];
                    if (std::memcmp(&ra, &rb, sizeof(ra)) != 0)
                        return false;
                }
            }
        }
    }
    return true;
}



TEST(TraceIo, ReplayOfReloadedTraceMatches)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    std::stringstream ss;
    saveTrace(ss, w);
    WorkloadTrace back;
    ASSERT_TRUE(loadTrace(ss, &back));

    MachineConfig cfg;
    TlsMachine m(cfg);
    RunResult a = m.run(w, ExecMode::Tls);
    RunResult b = m.run(back, ExecMode::Tls);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.primaryViolations, b.primaryViolations);
    EXPECT_EQ(a.totalInsts, b.totalInsts);
}

TEST(TraceIo, RejectsForeignFiles)
{
    std::stringstream ss;
    ss << "this is not a trace file at all";
    WorkloadTrace out;
    EXPECT_FALSE(loadTrace(ss, &out));
}

TEST(TraceIo, RejectsWrongVersion)
{
    std::stringstream ss;
    std::uint32_t magic = kTraceMagic, version = kTraceVersion + 1;
    ss.write(reinterpret_cast<char *>(&magic), 4);
    ss.write(reinterpret_cast<char *>(&version), 4);
    WorkloadTrace out;
    EXPECT_FALSE(loadTrace(ss, &out));
}

TEST(TraceIo, FileRoundTrip)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    std::string path = ::testing::TempDir() + "/tlsim_test.trace";
    saveTraceFile(path, w);
    WorkloadTrace back;
    ASSERT_TRUE(loadTraceFile(path, &back));
    EXPECT_TRUE(tracesEqual(w, back));
    std::remove(path.c_str());
}

TEST(TraceIo, SiteNamesSurviveSerialization)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    std::stringstream ss;
    saveTrace(ss, w);
    WorkloadTrace back;
    ASSERT_TRUE(loadTrace(ss, &back));
    // Same process: the remap is the identity, and the PC still
    // resolves to the interned name.
    Pc pc = back.txns[0].sections[0].epochs[0].records[0].pc;
    EXPECT_EQ(SiteRegistry::instance().name(pc), "traceio.test.site");
}

// --- Loader hardening: structurally malformed files are rejected with
// a clear error, not loaded (and not a crash). The writer serializes
// in-memory structs verbatim, so corrupting the struct before saveTrace
// produces a byte-stream with exactly the targeted defect. ------------

/** Save `w` and expect the loader to reject it. */
void
expectRejected(WorkloadTrace &w)
{
    std::stringstream ss;
    saveTrace(ss, w);
    WorkloadTrace out;
    EXPECT_FALSE(loadTrace(ss, &out));
}

EpochTrace &
firstParallelEpoch(WorkloadTrace &w)
{
    return w.txns.at(0).sections.at(1).epochs.at(0);
}

TEST(TraceIo, RejectsUnknownOpcode)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    firstParallelEpoch(w).records[0].op = static_cast<TraceOp>(200);
    expectRejected(w);
}

TEST(TraceIo, RejectsMemoryRecordSizeOutOfRange)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    for (auto &r : firstParallelEpoch(w).records) {
        if (r.op == TraceOp::Load) {
            r.size = 0; // memory ops must touch 1..128 bytes
            break;
        }
    }
    expectRejected(w);

    WorkloadTrace w2 = sampleWorkload(mem);
    for (auto &r : firstParallelEpoch(w2).records) {
        if (r.op == TraceOp::Store) {
            r.size = 200;
            break;
        }
    }
    expectRejected(w2);
}

TEST(TraceIo, RejectsOutOfBoundsEscapeSpan)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    ASSERT_FALSE(e.escapeSpans.empty());
    e.escapeSpans[0].second =
        static_cast<std::uint32_t>(e.records.size()); // one past end
    expectRejected(w);
}

TEST(TraceIo, RejectsInvertedEscapeSpan)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    ASSERT_FALSE(e.escapeSpans.empty());
    std::swap(e.escapeSpans[0].first, e.escapeSpans[0].second);
    expectRejected(w);
}

TEST(TraceIo, RejectsOverlappingEscapeSpans)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    ASSERT_FALSE(e.escapeSpans.empty());
    // Duplicate the first span: the second copy starts at (not after)
    // the previous end, violating the strict ordering invariant.
    e.escapeSpans.push_back(e.escapeSpans[0]);
    expectRejected(w);
}

TEST(TraceIo, RejectsUnanchoredEscapeSpan)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    ASSERT_FALSE(e.escapeSpans.empty());
    // Shift the span off its EscapeBegin/EscapeEnd records.
    ASSERT_GT(e.escapeSpans[0].first, 0u);
    --e.escapeSpans[0].first;
    --e.escapeSpans[0].second;
    expectRejected(w);
}

TEST(TraceIo, RejectsMoreSpansThanRecords)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    e.escapeSpans.assign(e.records.size() + 1, {0, 0});
    expectRejected(w);
}

// --- Golden bytes: the v4 encoding pinned independently of the
// writer's implementation. The workload is built by hand from fixed
// integers (no heap addresses, no tracer), so every build and every
// process encodes exactly the same bytes. ----------------------------

TraceRecord
rec(TraceOp op, std::uint8_t size, std::uint16_t aux, Pc pc,
    std::uint64_t addr)
{
    return TraceRecord{op, size, aux, pc, addr};
}

/**
 * Every opcode; small, negative and 2^64-wrapping address deltas; a
 * delta whose zigzag code needs all 10 varint bytes; addresses above
 * 2^32; an empty epoch, an empty parallel section and an empty
 * transaction; an epoch of several decode blocks; escape spans.
 */
WorkloadTrace
goldenWorkload()
{
    WorkloadTrace w;
    TransactionTrace txn;

    EpochTrace seq;
    seq.records = {
        rec(TraceOp::Compute, 0, 0, 0x10, 500),
        rec(TraceOp::Load, 8, 1 | (3 << kAuxInstShift), 0x11,
            0x00007f0000001000ull),
        rec(TraceOp::Store, 4, 2 << kAuxInstShift, 0x12,
            0x00007f0000000ff8ull), // negative delta
        rec(TraceOp::Branch, 0, kAuxTaken, 0x13, 0),
        rec(TraceOp::EscapeBegin, 0, 0, 0x14, 0),
        rec(TraceOp::LatchAcquire, 0, 0, 0x15, 17),
        rec(TraceOp::Load, 128, 0, 0x16, 0xfffffffffffffff0ull),
        rec(TraceOp::Store, 1, 0, 0x17, 0x10), // wraps past 2^64
        rec(TraceOp::LatchRelease, 0, 0, 0x18, 17),
        rec(TraceOp::EscapeEnd, 0, 0, 0x19, 0),
        // Delta 2^63 - 0x10: zigzag code >= 2^63, a 10-byte varint.
        rec(TraceOp::Load, 8, 0, 0x1a, 0x8000000000000000ull),
        rec(TraceOp::Compute, 0, static_cast<std::uint16_t>(
                                     ComputeClass::FpDiv),
            0x1b, 0xffffffffull),
    };
    seq.instCount = 1234;
    seq.specInstCount = 1200;
    seq.escapeSpans = {{4, 9}};
    TraceSection s0;
    s0.epochs.push_back(std::move(seq));
    txn.sections.push_back(std::move(s0));

    TraceSection par;
    par.parallel = true;
    par.epochs.emplace_back(); // empty epoch

    // A long epoch: 300 records cross several 64-record blocks. A
    // fixed LCG mixes 1-byte, multi-byte and negative deltas.
    EpochTrace big;
    std::uint64_t x = 0x2545f4914f6cdd1dull, addr = 0x5500000000ull;
    for (unsigned i = 0; i < 300; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::uint64_t step = (x >> 33) & 0xff;
        if (i % 7 == 3)
            addr -= step * 64; // backwards
        else if (i % 11 == 5)
            addr += (x >> 20) & 0xffffff; // 3-4 byte varint
        else
            addr += step & 0x38;
        TraceOp op = i % 3 == 0 ? TraceOp::Store : TraceOp::Load;
        big.records.push_back(rec(op, 8, 1 << kAuxInstShift,
                                  static_cast<Pc>(0x20 + i % 5),
                                  addr));
    }
    big.instCount = big.specInstCount = 300;
    par.epochs.push_back(std::move(big));

    EpochTrace spans;
    spans.records = {
        rec(TraceOp::EscapeBegin, 0, 0, 0x30, 0),
        rec(TraceOp::EscapeEnd, 0, 0, 0x31, 0),
        rec(TraceOp::Load, 16, 0, 0x32, 0x100000000ull),
        rec(TraceOp::EscapeBegin, 0, 0, 0x33, 0),
        rec(TraceOp::Store, 2, 0, 0x34, 0xfffffffeull),
        rec(TraceOp::EscapeEnd, 0, 0, 0x35, 0),
    };
    spans.instCount = 20;
    spans.specInstCount = 2;
    spans.escapeSpans = {{0, 1}, {3, 5}};
    par.epochs.push_back(std::move(spans));
    txn.sections.push_back(std::move(par));

    TraceSection no_epochs;
    no_epochs.parallel = true;
    txn.sections.push_back(std::move(no_epochs));

    w.txns.push_back(std::move(txn));
    w.txns.emplace_back(); // a transaction with no sections
    return w;
}

/**
 * The bytes after the site-name table. The table is the writer's
 * whole SiteRegistry, whose contents depend on what else the process
 * has interned; everything past it is a function of the workload.
 */
std::string
bodyBytes(const std::string &file)
{
    std::size_t pos = 8; // magic + version
    auto u64 = [&](std::uint64_t *v) {
        std::memcpy(v, file.data() + pos, 8);
        pos += 8;
    };
    std::uint64_t sites = 0;
    u64(&sites);
    for (std::uint64_t i = 0; i < sites; ++i) {
        std::uint32_t len = 0;
        std::memcpy(&len, file.data() + pos, 4);
        pos += 4 + len;
    }
    return file.substr(pos);
}

// The pin was taken with the earlier writer, which issued one stream
// write per field and per varint byte; the buffered encoder must
// reproduce it byte for byte.
TEST(TraceIoGolden, V4EncodingIsPinned)
{
    std::stringstream ss;
    saveTrace(ss, goldenWorkload());
    std::string file = ss.str();
    std::uint32_t magic = 0, version = 0;
    std::memcpy(&magic, file.data(), 4);
    std::memcpy(&version, file.data() + 4, 4);
    EXPECT_EQ(magic, kTraceMagic);
    EXPECT_EQ(version, 4u);

    std::string body = bodyBytes(file);
    det::Hash h;
    h.bytes(body.data(), body.size());
    EXPECT_EQ(body.size(), std::size_t{3244});
    EXPECT_EQ(h.hex(), "c5ac4fe7774a185b");
}

TEST(TraceIo, RoundTripIsLossless)
{
    std::vector<std::uint64_t> mem(256);
    for (const WorkloadTrace &w : {sampleWorkload(mem), goldenWorkload()}) {
        std::stringstream ss;
        saveTrace(ss, w);
        WorkloadTrace back;
        ASSERT_TRUE(loadTrace(ss, &back));
        EXPECT_TRUE(tracesEqual(w, back));
    }
}

// --- The decoder reads through one window over the stream. These pin
// its stream-level contract: streams that cannot seek load too, and a
// seekable stream is left exactly at the end of the trace. -----------

/** A read-only streambuf with no seek support (like a pipe). */
class PipeBuf : public std::streambuf
{
  public:
    explicit PipeBuf(std::string data) : data_(std::move(data))
    {
        char *p = data_.data();
        setg(p, p, p + data_.size());
    }

  private:
    std::string data_;
};

TEST(TraceIo, LoadsFromAStreamThatCannotSeek)
{
    WorkloadTrace w = goldenWorkload();
    std::stringstream ss;
    saveTrace(ss, w);
    PipeBuf buf(ss.str());
    std::istream is(&buf);
    ASSERT_EQ(is.tellg(), std::istream::pos_type(-1));
    WorkloadTrace back;
    ASSERT_TRUE(loadTrace(is, &back));
    EXPECT_TRUE(tracesEqual(w, back));
}

TEST(TraceIo, LeavesASeekableStreamAtTheTraceEnd)
{
    WorkloadTrace w = goldenWorkload();
    std::stringstream ss;
    saveTrace(ss, w);
    ss << "TAIL";
    WorkloadTrace back;
    ASSERT_TRUE(loadTrace(ss, &back));
    std::string rest;
    ss >> rest;
    EXPECT_EQ(rest, "TAIL");
}

/** A one-epoch, one-record trace whose address varint is `varint`. */
std::string
traceWithAddrVarint(const std::string &varint)
{
    std::string f;
    auto put = [&f](const auto &v) {
        f.append(reinterpret_cast<const char *>(&v), sizeof v);
    };
    put(kTraceMagic);
    put(kTraceVersion);
    put(std::uint64_t{0}); // no sites
    put(std::uint64_t{1}); // txns
    put(std::uint64_t{1}); // sections
    put(std::uint8_t{1});  // parallel
    put(std::uint64_t{1}); // epochs
    put(std::uint64_t{1}); // records
    put(static_cast<std::uint8_t>(TraceOp::Compute));
    put(std::uint8_t{0});   // size
    put(std::uint16_t{0});  // aux
    put(std::uint32_t{0});  // pc
    f += varint;
    put(std::uint64_t{1}); // instCount
    put(std::uint64_t{1}); // specInstCount
    put(std::uint64_t{0}); // escape spans
    return f;
}

TEST(TraceIo, RejectsMalformedAddressVarints)
{
    const std::string too_long(11, '\x80');
    const std::string overflow = std::string(9, '\xff') + '\x02';
    for (const std::string &bad : {too_long, overflow}) {
        std::stringstream ss(traceWithAddrVarint(bad));
        WorkloadTrace out;
        EXPECT_FALSE(loadTrace(ss, &out));
        PipeBuf buf(traceWithAddrVarint(bad));
        std::istream pipe(&buf);
        EXPECT_FALSE(loadTrace(pipe, &out));
    }
    // The largest legal 10-byte code still loads.
    std::stringstream ok(
        traceWithAddrVarint(std::string(9, '\xff') + '\x01'));
    WorkloadTrace out;
    ASSERT_TRUE(loadTrace(ok, &out));
    EXPECT_EQ(out.txns.at(0).sections.at(0).epochs.at(0).records.at(0)
                  .addr,
              static_cast<std::uint64_t>(varint::unzigzag(~0ull)));
}

TEST(TraceIoDeathTest, TruncatedFilePanics)
{
    std::stringstream ss;
    saveTrace(ss, goldenWorkload());
    std::string full = ss.str();
    std::size_t body = full.size() - bodyBytes(full).size();
    // Cuts inside the site table, a header, the address column, the
    // middle of the file and the final escape span.
    for (std::size_t cut : {std::size_t{12}, body + 4, body + 130,
                            full.size() / 2, full.size() - 1}) {
        std::stringstream part(full.substr(0, cut));
        WorkloadTrace out;
        EXPECT_DEATH(loadTrace(part, &out), "truncated") << cut;
    }
}

TEST(TraceIo, EmptyWorkloadRoundTrips)
{
    WorkloadTrace w;
    std::stringstream ss;
    saveTrace(ss, w);
    WorkloadTrace back;
    ASSERT_TRUE(loadTrace(ss, &back));
    EXPECT_TRUE(back.txns.empty());
}

} // namespace
} // namespace sim
} // namespace tlsim
