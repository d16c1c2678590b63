#include "sim/tracecache.h"

#include <filesystem>
#include <memory>

#include "base/log.h"
#include "base/stats.h"
#include "base/sync.h"
#include "core/traceindex.h"
#include "sim/traceio.h"

namespace tlsim {
namespace sim {

namespace {

/** FNV-1a, accumulated field by field. */
struct KeyHash
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xFF;
            h *= 1099511628211ull;
        }
    }

    void
    mix(const char *s)
    {
        for (; *s; ++s) {
            h ^= static_cast<unsigned char>(*s);
            h *= 1099511628211ull;
        }
    }
};

void
mixScale(KeyHash &k, const tpcc::TpccConfig &scale)
{
    k.mix(scale.items);
    k.mix(scale.districts);
    k.mix(scale.customersPerDistrict);
    k.mix(scale.ordersPerDistrict);
    k.mix(scale.firstNewOrder);
}

std::string
fileStem(tpcc::TxnType type, const ExperimentConfig &cfg)
{
    std::string name = tpcc::txnTypeName(type);
    for (char &c : name)
        if (c == ' ')
            c = '_';
    return name + "-" + traceCacheKey(type, cfg);
}

} // namespace

std::string
traceCacheKey(tpcc::TxnType type, const ExperimentConfig &cfg)
{
    KeyHash k;
    k.mix(kTraceVersion);
    k.mix(tpcc::txnTypeName(type));
    mixScale(k, cfg.scale);
    k.mix(cfg.txns);
    k.mix(cfg.inputSeed);
    k.mix(cfg.loadSeed);
    k.mix(cfg.machine.tls.spawnOverheadInsts);
    return strfmt("%016llx", static_cast<unsigned long long>(k.h));
}

std::string
dbImagePath(const std::string &cache_dir, const ExperimentConfig &cfg)
{
    KeyHash k;
    k.mix(kTraceVersion);
    k.mix(tpcc::kDbImageVersion);
    mixScale(k, cfg.scale);
    k.mix(cfg.loadSeed);
    return (std::filesystem::path(cache_dir) /
            strfmt("TPCC-%016llx.db",
                   static_cast<unsigned long long>(k.h)))
        .string();
}

namespace {

/**
 * Attach pre-analysis indexes to freshly loaded/captured traces,
 * reusing the `.idx` files cached alongside the trace pair when they
 * match. Must run after `traces` holds its final workloads (the index
 * references its source workload by address).
 */
void
attachIndexes(BenchmarkTraces &traces, unsigned line_bytes,
              const std::string &stem)
{
    namespace fs = std::filesystem;
    std::string orig_path = stem + ".orig.idx";
    std::string tls_path = stem + ".tls.idx";

    if (fs::exists(orig_path))
        traces.originalIndex = TraceIndex::loadFile(
            orig_path, traces.original, line_bytes);
    if (fs::exists(tls_path))
        traces.tlsIndex =
            TraceIndex::loadFile(tls_path, traces.tls, line_bytes);
    if (traces.originalIndex && traces.tlsIndex)
        return;

    bool save_orig = !traces.originalIndex;
    bool save_tls = !traces.tlsIndex;
    traces.buildIndexes(line_bytes);
    if (save_orig)
        traces.originalIndex->saveFile(orig_path);
    if (save_tls)
        traces.tlsIndex->saveFile(tls_path);
}

} // namespace

SharedTraces
captureTracesShared(tpcc::TxnType type, const ExperimentConfig &cfg,
                    const std::string &cache_dir)
{
    unsigned line_bytes = cfg.machine.mem.lineBytes;
    if (cache_dir.empty()) {
        stats::GlobalCounters::instance().add("tracecache.bypass");
        auto traces = std::make_shared<BenchmarkTraces>(
            captureTraces(type, cfg));
        traces->buildIndexes(line_bytes);
        return traces;
    }

    namespace fs = std::filesystem;
    std::string stem =
        (fs::path(cache_dir) / fileStem(type, cfg)).string();
    std::string orig_path = stem + ".orig.trace";
    std::string tls_path = stem + ".tls.trace";

    // Single-flight: concurrent callers of the same stem serialize
    // here; the first one through captures (or loads) and the rest
    // load the files it finished writing.
    MutexLock stem_lock(StemLocks::instance().forStem(stem));

    if (fs::exists(orig_path) && fs::exists(tls_path)) {
        auto traces = std::make_shared<BenchmarkTraces>();
        WorkloadTrace orig, tls;
        if (loadTraceFile(orig_path, &orig) &&
            loadTraceFile(tls_path, &tls)) {
            traces->original = std::move(orig);
            traces->tls = std::move(tls);
            attachIndexes(*traces, line_bytes, stem);
            stats::GlobalCounters::instance().add("tracecache.hit");
            return traces;
        }
        inform("trace cache: %s has a foreign format, re-capturing",
               stem.c_str());
    }

    std::error_code ec;
    fs::create_directories(cache_dir, ec);
    if (ec)
        fatal("trace cache: cannot create directory %s: %s",
              cache_dir.c_str(), ec.message().c_str());

    stats::GlobalCounters::instance().add("tracecache.capture");
    auto traces = std::make_shared<BenchmarkTraces>(
        captureTraces(type, cfg, dbImagePath(cache_dir, cfg)));
    saveTraceFile(orig_path, traces->original);
    saveTraceFile(tls_path, traces->tls);
    traces->buildIndexes(line_bytes);
    traces->originalIndex->saveFile(stem + ".orig.idx");
    traces->tlsIndex->saveFile(stem + ".tls.idx");
    return traces;
}

} // namespace sim
} // namespace tlsim
