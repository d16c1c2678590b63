#include "sim/tracecache.h"

#include <filesystem>
#include <memory>
#include <utility>

#include "base/log.h"
#include "base/stats.h"
#include "base/sync.h"
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
 * Capture both traces for a benchmark: {original, tls}. Both captures
 * open the database image `db_image` if it is valid, else the first
 * one loads afresh and writes it (tpcc::CaptureOptions::dbImage).
 * Empty: both load afresh.
 */
std::pair<WorkloadTrace, WorkloadTrace>
captureWorkloads(tpcc::TxnType type, const ExperimentConfig &cfg,
                 const std::string &db_image)
{
    std::pair<WorkloadTrace, WorkloadTrace> out;

    tpcc::CaptureOptions orig;
    orig.txns = cfg.txns;
    orig.tlsBuild = false;
    orig.parallelMode = false;
    orig.inputSeed = cfg.inputSeed;
    orig.loadSeed = cfg.loadSeed;
    orig.scale = cfg.scale;
    orig.dbImage = db_image;
    out.first = tpcc::captureBenchmark(type, orig);

    tpcc::CaptureOptions tls = orig;
    tls.tlsBuild = true;
    tls.parallelMode = true;
    tls.spawnOverheadInsts = cfg.machine.tls.spawnOverheadInsts;
    out.second = tpcc::captureBenchmark(type, tls);

    return out;
}

} // namespace

SharedTraces
captureTracesShared(tpcc::TxnType type, const ExperimentConfig &cfg,
                    const std::string &cache_dir)
{
    const unsigned line_bytes = cfg.machine.mem.lineBytes;
    if (cache_dir.empty()) {
        auto [orig, tls] = captureWorkloads(type, cfg, "");
        // Counted after the capture: the first count of a name
        // allocates, and a capture records heap addresses.
        stats::GlobalCounters::instance().add("tracecache.bypass");
        return std::make_shared<const BenchmarkTraces>(
            std::move(orig), std::move(tls), line_bytes);
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

    std::error_code ec;
    if (fs::exists(orig_path) && fs::exists(tls_path)) {
        WorkloadTrace orig, tls;
        if (loadTraceFile(orig_path, &orig) &&
            loadTraceFile(tls_path, &tls)) {
            auto traces = std::make_shared<const BenchmarkTraces>(
                std::move(orig), std::move(tls), line_bytes, stem);
            stats::GlobalCounters::instance().add("tracecache.hit");
            return traces;
        }
        inform("trace cache: %s has a foreign format, re-capturing",
               stem.c_str());
        // Its indexes describe the traces being replaced.
        fs::remove(stem + ".orig.idx", ec);
        fs::remove(stem + ".tls.idx", ec);
    }

    fs::create_directories(cache_dir, ec);
    if (ec)
        fatal("trace cache: cannot create directory %s: %s",
              cache_dir.c_str(), ec.message().c_str());

    stats::GlobalCounters::instance().add("tracecache.capture");
    auto [orig, tls] =
        captureWorkloads(type, cfg, dbImagePath(cache_dir, cfg));
    // The traces are written before their indexes, so an index file
    // never sits beside traces it was not built from.
    saveTraceFile(orig_path, orig);
    saveTraceFile(tls_path, tls);
    return std::make_shared<const BenchmarkTraces>(
        std::move(orig), std::move(tls), line_bytes, stem);
}

} // namespace sim
} // namespace tlsim
