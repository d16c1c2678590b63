/**
 * @file
 * On-disk cache of captured benchmark traces, keyed by everything that
 * influences a capture (benchmark, TPC-C scale, transaction count,
 * seeds, spawn overhead, trace format version).
 * captureTracesShared() is the one capture entry point: with a cache
 * directory or without one, it returns an indexed BenchmarkTraces, and
 * the cache keeps both indexes beside the traces as `.idx` files.
 *
 * Capture (data load + native transaction execution) dominates short
 * experiments, and every bench binary used to re-capture identical
 * TPC-C traces. With a cache directory, each (benchmark, config) pair
 * is captured exactly once and every later run — in this process or
 * another — replays the same bytes, which also makes bench *output*
 * byte-identical across processes (a fresh capture records raw heap
 * addresses, which change between processes; a reloaded trace does
 * not).
 *
 * The loaded TPC-C database is a cache artifact too. The first capture
 * into a directory loads it and writes `DIR/TPCC-<key>.db` (its page
 * frames, table directory and history sequence; dbImagePath() gives
 * the key). Every later capture of that scale and load seed, of
 * either build and any benchmark, in this process or another, opens
 * the image instead of loading, and reads each page the first time
 * its transactions touch it — a few percent of the pages. The image
 * is 191MB at full scale and about 3MB at --quick scale. It must
 * equal a fresh load byte for byte, so tpcc::kDbImageVersion is bumped
 * whenever TpccDb::load or the page layout changes.
 *
 * Thread safety: captureTracesShared() may be called from concurrent
 * executor tasks. Calls for the same cache stem are serialized
 * single-flight (one capture, everyone else loads the finished
 * files); distinct stems proceed in parallel. Creating the database
 * image is single-flight as well, under its own StemLocks mutex held
 * for the load only. Cache traffic is counted in
 * stats::GlobalCounters under "tracecache.*" and "dbimage.*".
 */

#ifndef SIM_TRACECACHE_H
#define SIM_TRACECACHE_H

#include <memory>
#include <string>

#include "sim/experiment.h"

namespace tlsim {
namespace sim {

/** Captured, indexed traces shared read-only across simulation
 *  points, and by every artifact that replays them. */
using SharedTraces = std::shared_ptr<const BenchmarkTraces>;

/**
 * Cache key for one benchmark capture under `cfg` — a stable hex
 * digest of every capture-relevant parameter. Replay-only knobs
 * (machine config, warmup) do not contribute.
 */
std::string traceCacheKey(tpcc::TxnType type,
                          const ExperimentConfig &cfg);

/**
 * The database image captures under `cfg` share in `cache_dir`:
 * `cache_dir/TPCC-<key>.db`, where `<key>` hashes the TPC-C scale, the
 * load seed, kTraceVersion and tpcc::kDbImageVersion.
 */
std::string dbImagePath(const std::string &cache_dir,
                        const ExperimentConfig &cfg);

/**
 * Capture both traces of a benchmark and index them: the one way to
 * make a BenchmarkTraces from TPC-C.
 *
 * With an empty `cache_dir` both captures load the database afresh
 * and nothing is written. Otherwise the pair of trace files under
 * `cache_dir/<BENCH>-<key>.{orig,tls}.trace` is loaded if present and
 * valid, else captured and written, and the indexes beside them,
 * `<BENCH>-<key>.{orig,tls}.idx`, are loaded if they match, else built
 * and written. The directory is created on demand.
 */
SharedTraces captureTracesShared(tpcc::TxnType type,
                                 const ExperimentConfig &cfg,
                                 const std::string &cache_dir = "");

} // namespace sim
} // namespace tlsim

#endif // SIM_TRACECACHE_H
