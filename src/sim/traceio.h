/**
 * @file
 * Binary serialization of captured workload traces.
 *
 * Captures are deterministic but capture time (data load + native
 * transaction execution) dominates short experiments; saving a trace
 * lets the machine sweeps re-run without the database. The format is
 * versioned and self-describing enough to reject foreign files.
 *
 * Note: traces carry raw heap addresses from the capturing process.
 * They replay bit-identically (the simulator treats addresses as
 * opaque), but a reloaded trace is only comparable against runs of
 * the same file, not against a fresh capture.
 */

#ifndef SIM_TRACEIO_H
#define SIM_TRACEIO_H

#include <iosfwd>
#include <string>

#include "core/trace.h"

namespace tlsim {
namespace sim {

/** Magic + version of the trace container format. */
inline constexpr std::uint32_t kTraceMagic = 0x544c5331; // "TLS1"
inline constexpr std::uint32_t kTraceVersion = 4;
// v3: embeds the site-name table; PCs are remapped through the
// loading process's SiteRegistry so profiler output stays symbolic
// across processes.
// v4: epochs store columnar streams (op/size/aux/pc arrays plus
// zigzag-varint delta-coded addresses) instead of packed TraceRecord
// structs — near-sequential heap addresses delta-code to a byte or
// two. The version bump invalidates v3 trace caches; they re-capture.

/** Serialize a workload to a stream / file. */
void saveTrace(std::ostream &os, const WorkloadTrace &w);
void saveTraceFile(const std::string &path, const WorkloadTrace &w);

/**
 * Deserialize. Returns false for wrong magic/version (foreign file)
 * and for structurally malformed content — bad opcodes, oversized
 * accesses, or escape spans that are unordered, overlapping, out of
 * bounds, or not anchored on EscapeBegin/EscapeEnd records — after
 * describing the defect via inform(). Panics only on truncation.
 *
 * Reads through a fixed-size window, so it reads ahead of the trace:
 * on success a seekable stream is moved back to the trace's end, and
 * a stream that cannot seek is left past it.
 */
bool loadTrace(std::istream &is, WorkloadTrace *out);
bool loadTraceFile(const std::string &path, WorkloadTrace *out);

} // namespace sim
} // namespace tlsim

#endif // SIM_TRACEIO_H
