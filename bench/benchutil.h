/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries:
 *
 *  - strict argument parsing (sim/cli.h): unknown flags are an error
 *    so CI typos fail loudly instead of silently running the default;
 *  - the command line's machine flags over sim::configFor();
 *  - a machine-readable result reporter emitting the "tlsim-bench-v1"
 *    JSON schema (validated by tools/check_bench_json.py).
 */

#ifndef BENCH_BENCHUTIL_H
#define BENCH_BENCHUTIL_H

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/config.h"
#include "base/dethash.h"
#include "base/log.h"
#include "base/simd.h"
#include "base/stats.h"
#include "sim/artifact.h"
#include "sim/cli.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/tracecache.h"

namespace tlsim {
namespace bench {

/** Parsed command line for a reproduction bench. */
struct BenchArgs
{
    bool quick = false;     ///< reduced TPC-C scale (CI-friendly)
    unsigned txns = 0;      ///< 0 = per-benchmark default
    unsigned jobs = 1;      ///< simulation points in flight; 0 = auto
    std::string json;       ///< write machine-readable results here
    std::string traceCache; ///< reuse trace snapshots from this dir
    /** Escape hatch: ignore the conflict-oracle bits of the trace
     *  pre-analysis (results must be identical; replay is slower). */
    bool noTraceIndex = false;
    /** Protocol invariant auditor level (off|commit|full). */
    std::string audit = "off";
    /** Pin the SIMD dispatch to the portable scalar kernels (results
     *  must be identical; the golden label compares both legs). */
    bool forceScalar = false;
    /** Sweep pruning: "oracle" scores every grid point with the
     *  critical-path analyzer and simulates only the predicted
     *  frontier (bench_figure6_sweep). */
    std::string prune = "none";
    /** Sub-thread start-point policy: "fixed" spacing or predicted
     *  exposed-load "risk" records (TlsConfig::riskPlacement). */
    std::string placement = "fixed";
    /** Hash the canonical result stream after each stage and emit the
     *  digests in the `determinism` JSON block (base/dethash.h). */
    bool detProbe = false;
};

/**
 * Parse the bench command line (sim/cli.h). Unknown arguments are
 * fatal (exit 2): a misspelled flag must not silently fall back to
 * default behaviour.
 */
inline BenchArgs
parseArgs(int argc, char **argv)
{
    using F = cli::Flag;
    const cli::Args a(
        argv[0],
        {{"quick", F::Switch, "reduced TPC-C scale (CI)"},
         {"txns", F::Number, "transactions per capture"},
         {"jobs", F::Number,
          "parallel simulation points (0 = all cores, default 1)"},
         {"json", F::Text, "machine-readable results (tlsim-bench-v1)"},
         {"trace-cache", F::Text, "reuse on-disk trace snapshots"},
         {"no-trace-index", F::Switch,
          "disable the conflict-oracle fast path (identical results)"},
         {"audit", F::Text,
          "protocol invariant auditor: off|commit|full (identical "
          "results)"},
         {"force-scalar", F::Switch,
          "use the portable scalar kernels (identical results)"},
         {"prune", F::Text,
          "none|oracle: simulate only the critical-path oracle's "
          "predicted frontier"},
         {"placement", F::Text,
          "fixed|risk: sub-thread start points every spacing or at "
          "predicted risk records"},
         {"det-probe", F::Switch,
          "hash the result stream per stage into the 'determinism' "
          "JSON block"}},
        argc, argv, 1);
    BenchArgs args;
    args.quick = a.has("quick");
    args.txns = a.u32("txns", 0);
    args.jobs = a.u32("jobs", 1);
    args.json = a.str("json");
    args.traceCache = a.str("trace-cache");
    args.noTraceIndex = a.has("no-trace-index");
    args.audit = a.oneOf("audit", {"off", "commit", "full"});
    args.forceScalar = a.has("force-scalar");
    args.prune = a.oneOf("prune", {"none", "oracle"});
    args.placement = a.oneOf("placement", {"fixed", "risk"});
    args.detProbe = a.has("det-probe");
    return args;
}

/** sim::configFor() plus the machine flags of the command line. */
inline sim::ExperimentConfig
configFor(tpcc::TxnType type, const BenchArgs &args)
{
    sim::ExperimentConfig cfg = sim::configFor(type, args.quick, args.txns);
    cfg.machine.tls.useConflictOracle = !args.noTraceIndex;
    cfg.machine.tls.auditLevel = parseAuditLevel(args.audit);
    cfg.machine.tls.riskPlacement = args.placement == "risk";
    return cfg;
}

// ---------------------------------------------------------------------
// Machine-readable results ("tlsim-bench-v1")
// ---------------------------------------------------------------------

/**
 * Collects named result entries plus wall-clock and simulated-cycle
 * totals and writes them as JSON:
 *
 *     {
 *       "schema": "tlsim-bench-v1",
 *       "bench": "<binary name>",
 *       "quick": true,
 *       "jobs": 2,
 *       "wall_seconds": 1.23,
 *       "simulated_cycles": 4.56e8,
 *       "results": [ {"name": "...", "<metric>": <number>, ...}, ... ]
 *     }
 *
 * The timer starts at construction; write() stops it.
 */
class BenchReport
{
  public:
    using Fields = std::vector<std::pair<std::string, double>>;

    BenchReport(std::string bench, const BenchArgs &args,
                unsigned resolved_jobs)
        : bench_(std::move(bench)), quick_(args.quick),
          jobs_(resolved_jobs), probe_(args.detProbe),
          start_(std::chrono::steady_clock::now()),
          records0_(counter("replay.records")),
          checks0_(counter("audit.checks"))
    {
    }

    /** The --det-probe stage-digest collector (no-op when disabled). */
    det::Probe &probe() { return probe_; }

    /** Add one named result row; every field must be numeric. */
    void
    add(std::string name, Fields fields)
    {
        results_.emplace_back(std::move(name), std::move(fields));
    }

    /** Count cycles of simulated machine time toward the total. */
    void
    addSimulatedCycles(double cycles)
    {
        simulatedCycles_ += cycles;
    }

    /** Record the auditor level so write() emits the "audit" block. */
    void
    setAuditLevel(std::string level)
    {
        auditLevel_ = std::move(level);
    }

    /**
     * Add a top-level JSON object `name` of numeric fields, written
     * after the "audit" block: "modelcheck" (bench_modelcheck) and
     * "critpath" (bench_figure6_sweep --prune=oracle), whose fields
     * tools/check_bench_json.py validates.
     */
    void
    addBlock(std::string name, Fields fields)
    {
        blocks_.emplace_back(std::move(name), std::move(fields));
    }

    double
    wallSeconds() const
    {
        // tlsa:allow(D2): timing-only wall_seconds/records_per_second
        auto end = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(end - start_).count();
    }

    /** Write the report; returns false (with a message) on I/O error. */
    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "cannot write JSON to '%s'\n",
                         path.c_str());
            return false;
        }
        os << "{\n";
        os << "  \"schema\": \"tlsim-bench-v1\",\n";
        os << "  \"bench\": \"" << escape(bench_) << "\",\n";
        os << "  \"quick\": " << (quick_ ? "true" : "false") << ",\n";
        os << "  \"jobs\": " << jobs_ << ",\n";
        double wall = wallSeconds();
        os << "  \"wall_seconds\": " << wall << ",\n";
        os << "  \"simulated_cycles\": " << simulatedCycles_ << ",\n";
        // Records dispatched and invariants checked by the machine
        // runs since the report opened (the "replay.records" and
        // "audit.checks" counters): a point served from a capture's
        // result memo runs nothing and adds nothing.
        const double records =
            static_cast<double>(counter("replay.records") - records0_);
        const double checks =
            static_cast<double>(counter("audit.checks") - checks0_);
        os << "  \"replay_records\": " << records << ",\n";
        os << "  \"records_per_second\": "
           << (wall > 0 ? records / wall : 0) << ",\n";
        if (auditLevel_ != "off") {
            // The auditor throws on the first violated invariant, so a
            // report that got as far as write() always has zero.
            os << "  \"audit\": {\"level\": \"" << escape(auditLevel_)
               << "\", \"invariants_checked\": " << checks
               << ", \"violations\": 0},\n";
        }
        for (const auto &[name, fields] : blocks_) {
            os << "  \"" << escape(name) << "\": {";
            for (std::size_t i = 0; i < fields.size(); ++i)
                os << (i ? ", \"" : "\"") << escape(fields[i].first)
                   << "\": " << fields[i].second;
            os << "},\n";
        }
        // Replay-path instrumentation: the active SIMD kernel set and
        // the "replay.*" global counter group (epoch/record totals,
        // arena effectiveness). Always present in new reports.
        os << "  \"replay\": {\"simd\": \"" << escape(simd::activeName())
           << "\"";
        for (const auto &[name, val] :
             stats::GlobalCounters::instance().snapshot()) {
            if (name.rfind("replay.", 0) == 0)
                os << ", \"" << escape(name.substr(7)) << "\": " << val;
        }
        os << "},\n";
        std::string rendered = renderResults();
        if (probe_.enabled()) {
            // The serialize-stage digest covers the exact bytes about
            // to be written for the results array — the final,
            // printf-formatted form of the canonical result stream.
            det::Hash ser;
            ser.str(rendered);
            os << "  \"determinism\": {\"jobs_invariant\": "
               << (probe_.jobsInvariant() ? "true" : "false")
               << ", \"stages\": {";
            for (const auto &[name, digest] : probe_.stages())
                os << "\"" << escape(name) << "\": \"" << hex64(digest)
                   << "\", ";
            os << "\"serialize\": \"" << hex64(ser.value())
               << "\"}},\n";
        }
        os << "  \"results\": [" << rendered << "\n  ]\n}\n";
        return static_cast<bool>(os);
    }

    /** write() if --json was given; true when skipped or successful. */
    bool
    writeIfRequested(const BenchArgs &args) const
    {
        return args.json.empty() || write(args.json);
    }

  private:
    static std::uint64_t
    counter(const char *name)
    {
        return stats::GlobalCounters::instance().value(name);
    }

    /** Render the results array body exactly as write() emits it. */
    std::string
    renderResults() const
    {
        std::ostringstream os;
        for (std::size_t i = 0; i < results_.size(); ++i) {
            os << (i ? ",\n    {" : "\n    {");
            os << "\"name\": \"" << escape(results_[i].first) << "\"";
            for (const auto &[k, v] : results_[i].second)
                os << ", \"" << escape(k) << "\": " << v;
            os << "}";
        }
        return os.str();
    }

    static std::string
    hex64(std::uint64_t v)
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        for (int i = 0; i < 16; ++i)
            out[i] = digits[(v >> (60 - 4 * i)) & 0xF];
        return out;
    }

    static std::string
    escape(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
                continue;
            }
            out += c;
        }
        return out;
    }

    std::string bench_;
    bool quick_;
    unsigned jobs_;
    det::Probe probe_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t records0_; ///< "replay.records" when the report opened
    std::uint64_t checks0_;  ///< "audit.checks" when the report opened
    double simulatedCycles_ = 0;
    std::string auditLevel_ = "off";
    std::vector<std::pair<std::string, Fields>> blocks_;
    std::vector<std::pair<std::string, Fields>> results_;
};

/**
 * The shared main() prologue/epilogue of the reproduction benches:
 * parse the command line, quiet the inform stream, size the executor
 * from --jobs, and open the report with the resolved job count and
 * audit level. finish() writes the JSON (when --json was given) and
 * converts the outcome into main()'s exit status.
 */
struct BenchSession
{
    BenchArgs args;
    sim::SimExecutor ex;
    BenchReport report;

    BenchSession(const char *bench, int argc, char **argv)
        : args(parseArgs(argc, argv)), ex(args.jobs),
          report(bench, args, ex.jobs())
    {
        setInformEnabled(false);
        report.setAuditLevel(args.audit);
        if (args.forceScalar)
            simd::setForceScalar(true);
    }

    /**
     * Pre-parsed variant for benches that filter the command line
     * themselves (bench_micro_components hands --benchmark_* flags to
     * google-benchmark first) or are single-threaded by construction
     * (bench_mechanism_micro): --jobs is accepted for interface
     * uniformity but resolves to one worker, and the inform stream is
     * left alone.
     */
    BenchSession(const char *bench, BenchArgs parsed)
        : args(std::move(parsed)), ex(1), report(bench, args, 1)
    {
        report.setAuditLevel(args.audit);
        if (args.forceScalar)
            simd::setForceScalar(true);
    }

    /** sim::runArtifact() under this command line: its configs,
     *  trace cache and --prune, its executor and det-probe. */
    sim::ArtifactResult
    run(sim::Artifact artifact)
    {
        sim::ArtifactRun r;
        r.artifact = artifact;
        r.config = [this](tpcc::TxnType t) { return configFor(t, args); };
        r.traceCache = args.traceCache;
        r.pruneOracle = args.prune == "oracle";
        return sim::runArtifact(r, ex, report.probe());
    }

    int
    finish() const
    {
        return report.writeIfRequested(args) ? 0 : 1;
    }
};

} // namespace bench
} // namespace tlsim

#endif // BENCH_BENCHUTIL_H
