/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries:
 *
 *  - strict argument parsing (--quick, --txns=N, --jobs=N,
 *    --json=FILE, --trace-cache=DIR); unknown flags are an error so CI
 *    typos fail loudly instead of silently running the default;
 *  - per-benchmark capture sizing;
 *  - a machine-readable result reporter emitting the "tlsim-bench-v1"
 *    JSON schema (validated by tools/check_bench_json.py).
 */

#ifndef BENCH_BENCHUTIL_H
#define BENCH_BENCHUTIL_H

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/config.h"
#include "base/dethash.h"
#include "base/log.h"
#include "base/simd.h"
#include "base/stats.h"
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

[[noreturn]] inline void
usage(const char *prog, int code)
{
    std::FILE *out = code == 0 ? stdout : stderr;
    std::fprintf(out,
                 "usage: %s [--quick] [--txns=N] [--jobs=N] "
                 "[--json=FILE] [--trace-cache=DIR] "
                 "[--no-trace-index] [--audit=off|commit|full] "
                 "[--force-scalar] [--prune=none|oracle] "
                 "[--placement=fixed|risk] [--det-probe]\n"
                 "  --quick            reduced TPC-C scale (CI)\n"
                 "  --txns=N           transactions per capture\n"
                 "  --jobs=N           parallel simulation points "
                 "(0 = all cores, default 1)\n"
                 "  --json=FILE        machine-readable results "
                 "(tlsim-bench-v1 schema)\n"
                 "  --trace-cache=DIR  reuse on-disk trace snapshots\n"
                 "  --no-trace-index   disable the conflict-oracle "
                 "fast path (identical results, slower replay)\n"
                 "  --audit=LEVEL      protocol invariant auditor "
                 "(off|commit|full; results must be identical)\n"
                 "  --force-scalar     use the portable scalar kernels "
                 "(identical results; golden-label comparison)\n"
                 "  --prune=MODE       sweep pruning: 'oracle' scores "
                 "grid points with the critical-path analyzer and "
                 "simulates only the predicted frontier\n"
                 "  --placement=POLICY sub-thread start points: 'fixed' "
                 "spacing or predicted-'risk' records\n"
                 "  --det-probe        hash the canonical result stream "
                 "per stage into the 'determinism' JSON block\n",
                 prog);
    std::exit(code);
}

inline unsigned
parseUnsigned(const std::string &flag, const std::string &val,
              const char *prog)
{
    try {
        std::size_t pos = 0;
        unsigned long v = std::stoul(val, &pos);
        if (pos != val.size() || v > 0xFFFFFFFFul)
            throw std::invalid_argument(val);
        return static_cast<unsigned>(v);
    } catch (const std::exception &) {
        std::fprintf(stderr, "%s: bad value for %s: '%s'\n", prog,
                     flag.c_str(), val.c_str());
        std::exit(2);
    }
}

/**
 * Parse the bench command line. Unknown arguments are fatal (exit 2):
 * a misspelled flag must not silently fall back to default behaviour.
 */
inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *prefix) {
            return a.substr(std::strlen(prefix));
        };
        if (a == "--quick")
            args.quick = true;
        else if (a.rfind("--txns=", 0) == 0)
            args.txns = parseUnsigned("--txns", value("--txns="),
                                      argv[0]);
        else if (a.rfind("--jobs=", 0) == 0)
            args.jobs = parseUnsigned("--jobs", value("--jobs="),
                                      argv[0]);
        else if (a.rfind("--json=", 0) == 0)
            args.json = value("--json=");
        else if (a.rfind("--trace-cache=", 0) == 0)
            args.traceCache = value("--trace-cache=");
        else if (a == "--no-trace-index")
            args.noTraceIndex = true;
        else if (a.rfind("--audit=", 0) == 0)
            args.audit = value("--audit=");
        else if (a == "--force-scalar")
            args.forceScalar = true;
        else if (a.rfind("--prune=", 0) == 0)
            args.prune = value("--prune=");
        else if (a.rfind("--placement=", 0) == 0)
            args.placement = value("--placement=");
        else if (a == "--det-probe")
            args.detProbe = true;
        else if (a == "--help" || a == "-h")
            usage(argv[0], 0);
        else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                         a.c_str());
            usage(argv[0], 2);
        }
    }
    if (args.prune != "none" && args.prune != "oracle") {
        std::fprintf(stderr, "%s: bad value for --prune: '%s'\n",
                     argv[0], args.prune.c_str());
        std::exit(2);
    }
    if (args.placement != "fixed" && args.placement != "risk") {
        std::fprintf(stderr, "%s: bad value for --placement: '%s'\n",
                     argv[0], args.placement.c_str());
        std::exit(2);
    }
    return args;
}

/** Executor sized from --jobs (0 = one worker per hardware thread). */
inline sim::SimExecutor
makeExecutor(const BenchArgs &args)
{
    return sim::SimExecutor(args.jobs);
}

/** Capture (or reload from --trace-cache) one benchmark's traces. */
inline sim::SharedTraces
capture(tpcc::TxnType type, const sim::ExperimentConfig &cfg,
        const BenchArgs &args)
{
    return sim::captureTracesShared(type, cfg, args.traceCache);
}

/**
 * Experiment configuration for one benchmark. Large-thread benchmarks
 * (NEW ORDER 150, DELIVERY OUTER) capture fewer transactions since a
 * single transaction already provides hundreds of thousands of
 * instructions of parallel work.
 */
inline sim::ExperimentConfig
configFor(tpcc::TxnType type, const BenchArgs &args)
{
    sim::ExperimentConfig cfg;
    if (args.quick) {
        cfg.scale = tpcc::TpccConfig::tiny();
        cfg.scale.items = 2000;
        cfg.scale.customersPerDistrict = 150;
        cfg.scale.ordersPerDistrict = 150;
        cfg.scale.firstNewOrder = 76;
    } else {
        // Full single-warehouse TPC-C, as in the paper.
        cfg.scale = tpcc::TpccConfig{};
    }

    switch (type) {
      case tpcc::TxnType::NewOrder150:
        cfg.txns = 6;
        cfg.warmupTxns = 1;
        break;
      case tpcc::TxnType::DeliveryOuter:
      case tpcc::TxnType::Delivery:
        cfg.txns = 8;
        cfg.warmupTxns = 2;
        break;
      default:
        cfg.txns = 12;
        cfg.warmupTxns = 2;
        break;
    }
    if (args.txns) {
        cfg.txns = args.txns;
        cfg.warmupTxns = args.txns > 4 ? 2 : 1;
    }
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
     * Record the model-checker totals; write() then emits the
     * "modelcheck" block (validated by tools/check_bench_json.py).
     * states is the number of explored model states (transitions
     * executed across all schedules), reduction the naive/DPOR
     * schedule ratio on the reduction instances.
     */
    void
    setModelcheck(double states, double schedules, double reduction,
                  double violations)
    {
        mcStates_ = states;
        mcSchedules_ = schedules;
        mcReduction_ = reduction;
        mcViolations_ = violations;
        hasModelcheck_ = true;
    }

    /**
     * Record the critical-path oracle totals; write() then emits the
     * "critpath" block (validated by tools/check_bench_json.py).
     * `predicted` is the calibrated predicted makespan summed over
     * every scored grid point, `band_error` the largest relative
     * error observed on points that were both predicted and
     * simulated, and the point counts carry the pruning claim:
     * at most half the scored points may have been simulated.
     */
    void
    setCritpath(double predicted, double band_error, double total,
                double simulated)
    {
        cpPredicted_ = predicted;
        cpBandError_ = band_error;
        cpTotal_ = total;
        cpSimulated_ = simulated;
        hasCritpath_ = true;
    }

    double
    wallSeconds() const
    {
        // tlsdet:allow(D2): timing-only wall_seconds/records_per_second
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
        if (hasModelcheck_) {
            os << "  \"modelcheck\": {\"states_explored\": "
               << mcStates_ << ", \"schedules\": " << mcSchedules_
               << ", \"dpor_reduction\": " << mcReduction_
               << ", \"violations\": " << mcViolations_ << "},\n";
        }
        if (hasCritpath_) {
            os << "  \"critpath\": {\"predicted_makespan\": "
               << cpPredicted_ << ", \"band_error\": " << cpBandError_
               << ", \"points_total\": " << cpTotal_
               << ", \"points_simulated\": " << cpSimulated_
               << "},\n";
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
    bool hasModelcheck_ = false;
    double mcStates_ = 0;
    double mcSchedules_ = 0;
    double mcReduction_ = 0;
    double mcViolations_ = 0;
    bool hasCritpath_ = false;
    double cpPredicted_ = 0;
    double cpBandError_ = 0;
    double cpTotal_ = 0;
    double cpSimulated_ = 0;
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
        : args(parseArgs(argc, argv)), ex(makeExecutor(args)),
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

    int
    finish() const
    {
        return report.writeIfRequested(args) ? 0 : 1;
    }
};

} // namespace bench
} // namespace tlsim

#endif // BENCH_BENCHUTIL_H
