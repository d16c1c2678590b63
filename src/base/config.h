/**
 * @file
 * Machine configuration: the paper's Table 1 parameters, plus the TLS
 * parameters explored in the evaluation (sub-thread count and spacing).
 *
 * All defaults reproduce the BASELINE configuration of the paper:
 * a 4-CPU CMP of 4-issue out-of-order cores with 32KB 4-way private
 * L1 caches (write-through), a shared 2MB 4-way 4-bank L2 with a
 * 64-entry speculative victim cache, and 8 sub-threads per speculative
 * thread spaced every 5,000 speculative dynamic instructions.
 */

#ifndef BASE_CONFIG_H
#define BASE_CONFIG_H

#include <cstdint>
#include <ostream>
#include <string>

namespace tlsim {

/**
 * How aggressively the protocol invariant auditor (src/verify) checks
 * the machine during replay. Off costs nothing; Commit sweeps the full
 * speculative state at epoch commit/squash boundaries; Full adds
 * line-local checks on every tracked L2 access.
 */
enum class AuditLevel {
    Off,
    Commit,
    Full,
};

const char *auditLevelName(AuditLevel level);

/** Parse an --audit= value; dies with fatal() on anything unknown. */
AuditLevel parseAuditLevel(const std::string &name);

/** Pipeline parameters (Table 1, upper half). */
struct CpuConfig
{
    unsigned issueWidth = 4;         ///< instructions retired per cycle
    unsigned robSize = 128;          ///< reorder-buffer entries
    unsigned intMulLatency = 12;     ///< integer multiply
    unsigned intDivLatency = 76;     ///< integer divide
    unsigned intLatency = 1;         ///< all other integer
    unsigned fpDivLatency = 15;      ///< FP divide
    unsigned fpSqrtLatency = 20;     ///< FP square root
    unsigned fpLatency = 2;          ///< all other FP
    unsigned branchPenalty = 10;     ///< mispredict redirect penalty
    unsigned gshareBytes = 16 * 1024;///< GShare table size (16KB)
    unsigned gshareHistoryBits = 8;  ///< GShare history length
    unsigned maxOutstandingLoads = 16; ///< load MLP window inside the ROB

    bool operator==(const CpuConfig &) const = default;
};

/** Memory-hierarchy parameters (Table 1, lower half). */
struct MemConfig
{
    unsigned lineBytes = 32;

    unsigned l1Bytes = 32 * 1024;
    unsigned l1Assoc = 4;
    unsigned l1Banks = 2;           ///< data cache banks
    unsigned l1HitLatency = 1;

    unsigned l2Bytes = 2 * 1024 * 1024;
    unsigned l2Assoc = 4;
    unsigned l2Banks = 4;
    unsigned l2HitLatency = 10;     ///< min miss latency to secondary cache

    unsigned victimEntries = 64;    ///< speculative victim cache

    unsigned dataMshrs = 128;       ///< miss handlers for data
    unsigned instMshrs = 2;         ///< miss handlers for instructions

    unsigned crossbarBytesPerCycle = 8; ///< per bank
    unsigned memLatency = 75;       ///< min miss latency to local memory
    unsigned memCyclesPerAccess = 20; ///< main memory bandwidth limit

    bool operator==(const MemConfig &) const = default;
};

/** TLS / sub-thread parameters (Section 2.2 and Section 5.1). */
struct TlsConfig
{
    unsigned numCpus = 4;
    unsigned subthreadsPerThread = 8;      ///< contexts per speculative thread
    std::uint64_t subthreadSpacing = 5000; ///< speculative insts per sub-thread
    /**
     * Section 5.1's suggested policy: instead of a fixed spacing,
     * divide each thread's speculative instruction count evenly over
     * the available sub-thread contexts.
     */
    bool adaptiveSpacing = false;
    bool useStartTable = true;   ///< selective secondary violations (Fig 4b)
    /**
     * Predicted-risk sub-thread placement (--placement=risk): spawn
     * thresholds come from the trace pre-analysis' exposed-conflict-
     * load offsets (EpochView::riskOffsets) selected by
     * critpath::selectRiskSpawnPoints, instead of the fixed
     * spacing/2*spacing/... grid. A checkpoint sits right before each
     * predicted-risky load, so its violation rewinds almost no work.
     * (The offsets live in the trace index, which the replay engine
     * always builds; no oracle flag is required.)
     */
    bool riskPlacement = false;
    bool useVictimCache = true;
    /**
     * Write-through L1s propagate store values (and violation checks)
     * immediately. When false, stores batch and younger threads'
     * violations are detected only when the storing epoch commits —
     * the lazier scheme the paper's design improves on.
     */
    bool aggressiveUpdates = true;
    /**
     * Section 2.2 considered extending the L1 to track sub-threads so
     * a violation need not flush all speculatively-modified L1 lines;
     * the paper found it "not worthwhile". True models its best case
     * (no L1 flush on violation at all).
     */
    bool l1SubthreadAware = false;
    /**
     * Section 1.2: the Moshovos-style dependence predictor the
     * authors tried before sub-threads. Loads whose PC has caused a
     * violation synchronize (stall until the thread is the oldest).
     * The paper found it ineffective because "only one of several
     * dynamic instances of the same load PC caused the dependence" —
     * PC-indexed prediction over-synchronizes.
     */
    bool useDependencePredictor = false;
    unsigned violationDeliveryLatency = 10; ///< cycles to signal a squash
    unsigned spawnOverheadInsts = 100; ///< software epoch-management cost
    /**
     * Consult the trace pre-analysis (core/traceindex) during replay:
     * stores to lines no later epoch ever depends on skip the
     * cross-context violation scan, and loads use the precomputed
     * exposure bit instead of the per-word SM merge. A pure host-side
     * optimisation — RunResult is identical either way (enforced by
     * the golden-equivalence test); false forces the full path.
     */
    bool useConflictOracle = true;
    /**
     * Invariant-audit intensity. The machine only calls into an
     * attached verify::Auditor when this is not Off, so the default
     * keeps the replay hot path untouched.
     */
    AuditLevel auditLevel = AuditLevel::Off;

    bool operator==(const TlsConfig &) const = default;
};

/** Complete machine description. */
struct MachineConfig
{
    CpuConfig cpu;
    MemConfig mem;
    TlsConfig tls;

    /** Die with fatal() if any parameter combination is unsupported. */
    void validate() const;

    /** Human-readable dump in the shape of the paper's Table 1. */
    void print(std::ostream &os) const;

    /** Field-wise, defaulted: a field added later is compared too. */
    bool operator==(const MachineConfig &) const = default;
};

/** The paper's BASELINE machine. */
MachineConfig baselineConfig();

/** BASELINE with sub-thread support disabled (NO-SUB-THREAD bars). */
MachineConfig noSubthreadConfig();

} // namespace tlsim

#endif // BASE_CONFIG_H
