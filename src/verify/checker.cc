#include "verify/checker.h"

#include <algorithm>
#include <unordered_map>

#include "base/addr.h"
#include "base/log.h"

namespace tlsim {
namespace verify {

namespace {

bool
isMemOp(TraceOp op)
{
    return op == TraceOp::Load || op == TraceOp::Store;
}

constexpr std::uint32_t kNone = ~std::uint32_t{0};

/** One line access in a section's happens-before event list. */
struct Event
{
    std::uint32_t epoch;
    bool store;
    bool exposedLoad; ///< non-escaped load not covered by own stores
};

void
capped(std::vector<std::string> &errors, std::string msg)
{
    constexpr std::size_t kMaxReported = 25;
    if (errors.size() < kMaxReported)
        errors.push_back(std::move(msg));
    else if (errors.size() == kMaxReported)
        errors.push_back("... further mismatches suppressed");
}

} // namespace

CheckResult
checkTrace(const WorkloadTrace &workload, unsigned line_bytes)
{
    const LineGeom geom(line_bytes);
    CheckResult out;

    for (const TransactionTrace &txn : workload.txns) {
        for (const TraceSection &sec : txn.sections) {
            if (!sec.parallel) {
                // Serial sections execute in program order on one CPU:
                // no speculation, nothing to classify.
                for (const EpochTrace &e : sec.epochs)
                    out.epochFlags.emplace_back(e.records.size(), 0);
                continue;
            }
            out.parallelEpochs += sec.epochs.size();

            // Pass 1: one ordered event list per line (epochs are
            // totally ordered by sequence number, so "happens before"
            // between epochs is just epoch-index comparison), plus the
            // intra-epoch own-store coverage for the covered bit.
            std::unordered_map<Addr, std::vector<Event>> events;
            std::unordered_map<Addr, std::uint32_t> own;
            std::size_t flag_base = out.epochFlags.size();

            for (std::uint32_t ei = 0; ei < sec.epochs.size(); ++ei) {
                const EpochTrace &e = sec.epochs[ei];
                out.epochFlags.emplace_back(e.records.size(), 0);
                std::vector<std::uint8_t> &f = out.epochFlags.back();
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
                    if (r.op == TraceOp::Store) {
                        // Escaped stores still produce values younger
                        // readers must not have consumed, so they
                        // participate in conflict detection; they just
                        // never contribute speculative (SM) coverage.
                        events[line].push_back({ei, true, false});
                        if (!esc)
                            own[line] |= geom.wordMask(r.addr, r.size);
                    } else {
                        bool covered = false;
                        if (!esc) {
                            auto it = own.find(line);
                            std::uint32_t wm =
                                geom.wordMask(r.addr, r.size);
                            covered = it != own.end() &&
                                      (wm & ~it->second) == 0;
                            if (covered)
                                f[i] |= 2;
                            else
                                ++out.exposedLoads;
                        }
                        events[line].push_back(
                            {ei, false, !esc && !covered});
                    }
                }
            }

            // Pass 2: per-line verdicts from the event lists.
            std::unordered_set<Addr> section_conflicts;
            for (const auto &[line, evs] : events) {
                std::uint32_t min_store = kNone;
                std::uint32_t last_access = 0;
                bool multi = false;
                bool raw = false;
                for (const Event &ev : evs) {
                    if (ev.epoch != evs.front().epoch)
                        multi = true;
                    last_access = std::max(last_access, ev.epoch);
                    if (ev.store)
                        min_store = std::min(min_store, ev.epoch);
                    else if (ev.exposedLoad && min_store != kNone &&
                             ev.epoch > min_store)
                        raw = true;
                }
                bool conflict =
                    min_store != kNone && last_access > min_store;
                if (conflict) {
                    ++out.conflict;
                    section_conflicts.insert(line);
                    out.conflictLines.insert(line);
                } else if (multi) {
                    ++out.readShared;
                } else {
                    ++out.epochPrivate;
                }
                if (raw)
                    out.rawLines.insert(line);
            }

            // Pass 3: stamp the conflict bit on every memory record
            // (escaped ones included) touching a conflicting line.
            for (std::uint32_t ei = 0; ei < sec.epochs.size(); ++ei) {
                const EpochTrace &e = sec.epochs[ei];
                std::vector<std::uint8_t> &f =
                    out.epochFlags[flag_base + ei];
                for (std::size_t i = 0; i < e.records.size(); ++i) {
                    const TraceRecord &r = e.records[i];
                    if (isMemOp(r.op) &&
                        section_conflicts.count(geom.lineNum(r.addr)))
                        f[i] |= 1;
                }
            }
        }
    }
    return out;
}

std::vector<std::string>
diffAgainstIndex(const CheckResult &chk, const TraceIndex &index,
                 const WorkloadTrace &workload)
{
    std::vector<std::string> errors;

    auto totals = index.totals();
    if (totals.conflict != chk.conflict ||
        totals.readShared != chk.readShared ||
        totals.epochPrivate != chk.epochPrivate)
        capped(errors,
               strfmt("class totals differ: index "
                      "%llu/%llu/%llu private/shared/conflict, "
                      "checker %llu/%llu/%llu",
                      static_cast<unsigned long long>(
                          totals.epochPrivate),
                      static_cast<unsigned long long>(totals.readShared),
                      static_cast<unsigned long long>(totals.conflict),
                      static_cast<unsigned long long>(chk.epochPrivate),
                      static_cast<unsigned long long>(chk.readShared),
                      static_cast<unsigned long long>(chk.conflict)));

    std::size_t ei = 0;
    for (const TransactionTrace &txn : workload.txns) {
        for (const TraceSection &sec : txn.sections) {
            for (const EpochTrace &e : sec.epochs) {
                if (ei >= chk.epochFlags.size()) {
                    capped(errors, "checker covers fewer epochs than "
                                   "the workload");
                    return errors;
                }
                const EpochView *v = index.viewOf(&e);
                const std::vector<std::uint8_t> &f = chk.epochFlags[ei];
                if (v->size() != f.size()) {
                    capped(errors,
                           strfmt("epoch %zu: view has %zu records, "
                                  "checker %zu",
                                  ei, v->size(), f.size()));
                    ++ei;
                    continue;
                }
                for (std::size_t i = 0; i < f.size(); ++i) {
                    // The flag byte is the oracle the replay hot path
                    // trusts.
                    if (v->flags[i] != f[i])
                        capped(errors,
                               strfmt("epoch %zu record %zu: index "
                                      "bits %u, checker bits %u",
                                      ei, i, v->flags[i], f[i]));
                }
                ++ei;
            }
        }
    }
    if (ei != chk.epochFlags.size())
        capped(errors, "checker covers more epochs than the workload");
    return errors;
}

std::vector<std::string>
diffAgainstRun(const CheckResult &chk, const RunResult &run)
{
    std::vector<std::string> errors;

    // Serializability of the commit schedule: the homefree token must
    // have visited epochs in strictly increasing program order.
    for (std::size_t i = 1; i < run.commitOrder.size(); ++i)
        if (run.commitOrder[i] <= run.commitOrder[i - 1])
            capped(errors,
                   strfmt("commit order not serializable: epoch %llu "
                          "committed after %llu",
                          static_cast<unsigned long long>(
                              run.commitOrder[i]),
                          static_cast<unsigned long long>(
                              run.commitOrder[i - 1])));

    if (run.primaryViolations != run.violatedLines.size())
        capped(errors,
               strfmt("violation bookkeeping inconsistent: %llu "
                      "primary violations, %zu violated lines",
                      static_cast<unsigned long long>(
                          run.primaryViolations),
                      run.violatedLines.size()));

    // Every violation the machine raised must be on a line the checker
    // proved a RAW candidate. (The converse is timing-dependent: a
    // potential dependence the schedule never exposes is fine.)
    for (Addr line : run.violatedLines)
        if (!chk.rawLines.count(line))
            capped(errors,
                   strfmt("violation on line %llu which the checker "
                          "proved dependence-free",
                          static_cast<unsigned long long>(line)));

    return errors;
}

} // namespace verify
} // namespace tlsim
