/**
 * @file
 * SimExecutor: fans independent, deterministic simulation points
 * (benchmark x bar x TlsConfig) across host hardware threads.
 *
 * Every task writes its result into a caller-indexed slot, so a
 * parallel run is bit-identical to the serial loop it replaces: the
 * TLS machine is self-contained and the captured traces are shared
 * read-only. Each parallelFor call starts min(jobs, n) - 1 threads of
 * its own; they and the caller take indices from one atomic cursor
 * until it passes n, then the call joins them. With jobs == 1 every
 * task runs on the caller in index order. Calls share no state, so
 * concurrent submissions, and a task that calls parallelFor on its
 * own executor, are both allowed.
 */

#ifndef SIM_EXECUTOR_H
#define SIM_EXECUTOR_H

#include <cstddef>
#include <functional>

namespace tlsim {
namespace sim {

class SimExecutor
{
  public:
    /** jobs == 0 selects the host's hardware concurrency. */
    explicit SimExecutor(unsigned jobs = 0);

    /** Most threads working on one parallelFor call (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(0) .. fn(n-1) to completion, in parallel across up to
     * jobs() threads, the caller included. Blocks until every task
     * finished. Every task runs even if another one throws; the
     * exception of the lowest failing index is then rethrown on the
     * caller.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn) const;

    /** Picked-up value of --jobs=0 on this host. */
    static unsigned hardwareJobs();

  private:
    unsigned jobs_;
};

} // namespace sim
} // namespace tlsim

#endif // SIM_EXECUTOR_H
