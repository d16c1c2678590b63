#include "sim/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace tlsim {
namespace sim {

unsigned
SimExecutor::hardwareJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SimExecutor::SimExecutor(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
}

void
SimExecutor::parallelFor(std::size_t n,
                         const std::function<void(std::size_t)> &fn) const
{
    const std::size_t workers = std::min<std::size_t>(jobs_, n);
    // Indices only need to be unique; join() publishes the tasks'
    // writes to the caller, so the cursor can be relaxed.
    std::atomic<std::size_t> cursor{0};
    // One slot per index: each is written by the one thread running it.
    std::vector<std::exception_ptr> failed(n);
    auto work = [&] {
        for (std::size_t i;
             (i = cursor.fetch_add(1, std::memory_order_relaxed)) < n;) {
            try {
                fn(i);
            } catch (...) {
                failed[i] = std::current_exception();
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    try {
        for (std::size_t w = 1; w < workers; ++w)
            threads.emplace_back(work);
    } catch (const std::system_error &) {
        // The host refused a thread: the ones started and the caller
        // still drain the cursor, so every task runs all the same.
    }
    work();
    for (std::thread &t : threads)
        t.join();

    for (const std::exception_ptr &e : failed)
        if (e)
            std::rethrow_exception(e);
}

} // namespace sim
} // namespace tlsim
