// T2 fixture: direct thread creation outside sim/executor.
// std::thread::hardware_concurrency is a read, not a creation.
// Expected: exactly 2 [T2] diagnostics (lines 10 and 12).

#include <thread>

void
rogueThreads()
{
    std::thread worker([] {});

    worker.detach();

    // Reads of thread facilities are fine: NOT flagged.
    unsigned hw = std::thread::hardware_concurrency();
    (void)hw;
}
