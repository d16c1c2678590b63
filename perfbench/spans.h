/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * A span is (name, start, end, parent, a, b): names are static
 * strings, times are CLOCK_MONOTONIC nanoseconds, parent is the index
 * of the enclosing open span (-1 at top level), and a/b carry one
 * layer-specific count each (bytes, records, execution mode).
 *
 * The log is a fixed array in static storage and recording never
 * allocates. That matters: a fresh capture records raw heap
 * addresses, so a traced run that allocated where the untraced run
 * does not would simulate different work. With recording off every
 * call is a single branch. Single-threaded by design: the benchmark
 * runs with one worker.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <ctime>

namespace perfbench {

struct Span
{
    const char *name;
    std::uint64_t start;
    std::uint64_t end;
    std::int32_t parent;
    std::uint64_t a;
    std::uint64_t b;
};

inline std::uint64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

class SpanLog
{
  public:
    static constexpr std::size_t kCapacity = 1u << 16;
    static constexpr std::size_t kMaxDepth = 64;

    /** Turn recording on or off (off: open() returns -1). */
    static void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one; -1 if not recorded. */
    static int
    open(const char *name)
    {
        if (!enabled_ || count_ >= kCapacity || depth_ >= kMaxDepth) {
            if (enabled_)
                overflowed_ = true;
            return -1;
        }
        const int idx = static_cast<int>(count_++);
        spans_[idx] = {name, nowNs(), 0,
                       depth_ ? stack_[depth_ - 1] : -1, 0, 0};
        stack_[depth_++] = idx;
        return idx;
    }

    /** Close span `idx` (must be the innermost open one). */
    static void
    close(int idx, std::uint64_t a = 0, std::uint64_t b = 0)
    {
        if (idx < 0)
            return;
        Span &s = spans_[idx];
        s.end = nowNs();
        s.a = a;
        s.b = b;
        if (depth_ && stack_[depth_ - 1] == idx)
            --depth_;
        else
            overflowed_ = true; // unbalanced: flagged in the output
    }

    static std::size_t count() { return count_; }
    static const Span &at(std::size_t i) { return spans_[i]; }
    /** True if a span was dropped or closed out of order. */
    static bool overflowed() { return overflowed_; }

  private:
    static inline bool enabled_ = false;
    static inline bool overflowed_ = false;
    static inline std::size_t count_ = 0;
    static inline std::size_t depth_ = 0;
    static inline int stack_[kMaxDepth] = {};
    static inline Span spans_[kCapacity] = {};
};

/** RAII span for the driver's own stage boundaries. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) : idx_(SpanLog::open(name)) {}
    ~ScopedSpan() { SpanLog::close(idx_, a, b); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t a = 0;
    std::uint64_t b = 0;

  private:
    int idx_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
