/**
 * @file
 * Annotated synchronization primitives.
 *
 * Thin wrappers over std::mutex / std::condition_variable carrying the
 * thread-safety capability attributes from base/threadannot.h. The
 * standard-library types cannot be annotated retroactively, so code
 * that wants `-Wthread-safety` coverage uses these instead; they
 * compile to the identical std calls (everything is inline and the
 * attributes vanish on GCC).
 *
 * Condition-variable waits are written as explicit predicate loops
 *
 *     UniqueLock lk(mtx_);
 *     while (!ready_)
 *         cv_.wait(lk);
 *
 * rather than the lambda-predicate overload: the analysis reasons
 * about guarded reads in straight-line code under a held capability,
 * while a lambda body gives it (and a reviewer) an ambiguous locking
 * context.
 */

#ifndef BASE_SYNC_H
#define BASE_SYNC_H

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "base/threadannot.h"

namespace tlsim {

class CondVar;

/** An annotated std::mutex: the unit of GUARDED_BY/REQUIRES. */
class TLSIM_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() TLSIM_ACQUIRE() { m_.lock(); }
    void unlock() TLSIM_RELEASE() { m_.unlock(); }
    bool try_lock() TLSIM_TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    friend class UniqueLock;
    std::mutex m_;
};

/** RAII lock for the common locked-scope (std::lock_guard shape). */
class TLSIM_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) TLSIM_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~MutexLock() TLSIM_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * RAII lock usable with CondVar (std::unique_lock shape). Always held
 * for its full scope from the analysis' point of view — CondVar::wait
 * releases and reacquires internally, which is invisible to (and
 * sound for) the capability tracking: every observable program point
 * inside the scope holds the lock.
 */
class TLSIM_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &mu) TLSIM_ACQUIRE(mu) : lk_(mu.m_) {}
    ~UniqueLock() TLSIM_RELEASE() = default;

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

  private:
    friend class CondVar;
    std::unique_lock<std::mutex> lk_;
};

/** Condition variable paired with UniqueLock. */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Caller must hold `lk` and re-check its predicate in a loop. */
    void wait(UniqueLock &lk) { cv_.wait(lk.lk_); }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

/**
 * Process-wide registry of named mutexes for single-flight work on
 * files. Two threads racing a load-or-create sequence on the same file
 * (a trace-cache stem, a database image) would both miss, both do the
 * expensive work, and both write the same paths concurrently. Callers
 * hold the name's mutex across the sequence instead, so the first one
 * through creates and everyone else reads the finished bytes. Distinct names stay fully parallel; the
 * registry lock only covers the map probe.
 *
 * The two accessors return mutexes from the same map; they differ in
 * role because the roles nest: a trace stem's capture may create a
 * database image under forImage() while holding forStem(), never the
 * reverse (tools/lockorder.txt).
 */
class StemLocks
{
  public:
    static StemLocks &
    instance()
    {
        static StemLocks locks;
        return locks;
    }

    /** The (process-lifetime) mutex serializing work on `stem`. */
    Mutex &
    forStem(const std::string &stem) TLSIM_EXCLUDES(mtx_)
    {
        MutexLock lk(mtx_);
        auto &slot = locks_[stem];
        if (!slot)
            slot = std::make_unique<Mutex>();
        return *slot;
    }

    /** The mutex serializing creation of the image file at `path`. */
    Mutex &
    forImage(const std::string &path) TLSIM_EXCLUDES(mtx_)
    {
        return forStem(path);
    }

  private:
    StemLocks() = default;

    Mutex mtx_;
    std::map<std::string, std::unique_ptr<Mutex>> locks_
        TLSIM_GUARDED_BY(mtx_);
};

} // namespace tlsim

#endif // BASE_SYNC_H
