/**
 * @file
 * Host-side threading primitives shared by the benchmark fan-out and
 * the sharded simulation kernel.
 *
 * Two kinds of host parallelism coexist in this codebase, and both are
 * built from the helpers here:
 *
 *  1. *Fan-out* of independent simulations (benchmark grid cells, fuzz
 *     campaign cases): each System owns a private EventQueue and every
 *     piece of mutable state it touches, so whole runs are distributed
 *     across a ThreadPool with no synchronization beyond job handoff
 *     (see bench_util.hh runGrid and fuzz::runCampaign).
 *
 *  2. *Sharded stepping* of one joint simulation (sim/shard.hh): each
 *     shard owns an EventQueue stepped by exactly one worker inside a
 *     conservative lookahead window; workers rendezvous on a barrier at
 *     window edges, where the coordinator drains cross-shard mailboxes
 *     in a fixed order. The shard-worker contract is:
 *
 *       - between barriers, a worker touches only state owned by the
 *         shards assigned to it (a component belongs to the shard
 *         whose EventQueue it was constructed on);
 *       - cross-shard communication goes through per-link append
 *         buffers: the posting shard's worker appends during a window,
 *         and the coordinator alone drains and clears them after the
 *         join barrier, so posting and draining never overlap and the
 *         buffers need no locks, no capacity and no overflow check;
 *       - the barrier provides the happens-before edge that lets the
 *         coordinator read every shard's queue state and mailbox
 *         race-free.
 *
 * The only joint simulation with more than one shard is a
 * multi-channel System (one core shard plus one per memory channel);
 * its kernel starts its own per-run workers. Event delivery order
 * inside a shard is independent of worker scheduling, which is what
 * makes simulation results byte-identical for any thread count.
 */

#ifndef THYNVM_COMMON_PARALLEL_HH
#define THYNVM_COMMON_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace thynvm {

/**
 * Fixed-size pool of worker threads draining a FIFO job queue.
 *
 * Jobs submitted before destruction are all executed; the destructor
 * blocks until the queue drains and every worker has joined. Jobs must
 * not throw (wrap user code and capture exceptions at the call site).
 */
class ThreadPool
{
  public:
    /** @param threads worker count; clamped to at least one. */
    explicit ThreadPool(unsigned threads)
    {
        if (threads == 0)
            threads = 1;
        workers_.reserve(threads);
        for (unsigned i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (auto& w : workers_)
            w.join();
    }

    /** Enqueue a job for execution on some worker. */
    void
    submit(std::function<void()> job)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            jobs_.push_back(std::move(job));
        }
        cv_.notify_one();
    }

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock,
                         [this] { return stopping_ || !jobs_.empty(); });
                if (jobs_.empty())
                    return; // stopping and drained
                job = std::move(jobs_.front());
                jobs_.pop_front();
            }
            job();
        }
    }

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> jobs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/**
 * One-shot countdown: arrive() decrements, wait() blocks until zero.
 *
 * The wait() return provides a happens-before edge from every arrive()
 * — the shard kernel relies on this to read worker-written queue state
 * race-free after a stepping round.
 */
class CountdownLatch
{
  public:
    explicit CountdownLatch(std::size_t count) : count_(count) {}

    CountdownLatch(const CountdownLatch&) = delete;
    CountdownLatch& operator=(const CountdownLatch&) = delete;

    /** Signal one arrival. */
    void
    arrive()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panic_if(count_ == 0, "latch arrive() past zero");
        if (--count_ == 0)
            cv_.notify_all();
    }

    /** Block until the count reaches zero. */
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return count_ == 0; });
    }

  private:
    std::size_t count_;
    std::mutex mutex_;
    std::condition_variable cv_;
};

/**
 * Reusable rendezvous for a fixed party count. The generation counter
 * makes consecutive waits independent, so the same Barrier instance
 * serves every window edge of a sharded run.
 */
class Barrier
{
  public:
    explicit Barrier(std::size_t parties) : parties_(parties) {}

    Barrier(const Barrier&) = delete;
    Barrier& operator=(const Barrier&) = delete;

    /** Block until all parties have arrived at this generation. */
    void
    arriveAndWait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const std::uint64_t gen = generation_;
        if (++arrived_ == parties_) {
            arrived_ = 0;
            ++generation_;
            cv_.notify_all();
            return;
        }
        cv_.wait(lock, [this, gen] { return generation_ != gen; });
    }

  private:
    std::size_t parties_;
    std::size_t arrived_ = 0;
    std::uint64_t generation_ = 0;
    std::mutex mutex_;
    std::condition_variable cv_;
};

/**
 * Sense-reversing rendezvous tuned for the sharded kernel's window
 * loop, where windows are microseconds apart on the host: parties spin
 * briefly on the generation word, yield for a while, and only then
 * fall back to blocking on a condition variable. Compared to Barrier
 * this avoids a mutex round-trip per arrival on the fast path, which
 * dominates when the kernel executes millions of tiny windows.
 *
 * arriveAndWait() is a full acquire/release fence between generations:
 * everything written by any party before arriving is visible to every
 * party after the barrier opens.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(std::uint32_t parties)
        : parties_(parties),
          // Spinning only helps when every party can be on a core at
          // once; oversubscribed, the spinner burns the quantum the
          // other parties need, so go straight to yield/block.
          spin_limit_(parties <= std::thread::hardware_concurrency()
                          ? 4096
                          : 0)
    {
    }

    SpinBarrier(const SpinBarrier&) = delete;
    SpinBarrier& operator=(const SpinBarrier&) = delete;

    /** Block until all parties have arrived at this generation. */
    void
    arriveAndWait()
    {
        const std::uint32_t gen =
            generation_.load(std::memory_order_relaxed);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            // Last arriver: open the next generation. The mutex pairs
            // with the blocking waiters' re-check so a notify cannot
            // slip between their generation load and cv wait.
            arrived_.store(0, std::memory_order_relaxed);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                generation_.store(gen + 1, std::memory_order_release);
            }
            cv_.notify_all();
            return;
        }
        for (int spin = 0; spin < spin_limit_; ++spin) {
            if (generation_.load(std::memory_order_acquire) != gen)
                return;
        }
        for (int pause = 0; pause < 64; ++pause) {
            if (generation_.load(std::memory_order_acquire) != gen)
                return;
            std::this_thread::yield();
        }
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this, gen] {
            return generation_.load(std::memory_order_acquire) != gen;
        });
    }

  private:
    const std::uint32_t parties_;
    const int spin_limit_;
    std::atomic<std::uint32_t> arrived_{0};
    std::atomic<std::uint32_t> generation_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
};

/** Host hardware concurrency, clamped to at least one. */
inline unsigned
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

/**
 * Worker-thread count for a single sharded simulation: the
 * THYNVM_SIM_THREADS environment variable if set (>= 1), else 0
 * meaning "serial" — parallel stepping is strictly opt-in.
 */
inline unsigned
simThreadsFromEnv()
{
    if (const char* env = std::getenv("THYNVM_SIM_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    return 0;
}

/**
 * Memory-channel count from THYNVM_CHANNELS, or 0 when unset/invalid
 * (callers treat 0 as "one channel"). Consulted by SystemConfig when
 * channels is left at its deferred default, mirroring
 * simThreadsFromEnv(); CI uses it to route whole test labels through
 * the multi-channel topology.
 */
inline unsigned
channelsFromEnv()
{
    if (const char* env = std::getenv("THYNVM_CHANNELS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    return 0;
}

/**
 * Run @p fn(i) for every i in [0, n) on @p pool, blocking until all
 * indices finish. The first exception thrown by any call is rethrown
 * to the caller after all indices finish.
 */
template <typename Fn>
void
parallelForOn(ThreadPool& pool, std::size_t n, Fn&& fn)
{
    if (n == 0)
        return;
    std::vector<std::exception_ptr> errors(n);
    CountdownLatch latch(n);
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&fn, &errors, &latch, i] {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            latch.arrive();
        });
    }
    latch.wait();
    for (auto& e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

/**
 * Run @p fn(i) for every i in [0, n), fanning across @p threads
 * workers. With threads <= 1 the calls run inline on the caller's
 * thread in index order (bit-identical control flow to a plain loop).
 * The first exception thrown by any call is rethrown to the caller
 * after all indices finish.
 */
template <typename Fn>
void
parallelFor(std::size_t n, Fn&& fn, unsigned threads)
{
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(
        static_cast<unsigned>(std::min<std::size_t>(threads, n)));
    parallelForOn(pool, n, std::forward<Fn>(fn));
}

} // namespace thynvm

#endif // THYNVM_COMMON_PARALLEL_HH
