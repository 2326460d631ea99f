#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace cxlsim {

namespace {

/** Set while a thread is executing pool work or a parallelFor
 *  body; nested parallelFor calls then run serially instead of
 *  deadlocking on the single shared pool. */
thread_local bool t_inParallel = false;

/**
 * The process-wide worker pool. One job runs at a time (outer
 * calls serialize on jobMu_); workers park on cv_ between jobs.
 *
 * Job protocol: the publishing thread writes the job fields and
 * bumps gen_ under mu_, wakes everyone, then participates itself.
 * Workers claim at most `slots_` participation slots per job so a
 * caller-requested thread cap is honored even when the pool has
 * more workers. Chunks are claimed from the atomic cursor, by the
 * caller or by a worker holding a slot. The caller returns only
 * once its own chunks are done and no worker holds a slot, and it
 * closes the slots before it lets go of mu_. So every chunk has
 * run, and no worker can still be about to claim one: a worker
 * that took its slot and then stalled would otherwise claim the
 * next job's chunks with this job's std::function, which by then
 * dangles.
 */
class WorkerPool
{
  public:
    static WorkerPool &
    instance()
    {
        // The pool is the one sanctioned process-wide singleton: it
        // owns no simulation state (chunks are claimed through an
        // atomic cursor, results land in caller-owned memory), so
        // determinism is unaffected by which worker runs a chunk.
        // lint:allow(det-static-local: sanctioned pool singleton, no sim state)
        static WorkerPool pool;
        return pool;
    }

    void
    run(std::size_t n, const std::function<void(std::size_t)> &fn,
        unsigned participants, std::size_t grain)
    {
        std::lock_guard<std::mutex> job(jobMu_);
        ensureWorkers(participants - 1);
        {
            std::lock_guard<std::mutex> lk(mu_);
            fn_ = &fn;
            n_ = n;
            grain_ = grain;
            next_.store(0, std::memory_order_relaxed);
            slots_ = static_cast<int>(participants) - 1;
            ++gen_;
        }
        cv_.notify_all();

        t_inParallel = true;
        workOn(fn, n, grain);
        t_inParallel = false;

        std::unique_lock<std::mutex> lk(mu_);
        doneCv_.wait(lk, [&] { return active_ == 0; });
        slots_ = 0;
        fn_ = nullptr;
    }

  private:
    WorkerPool() = default;

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    void
    ensureWorkers(unsigned target)
    {
        // jobMu_ is held: workers_ only grows from here.
        while (workers_.size() < target)
            workers_.emplace_back([this] { workerLoop(); });
    }

    void
    workOn(const std::function<void(std::size_t)> &fn, std::size_t n,
           std::size_t grain)
    {
        for (std::size_t start =
                 next_.fetch_add(grain, std::memory_order_relaxed);
             start < n;
             start = next_.fetch_add(grain,
                                     std::memory_order_relaxed)) {
            const std::size_t end = std::min(n, start + grain);
            for (std::size_t i = start; i < end; ++i)
                fn(i);
        }
    }

    void
    workerLoop()
    {
        t_inParallel = true;
        std::uint64_t seen = 0;
        for (;;) {
            const std::function<void(std::size_t)> *fn;
            std::size_t n, grain;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk,
                         [&] { return stop_ || gen_ != seen; });
                if (stop_)
                    return;
                seen = gen_;
                if (slots_ <= 0)
                    continue;  // job already fully staffed
                --slots_;
                ++active_;
                fn = fn_;
                n = n_;
                grain = grain_;
            }
            workOn(*fn, n, grain);
            std::lock_guard<std::mutex> lk(mu_);
            if (--active_ == 0)
                doneCv_.notify_all();
        }
    }

    /** Serializes whole jobs (one parallelFor at a time). */
    std::mutex jobMu_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable doneCv_;
    std::vector<std::thread> workers_;
    bool stop_ = false;

    // Current-job state; scalars guarded by mu_.
    std::uint64_t gen_ = 0;
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::size_t n_ = 0;
    std::size_t grain_ = 1;
    int slots_ = 0;
    /** Workers holding a slot of the current job. */
    int active_ = 0;
    std::atomic<std::size_t> next_{0};
};

}  // namespace

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            unsigned threads, std::size_t grain)
{
    if (n == 0)
        return;
    if (threads == 0)
        threads = std::thread::hardware_concurrency();
    threads = std::max(
        1u, std::min<unsigned>(threads, static_cast<unsigned>(n)));
    if (grain == 0)
        grain = 1;
    if (threads == 1 || t_inParallel) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    WorkerPool::instance().run(n, fn, threads, grain);
}

}  // namespace cxlsim
