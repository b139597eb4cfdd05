#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "support/env.h"
#include "support/logging.h"
#include "support/trace.h"

namespace npp {

namespace {

thread_local bool tlInParallel = false;

int overrideThreads = 0; // set via setParallelThreadCount

int
defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw ? static_cast<int>(hw) : 1;
    // 4096 threads is far beyond any machine this runs on; larger values
    // are typos (or unit confusion) rather than intent.
    return static_cast<int>(
        parseEnvInt("NPP_THREADS", fallback, 1, 4096));
}

/**
 * A persistent pool that serves one job at a time: the most recently
 * submitted parallelFor gets the workers that are free or finish their
 * chunks, while an earlier caller keeps draining its own job on its own
 * thread. Workers park on a condition variable between jobs; the job
 * itself is a shared atomic chunk cursor, so chunks are claimed
 * dynamically but results stay position-indexed. Each job counts the
 * workers inside it, and its caller waits for that count alone, so
 * callers on different threads never wait for each other. The pool is
 * process-lifetime (leaked intentionally so worker teardown never races
 * static destruction).
 */
class TaskPool
{
  public:
    static TaskPool &instance()
    {
        static TaskPool *pool = new TaskPool();
        return *pool;
    }

    void run(int64_t begin, int64_t end,
             const std::function<void(int64_t)> &body, int64_t grain,
             int threads)
    {
        const int64_t n = end - begin;
        ensureWorkers(threads - 1);

        if (grain <= 0) {
            // ~4 chunks per thread keeps the tail short without paying a
            // cursor bump per iteration.
            grain = n / (static_cast<int64_t>(threads) * 4);
            if (grain < 1)
                grain = 1;
        }

        Job job;
        job.begin = begin;
        job.end = end;
        job.grain = grain;
        job.body = &body;
        job.cursor.store(begin, std::memory_order_relaxed);

        {
            std::unique_lock<std::mutex> lock(mutex_);
            job_ = &job;
            ++generation_;
        }
        cv_.notify_all();

        // The caller participates in the same chunk loop.
        workOn(job);

        // Wait for the workers inside this job to drain their claimed
        // chunks, then retire it unless a later caller's job replaced
        // it.
        {
            std::unique_lock<std::mutex> lock(mutex_);
            done_.wait(lock, [&] { return job.busyWorkers == 0; });
            if (job_ == &job)
                job_ = nullptr;
        }

        if (job.error)
            std::rethrow_exception(job.error);
    }

  private:
    struct Job
    {
        int64_t begin = 0;
        int64_t end = 0;
        int64_t grain = 1;
        const std::function<void(int64_t)> *body = nullptr;
        std::atomic<int64_t> cursor{0};
        // Workers inside this job (guarded by the pool mutex).
        int busyWorkers = 0;
        // First-failing-chunk-by-index exception, for determinism.
        std::mutex errorMutex;
        int64_t errorChunk = -1;
        std::exception_ptr error;
    };

    TaskPool() = default;

    void ensureWorkers(int count)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (static_cast<int>(workers_.size()) < count)
            workers_.emplace_back([this] { workerLoop(); });
    }

    void workerLoop()
    {
        uint64_t seen = 0;
        for (;;) {
            Job *job = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] { return generation_ != seen; });
                seen = generation_;
                job = job_;
                if (!job)
                    continue;
                ++job->busyWorkers;
            }
            workOn(*job);
            {
                std::unique_lock<std::mutex> lock(mutex_);
                if (--job->busyWorkers == 0)
                    done_.notify_all();
            }
        }
    }

    static void workOn(Job &job)
    {
        tlInParallel = true;
        for (;;) {
            int64_t lo =
                job.cursor.fetch_add(job.grain, std::memory_order_relaxed);
            if (lo >= job.end)
                break;
            int64_t hi = lo + job.grain < job.end ? lo + job.grain : job.end;
            try {
                for (int64_t i = lo; i < hi; ++i)
                    (*job.body)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(job.errorMutex);
                if (job.errorChunk < 0 || lo < job.errorChunk) {
                    job.errorChunk = lo;
                    job.error = std::current_exception();
                }
            }
        }
        tlInParallel = false;
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
    Job *job_ = nullptr;
    uint64_t generation_ = 0;
};

} // namespace

int
parallelThreadCount()
{
    if (overrideThreads >= 1)
        return overrideThreads;
    static int cached = defaultThreadCount();
    return cached;
}

void
setParallelThreadCount(int threads)
{
    NPP_ASSERT(!tlInParallel,
               "setParallelThreadCount inside a parallel region");
    overrideThreads = threads >= 1 ? threads : 0;
}

bool
inParallelRegion()
{
    return tlInParallel;
}

void
parallelFor(int64_t begin, int64_t end,
            const std::function<void(int64_t)> &body, int64_t grain)
{
    if (begin >= end)
        return;

    const int threads = parallelThreadCount();
    const int64_t n = end - begin;

    // Serial configurations and nested calls run inline: the pool executes
    // one job at a time, so a nested submission would deadlock; inline
    // execution keeps nested use legal (and exceptions propagate natively).
    if (threads <= 1 || n == 1 || tlInParallel) {
        for (int64_t i = begin; i < end; ++i)
            body(i);
        return;
    }

    NPP_TRACE_SCOPE("parallel.for");
    NPP_TRACE_COUNT("parallel.jobs", 1);
    TaskPool::instance().run(begin, end, body, grain, threads);
}

void
parallelChunks(int64_t n, int workers,
               const std::function<void(int, int64_t, int64_t)> &body)
{
    if (n <= 0)
        return;
    workers = static_cast<int>(std::clamp<int64_t>(workers, 1, n));
    // ~8 chunks per worker: a chunk claim is one atomic add, so the tail
    // stays short even when blocks are few and costly.
    const int64_t grain = std::max<int64_t>(1, n / (workers * 8));
    std::atomic<int64_t> cursor{0};
    parallelFor(
        0, workers,
        [&](int64_t w) {
            for (;;) {
                const int64_t lo = cursor.fetch_add(grain);
                if (lo >= n)
                    break;
                body(static_cast<int>(w), lo, std::min(n, lo + grain));
            }
        },
        /*grain=*/1);
}

} // namespace npp
