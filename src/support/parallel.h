/**
 * @file
 * Host-side parallel execution substrate: a lazily-started persistent task
 * pool plus chunked parallelFor / parallelMap helpers with deterministic
 * result ordering. The compile-and-simulate pipeline uses this to evaluate
 * independent mapping candidates concurrently (autotune trials, candidate
 * scoring, figure sweeps) without changing any observable result order.
 *
 * Design points:
 *  - Results are deterministic: parallelMap returns results indexed by the
 *    input position, never by completion order. Any reduction over the
 *    results must be folded by the caller in index order if it is
 *    order-sensitive (floating-point ties, first-wins selection).
 *  - Nested use is safe but not nested-parallel: a parallelFor issued from
 *    inside a worker runs inline on the calling thread. This keeps the
 *    pool deadlock-free without a work-stealing scheduler.
 *  - The pool serves one parallelFor at a time. When callers on several
 *    threads submit at once, the most recent submitter gets the workers
 *    and every caller keeps working through its own job; a caller waits
 *    only for the workers inside its own job, never for another
 *    caller's.
 *  - Exceptions thrown by body functions are captured and rethrown on the
 *    calling thread after all chunks finish (first failing chunk by index
 *    wins, deterministically).
 *  - Thread count: hardware_concurrency, overridable with NPP_THREADS
 *    (NPP_THREADS=1 forces fully serial inline execution).
 */

#ifndef NPP_SUPPORT_PARALLEL_H
#define NPP_SUPPORT_PARALLEL_H

#include <cstdint>
#include <functional>
#include <vector>

namespace npp {

/** Number of worker threads the pool targets (>= 1). Reads NPP_THREADS on
 *  first use; 1 means all parallel helpers degrade to inline loops. */
int parallelThreadCount();

/** Override the thread count programmatically (benches compare serial vs
 *  parallel in one process). 0 restores the default/NPP_THREADS value.
 *  Must not be called from inside a parallel region. */
void setParallelThreadCount(int threads);

/** True while the calling thread is executing inside a parallelFor body
 *  (worker or participating caller). Nested parallel calls run inline. */
bool inParallelRegion();

/**
 * Run body(i) for every i in [begin, end), distributing contiguous chunks
 * over the task pool. The calling thread participates. Returns after every
 * iteration completed; rethrows the first (lowest-index) captured
 * exception if any body threw.
 *
 * `grain` is the minimum number of iterations per chunk; 0 picks a chunk
 * size that yields ~4 chunks per thread.
 */
void parallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)> &body,
                 int64_t grain = 0);

/**
 * Run body(worker, lo, hi) over [0, n) cut into contiguous chunks, with
 * at most `workers` workers claiming chunks dynamically through
 * parallelFor. A worker index is served by one thread at a time and sees
 * its chunks in increasing order, so per-worker state indexed by
 * `worker` needs no locking; a worker that claims no chunk is never
 * called. With one worker (or inside a parallel region) every chunk runs
 * in order on the calling thread.
 */
void parallelChunks(int64_t n, int workers,
                    const std::function<void(int, int64_t, int64_t)> &body);

/**
 * Map fn over [0, n) and collect results in input order. fn must be
 * invocable concurrently from multiple threads.
 */
template <typename T>
std::vector<T>
parallelMap(int64_t n, const std::function<T(int64_t)> &fn, int64_t grain = 0)
{
    std::vector<T> out(static_cast<size_t>(n < 0 ? 0 : n));
    parallelFor(
        0, n, [&](int64_t i) { out[static_cast<size_t>(i)] = fn(i); }, grain);
    return out;
}

} // namespace npp

#endif // NPP_SUPPORT_PARALLEL_H
