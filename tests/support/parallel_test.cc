/**
 * @file
 * Tests for the host-side parallel substrate (support/parallel.h): chunked
 * parallelFor / parallelMap over the persistent task pool, deterministic
 * result ordering, exception propagation, the nested-use inline guard, and
 * the thread-count override used by the benches.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/parallel.h"

namespace npp {
namespace {

/** Restore the default thread count after each test. */
class ParallelTest : public ::testing::Test
{
  protected:
    void TearDown() override { setParallelThreadCount(0); }
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce)
{
    const int64_t n = 10007; // prime: chunking never divides it evenly
    std::vector<std::atomic<int>> hits(n);
    parallelFor(0, n, [&](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1,
                                               std::memory_order_relaxed);
    });
    for (int64_t i = 0; i < n; i++)
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
}

TEST_F(ParallelTest, EmptyAndSingletonRanges)
{
    int calls = 0;
    parallelFor(5, 5, [&](int64_t) { calls++; });
    parallelFor(7, 3, [&](int64_t) { calls++; });
    EXPECT_EQ(calls, 0);
    parallelFor(41, 42, [&](int64_t i) {
        calls++;
        EXPECT_EQ(i, 41);
    });
    EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, MapResultsAreInInputOrder)
{
    // Results must land by input position, never by completion order.
    const int64_t n = 513;
    std::vector<int64_t> out = parallelMap<int64_t>(
        n, [](int64_t i) { return i * i; }, /*grain=*/7);
    for (int64_t i = 0; i < n; i++)
        ASSERT_EQ(out[static_cast<size_t>(i)], i * i);
}

TEST_F(ParallelTest, SerialAndParallelMapAgreeBitwise)
{
    const int64_t n = 1000;
    auto fn = [](int64_t i) {
        double acc = 0.0;
        for (int k = 0; k < 50; k++)
            acc += static_cast<double>(i + k) * 1e-3;
        return acc;
    };
    setParallelThreadCount(1);
    std::vector<double> serial = parallelMap<double>(n, fn);
    setParallelThreadCount(4);
    std::vector<double> parallel = parallelMap<double>(n, fn);
    EXPECT_EQ(serial, parallel);
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller)
{
    setParallelThreadCount(4);
    EXPECT_THROW(parallelFor(0, 1000,
                             [](int64_t i) {
                                 if (i == 617)
                                     throw std::runtime_error("boom 617");
                             }),
                 std::runtime_error);
}

TEST_F(ParallelTest, FirstFailingChunkWinsDeterministically)
{
    // Multiple failing iterations: the rethrown exception must always be
    // the one from the lowest-index chunk, independent of scheduling.
    setParallelThreadCount(4);
    for (int round = 0; round < 20; round++) {
        std::string caught;
        try {
            parallelFor(
                0, 64,
                [](int64_t i) {
                    if (i % 16 == 3)
                        throw std::runtime_error("fail@" +
                                                 std::to_string(i / 16));
                },
                /*grain=*/16);
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        ASSERT_EQ(caught, "fail@0");
    }
}

TEST_F(ParallelTest, PoolSurvivesAnExceptionJob)
{
    setParallelThreadCount(4);
    try {
        parallelFor(0, 100, [](int64_t) { throw 1; });
    } catch (...) {
    }
    std::atomic<int64_t> sum{0};
    parallelFor(0, 100, [&](int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST_F(ParallelTest, NestedParallelForRunsInline)
{
    setParallelThreadCount(4);
    std::atomic<int> nestedInline{0};
    std::atomic<int> total{0};
    parallelFor(0, 8, [&](int64_t) {
        EXPECT_TRUE(inParallelRegion());
        // The nested call must run on this thread (inline), not deadlock
        // waiting for the busy pool.
        std::thread::id outer = std::this_thread::get_id();
        parallelFor(0, 4, [&](int64_t) {
            total.fetch_add(1);
            if (std::this_thread::get_id() == outer)
                nestedInline.fetch_add(1);
        });
    });
    EXPECT_EQ(total.load(), 8 * 4);
    EXPECT_EQ(nestedInline.load(), 8 * 4) << "nested bodies left the thread";
    EXPECT_FALSE(inParallelRegion());
}

TEST_F(ParallelTest, CallerWaitsOnlyForItsOwnJob)
{
    // Thread A's four bodies hold every worker until thread B's short
    // job has returned; B submits while they run. If B's caller waited
    // for workers inside A's job (as a pool-wide busy count makes it),
    // B could not return until A's bodies gave up. Every wait is
    // bounded, so a regression fails here instead of hanging.
    setParallelThreadCount(4);
    using Clock = std::chrono::steady_clock;
    constexpr auto kBound = std::chrono::seconds(3);
    std::mutex mu;
    std::condition_variable cv;
    bool aStarted = false;
    bool bReturned = false;
    std::vector<std::atomic<int>> hitsA(4), hitsB(2);
    std::atomic<int> timedOut{0};

    std::thread a([&] {
        parallelFor(
            0, 4,
            [&](int64_t i) {
                hitsA[static_cast<size_t>(i)].fetch_add(1);
                std::unique_lock<std::mutex> lock(mu);
                aStarted = true;
                cv.notify_all();
                if (!cv.wait_for(lock, kBound, [&] { return bReturned; }))
                    timedOut.fetch_add(1);
            },
            /*grain=*/1);
    });
    Clock::duration bTook{};
    std::thread b([&] {
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait_for(lock, kBound, [&] { return aStarted; });
        }
        const auto t0 = Clock::now();
        parallelFor(0, 2, [&](int64_t i) {
            hitsB[static_cast<size_t>(i)].fetch_add(1);
        });
        bTook = Clock::now() - t0;
        std::lock_guard<std::mutex> lock(mu);
        bReturned = true;
        cv.notify_all();
    });
    a.join();
    b.join();

    EXPECT_EQ(timedOut.load(), 0) << "A's bodies waited out their bound";
    EXPECT_LT(bTook, std::chrono::seconds(1))
        << "B's call waited for A's job";
    for (const auto &h : hitsA)
        EXPECT_EQ(h.load(), 1);
    for (const auto &h : hitsB)
        EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, ChunksCoverTheRangeInOrderPerWorker)
{
    setParallelThreadCount(4);
    const int64_t n = 1009;
    std::vector<std::atomic<int>> hits(n);
    std::vector<int64_t> last(4, -1);
    std::atomic<int> outOfOrder{0};
    parallelChunks(n, 4, [&](int w, int64_t lo, int64_t hi) {
        ASSERT_LT(lo, hi);
        if (lo <= last[static_cast<size_t>(w)])
            outOfOrder.fetch_add(1);
        last[static_cast<size_t>(w)] = hi - 1;
        for (int64_t i = lo; i < hi; i++)
            hits[static_cast<size_t>(i)].fetch_add(1);
    });
    EXPECT_EQ(outOfOrder.load(), 0);
    for (int64_t i = 0; i < n; i++)
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
}

TEST_F(ParallelTest, ThreadCountOverride)
{
    setParallelThreadCount(3);
    EXPECT_EQ(parallelThreadCount(), 3);
    setParallelThreadCount(0);
    EXPECT_GE(parallelThreadCount(), 1);
}

TEST_F(ParallelTest, SerialOverrideStaysOnCallingThread)
{
    setParallelThreadCount(1);
    const std::thread::id caller = std::this_thread::get_id();
    parallelFor(0, 64, [&](int64_t) {
        ASSERT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST_F(ParallelTest, GrainRespectedAsChunkFloor)
{
    // With grain=32 over 64 items and many threads, bodies observe at
    // most 2 distinct executing threads (2 chunks exist).
    setParallelThreadCount(8);
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallelFor(
        0, 64,
        [&](int64_t) {
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
        },
        /*grain=*/32);
    EXPECT_LE(ids.size(), 2u);
}

} // namespace
} // namespace npp
