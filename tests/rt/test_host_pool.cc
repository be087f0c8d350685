/**
 * @file
 * HostPool (rt/host_pool.h): the process-lifetime worker pool behind
 * ParallelSweep. Every index must run exactly once regardless of the
 * worker count, the first task exception must be rethrown on the
 * caller after the job drains, the pool must stay reusable after
 * both completion and failure, and a slow task must not hold back any
 * index but its own (workers claim one index at a time).
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "rt/host_pool.h"

namespace crw {
namespace {

struct CountCtx
{
    std::vector<std::atomic<int>> hits;
    explicit CountCtx(std::size_t n) : hits(n) {}
};

void
countTask(void *ctx, std::size_t index, int)
{
    static_cast<CountCtx *>(ctx)->hits[index].fetch_add(1);
}

TEST(HostPool, EveryIndexRunsExactlyOnce)
{
    for (const int workers : {1, 2, 4, 13}) {
        CountCtx ctx(97);
        HostPool::instance().run(ctx.hits.size(), workers, countTask,
                                 &ctx);
        for (std::size_t i = 0; i < ctx.hits.size(); ++i)
            EXPECT_EQ(ctx.hits[i].load(), 1)
                << "index " << i << " with " << workers << " workers";
    }
}

TEST(HostPool, ZeroCountIsANoop)
{
    CountCtx ctx(1);
    HostPool::instance().run(0, 4, countTask, &ctx);
    EXPECT_EQ(ctx.hits[0].load(), 0);
}

TEST(HostPool, MoreWorkersThanTasks)
{
    CountCtx ctx(3);
    HostPool::instance().run(ctx.hits.size(), 64, countTask, &ctx);
    for (std::size_t i = 0; i < ctx.hits.size(); ++i)
        EXPECT_EQ(ctx.hits[i].load(), 1) << "index " << i;
}

struct ThrowCtx
{
    std::atomic<int> ran{0};
    std::size_t throwAt = 0;
};

void
throwTask(void *ctx, std::size_t index, int)
{
    ThrowCtx &c = *static_cast<ThrowCtx *>(ctx);
    c.ran.fetch_add(1);
    if (index == c.throwAt)
        throw std::runtime_error("task boom");
}

TEST(HostPool, TaskExceptionRethrownOnCaller)
{
    for (const int workers : {1, 4}) {
        ThrowCtx ctx;
        ctx.throwAt = 5;
        EXPECT_THROW(HostPool::instance().run(32, workers, throwTask,
                                              &ctx),
                     std::runtime_error)
            << workers << " workers";
        // The throwing task itself ran; unclaimed work may have been
        // abandoned, but nothing runs after run() returns.
        EXPECT_GE(ctx.ran.load(), 1) << workers << " workers";
    }
}

TEST(HostPool, ReusableAfterFailure)
{
    ThrowCtx bad;
    bad.throwAt = 0;
    EXPECT_THROW(HostPool::instance().run(8, 4, throwTask, &bad),
                 std::runtime_error);

    CountCtx good(64);
    HostPool::instance().run(good.hits.size(), 4, countTask, &good);
    for (std::size_t i = 0; i < good.hits.size(); ++i)
        EXPECT_EQ(good.hits[i].load(), 1) << "index " << i;
}

struct BlockCtx
{
    static constexpr std::size_t kTasks = 64;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t laterRan = 0;
    bool sawAllLater = false;
};

void
blockTask(void *ctx, std::size_t index, int)
{
    BlockCtx &c = *static_cast<BlockCtx *>(ctx);
    std::unique_lock<std::mutex> lock(c.mu);
    if (index != 0) {
        if (++c.laterRan == BlockCtx::kTasks - 1)
            c.cv.notify_all();
        return;
    }
    // Task 0 waits for every later index. Were indices claimed in
    // chunks, its own claim's neighbours would sit behind it and
    // the wait would time out (bounded, so a failure cannot hang).
    c.sawAllLater = c.cv.wait_for(lock, std::chrono::seconds(5), [&] {
        return c.laterRan == BlockCtx::kTasks - 1;
    });
}

TEST(HostPool, BlockedTaskDoesNotHoldBackLaterIndices)
{
    BlockCtx ctx;
    HostPool::instance().run(BlockCtx::kTasks, 4, blockTask, &ctx);
    EXPECT_TRUE(ctx.sawAllLater)
        << "only " << ctx.laterRan << " of " << BlockCtx::kTasks - 1
        << " later tasks ran while task 0 was blocked";
    EXPECT_EQ(ctx.laterRan, BlockCtx::kTasks - 1);
}

} // namespace
} // namespace crw
