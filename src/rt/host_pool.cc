#include "rt/host_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace crw {

namespace {
HostPool::EventHook g_eventHook = nullptr;
} // namespace

void
HostPool::setEventHook(EventHook hook)
{
    g_eventHook = hook;
}

HostPool &
HostPool::instance()
{
    static HostPool pool;
    return pool;
}

HostPool::~HostPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    jobCv_.notify_all();
    for (std::thread &t : helpers_)
        t.join();
}

void
HostPool::ensureHelpers(int helpers)
{
    // Caller holds mu_. Threads are only ever added: a later job
    // needing fewer workers simply leaves the extras parked.
    while (static_cast<int>(helpers_.size()) < helpers) {
        const int index = static_cast<int>(helpers_.size());
        helpers_.emplace_back([this, index] { helperMain(index); });
    }
}

void
HostPool::recordFailure() noexcept
{
    {
        std::lock_guard<std::mutex> lock(errMu_);
        if (!firstError_)
            firstError_ = std::current_exception();
    }
    failed_.store(true, std::memory_order_release);
}

void
HostPool::claimLoop(int worker)
{
    // One index per claim off one shared counter. After a failure the
    // loop stops claiming, so the job drains quickly — the caller is
    // about to throw, nobody will read the abandoned slots.
    while (!failed_.load(std::memory_order_acquire)) {
        const std::size_t i =
            next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count_)
            return;
        try {
            fn_(ctx_, i, worker);
        } catch (...) {
            recordFailure();
            return;
        }
    }
}

void
HostPool::helperMain(int helper_index)
{
    std::uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            jobCv_.wait(lock, [this, seen] {
                return stop_ || jobSeq_ != seen;
            });
            if (stop_)
                return;
            seen = jobSeq_;
            if (helper_index >= jobHelpers_)
                continue; // not a participant of this job
        }
        claimLoop(helper_index + 1);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--pending_ == 0)
                doneCv_.notify_all();
        }
    }
}

void
HostPool::run(std::size_t count, int max_workers, TaskFn fn, void *ctx)
{
    crw_assert(fn != nullptr);
    if (count == 0)
        return;

    const int workers = static_cast<int>(std::min<std::size_t>(
        count, static_cast<std::size_t>(std::max(1, max_workers))));

    if (g_eventHook)
        g_eventHook(Event::JobStart, count,
                    static_cast<std::uint64_t>(workers));

    failed_.store(false, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(errMu_);
        firstError_ = nullptr;
    }

    if (workers <= 1) {
        // Inline: same claim loop, so claim/failure semantics are
        // identical with and without helpers.
        fn_ = fn;
        ctx_ = ctx;
        count_ = count;
        next_.store(0, std::memory_order_relaxed);
        claimLoop(0);
    } else {
        const int helpers = workers - 1;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ensureHelpers(helpers);
            fn_ = fn;
            ctx_ = ctx;
            count_ = count;
            next_.store(0, std::memory_order_relaxed);
            jobHelpers_ = helpers;
            pending_ = helpers;
            ++jobSeq_;
        }
        jobCv_.notify_all();
        claimLoop(0);
        {
            std::unique_lock<std::mutex> lock(mu_);
            doneCv_.wait(lock, [this] { return pending_ == 0; });
        }
    }

    if (g_eventHook)
        g_eventHook(Event::JobEnd, count,
                    static_cast<std::uint64_t>(workers));

    if (failed_.load(std::memory_order_acquire)) {
        std::exception_ptr err;
        {
            std::lock_guard<std::mutex> lock(errMu_);
            err = firstError_;
            firstError_ = nullptr;
        }
        failed_.store(false, std::memory_order_relaxed);
        crw_assert(err != nullptr);
        std::rethrow_exception(err);
    }
}

} // namespace crw
