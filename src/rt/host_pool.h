/**
 * @file
 * HostPool: the process-lifetime worker pool behind every parallel
 * sweep (bench/harness.h ParallelSweep) and capture fan-out.
 *
 * The previous design spawned fresh std::threads — and a heap-
 * allocated std::function per worker — for every sweep; a bench run
 * that executes many small sweeps paid thread creation and teardown
 * each time. HostPool keeps one set of parked workers for the life of
 * the process:
 *
 *  - run() publishes one job (a plain function pointer + context, no
 *    allocation) and participates as worker 0 itself;
 *  - workers claim one index at a time off one atomic counter — the
 *    classic work-stealing-by-counter schedule: a fast worker simply
 *    claims more indices. Every production job is coarse (a predecode
 *    per behavior, a replay unit per lockstep batch, a microtrace walk
 *    per cell: tens to a couple of hundred tasks of milliseconds
 *    each), so one atomic per task is noise. Chunks of
 *    count / (workers x 4) indices (6 for the replay job) clumped the
 *    heavy spell batches, which sit next to each other in
 *    pointBatchKey order, into one worker's claim while the others
 *    went idle;
 *  - the first exception thrown by any task is captured and rethrown
 *    on the caller after the job drains (tasks already running
 *    finish; unclaimed indices are abandoned), so a failing replay
 *    point surfaces as an ordinary exception instead of
 *    std::terminate;
 *  - helper threads are spawned lazily, up to the largest
 *    max_workers ever requested (bounded by the --jobs clamp), and
 *    parked on a condition variable between jobs.
 *
 * Jobs must be issued one at a time (the bench executor and capture
 * paths are serial at this level); run() is not reentrant and not
 * thread-safe, which keeps the job hand-off a single seqlock-free
 * generation bump.
 */

#ifndef CRW_RT_HOST_POOL_H_
#define CRW_RT_HOST_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace crw {

class HostPool
{
  public:
    /** The one pool of the process (lazily constructed, never torn
     *  down until exit; workers park between jobs). */
    static HostPool &instance();

    /**
     * One task: called once per index in [0, count), from worker
     * @p worker (0 = the run() caller). @p ctx is the pointer given
     * to run() — the caller's stack frame outlives the job, so plain
     * pointer capture replaces per-task std::function allocation.
     */
    using TaskFn = void (*)(void *ctx, std::size_t index, int worker);

    /**
     * Execute @p fn for every index in [0, count) using at most
     * @p max_workers workers (including the caller). Returns when
     * every claimed index has run; rethrows the first task exception
     * after the job drains. max_workers <= 1 runs inline.
     */
    void run(std::size_t count, int max_workers, TaskFn fn, void *ctx);

    /** What an EventHook is told about. */
    enum class Event
    {
        JobStart, ///< run() published a job (a = count, b = workers)
        JobEnd,   ///< the job drained (a = count, b = workers)
    };

    /**
     * One process-wide hook observing run() start/end. rt sits below
     * the observability layer, so the dependency is inverted: the
     * bench harness installs a hook that forwards into the obs event
     * ring. Called from the run() caller only — same thread-safety
     * as run() itself. Null uninstalls.
     */
    using EventHook = void (*)(Event event, std::uint64_t a,
                               std::uint64_t b);
    static void setEventHook(EventHook hook);

    HostPool(const HostPool &) = delete;
    HostPool &operator=(const HostPool &) = delete;

  private:
    HostPool() = default;
    ~HostPool();

    void ensureHelpers(int helpers);
    void helperMain(int helper_index);
    void claimLoop(int worker);
    void recordFailure() noexcept;

    mutable std::mutex mu_;
    std::condition_variable jobCv_;  ///< helpers wait for a job
    std::condition_variable doneCv_; ///< caller waits for helpers
    std::vector<std::thread> helpers_;
    bool stop_ = false;

    // Current job, published under mu_ by a generation bump. Helpers
    // with index >= jobHelpers_ skip the generation without touching
    // the pending count.
    std::uint64_t jobSeq_ = 0;
    int jobHelpers_ = 0;
    int pending_ = 0;
    TaskFn fn_ = nullptr;
    void *ctx_ = nullptr;
    std::size_t count_ = 0;
    std::atomic<std::size_t> next_{0};

    std::atomic<bool> failed_{false};
    std::exception_ptr firstError_;
    std::mutex errMu_;
};

} // namespace crw

#endif // CRW_RT_HOST_POOL_H_
