/**
 * @file
 * Non-preemptive user-level thread scheduler.
 *
 * Scheduling follows the paper's evaluation setup (§4.5/§4.6): it is
 * non-preemptive, with queue placement delegated to a policy object
 * (rt/sched_core.h) — FIFO, the §4.6 working-set refinement (a thread
 * awoken while its windows are still resident jumps to the *front* of
 * the ready queue), static priorities, and variants thereof.
 *
 * The mechanism and policy layer live in SchedCore / SchedPolicyBox
 * (rt/sched_core.h) so the trace ReplayDriver can reuse them without
 * coroutines; this class adds the live side: thread objects, stackful
 * coroutines, and the dispatch loop. Because the live scheduler is
 * non-preemptive (and the trace recorder coalesces adjacent charges),
 * the RoundRobin quantum is a *replay-time* construct: live RR is
 * placement-only, identical to FIFO. All other policies behave the
 * same live and under replay.
 *
 * Every actual dispatch is reported to the WindowEngine as a context
 * switch, so switch costs and window motion are charged exactly where
 * the paper's monitor would run its switch routine.
 */

#ifndef CRW_RT_SCHEDULER_H_
#define CRW_RT_SCHEDULER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "rt/coroutine.h"
#include "rt/sched_core.h"
#include "rt/trace_sink.h"
#include "win/engine.h"

namespace crw {

/** Lifecycle state of a simulated thread. */
enum class ThreadState {
    Ready,    ///< in the ready queue
    Running,  ///< currently executing
    Blocked,  ///< waiting on a stream (or explicit block)
    Finished, ///< body returned
};

/**
 * The scheduler. Owns the simulated threads and the dispatch loop.
 *
 * Usage: spawn() threads, then run() from the main context; run()
 * returns when every thread finished (or throws FatalError on
 * deadlock). Threads interact through blockCurrent()/wake(), usually
 * via Stream.
 */
class Scheduler
{
  public:
    Scheduler(WindowEngine &engine, SchedPolicy policy,
              std::size_t stack_size = 256 * 1024);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Create a thread; it starts Ready, placed by the policy (FIFO
     * back of the queue; Priority at its level). @p priority is the
     * static priority recorded into the trace (0 = default; higher
     * runs first under SchedPolicy::Priority, ignored elsewhere).
     */
    ThreadId spawn(std::string name, std::function<void()> body,
                   std::uint8_t priority = 0);

    /** Dispatch until all threads finish. Main-context only. */
    void run();

    /**
     * Block the running thread on @p waitlist (the caller appends the
     * id; this parks the coroutine) and dispatch another thread.
     * Thread-context only.
     */
    void blockCurrent(std::vector<ThreadId> &waitlist);

    /**
     * Move a Blocked thread to the ready queue (position depends on
     * the policy). Ignores ids in other states so streams may wake
     * generously.
     */
    void wake(ThreadId tid);

    /** Id of the running thread; kNoThread from the main context. */
    ThreadId currentId() const { return running_; }

    ThreadState state(ThreadId tid) const;
    int numThreads() const { return static_cast<int>(threads_.size()); }

    SchedPolicy policy() const { return core_.policy(); }

    /**
     * Ready-queue length statistics sampled at every dispatch — the
     * paper's "parallel slackness" (§5).
     */
    const Distribution &slackness() const { return core_.slackness(); }

    /** Dispatch count (= engine context switches + same-thread skips). */
    std::uint64_t dispatches() const { return core_.dispatches(); }

    /** Capture hook for thread-exit events (installed by Runtime). */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

  private:
    struct Thread
    {
        ThreadId id;
        std::string name;
        ThreadState state;
        std::unique_ptr<Coroutine> coro;
    };

    Thread &thread(ThreadId tid);
    const Thread &thread(ThreadId tid) const;
    void dispatch(ThreadId tid);

    WindowEngine &engine_;
    SchedCore core_;
    SchedPolicyBox policy_;
    std::size_t stackSize_;

    std::vector<Thread> threads_;
    ThreadId running_ = kNoThread;
    bool inRun_ = false;
    TraceSink *sink_ = nullptr;
};

} // namespace crw

#endif // CRW_RT_SCHEDULER_H_
