/**
 * @file
 * Program-behavior instrumentation, paper §5.
 *
 * Definitions implemented here (quoted terms from the paper):
 *
 *  - "Window activity per thread": the number of windows used between
 *    two successive context switches, assuming an infinite number of
 *    windows; a repeatedly-used window counts once. With infinite
 *    windows every call depth maps to a unique window, and the depths
 *    visited in a scheduling quantum form a contiguous range, so the
 *    activity equals maxDepth - minDepth + 1 over the quantum.
 *
 *  - "Total window activity": the number of windows used during a
 *    given period under the same assumption — the sum over threads of
 *    each thread's depth-range size within the period. Measured over
 *    fixed-length periods of context switches.
 *
 *  - "Concurrency": the number of distinct threads scheduled at least
 *    once during a period.
 *
 *  - "Parallel slackness" is sampled by the Scheduler itself (ready
 *    queue length at dispatch).
 *
 * These metrics are scheme-independent whenever scheduling is FIFO
 * (the paper's Table 1 argument), which the tests verify.
 */

#ifndef CRW_TRACE_BEHAVIOR_H_
#define CRW_TRACE_BEHAVIOR_H_

#include <limits>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "win/engine.h"

namespace crw {

/**
 * EngineObserver computing the §5 behavior metrics. Install with
 * WindowEngine::setObserver before running; read the distributions
 * afterwards (finish() flushes the final quantum/period).
 */
class BehaviorTracker final : public EngineObserver
{
  public:
    /**
     * @param period_switches Length, in context switches, of the
     *        period over which total window activity and concurrency
     *        are measured.
     */
    explicit BehaviorTracker(int period_switches = 64);

    // The per-event hooks are defined inline below: the replay driver
    // calls them directly on the concrete (final) tracker, so they
    // flatten into its dispatch loop instead of going through the
    // virtual observer boundary.
    void onSave(ThreadId tid, int depth) override;
    void onRestore(ThreadId tid, int depth) override;
    void onSwitch(ThreadId from, ThreadId to, int to_depth,
                  Cycles begin, Cycles end) override;
    void onExit(ThreadId tid) override;

    /** A switch to @p to at call depth @p to_depth; no metric here
     *  reads a clock, so the replay loops call this directly. */
    void switchTo(ThreadId to, int to_depth);

    /**
     * The running thread @p tid's saves and restores since its
     * switch-in visited the depths [@p lo, @p hi] — the same as one
     * onSave/onRestore per depth in it. The flat replay loop keeps
     * the range in locals and folds it in once, before the next
     * switchTo() and at the end of its run.
     */
    void noteRange(ThreadId tid, int lo, int hi);

    /** Flush the in-progress quantum and period. Call once at end. */
    void finish();

    /** Windows used per scheduling quantum (activity per thread). */
    const Distribution &activityPerQuantum() const
    {
        return activityPerQuantum_;
    }

    /** Sum of per-thread window footprints per period. */
    const Distribution &totalWindowActivity() const
    {
        return totalActivity_;
    }

    /** Distinct threads scheduled per period. */
    const Distribution &concurrency() const { return concurrency_; }

    std::uint64_t quanta() const
    {
        return activityPerQuantum_.count();
    }

  private:
    void noteDepth(ThreadId tid, int depth);
    void closeQuantum();
    void closePeriod();

    struct DepthRange
    {
        // Empty is encoded as an inverted range so note() needs no
        // touched flag: both extreme updates are branch-free min/max
        // (noteDepth runs on every oracle save/restore and switch).
        int minDepth = std::numeric_limits<int>::max();
        int maxDepth = std::numeric_limits<int>::min();

        void
        note(int depth)
        {
            note(depth, depth);
        }

        void
        note(int lo, int hi)
        {
            minDepth = lo < minDepth ? lo : minDepth;
            maxDepth = hi > maxDepth ? hi : maxDepth;
        }

        bool touched() const { return minDepth <= maxDepth; }

        int span() const { return touched() ? maxDepth - minDepth + 1 : 0; }
    };

    int periodSwitches_;

    // Current quantum.
    ThreadId running_ = kNoThread;
    DepthRange quantumRange_;

    // Current period. periodRanges_ is indexed by ThreadId (grown on
    // demand); touchedInPeriod_ counts touched entries, i.e. the
    // distinct threads scheduled this period.
    int switchesInPeriod_ = 0;
    std::vector<DepthRange> periodRanges_;
    int touchedInPeriod_ = 0;

    Distribution activityPerQuantum_;
    Distribution totalActivity_;
    Distribution concurrency_;
};

inline void
BehaviorTracker::noteDepth(ThreadId tid, int depth)
{
    quantumRange_.note(depth);
    if (tid >= static_cast<ThreadId>(periodRanges_.size()))
        periodRanges_.resize(static_cast<std::size_t>(tid) + 1);
    DepthRange &r = periodRanges_[static_cast<std::size_t>(tid)];
    touchedInPeriod_ += static_cast<int>(!r.touched());
    r.note(depth);
}

inline void
BehaviorTracker::noteRange(ThreadId tid, int lo, int hi)
{
    crw_assert(tid == running_ && lo <= hi);
    quantumRange_.note(lo, hi);
    // switchTo(tid) sized the table.
    DepthRange &r = periodRanges_[static_cast<std::size_t>(tid)];
    touchedInPeriod_ += static_cast<int>(!r.touched());
    r.note(lo, hi);
}

inline void
BehaviorTracker::onSave(ThreadId tid, int depth)
{
    crw_assert(tid == running_);
    noteDepth(tid, depth);
}

inline void
BehaviorTracker::onRestore(ThreadId tid, int depth)
{
    crw_assert(tid == running_);
    noteDepth(tid, depth);
}

inline void
BehaviorTracker::closeQuantum()
{
    if (running_ == kNoThread)
        return;
    activityPerQuantum_.sample(quantumRange_.span());
}

inline void
BehaviorTracker::onSwitch(ThreadId from, ThreadId to, int to_depth,
                          Cycles begin, Cycles end)
{
    (void)from;
    (void)begin;
    (void)end;
    switchTo(to, to_depth);
}

inline void
BehaviorTracker::switchTo(ThreadId to, int to_depth)
{
    closeQuantum();
    running_ = to;
    quantumRange_ = DepthRange{};
    // The scheduled thread's current window counts as used right away
    // (its stack-top is demanded first, §3.1).
    noteDepth(to, to_depth);
    if (++switchesInPeriod_ >= periodSwitches_)
        closePeriod();
}

} // namespace crw

#endif // CRW_TRACE_BEHAVIOR_H_
