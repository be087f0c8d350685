/**
 * @file
 * The replay state machine's shared half (DESIGN.md §12): the control
 * state of one schedule and the flat dispatch loop that advances it,
 * used by both the per-point ReplayDriver (replay_driver.h) and the
 * lockstep BatchedReplayDriver (replay_batch.h).
 *
 * One schedule is one ReplayState: a SchedCore, one RStream per
 * bounded stream, one RThread per application thread, one
 * BehaviorTracker — and the K >= 1 engines (lanes) the schedule
 * drives. Control flow lives here and only here; engine state lives
 * per lane, which is exactly what makes a batch lockstep.
 *
 * replayFlat() walks the predecoded FlatTrace through ONE loop
 * (replay_loop.h), templated on the engine view, which is picked by
 * lane count. A single lane runs FastEngineView (win/engine_fast.h),
 * which steps it inline; more than one run BatchedEngineView
 * (win/engine_batch.h), which records an op tape and steps each lane
 * from it. Both step through one LaneStep (win/lane_step.h). The
 * single-engine view stays because a width-1 batch replays a FIFO
 * point of the finest spell trace 1.09x (SP), 1.12x (SNP) and 1.42x
 * (NS) slower (EXPERIMENTS.md, "Replay design measurements"), and a
 * quarter of a --no-cache sweep's points replay alone.
 */

#ifndef CRW_TRACE_REPLAY_STATE_H_
#define CRW_TRACE_REPLAY_STATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/small_vec.h"
#include "common/types.h"
#include "rt/sched_core.h"
#include "trace/behavior.h"
#include "trace/event_trace.h"
#include "trace/flat_trace.h"
#include "trace/run_metrics.h"
#include "win/engine.h"
#include "win/simd.h"

namespace crw {

/**
 * Replay image of one bounded stream (occupancy + waiters). The
 * waiter lists hold at most one entry per application thread, so the
 * inline capacity makes parking/waking allocation-free.
 */
struct RStream
{
    std::uint32_t capacity = 0;
    std::uint32_t count = 0;
    int openWriters = 0;
    SmallVec<ThreadId, 8> readWaiters;
    SmallVec<ThreadId, 8> writeWaiters;
};

enum class RState : std::uint8_t {
    Ready,
    Running,
    Blocked,
    Finished
};

struct RThread
{
    TraceCursor cursor;
    /** Flat loop: index of the next event in the flat arena. */
    std::uint32_t pc = 0;
    RState state = RState::Ready;
};

class ReplayState
{
  public:
    /**
     * Build one engine per config and the stream/thread images of
     * @p trace, then spawn every thread in dense-tid order on each
     * engine and on the policy (priorities from the trace) — exactly
     * as Scheduler::spawn.
     *
     * @param flat Optional predecoded image of @p trace (not owned);
     *        when absent, replayFlat() predecodes privately.
     */
    ReplayState(const EventTrace &trace,
                const std::vector<EngineConfig> &configs,
                SchedPolicy policy, const FlatTrace *flat);

    ReplayState(const ReplayState &) = delete;
    ReplayState &operator=(const ReplayState &) = delete;

    /**
     * Mark the driver's one run. Fatal on a second call: rerunning
     * would silently accumulate into the first run's counters.
     */
    void beginRun();

    /**
     * Replay the whole trace through the flat loop — FastEngineView
     * at one lane, BatchedEngineView above. Returns the lane pass
     * the batch dispatched (BatchedEngineView::finish); Scalar at one
     * lane, which replays no tape.
     */
    SimdTier replayFlat();

    /**
     * Fatal unless every thread finished (a trace/config mismatch),
     * then close the tracker at lane 0's clock.
     */
    void endRun();

    /**
     * Metrics of lane @p lane. Fatal before the run: the engines and
     * tracker hold a half-initialized state that would serialize as a
     * plausible-looking all-zero record.
     */
    RunMetrics metrics(std::size_t lane) const;

    [[noreturn]] void fatalEventsAfterExit(ThreadId tid) const;
    [[noreturn]] void fatalEndedWithoutExit(ThreadId tid) const;

    /**
     * Replay coordinate for fatal diagnostics, e.g. `behavior "k",
     * SP/w8/fifo`, or `behavior "k", SP/fifo, batch of 3` for a
     * batch. A stuck or mismatched replay is almost always one bad
     * point in a large sweep, so a bare thread id is undebuggable.
     */
    std::string context() const;

    std::size_t lanes() const { return engines_.size(); }
    WindowEngine &engine(std::size_t lane) { return *engines_[lane]; }
    const WindowEngine &engine(std::size_t lane) const
    {
        return *engines_[lane];
    }

    const EventTrace &trace;
    SchedCore core;
    SchedPolicyBox policy;
    /** One tracker for all lanes: every metric it keeps depends only
     *  on the shared event sequence. */
    BehaviorTracker tracker;
    std::vector<RStream> streams;
    std::vector<RThread> threads;

  private:
    // replayFlat() over each view. Each is defined next to the driver
    // whose traffic it serves (replay_driver.cc, replay_batch.cc), so
    // the two instantiation sets of the loop (replay_loop.h) compile in
    // parallel, and the out-of-line helpers above (the fatals and their
    // string building) stay out of the flattened loops.
    SimdTier replaySingle(const FlatTrace &flat);
    SimdTier replayLockstep(const FlatTrace &flat);

    std::vector<std::unique_ptr<WindowEngine>> engines_;
    const FlatTrace *flat_;
    std::unique_ptr<FlatTrace> ownedFlat_;
    bool ran_ = false;
};

} // namespace crw

#endif // CRW_TRACE_REPLAY_STATE_H_
