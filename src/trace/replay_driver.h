/**
 * @file
 * ReplayDriver: re-runs a captured EventTrace against a WindowEngine
 * without coroutines (DESIGN.md §8, §12).
 *
 * The driver is an exact re-implementation of the live execution's
 * state machine with the thread bodies replaced by their captured
 * per-thread scripts: the SchedCore ready queue (identical policy
 * code), the bounded-stream occupancy/waiter dynamics (identical to
 * rt/stream.cc rawPut/rawGet/close), and the engine event points
 * (identical call sites). Because the scripts are configuration-
 * independent (see event_trace.h) and every other transition rule is
 * shared, a replayed run produces *bit-identical* RunMetrics to a live
 * run at the same (scheme, windows, policy) point — the property the
 * replay-equivalence test enforces.
 *
 * Working-set scheduling works on replay because residency is asked of
 * *this* driver's engine at the moment of each wake, not read from the
 * trace; one trace therefore serves every scheme × windows × policy
 * combination.
 *
 * Two replay loops implement the same state machine (DESIGN.md §12):
 *
 *  - the *oracle* loop walks the encoded scripts through TraceCursor
 *    and drives the engine's virtual-dispatch members;
 *  - the *fast* loop walks a predecoded FlatTrace and drives a
 *    FastEngineView specialized on the concrete scheme class and on
 *    whether an observer is installed.
 *
 * Path selection (ReplayPath): Auto — the default — takes the fast
 * loop unless the engine was configured with checkInvariants (the
 * invariant walk only exists on the oracle path) or the environment
 * variable CRW_REPLAY_FAST is set to "0" (the determinism gate's
 * switch). Fast/Legacy force one loop for differential testing. Both
 * loops must produce bit-identical RunMetrics; the fast-replay test
 * sweeps that equivalence across every scheme and variant.
 */

#ifndef CRW_TRACE_REPLAY_DRIVER_H_
#define CRW_TRACE_REPLAY_DRIVER_H_

#include <memory>
#include <vector>

#include "common/small_vec.h"
#include "rt/sched_core.h"
#include "trace/behavior.h"
#include "trace/event_trace.h"
#include "trace/flat_trace.h"
#include "trace/replay_state.h"
#include "trace/run_metrics.h"
#include "win/engine.h"

namespace crw {

/** Which replay loop run() uses (see file comment). */
enum class ReplayPath : std::uint8_t {
    Auto,   ///< fast unless checkInvariants or CRW_REPLAY_FAST=0
    Fast,   ///< force the specialized loop (fatal w/ checkInvariants)
    Legacy, ///< force the virtual-dispatch oracle loop
    /**
     * Force the lockstep batch loop (trace/replay_batch.h) at width
     * one. Semantically identical to Fast — the differential tests
     * pin the batched event bodies against both other loops on a
     * single point, under every (scheme, policy) pair. Multi-lane
     * batching goes through BatchedReplayDriver instead.
     */
    Batched,
};

class ReplayDriver
{
  public:
    /**
     * @param trace The captured run (not owned; must outlive this).
     * @param engine_config Full engine configuration of the replay
     *        point (scheme, window count, cost model, PRW/allocation
     *        variants...).
     * @param policy Ready-queue policy to re-schedule with.
     * @param flat Optional predecoded image of @p trace (not owned;
     *        must outlive this). The bench executor builds one per
     *        trace and shares it across the sweep; when absent, a
     *        fast-path run() predecodes privately.
     */
    ReplayDriver(const EventTrace &trace,
                 const EngineConfig &engine_config, SchedPolicy policy,
                 const FlatTrace *flat = nullptr);

    ReplayDriver(const ReplayDriver &) = delete;
    ReplayDriver &operator=(const ReplayDriver &) = delete;

    /** Select the replay loop; call before run(). Default: Auto. */
    void setPath(ReplayPath path) { path_ = path; }

    /**
     * Replay the whole trace. Fatal on a stuck/mismatched trace, and
     * on a second call — a driver is one run, and rerunning would
     * silently accumulate into the first run's counters.
     */
    void run();

    /** True once run() completed through the specialized loop. */
    bool usedFastPath() const { return usedFast_; }

    /** True once run() completed through the lockstep batch loop. */
    bool usedBatchedPath() const { return usedBatched_; }

    /**
     * Metrics of the finished run. Fatal before run(): the engine and
     * tracker hold a half-initialized state that would serialize as a
     * plausible-looking all-zero record.
     */
    RunMetrics metrics() const;

    WindowEngine &engine() { return engine_; }
    const WindowEngine &engine() const { return engine_; }
    const SchedCore &core() const { return core_; }
    const BehaviorTracker &tracker() const { return tracker_; }

  private:
    /** Oracle loop: execute @p tid's script until it parks or exits. */
    void runThread(ThreadId tid);
    /** The oracle dispatch loop (virtual Scheme + TraceCursor). */
    void runLegacy();
    /** Instantiate and run the fast loop for the engine's scheme and
     *  the concrete scheduling-policy type (SchedPolicyBox::visit). */
    void runFast(const FlatTrace &flat);
    template <typename SchemeT, typename ObserverPolicy,
              typename PolicyT>
    void runFastLoop(const FlatTrace &flat, ObserverPolicy observer,
                     PolicyT &pol);
    /**
     * Wake every parked waiter on @p waiters. Most stream operations
     * find nobody parked (wakes happen on the full/empty edges only),
     * so the empty case must cost one load in the replay loops.
     */
    void
    wakeAll(SmallVec<ThreadId, 8> &waiters)
    {
        if (!waiters.empty())
            wakeAllSlow(waiters);
    }
    void wakeAllSlow(SmallVec<ThreadId, 8> &waiters);
    [[noreturn]] void fatalEventsAfterExit(ThreadId tid);
    [[noreturn]] void fatalEndedWithoutExit(ThreadId tid);

    const EventTrace &trace_;
    const FlatTrace *flat_;
    std::unique_ptr<FlatTrace> ownedFlat_;
    WindowEngine engine_;
    SchedCore core_;
    SchedPolicyBox policy_;
    BehaviorTracker tracker_;
    std::vector<RStream> streams_;
    std::vector<RThread> threads_;
    ReplayPath path_ = ReplayPath::Auto;
    bool ran_ = false;
    bool usedFast_ = false;
    bool usedBatched_ = false;
};

} // namespace crw

#endif // CRW_TRACE_REPLAY_DRIVER_H_
