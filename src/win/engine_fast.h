/**
 * @file
 * FastEngineView: the single-engine view the flat replay loop
 * (trace/replay_loop.h) drives at one lane. It steps its one
 * LaneStep (win/lane_step.h) inline from the loop, with no op tape,
 * counts the schedule tallies as the loop calls its verbs, and folds
 * them with the run's ScriptTallies when the run ends.
 */

#ifndef CRW_WIN_ENGINE_FAST_H_
#define CRW_WIN_ENGINE_FAST_H_

#include "common/logging.h"
#include "win/engine.h"
#include "win/lane_step.h"
#include "win/simd.h"

namespace crw {

template <typename SchemeT>
class FastEngineView
{
  public:
    /**
     * @param tallies What the replayed scripts fix (not owned; must
     *        outlive the view), one entry per registered thread.
     */
    FastEngineView(WindowEngine &engine, const ScriptTallies &tallies)
        : step_(engine), script_(tallies), sched_(tallies.saves.size())
    {
    }

    void
    save()
    {
        crw_assert(step_.current() != kNoThread);
        step_.save();
    }

    void
    restore()
    {
        crw_assert(step_.current() != kNoThread);
        step_.restore();
    }

    void
    contextSwitch(ThreadId to)
    {
        ++sched_.switchesIn[static_cast<std::size_t>(to)];
        step_.switchTo(to);
    }

    void
    threadExit()
    {
        crw_assert(step_.current() != kNoThread);
        ++sched_.exits;
        step_.exit();
    }

    /** End of the run: flush and fold. Call once, after every thread
     *  ran its whole script. A single engine has no tape to replay. */
    SimdTier
    finish()
    {
        step_.flush();
        step_.fold(script_, sched_);
        return SimdTier::Scalar;
    }

    ThreadId current() const { return step_.current(); }
    /** Call depth of @p tid; exact for every thread at a switch, the
     *  one point the replay loop reads it. */
    int depth(ThreadId tid) const { return step_.file().thread(tid).depth; }
    /** Working-set wake support: residency of @p tid, asked only of
     *  threads that are not running. */
    bool
    resident(ThreadId tid) const
    {
        const WindowFile &f = step_.file();
        return f.hasThread(tid) && f.thread(tid).isResident();
    }

  private:
    LaneStep<SchemeT> step_;
    const ScriptTallies &script_;
    ScheduleTallies sched_;
};

} // namespace crw

#endif // CRW_WIN_ENGINE_FAST_H_
