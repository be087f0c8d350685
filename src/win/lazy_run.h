/**
 * @file
 * LazyRun: the running thread's plain saves and restores under a
 * sharing scheme (SNP, SP), kept as a running offset instead of slot
 * writes. The replay lane step (win/lane_step.h) drives one per
 * engine.
 *
 * Under SNP and SP a save traps only when the slot it grows into is
 * not Free (another thread's window or PRW, or the thread's own
 * stack-bottom), and a restore only when the thread's resident run is
 * down to one window (paper §3.2, §4.5). Every other one moves the
 * stack-top one slot and costs the plain Table 2 price, and nothing
 * else can observe where the stack-top is until the thread switches
 * out, exits or traps. So a plain op only moves a signed offset from
 * the stack-top the run started at:
 *
 *  - a save needs the slot two above the virtual stack-top Free
 *    (the one above is the reserved window or the thread's PRW).
 *    The run keeps the highest offset whose slots above were all
 *    checked Free; a save below that mark is plain outright, and a
 *    save at it checks one more slot of the file. No
 *    slot above the run's start changes while the offset moves, and
 *    the first slot of the thread's own run met going up is its
 *    stack-bottom, which plain ops never free, so a check against the
 *    file stays valid for the rest of the run.
 *  - a restore is plain while the virtual resident count stays >= 2
 *    (which also keeps the depth > 0: resident <= depth).
 *
 * materialize() writes the offset into the real slots and the
 * thread's ThreadWindows in O(|offset|). save() and restore() do so
 * before a trap, then run the scheme's unchecked doSave/doRestore body
 * and restart the run from the state it left; the lane step does so
 * before every switch and exit and in its flush(), at the end of each
 * tape drain and of the run. Other threads' windows never move in a
 * plain op, so residency
 * at a working-set wake — asked only of threads that are not running
 * — reads the file directly.
 *
 * The oracle (the WindowEngine members over the Checked = true scheme
 * bodies) never takes this path; tests/win/test_lazy_run.cc compares
 * every slot and ThreadWindows of both after every switch.
 */

#ifndef CRW_WIN_LAZY_RUN_H_
#define CRW_WIN_LAZY_RUN_H_

#include <type_traits>

#include "win/schemes_impl.h"
#include "win/window_file.h"

namespace crw {

/** Whether @p SchemeT replays plain saves and restores lazily. */
template <typename SchemeT>
inline constexpr bool kHasLazyRun =
    std::is_same_v<SchemeT, detail::SnpScheme> ||
    std::is_same_v<SchemeT, detail::SpScheme>;

template <typename SchemeT>
class LazyRun
{
    /** SP moves the thread's PRW with its stack-top; SNP's reserved
     *  window is just the Free slot above it. */
    static constexpr bool kPrw =
        std::is_same_v<SchemeT, detail::SpScheme>;

  public:
    explicit LazyRun(WindowFile &file)
        : f_(&file)
    {}

    /**
     * Start a run for @p tid (kNoThread: none) from its materialized
     * state: after a switch into it, after a trap body, or at the
     * start of a tape drain.
     */
    void
    begin(ThreadId tid)
    {
        static_assert(kHasLazyRun<SchemeT>, "SNP and SP only");
        tid_ = tid;
        off_ = 0;
        hi_ = 0;
        if (tid == kNoThread)
            return;
        const ThreadWindows &tw = f_->thread<false>(tid);
        top_ = tw.top;
        floor_ = 1 - tw.resident;
        probe_ = f_->space().wrap(top_ - 2);
    }

    /**
     * The running thread's save. A plain one only moves the offset;
     * any other materializes, runs @p scheme's unchecked body and
     * restarts the run from the state the body left.
     */
    OpOutcome
    save(SchemeT &scheme)
    {
        if (plainSave()) [[likely]]
            return {};
        materialize();
        const OpOutcome out = scheme.template doSave<false>(tid_);
        begin(tid_);
        return out;
    }

    /** The running thread's restore, as save(): plain ones move the
     *  offset, traps and the root-frame return run the body. */
    OpOutcome
    restore(SchemeT &scheme)
    {
        if (off_ > floor_) [[likely]] {
            --off_;
            return {};
        }
        materialize();
        const OpOutcome out = scheme.template doRestore<false>(tid_);
        begin(tid_);
        return out;
    }

    /** Write the pending offset into the file; the run goes on from
     *  there with what it learned about the slots above. */
    void
    materialize()
    {
        if (off_ == 0)
            return;
        ThreadWindows &tw = f_->thread<false>(tid_);
        const CyclicSpace &sp = f_->space();
        if constexpr (kPrw)
            f_->importSlot(tw.prw, WinState::Free, kNoThread);
        WindowIndex w = top_;
        if (off_ > 0) {
            for (int k = 0; k < off_; ++k) {
                w = sp.above<false>(w);
                f_->importSlot(w, WinState::Owned, tid_);
            }
        } else {
            for (int k = 0; k < -off_; ++k) {
                f_->importSlot(w, WinState::Free, kNoThread);
                w = sp.below<false>(w);
            }
        }
        tw.top = w;
        tw.resident += off_;
        tw.depth += off_;
        if constexpr (kPrw) {
            tw.prw = sp.above<false>(w);
            f_->importSlot(tw.prw, WinState::Prw, tid_);
        }
        top_ = w;
        floor_ -= off_;
        hi_ -= off_;
        off_ = 0;
    }

  private:
    bool
    plainSave()
    {
        if (off_ < hi_) {
            ++off_;
            return true;
        }
        // A thread with no windows (after its root frame returned)
        // has no run to grow; the scheme body owns that case.
        if (top_ == kNoWindow || !f_->isFree<false>(probe_))
            return false;
        probe_ = f_->space().above<false>(probe_);
        ++hi_;
        ++off_;
        return true;
    }

    WindowFile *f_;
    ThreadId tid_ = kNoThread;
    /** Stack-top of the materialized state. */
    WindowIndex top_ = kNoWindow;
    /** Plain saves minus plain restores since then. */
    int off_ = 0;
    /** Highest offset whose slots above were checked Free. */
    int hi_ = 0;
    /** A restore is plain while off_ > floor_ (resident >= 2). */
    int floor_ = 0;
    /** The slot a save at offset hi_ needs Free. */
    WindowIndex probe_ = 0;
};

} // namespace crw

#endif // CRW_WIN_LAZY_RUN_H_
