/**
 * @file
 * FastEngineView: the statically-specialized single-engine event path
 * the flat replay loop (trace/replay_loop.h) drives at one lane.
 *
 * Each method is the same event body as the corresponding
 * WindowEngine member (engine.cc — the oracle), with two compile-time
 * specializations applied:
 *
 *  - the Scheme handler is called on the concrete final class
 *    (schemes_impl.h), so it devirtualizes and inlines into the
 *    caller's event loop;
 *  - CostModel lookups go through precomputed FlatCostTables
 *    (cost_model.h), one dense array per cost family.
 *
 * The view writes the engine's own counters and clock through
 * friendship, so a run driven through it is indistinguishable —
 * bit-for-bit, including the switch-cost Distribution's summation
 * order — from one driven through the engine members. That invariant
 * is enforced by tests/win/test_fast_replay.cc across every scheme,
 * policy and PRW/allocation variant. Backed by that differential
 * pinning, the view instantiates the Checked = false flavor of the
 * scheme event bodies: structural assertions are not evaluated on
 * this path (see the policy note in win/window_file.h); the oracle
 * keeps them all.
 *
 * The observer hooks and postEventCheck() are deliberately absent:
 * the timeline observer and the full invariant walk are debugging
 * aids of the oracle path, so a view refuses engines carrying either
 * (the replay driver takes the oracle loop for those).
 */

#ifndef CRW_WIN_ENGINE_FAST_H_
#define CRW_WIN_ENGINE_FAST_H_

#include "common/logging.h"
#include "win/engine.h"
#include "win/schemes_impl.h"
#include "win/simd.h"

namespace crw {

template <typename SchemeT>
class FastEngineView
{
  public:
    explicit FastEngineView(WindowEngine &engine)
        : e_(engine),
          s_(static_cast<SchemeT &>(*engine.scheme_)),
          t_(engine.cost_, engine.kind_, engine.file_.numWindows())
    {
        // The concrete type must match the engine's runtime scheme,
        // and the oracle-only debug aids must take the oracle.
        crw_assert(s_.kind() == engine.kind_);
        crw_assert(!engine.checkInvariants_);
        crw_assert(!engine.observer_);
    }

    void
    save()
    {
        crw_assert(e_.current_ != kNoThread);
        const OpOutcome out =
            s_.template doSave<false>(e_.current_);

        ++e_.hot_.saves;
        ++e_.threadCounters_[static_cast<std::size_t>(e_.current_)]
              .saves;
        Cycles cycles = t_.plainSaveRestore();
        if (out.trapped) {
            ++e_.hot_.ovfTraps;
            e_.hot_.ovfSpilled +=
                static_cast<std::uint64_t>(out.windowsSaved);
            const Cycles trap = t_.overflowCost(out.windowsSaved);
            e_.hot_.cyclesTrap += trap;
            cycles += trap;
        }
        e_.hot_.cyclesCallret += t_.plainSaveRestore();
        e_.now_ += cycles;
    }

    void
    restore()
    {
        crw_assert(e_.current_ != kNoThread);
        const OpOutcome out =
            s_.template doRestore<false>(e_.current_);

        ++e_.hot_.restores;
        ++e_.threadCounters_[static_cast<std::size_t>(e_.current_)]
              .restores;
        Cycles cycles = t_.plainSaveRestore();
        if (out.trapped) {
            ++e_.hot_.unfTraps;
            e_.hot_.unfRestored +=
                static_cast<std::uint64_t>(out.windowsRestored);
            const Cycles trap = t_.underflowCost();
            e_.hot_.cyclesTrap += trap;
            cycles += trap;
        }
        e_.hot_.cyclesCallret += t_.plainSaveRestore();
        e_.now_ += cycles;
    }

    void
    contextSwitch(ThreadId to)
    {
        crw_assert(e_.file_.hasThread(to));
        crw_assert(to != e_.current_);
        const ThreadId from = e_.current_;
        const SwitchOutcome out =
            s_.template doSwitchIn<false>(from, to);
        e_.current_ = to;

        ++e_.hot_.switches;
        ++e_.threadCounters_[static_cast<std::size_t>(to)].switchesIn;
        e_.hot_.switchSaved +=
            static_cast<std::uint64_t>(out.windowsSaved);
        e_.hot_.switchRestored +=
            static_cast<std::uint64_t>(out.windowsRestored);
        if (out.windowsSaved < WindowEngine::kSmallSwitchCase &&
            out.windowsRestored < WindowEngine::kSmallSwitchCase)
            ++e_.switchCasesSmall_[out.windowsSaved]
                                  [out.windowsRestored];
        else
            ++e_.switchCasesLarge_[{out.windowsSaved,
                                    out.windowsRestored}];

        const Cycles cycles =
            t_.switchCost(out.windowsSaved, out.windowsRestored);
        e_.hot_.cyclesSwitch += cycles;
        e_.dSwitchCost_->sample(static_cast<double>(cycles));
        e_.now_ += cycles;
    }

    void
    threadExit()
    {
        crw_assert(e_.current_ != kNoThread);
        s_.template doExit<false>(e_.current_);
        ++e_.stats_.counter("thread_exits");
        e_.current_ = kNoThread;
    }

    void
    charge(Cycles cycles)
    {
        e_.hot_.cyclesCompute += cycles;
        e_.now_ += cycles;
    }

    /** End of the run: a single engine has no tape to replay. */
    SimdTier finish() const { return SimdTier::Scalar; }

    ThreadId current() const { return e_.current_; }
    int depth(ThreadId tid) const { return e_.file_.thread(tid).depth; }
    /** Working-set wake support: the engine's residency of @p tid. */
    bool resident(ThreadId tid) const { return e_.isResident(tid); }

  private:
    WindowEngine &e_;
    SchemeT &s_;
    const FlatCostTables t_;
};

} // namespace crw

#endif // CRW_WIN_ENGINE_FAST_H_
