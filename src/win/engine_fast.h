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
 * order — from one driven through the engine members. The replay net
 * (tests/bench/test_replay_net.cc) holds every scheme, policy and
 * PRW/allocation variant to that. Backed by that differential
 * pinning, the view instantiates the Checked = false flavor of the
 * scheme event bodies: structural assertions are not evaluated on
 * this path (see the policy note in win/window_file.h); the oracle
 * keeps them all.
 *
 * Per event the view does only what depends on the engine (DESIGN.md
 * §12): the window motion and the trap and switch costs it implies.
 * What the scripts fix (ScriptTallies: per-thread save and restore
 * counts, the charge sum) is folded in once by finish(), so
 *
 *   now = charges + psr·(saves+restores) + traps + switches
 *
 * as in BatchedEngineView::finish. Under SNP and SP the running
 * thread's plain saves and restores are a LazyRun offset
 * (win/lazy_run.h), written to the file before every switch, exit and
 * trap and at the end of the run.
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
#include "win/lazy_run.h"
#include "win/schemes_impl.h"
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
        : e_(engine),
          s_(static_cast<SchemeT &>(*engine.scheme_)),
          t_(engine.cost_, engine.kind_, engine.file_.numWindows()),
          tallies_(tallies),
          run_(engine.file_)
    {
        // The concrete type must match the engine's runtime scheme,
        // and the oracle-only debug aids must take the oracle.
        crw_assert(s_.kind() == engine.kind_);
        crw_assert(!engine.checkInvariants_);
        crw_assert(!engine.observer_);
        crw_assert(tallies.saves.size() == engine.threadCounters_.size());
        crw_assert(tallies.restores.size() ==
                   engine.threadCounters_.size());
        if constexpr (kLazy)
            run_.begin(engine.current_);
    }

    void
    save()
    {
        crw_assert(e_.current_ != kNoThread);
        OpOutcome out;
        if constexpr (kLazy)
            out = run_.save(s_);
        else
            out = s_.template doSave<false>(e_.current_);
        if (out.trapped) {
            ++e_.hot_.ovfTraps;
            e_.hot_.ovfSpilled +=
                static_cast<std::uint64_t>(out.windowsSaved);
            const Cycles trap = t_.overflowCost(out.windowsSaved);
            e_.hot_.cyclesTrap += trap;
            e_.now_ += trap;
        }
    }

    void
    restore()
    {
        crw_assert(e_.current_ != kNoThread);
        OpOutcome out;
        if constexpr (kLazy)
            out = run_.restore(s_);
        else
            out = s_.template doRestore<false>(e_.current_);
        if (out.trapped) {
            ++e_.hot_.unfTraps;
            e_.hot_.unfRestored +=
                static_cast<std::uint64_t>(out.windowsRestored);
            const Cycles trap = t_.underflowCost();
            e_.hot_.cyclesTrap += trap;
            e_.now_ += trap;
        }
    }

    void
    contextSwitch(ThreadId to)
    {
        crw_assert(e_.file_.hasThread(to));
        crw_assert(to != e_.current_);
        if constexpr (kLazy)
            run_.materialize();
        const ThreadId from = e_.current_;
        const SwitchOutcome out =
            s_.template doSwitchIn<false>(from, to);
        e_.current_ = to;
        if constexpr (kLazy)
            run_.begin(to);

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
        if constexpr (kLazy)
            run_.materialize();
        s_.template doExit<false>(e_.current_);
        ++e_.stats_.counter("thread_exits");
        e_.current_ = kNoThread;
        if constexpr (kLazy)
            run_.begin(kNoThread);
    }

    /** Charges are script tallies, folded in by finish(). */
    void charge(Cycles cycles) { (void)cycles; }

    /**
     * End of the run: materialize the running thread and fold the
     * script tallies into the engine. Call once, after every thread
     * ran its whole script. A single engine has no tape to replay.
     */
    SimdTier
    finish()
    {
        if constexpr (kLazy)
            run_.materialize();
        std::uint64_t saves = 0;
        std::uint64_t restores = 0;
        for (std::size_t tid = 0; tid < tallies_.saves.size(); ++tid) {
            ThreadCounters &tc = e_.threadCounters_[tid];
            tc.saves += tallies_.saves[tid];
            tc.restores += tallies_.restores[tid];
            saves += tallies_.saves[tid];
            restores += tallies_.restores[tid];
        }
        const Cycles callret = t_.plainSaveRestore() * (saves + restores);
        e_.hot_.saves += saves;
        e_.hot_.restores += restores;
        e_.hot_.cyclesCallret += callret;
        e_.hot_.cyclesCompute += tallies_.charges;
        e_.now_ += tallies_.charges + callret;
        return SimdTier::Scalar;
    }

    ThreadId current() const { return e_.current_; }
    /** Call depth of @p tid; exact for every thread at a switch, the
     *  one point the replay loop reads it. */
    int depth(ThreadId tid) const { return e_.file_.thread(tid).depth; }
    /** Working-set wake support: the engine's residency of @p tid,
     *  asked only of threads that are not running. */
    bool resident(ThreadId tid) const { return e_.isResident(tid); }

  private:
    static constexpr bool kLazy = kHasLazyRun<SchemeT>;

    WindowEngine &e_;
    SchemeT &s_;
    const FlatCostTables t_;
    const ScriptTallies &tallies_;
    /** The running thread's plain saves and restores (SNP, SP). */
    LazyRun<SchemeT> run_;
};

} // namespace crw

#endif // CRW_WIN_ENGINE_FAST_H_
