/**
 * @file
 * LaneStep: one lane's window events, the single production copy of
 * the save, restore, switch and exit bodies (DESIGN.md §12). The
 * oracle is the WindowEngine members (engine.cc); both replay views
 * step their lanes through this class: FastEngineView
 * (win/engine_fast.h) inline from the flat loop, BatchedEngineView
 * (win/engine_batch.h) from its op tape.
 *
 * Each body is the oracle's with two compile-time specializations:
 * the Scheme handler is called on the concrete final class
 * (schemes_impl.h), in its Checked = false flavor (the policy note in
 * win/window_file.h), and CostModel lookups go through precomputed
 * FlatCostTables (cost_model.h). The replay net
 * (tests/bench/test_replay_net.cc) and tests/win/test_lazy_run.cc hold
 * every scheme, policy and PRW/allocation variant bit-identical to
 * the oracle, the switch-cost Distribution's sample order included.
 *
 * A step holds only what diverges per lane: the window motion, and
 * the trap and switch costs it implies, kept in a local copy of the
 * engine's hot counters and a clock offset. Under SNP and SP a plain
 * save or restore is only a LazyRun offset (win/lazy_run.h), written
 * to the file before every switch, exit and trap and by flush().
 *
 * Everything else is the same on every lane and is folded in once,
 * by fold(), when the run ends: what the scripts fix (ScriptTallies)
 * and what the schedule fixes (ScheduleTallies). So
 *
 *   now = charges + psr·(saves+restores) + offset
 *
 * in integer arithmetic, exactly the oracle's clock.
 *
 * The observer hooks and postEventCheck() are deliberately absent:
 * they are debugging aids of the oracle, so a step refuses engines
 * carrying either (the replay driver takes the oracle loop for them).
 */

#ifndef CRW_WIN_LANE_STEP_H_
#define CRW_WIN_LANE_STEP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "win/engine.h"
#include "win/lane_soa.h"
#include "win/lazy_run.h"
#include "win/schemes_impl.h"

namespace crw {

/**
 * What the shared schedule fixes on every lane: each thread's
 * switches in (their sum is the switch count) and the exits. A view's
 * control verbs count them once per event, for all of its lanes.
 */
struct ScheduleTallies
{
    explicit ScheduleTallies(std::size_t threads) : switchesIn(threads) {}

    std::vector<std::uint64_t> switchesIn; ///< per thread (ThreadId)
    std::uint64_t exits = 0;
};

template <typename SchemeT>
class LaneStep
{
  public:
    /** Step @p engine from its current state. It must carry no
     *  observer or checkInvariants (oracle-only features). */
    explicit LaneStep(WindowEngine &engine)
        : e_(&engine),
          s_(static_cast<SchemeT *>(engine.scheme_.get())),
          t_(engine.cost_, engine.kind_, engine.file_.numWindows()),
          h_(engine.hot_),
          offset_(engine.now_),
          cur_(engine.current_),
          run_(engine.file_)
    {
        // The concrete type must match the engine's runtime scheme.
        crw_assert(s_->kind() == engine.kind_);
        crw_assert(!engine.checkInvariants_);
        crw_assert(!engine.observer_);
        if constexpr (kLazy)
            run_.begin(cur_);
    }

    void
    save()
    {
        OpOutcome out;
        if constexpr (kLazy)
            out = run_.save(*s_);
        else
            out = s_->template doSave<false>(cur_);
        if (out.trapped) {
            ++h_.ovfTraps;
            h_.ovfSpilled += static_cast<std::uint64_t>(out.windowsSaved);
            const Cycles trap = t_.overflowCost(out.windowsSaved);
            h_.cyclesTrap += trap;
            offset_ += trap;
        }
    }

    void
    restore()
    {
        OpOutcome out;
        if constexpr (kLazy)
            out = run_.restore(*s_);
        else
            out = s_->template doRestore<false>(cur_);
        if (out.trapped) {
            ++h_.unfTraps;
            h_.unfRestored +=
                static_cast<std::uint64_t>(out.windowsRestored);
            const Cycles trap = t_.underflowCost();
            h_.cyclesTrap += trap;
            offset_ += trap;
        }
    }

    void
    switchTo(ThreadId to)
    {
        crw_assert(e_->file_.hasThread(to));
        crw_assert(to != cur_);
        flush();
        const SwitchOutcome out = s_->template doSwitchIn<false>(cur_, to);
        tallySwitch(out.windowsSaved, out.windowsRestored);
        // NS flushes the thread it switches away from: the
        // non-residency claim a lockstep batch answers wakes with.
        if constexpr (std::is_same_v<SchemeT, detail::NsScheme>)
            crw_assert(cur_ == kNoThread ||
                       !e_->file_.thread(cur_).isResident());
        cur_ = to;
        if constexpr (kLazy)
            run_.begin(to);
    }

    void
    exit()
    {
        flush();
        s_->template doExit<false>(cur_);
        cur_ = kNoThread;
        if constexpr (kLazy)
            run_.begin(kNoThread);
    }

    /** Write the pending LazyRun offset to the file; the run goes on
     *  from there. */
    void
    flush()
    {
        if constexpr (kLazy)
            run_.materialize();
    }

    /**
     * A switch's counters, histogram cell, cost sample and clock
     * share on this lane, for @p saved windows out and @p restored
     * in. Called in event order, so the histogram and the switch-cost
     * Distribution's sample sequence match the oracle's.
     */
    void
    tallySwitch(int saved, int restored)
    {
        h_.switchSaved += static_cast<std::uint64_t>(saved);
        h_.switchRestored += static_cast<std::uint64_t>(restored);
        if (saved < WindowEngine::kSmallSwitchCase &&
            restored < WindowEngine::kSmallSwitchCase)
            ++e_->switchCasesSmall_[saved][restored];
        else
            ++e_->switchCasesLarge_[{saved, restored}];
        const Cycles cycles = t_.switchCost(saved, restored);
        h_.cyclesSwitch += cycles;
        e_->dSwitchCost_->sample(static_cast<double>(cycles));
        offset_ += cycles;
    }

    /** Take lane @p j's trap tallies from a lane-SoA pass (DESIGN.md
     *  §16), which ended with @p cur running. */
    void
    absorb(const LaneSoA &soa, std::size_t j, ThreadId cur)
    {
        h_.ovfTraps += soa.ovfTraps[j];
        h_.ovfSpilled += soa.ovfSpilled[j];
        h_.unfTraps += soa.unfTraps[j];
        h_.unfRestored += soa.unfRestored[j];
        h_.cyclesTrap += soa.cyclesTrap[j];
        offset_ += soa.cyclesTrap[j];
        cur_ = cur;
    }

    /**
     * The finish fold: write this lane's residue to its engine with
     * what @p script and @p sched fix added, and set the clock. Call
     * once, after the last event and flush().
     */
    void
    fold(const ScriptTallies &script, const ScheduleTallies &sched) const
    {
        WindowEngine &e = *e_;
        crw_assert(script.saves.size() == e.threadCounters_.size());
        crw_assert(script.restores.size() == e.threadCounters_.size());
        crw_assert(sched.switchesIn.size() == e.threadCounters_.size());
        std::uint64_t saves = 0;
        std::uint64_t restores = 0;
        std::uint64_t switches = 0;
        for (std::size_t tid = 0; tid < script.saves.size(); ++tid) {
            ThreadCounters &tc = e.threadCounters_[tid];
            tc.saves += script.saves[tid];
            tc.restores += script.restores[tid];
            tc.switchesIn += sched.switchesIn[tid];
            saves += script.saves[tid];
            restores += script.restores[tid];
            switches += sched.switchesIn[tid];
        }
        const Cycles callret = t_.plainSaveRestore() * (saves + restores);
        e.hot_ = h_;
        e.hot_.saves += saves;
        e.hot_.restores += restores;
        e.hot_.switches += switches;
        e.hot_.cyclesCallret += callret;
        e.hot_.cyclesCompute += script.charges;
        e.now_ = script.charges + callret + offset_;
        e.current_ = cur_;
        if (sched.exits != 0)
            e.stats_.counter("thread_exits") += sched.exits;
    }

    ThreadId current() const { return cur_; }
    WindowFile &file() const { return e_->file_; }
    const FlatCostTables &costs() const { return t_; }

  private:
    static constexpr bool kLazy = kHasLazyRun<SchemeT>;

    WindowEngine *e_;
    SchemeT *s_;
    FlatCostTables t_;
    /** The trap and switch counters; the rest are folded in. */
    WindowEngine::HotCounters h_;
    /** The engine's clock at the start plus this lane's trap and
     *  switch costs. */
    Cycles offset_;
    ThreadId cur_;
    /** The running thread's plain saves and restores (SNP, SP). */
    LazyRun<SchemeT> run_;
};

} // namespace crw

#endif // CRW_WIN_LANE_STEP_H_
