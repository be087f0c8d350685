/**
 * @file
 * The flat replay loop (DESIGN.md §12), written once and instantiated
 * per (engine view, scheme, policy). Private to the two drivers:
 * replay_driver.cc instantiates it over the single-engine view,
 * replay_batch.cc over the lockstep one, so the two sets compile in
 * parallel. Both views step their lanes through one LaneStep
 * (win/lane_step.h) and fold the run's tallies in at finish().
 */

#ifndef CRW_TRACE_REPLAY_LOOP_H_
#define CRW_TRACE_REPLAY_LOOP_H_

#include <utility>

#include "common/logging.h"
#include "trace/replay_state.h"
#include "win/schemes_impl.h"

namespace crw {
namespace detail_replay {

/**
 * The flat dispatch loop: the state machine of the oracle
 * (ReplayDriver::runThread) with the script walk flattened to an
 * index into the predecoded arena and every engine event inlined
 * through a View built from @p view_args. The stream/waiter/scheduler
 * statements are the oracle's exactly — only the event decode and the
 * engine dispatch differ. Returns the view's finish(): the lane pass
 * a batch dispatched.
 *
 * The view is a local of the loop on purpose: its cost tables and
 * engine pointers then provably alias none of the counters the event
 * bodies write, so they can stay in registers.
 *
 * The view answers the one engine-state read of the control path,
 * residency at a wake (consulted by the working-set policies only).
 * A BatchedEngineView answers `false` for every lane; the static batch
 * rule (lockstepBatchable, replay_batch.h) makes that the answer.
 * Every other policy input (static priorities, the round-robin
 * quantum's charge operands) is lane-invariant by the policy
 * determinism contract (rt/sched_core.h).
 */
// flatten: the instantiations are each large enough that gcc's
// unit-growth budget otherwise gives up on inlining the window-file
// and scheme primitives (thread(), claimAsTop(), ...) precisely where
// they fire hundreds of millions of times per sweep.
template <typename View, typename PolicyT, typename... ViewArgs>
__attribute__((flatten)) SimdTier
flatLoop(ReplayState &st, const FlatTrace &flat, PolicyT &pol,
         ViewArgs &&...view_args)
{
    View view(std::forward<ViewArgs>(view_args)...);
    SchedCore &core = st.core;
    BehaviorTracker &tracker = st.tracker;
    std::vector<RStream> &streams = st.streams;
    std::vector<RThread> &threads = st.threads;
    const std::uint32_t *const words = flat.words;
    const auto opAt = [words](std::uint32_t i) {
        return FlatTrace::opOf(words[i]);
    };
    // The operand sits above the op bits; only an escaped (wide)
    // operand leaves the word for the side table.
    const auto operandAt = [words, &flat](std::uint32_t i) {
        const std::uint32_t field = words[i] >> FlatTrace::kOpBits;
        if (field != FlatTrace::kWideOperand) [[likely]]
            return static_cast<std::uint64_t>(field);
        return flat.wideOperand(i);
    };

    // Mirror of ReplayDriver::wakeAllSlow, bound to the concrete
    // policy type so queue placement compiles to straight-line code.
    const auto wakeAllSlow = [&](SmallVec<ThreadId, 8> &waiters) {
        for (const ThreadId wtid : waiters) {
            RThread &w = threads[static_cast<std::size_t>(wtid)];
            if (w.state != RState::Blocked)
                continue;
            w.state = RState::Ready;
            if constexpr (PolicyT::kUsesResidency)
                pol.wake(core, wtid, view.resident(wtid));
            else
                pol.wake(core, wtid, false);
        }
        waiters.clear();
    };
    // Most stream operations find nobody parked (wakes happen on the
    // full/empty edges only), so the empty case costs one load.
    const auto wakeAll = [&](SmallVec<ThreadId, 8> &waiters) {
        if (!waiters.empty())
            wakeAllSlow(waiters);
    };

    // The tracker's running thread, its call depth, and the depths
    // its saves and restores visited since its switch-in. A save only
    // raises the depth and a restore only lowers it, so each bumps one
    // end; starting the range inverted around the switch-in depth
    // keeps it empty until the first op and exact after it (the
    // tracker already noted the switch-in depth itself). It is folded
    // into the tracker before the next switchTo and at the end.
    ThreadId tracked = kNoThread;
    int depth = 0;
    int lo = 1;
    int hi = -1;
    const auto foldRange = [&] {
        if (lo <= hi)
            tracker.noteRange(tracked, lo, hi);
    };

    while (!core.idle()) {
        const ThreadId tid = core.dispatchNext();
        if constexpr (PolicyT::kHasQuantum)
            pol.resetQuantum();
        RThread &t = threads[static_cast<std::size_t>(tid)];
        crw_assert(t.state == RState::Ready);
        t.state = RState::Running;
        if (view.current() != tid) {
            foldRange();
            view.contextSwitch(tid);
            tracked = tid;
            depth = view.depth(tid);
            lo = depth + 1;
            hi = depth - 1;
            tracker.switchTo(tid, depth);
        }

        std::uint32_t pc = t.pc;
        const std::uint32_t end =
            flat.threads[static_cast<std::size_t>(tid)].end;
        bool running = true;
        while (running) {
            if (pc == end)
                st.fatalEndedWithoutExit(tid);
            // After each handler, the dominant successor op (measured
            // on the spell traces: every Save is followed by a Charge,
            // most Restores by a Save, most Gets by a Restore) is
            // peeked and handled inline — a predictable conditional
            // branch instead of a round trip through the switch's
            // indirect dispatch. The executed event sequence is
            // exactly the oracle's.
            switch (opAt(pc)) {
              case TraceOp::Save:
              save_op:
                view.save();
                ++depth;
                hi = depth > hi ? depth : hi;
                ++pc;
                if (pc != end &&
                    opAt(pc) == TraceOp::Charge)
                    goto charge_op;
                break;
              case TraceOp::Restore:
              restore_op:
                view.restore();
                --depth;
                lo = depth < lo ? depth : lo;
                ++pc;
                if (pc != end &&
                    opAt(pc) == TraceOp::Save)
                    goto save_op;
                break;
              case TraceOp::Charge:
              charge_op: {
                // The clock takes the charge at the view's finish()
                // (ScriptTallies); only the quantum reads it here.
                if constexpr (PolicyT::kHasQuantum) {
                    const Cycles cycles =
                        static_cast<Cycles>(operandAt(pc));
                    // Preemption point: the charge has executed, then
                    // the thread yields to the tail of the queue —
                    // same statement order as the oracle loop. The
                    // operand is a shared trace value, so every lane
                    // observes the identical quantum schedule.
                    if (pol.chargeExpires(cycles)) {
                        ++pc;
                        pol.onQuantumExpiry(core, tid);
                        t.state = RState::Ready;
                        running = false;
                        break;
                    }
                }
                ++pc;
                if (pc != end) {
                    const TraceOp next = opAt(pc);
                    if (next == TraceOp::Get)
                        goto get_op;
                    if (next == TraceOp::Put)
                        goto put_op;
                    if (next == TraceOp::Save)
                        goto save_op;
                }
                break;
              }
              case TraceOp::Put:
              put_op: {
                RStream &s = streams[operandAt(pc)];
                if (s.count == s.capacity) {
                    wakeAll(s.readWaiters);
                    s.writeWaiters.push_back(tid);
                    t.state = RState::Blocked;
                    running = false;
                    break;
                }
                ++s.count;
                wakeAll(s.readWaiters);
                ++pc;
                if (pc != end) {
                    const TraceOp next = opAt(pc);
                    if (next == TraceOp::Restore)
                        goto restore_op;
                    if (next == TraceOp::Put)
                        goto put_op;
                }
                break;
              }
              case TraceOp::Get:
              get_op: {
                RStream &s = streams[operandAt(pc)];
                if (s.count == 0) {
                    if (s.openWriters == 0) {
                        ++pc;
                        break;
                    }
                    wakeAll(s.writeWaiters);
                    s.readWaiters.push_back(tid);
                    t.state = RState::Blocked;
                    running = false;
                    break;
                }
                --s.count;
                wakeAll(s.writeWaiters);
                ++pc;
                if (pc != end &&
                    opAt(pc) == TraceOp::Restore)
                    goto restore_op;
                break;
              }
              case TraceOp::Close: {
                RStream &s = streams[operandAt(pc)];
                crw_assert(s.openWriters > 0);
                if (--s.openWriters == 0)
                    wakeAll(s.readWaiters);
                ++pc;
                break;
              }
              case TraceOp::Exit:
                ++pc;
                if (pc != end)
                    st.fatalEventsAfterExit(tid);
                view.threadExit();
                tracker.onExit(tid);
                t.state = RState::Finished;
                running = false;
                break;
            }
        }
        t.pc = pc;
    }
    foldRange();
    return view.finish();
}

/**
 * Run the flat loop over @p st with a View<SchemeT> built from
 * @p view_args, instantiated for the lead engine's concrete scheme
 * class and the concrete policy type (SchedPolicyBox::visit), so the
 * policy's placement verbs and quantum branches compile to
 * straight-line code inside the flattened loop.
 */
template <template <typename> class View, typename... ViewArgs>
SimdTier
replayFlatWith(ReplayState &st, const FlatTrace &flat,
               ViewArgs &&...view_args)
{
    SimdTier taken = SimdTier::Scalar;
    detail::visitSchemeClass(st.engine(0).scheme(), [&](auto scheme_tag) {
        using SchemeT = typename decltype(scheme_tag)::type;
        st.policy.visit([&](auto &pol) {
            taken = flatLoop<View<SchemeT>>(st, flat, pol, view_args...);
        });
    });
    return taken;
}

} // namespace detail_replay
} // namespace crw

#endif // CRW_TRACE_REPLAY_LOOP_H_
