#include "trace/replay_driver.h"

#include "common/logging.h"
#include "trace/replay_loop.h"
#include "win/engine_fast.h"

namespace crw {

SimdTier
ReplayState::replaySingle(const FlatTrace &flat)
{
    return detail_replay::replayFlatWith<FastEngineView>(
        *this, flat, *engines_[0], flat.tallies);
}

ReplayDriver::ReplayDriver(const EventTrace &trace,
                           const EngineConfig &engine_config,
                           SchedPolicy policy, const FlatTrace *flat)
    : state_(trace, {engine_config}, policy, flat)
{
}

void
ReplayDriver::wakeAllSlow(SmallVec<ThreadId, 8> &waiters)
{
    // Mirror of Stream::wakeAll + Scheduler::wake: wake-all with a
    // state re-check, queue placement decided by the policy against
    // *this* engine's residency at wake time.
    for (const ThreadId tid : waiters) {
        RThread &t = state_.threads[static_cast<std::size_t>(tid)];
        if (t.state != RState::Blocked)
            continue;
        t.state = RState::Ready;
        state_.policy.wake(state_.core, tid, engine().isResident(tid));
    }
    waiters.clear();
}

void
ReplayDriver::runThread(ThreadId tid)
{
    WindowEngine &engine = this->engine();
    BehaviorTracker &tracker = state_.tracker;
    SchedPolicyBox &policy = state_.policy;
    RThread &t = state_.threads[static_cast<std::size_t>(tid)];
    TraceCursor &cur = t.cursor;
    std::uint64_t operand;

    while (!cur.atEnd()) {
        const TraceOp op = cur.peek(operand);
        switch (op) {
          case TraceOp::Save:
            engine.save();
            tracker.onSave(tid, engine.depthOf(tid));
            cur.advance();
            break;
          case TraceOp::Restore:
            engine.restore();
            tracker.onRestore(tid, engine.depthOf(tid));
            cur.advance();
            break;
          case TraceOp::Charge:
            engine.charge(static_cast<Cycles>(operand));
            cur.advance();
            // Round-robin preemption point: the charge has executed
            // (clock advanced, cursor moved), then the thread yields
            // back to the tail of the queue. chargeExpires is
            // identically false for quantum-less policies.
            if (policy.chargeExpires(static_cast<Cycles>(operand))) {
                policy.onQuantumExpiry(state_.core, tid);
                t.state = RState::Ready;
                return;
            }
            break;
          case TraceOp::Put: {
            RStream &s = state_.streams[operand];
            if (s.count == s.capacity) {
                // Stream::rawPut's blocking loop: notify readers,
                // park; re-entered (cursor unmoved) when re-run.
                wakeAll(s.readWaiters);
                s.writeWaiters.push_back(tid);
                t.state = RState::Blocked;
                return;
            }
            ++s.count;
            wakeAll(s.readWaiters);
            cur.advance();
            break;
          }
          case TraceOp::Get: {
            RStream &s = state_.streams[operand];
            if (s.count == 0) {
                if (s.openWriters == 0) {
                    // EOF: rawGet returns without byte or block.
                    cur.advance();
                    break;
                }
                wakeAll(s.writeWaiters);
                s.readWaiters.push_back(tid);
                t.state = RState::Blocked;
                return;
            }
            --s.count;
            wakeAll(s.writeWaiters);
            cur.advance();
            break;
          }
          case TraceOp::Close: {
            RStream &s = state_.streams[operand];
            crw_assert(s.openWriters > 0);
            if (--s.openWriters == 0)
                wakeAll(s.readWaiters);
            cur.advance();
            break;
          }
          case TraceOp::Exit:
            cur.advance();
            if (!cur.atEnd())
                state_.fatalEventsAfterExit(tid);
            engine.threadExit();
            tracker.onExit(tid);
            t.state = RState::Finished;
            return;
        }
    }
    state_.fatalEndedWithoutExit(tid);
}

void
ReplayDriver::runLegacy()
{
    WindowEngine &engine = this->engine();
    SchedCore &core = state_.core;
    while (!core.idle()) {
        const ThreadId tid = core.dispatchNext();
        state_.policy.resetQuantum();
        RThread &t = state_.threads[static_cast<std::size_t>(tid)];
        crw_assert(t.state == RState::Ready);
        t.state = RState::Running;
        if (engine.current() != tid) {
            engine.contextSwitch(tid);
            state_.tracker.switchTo(tid, engine.depthOf(tid));
        }
        runThread(tid);
    }
}

void
ReplayDriver::run()
{
    state_.beginRun();
    const WindowEngine &e = engine();
    if (path_ == ReplayPath::Auto && !e.checkInvariants() &&
        !e.observer()) {
        state_.replayFlat();
        usedFast_ = true;
    } else {
        runLegacy();
    }
    state_.endRun();
}

} // namespace crw
