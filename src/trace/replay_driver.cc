#include "trace/replay_driver.h"

#include <cstdlib>
#include <string>
#include <type_traits>

#include "common/logging.h"
#include "trace/replay_batch.h"
#include "win/engine_fast.h"

namespace crw {
namespace {

/**
 * Replay coordinate for fatal diagnostics: which behavior's trace was
 * being replayed, and under which (scheme, windows, policy). A stuck
 * or mismatched replay is almost always one bad point in a large
 * sweep, so the bare thread id alone is undebuggable.
 */
std::string
replayContext(const EventTrace &trace, const WindowEngine &engine,
              SchedPolicy policy)
{
    return "behavior \"" + trace.key + "\", " +
           schemeName(engine.scheme()) + "/w" +
           std::to_string(engine.numWindows()) + "/" +
           policyName(policy);
}

/** CRW_REPLAY_FAST=0 pins Auto-path drivers to the oracle loop. */
bool
fastEnabledByEnv()
{
    const char *v = std::getenv("CRW_REPLAY_FAST");
    return !(v && v[0] == '0' && v[1] == '\0');
}

} // namespace

ReplayDriver::ReplayDriver(const EventTrace &trace,
                           const EngineConfig &engine_config,
                           SchedPolicy policy, const FlatTrace *flat)
    : trace_(trace),
      flat_(flat),
      engine_(engine_config),
      core_(policy),
      policy_(policy),
      tracker_(64)
{
    // The tracker is driven directly from the dispatch loops below (a
    // devirtualized call on the final class) rather than through
    // WindowEngine's observer hook; the callbacks and arguments are
    // identical to what the engine would deliver.
    streams_.resize(trace.streams.size());
    for (std::size_t i = 0; i < trace.streams.size(); ++i) {
        streams_[i].capacity = trace.streams[i].capacity;
        streams_[i].openWriters =
            static_cast<int>(trace.streams[i].writers);
    }
    threads_.reserve(trace.threads.size());
    // Spawn order: dense tids, placement by the policy (priorities
    // come from the trace) — exactly as Scheduler::spawn.
    for (std::size_t i = 0; i < trace.threads.size(); ++i) {
        const ThreadId tid = static_cast<ThreadId>(i);
        engine_.addThread(tid);
        threads_.push_back(
            RThread{TraceCursor(trace.threads[i].code), 0,
                    RState::Ready});
        policy_.noteSpawn(tid, trace.threads[i].priority);
        policy_.onSpawn(core_, tid);
    }
    crw_assert(!flat_ || flat_->threads.size() == threads_.size());
}

void
ReplayDriver::wakeAllSlow(SmallVec<ThreadId, 8> &waiters)
{
    // Mirror of Stream::wakeAll + Scheduler::wake: wake-all with a
    // state re-check, queue placement decided by the policy against
    // *this* engine's residency at wake time.
    for (const ThreadId tid : waiters) {
        RThread &t = threads_[static_cast<std::size_t>(tid)];
        if (t.state != RState::Blocked)
            continue;
        t.state = RState::Ready;
        policy_.wake(core_, tid, engine_.isResident(tid));
    }
    waiters.clear();
}

void
ReplayDriver::fatalEventsAfterExit(ThreadId tid)
{
    crw_fatal << "replay: events after Exit in thread " << tid << " ("
              << trace_.threads[static_cast<std::size_t>(tid)].name
              << ") — "
              << replayContext(trace_, engine_, core_.policy());
}

void
ReplayDriver::fatalEndedWithoutExit(ThreadId tid)
{
    crw_fatal << "replay: script of thread " << tid << " ("
              << trace_.threads[static_cast<std::size_t>(tid)].name
              << ") ended without Exit — "
              << replayContext(trace_, engine_, core_.policy());
}

void
ReplayDriver::runThread(ThreadId tid)
{
    RThread &t = threads_[static_cast<std::size_t>(tid)];
    TraceCursor &cur = t.cursor;
    std::uint64_t operand;

    while (!cur.atEnd()) {
        const TraceOp op = cur.peek(operand);
        switch (op) {
          case TraceOp::Save:
            engine_.save();
            tracker_.onSave(tid, engine_.depthOf(tid));
            cur.advance();
            break;
          case TraceOp::Restore:
            engine_.restore();
            tracker_.onRestore(tid, engine_.depthOf(tid));
            cur.advance();
            break;
          case TraceOp::Charge:
            engine_.charge(static_cast<Cycles>(operand));
            cur.advance();
            // Round-robin preemption point: the charge has executed
            // (clock advanced, cursor moved), then the thread yields
            // back to the tail of the queue. chargeExpires is
            // identically false for quantum-less policies.
            if (policy_.chargeExpires(static_cast<Cycles>(operand))) {
                policy_.onQuantumExpiry(core_, tid);
                t.state = RState::Ready;
                return;
            }
            break;
          case TraceOp::Put: {
            RStream &s = streams_[operand];
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
            RStream &s = streams_[operand];
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
            RStream &s = streams_[operand];
            crw_assert(s.openWriters > 0);
            if (--s.openWriters == 0)
                wakeAll(s.readWaiters);
            cur.advance();
            break;
          }
          case TraceOp::Exit:
            cur.advance();
            if (!cur.atEnd())
                fatalEventsAfterExit(tid);
            engine_.threadExit();
            tracker_.onExit(tid);
            t.state = RState::Finished;
            return;
        }
    }
    fatalEndedWithoutExit(tid);
}

void
ReplayDriver::runLegacy()
{
    while (!core_.idle()) {
        const ThreadId tid = core_.dispatchNext();
        policy_.resetQuantum();
        RThread &t = threads_[static_cast<std::size_t>(tid)];
        crw_assert(t.state == RState::Ready);
        t.state = RState::Running;
        if (engine_.current() != tid) {
            const ThreadId from = engine_.current();
            const Cycles begin = engine_.now();
            engine_.contextSwitch(tid);
            tracker_.onSwitch(from, tid, engine_.depthOf(tid), begin,
                              engine_.now());
        }
        runThread(tid);
    }
}

/**
 * The specialized dispatch loop: same state machine as runLegacy() +
 * runThread(), with the script walk flattened to an index into the
 * predecoded arena and every engine event inlined through the
 * FastEngineView. The stream/waiter/scheduler transitions are the
 * exact statements of the oracle loop — only the event decode and the
 * engine dispatch differ.
 */
// flatten: the instantiations are each large enough that gcc's
// unit-growth budget otherwise gives up on inlining the window-file
// primitives (thread(), claimAsTop(), ...) precisely where they fire
// hundreds of millions of times; forcing the full event path inline
// here is the point of the specialized loop.
template <typename SchemeT, typename ObserverPolicy, typename PolicyT>
__attribute__((flatten)) void
ReplayDriver::runFastLoop(const FlatTrace &flat, ObserverPolicy observer,
                          PolicyT &pol)
{
    FastEngineView<SchemeT, ObserverPolicy> fast(engine_, observer);
    const std::uint8_t *const ops = flat.ops;
    const std::uint64_t *const operands = flat.operands;

    // Local mirrors of wakeAll/wakeAllSlow, bound to the concrete
    // policy type so queue placement compiles to straight-line code
    // (the member versions dispatch through the runtime box).
    const auto wakeAllSlow = [&](SmallVec<ThreadId, 8> &waiters) {
        for (const ThreadId wtid : waiters) {
            RThread &w = threads_[static_cast<std::size_t>(wtid)];
            if (w.state != RState::Blocked)
                continue;
            w.state = RState::Ready;
            pol.wake(core_, wtid, engine_.isResident(wtid));
        }
        waiters.clear();
    };
    const auto wakeAll = [&](SmallVec<ThreadId, 8> &waiters) {
        if (!waiters.empty())
            wakeAllSlow(waiters);
    };

    while (!core_.idle()) {
        const ThreadId tid = core_.dispatchNext();
        if constexpr (PolicyT::kHasQuantum)
            pol.resetQuantum();
        RThread &t = threads_[static_cast<std::size_t>(tid)];
        crw_assert(t.state == RState::Ready);
        t.state = RState::Running;
        if (fast.current() != tid) {
            const ThreadId from = fast.current();
            const Cycles begin = fast.now();
            fast.contextSwitch(tid);
            tracker_.onSwitch(from, tid, engine_.depthOf(tid), begin,
                              fast.now());
        }

        std::uint32_t pc = t.pc;
        const std::uint32_t end =
            flat.threads[static_cast<std::size_t>(tid)].end;
        bool running = true;
        while (running) {
            if (pc == end)
                fatalEndedWithoutExit(tid);
            // After each handler, the dominant successor op (measured
            // on the spell traces: every Save is followed by a Charge,
            // most Restores by a Save, most Gets by a Restore) is
            // peeked and handled inline — a predictable conditional
            // branch instead of a round trip through the switch's
            // indirect dispatch. The executed event sequence is
            // exactly the oracle's.
            switch (static_cast<TraceOp>(ops[pc])) {
              case TraceOp::Save:
              save_op:
                fast.save();
                tracker_.onSave(tid, engine_.depthOf(tid));
                ++pc;
                if (pc != end &&
                    static_cast<TraceOp>(ops[pc]) == TraceOp::Charge)
                    goto charge_op;
                break;
              case TraceOp::Restore:
              restore_op:
                fast.restore();
                tracker_.onRestore(tid, engine_.depthOf(tid));
                ++pc;
                if (pc != end &&
                    static_cast<TraceOp>(ops[pc]) == TraceOp::Save)
                    goto save_op;
                break;
              case TraceOp::Charge:
              charge_op:
                fast.charge(static_cast<Cycles>(operands[pc]));
                if constexpr (PolicyT::kHasQuantum) {
                    // Preemption point: the charge has executed, then
                    // the thread yields to the tail of the queue —
                    // same statement order as the oracle loop.
                    if (pol.chargeExpires(
                            static_cast<Cycles>(operands[pc]))) {
                        ++pc;
                        pol.onQuantumExpiry(core_, tid);
                        t.state = RState::Ready;
                        running = false;
                        break;
                    }
                }
                ++pc;
                if (pc != end) {
                    const TraceOp next = static_cast<TraceOp>(ops[pc]);
                    if (next == TraceOp::Get)
                        goto get_op;
                    if (next == TraceOp::Put)
                        goto put_op;
                    if (next == TraceOp::Save)
                        goto save_op;
                }
                break;
              case TraceOp::Put:
              put_op: {
                RStream &s = streams_[operands[pc]];
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
                    const TraceOp next = static_cast<TraceOp>(ops[pc]);
                    if (next == TraceOp::Restore)
                        goto restore_op;
                    if (next == TraceOp::Put)
                        goto put_op;
                }
                break;
              }
              case TraceOp::Get:
              get_op: {
                RStream &s = streams_[operands[pc]];
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
                    static_cast<TraceOp>(ops[pc]) == TraceOp::Restore)
                    goto restore_op;
                break;
              }
              case TraceOp::Close: {
                RStream &s = streams_[operands[pc]];
                crw_assert(s.openWriters > 0);
                if (--s.openWriters == 0)
                    wakeAll(s.readWaiters);
                ++pc;
                break;
              }
              case TraceOp::Exit:
                ++pc;
                if (pc != end)
                    fatalEventsAfterExit(tid);
                fast.threadExit();
                tracker_.onExit(tid);
                t.state = RState::Finished;
                running = false;
                break;
            }
        }
        t.pc = pc;
    }
}

void
ReplayDriver::runFast(const FlatTrace &flat)
{
    // One instantiation per (scheme, observer, policy) triple; the
    // observer branch compiles out entirely of the no-observer loops
    // and the policy is a concrete type from the box's variant.
    EngineObserver *const obs = engine_.observer();
    const auto dispatch = [&](auto scheme_tag) {
        using SchemeT = typename decltype(scheme_tag)::type;
        policy_.visit([&](auto &pol) {
            if (obs)
                runFastLoop<SchemeT>(flat, EngineObserverRef{obs}, pol);
            else
                runFastLoop<SchemeT>(flat, NoopEngineObserver{}, pol);
        });
    };
    switch (engine_.scheme()) {
      case SchemeKind::NS:
        dispatch(std::type_identity<detail::NsScheme>{});
        return;
      case SchemeKind::SNP:
        dispatch(std::type_identity<detail::SnpScheme>{});
        return;
      case SchemeKind::SP:
        dispatch(std::type_identity<detail::SpScheme>{});
        return;
      case SchemeKind::Infinite:
        dispatch(std::type_identity<detail::InfiniteScheme>{});
        return;
    }
    crw_unreachable("bad scheme kind");
}

void
ReplayDriver::run()
{
    if (ran_)
        crw_fatal << "ReplayDriver::run() called twice — a driver is "
                     "one run; rerunning would accumulate into the "
                     "finished run's counters ("
                  << replayContext(trace_, engine_, core_.policy())
                  << ")";
    ran_ = true;

    bool fast = false;
    bool batched = false;
    switch (path_) {
      case ReplayPath::Auto:
        fast = !engine_.checkInvariants() && fastEnabledByEnv();
        break;
      case ReplayPath::Fast:
        if (engine_.checkInvariants())
            crw_fatal << "ReplayPath::Fast with checkInvariants: the "
                         "post-event invariant walk only exists on "
                         "the oracle path ("
                      << replayContext(trace_, engine_,
                                       core_.policy())
                      << ")";
        fast = true;
        break;
      case ReplayPath::Legacy:
        fast = false;
        break;
      case ReplayPath::Batched:
        if (engine_.checkInvariants() || engine_.observer())
            crw_fatal << "ReplayPath::Batched with "
                      << (engine_.checkInvariants() ? "checkInvariants"
                                                    : "an observer")
                      << ": batched replay is the headless sweep "
                         "path; oracle-only features fall back to "
                         "the per-point loops ("
                      << replayContext(trace_, engine_,
                                       core_.policy())
                      << ")";
        batched = true;
        break;
    }

    if (batched) {
        if (!flat_) {
            ownedFlat_ =
                std::make_unique<FlatTrace>(FlatTrace::build(trace_));
            flat_ = ownedFlat_.get();
        }
        for (std::size_t i = 0; i < threads_.size(); ++i)
            threads_[i].pc = flat_->threads[i].begin;
        WindowEngine *eng = &engine_;
        detail_replay::runLockstepLoop(trace_, *flat_, core_, policy_,
                                       streams_, threads_, &eng,
                                       tracker_, 1);
        usedBatched_ = true;
    } else if (fast) {
        if (!flat_) {
            ownedFlat_ =
                std::make_unique<FlatTrace>(FlatTrace::build(trace_));
            flat_ = ownedFlat_.get();
        }
        for (std::size_t i = 0; i < threads_.size(); ++i)
            threads_[i].pc = flat_->threads[i].begin;
        runFast(*flat_);
        usedFast_ = true;
    } else {
        runLegacy();
    }

    for (std::size_t i = 0; i < threads_.size(); ++i) {
        if (threads_[i].state != RState::Finished)
            crw_fatal << "replay deadlock: thread " << i << " ("
                      << trace_.threads[i].name
                      << ") never finished — trace/config mismatch, "
                      << replayContext(trace_, engine_,
                                       core_.policy());
    }
    tracker_.finish(engine_.now());
}

RunMetrics
ReplayDriver::metrics() const
{
    if (!ran_)
        crw_fatal << "ReplayDriver::metrics() called before run() — "
                     "the engine and tracker are unpopulated and "
                     "would yield an all-zero record ("
                  << replayContext(trace_, engine_, core_.policy())
                  << ")";
    return collectRunMetrics(engine_, tracker_, core_.slackness(),
                             core_.policy(),
                             static_cast<int>(threads_.size()),
                             trace_.misspelled);
}

} // namespace crw
