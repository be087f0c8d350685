#include "trace/replay_batch.h"

#include <string>
#include <type_traits>

#include "common/logging.h"
#include "win/engine_batch.h"

namespace crw {
namespace {

std::string
batchContext(const EventTrace &trace, const WindowEngine &engine,
             SchedPolicy policy, std::size_t lanes)
{
    return "behavior \"" + trace.key + "\", " +
           schemeName(engine.scheme()) + "/" + policyName(policy) +
           ", batch of " + std::to_string(lanes);
}

/**
 * The lockstep dispatch loop: the exact state machine of
 * ReplayDriver::runFastLoop (replay_driver.cc) — same goto-chained
 * measured-successor decode, same stream/waiter/scheduler statements
 * — with the single-engine FastEngineView replaced by the
 * leader/follower BatchedEngineView and the one engine-state read in
 * the control path (residency at wake, consulted by the working-set
 * policy family) answered by the leader. The static batch rule makes
 * that answer lane-invariant (lockstepBatchable, replay_batch.h);
 * every other policy input (static priorities, the round-robin
 * quantum's charge operands) is lane-invariant by the policy
 * determinism contract (rt/sched_core.h).
 */
// flatten: same rationale as runFastLoop — the window-file and scheme
// primitives must inline into the per-lane event bodies, where they
// run hundreds of millions of times per sweep.
template <typename SchemeT, typename PolicyT>
__attribute__((flatten)) void
lockstepLoop(const EventTrace &trace, const FlatTrace &flat,
             SchedCore &core, PolicyT &pol,
             std::vector<RStream> &streams,
             std::vector<RThread> &threads,
             WindowEngine *const *engines, BehaviorTracker &tracker,
             std::size_t lanes, SimdTier *simd_path)
{
    BatchedEngineView<SchemeT> view(engines, lanes);
    view.reserveOps(flat.eventCount());
    const std::uint8_t *const ops = flat.ops;
    const std::uint64_t *const operands = flat.operands;

    const auto fatalEventsAfterExit = [&](ThreadId tid) {
        crw_fatal << "replay: events after Exit in thread " << tid
                  << " ("
                  << trace.threads[static_cast<std::size_t>(tid)].name
                  << ") — "
                  << batchContext(trace, *engines[0], core.policy(),
                                  lanes);
    };
    const auto fatalEndedWithoutExit = [&](ThreadId tid) {
        crw_fatal << "replay: script of thread " << tid << " ("
                  << trace.threads[static_cast<std::size_t>(tid)].name
                  << ") ended without Exit — "
                  << batchContext(trace, *engines[0], core.policy(),
                                  lanes);
    };

    // Mirror of ReplayDriver::wakeAllSlow. When the policy consults
    // residency (WS, WSA) the placement consumes the *leader's*
    // residency of the woken thread. A batch wider than one lane only
    // gets here under NS or INF (lockstepBatchable), where a woken
    // thread is resident on no lane; the assert checks that claim
    // where it is used.
    const auto wakeAllSlow = [&](SmallVec<ThreadId, 8> &waiters) {
        for (const ThreadId tid : waiters) {
            RThread &t = threads[static_cast<std::size_t>(tid)];
            if (t.state != RState::Blocked)
                continue;
            t.state = RState::Ready;
            if constexpr (PolicyT::kUsesResidency) {
                const bool resident = view.resident(tid);
                crw_assert(lanes == 1 || !resident);
                pol.wake(core, tid, resident);
            } else {
                pol.wake(core, tid, false);
            }
        }
        waiters.clear();
    };
    const auto wakeAll = [&](SmallVec<ThreadId, 8> &waiters) {
        if (!waiters.empty())
            wakeAllSlow(waiters);
    };

    while (!core.idle()) {
        const ThreadId tid = core.dispatchNext();
        if constexpr (PolicyT::kHasQuantum)
            pol.resetQuantum();
        RThread &t = threads[static_cast<std::size_t>(tid)];
        crw_assert(t.state == RState::Ready);
        t.state = RState::Running;
        if (view.current() != tid) {
            const ThreadId from = view.current();
            view.contextSwitch(tid);
            tracker.onSwitch(from, tid, view.depth(tid),
                             view.switchBegin(0), view.now(0));
        }

        std::uint32_t pc = t.pc;
        const std::uint32_t end =
            flat.threads[static_cast<std::size_t>(tid)].end;
        bool running = true;
        while (running) {
            if (pc == end)
                fatalEndedWithoutExit(tid);
            switch (static_cast<TraceOp>(ops[pc])) {
              case TraceOp::Save:
              save_op:
                view.save();
                tracker.onSave(tid, view.depth(tid));
                ++pc;
                if (pc != end &&
                    static_cast<TraceOp>(ops[pc]) == TraceOp::Charge)
                    goto charge_op;
                break;
              case TraceOp::Restore:
              restore_op:
                view.restore();
                tracker.onRestore(tid, view.depth(tid));
                ++pc;
                if (pc != end &&
                    static_cast<TraceOp>(ops[pc]) == TraceOp::Save)
                    goto save_op;
                break;
              case TraceOp::Charge:
              charge_op:
                view.charge(static_cast<Cycles>(operands[pc]));
                if constexpr (PolicyT::kHasQuantum) {
                    // Preemption point: the charge has executed, then
                    // the thread yields to the tail of the queue —
                    // same statement order as the per-point loops. The
                    // operand is a shared trace value, so every lane
                    // observes the identical quantum schedule.
                    if (pol.chargeExpires(
                            static_cast<Cycles>(operands[pc]))) {
                        ++pc;
                        pol.onQuantumExpiry(core, tid);
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
                RStream &s = streams[operands[pc]];
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
                RStream &s = streams[operands[pc]];
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
                RStream &s = streams[operands[pc]];
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
                view.threadExit();
                tracker.onExit(tid);
                t.state = RState::Finished;
                running = false;
                break;
            }
        }
        t.pc = pc;
    }
    // The follower lanes replay the recorded op stream here.
    view.finish();
    if (simd_path)
        *simd_path = view.simdPathTaken();
}

} // namespace

namespace detail_replay {

void
runLockstepLoop(const EventTrace &trace, const FlatTrace &flat,
                SchedCore &core, SchedPolicyBox &policy,
                std::vector<RStream> &streams,
                std::vector<RThread> &threads,
                WindowEngine *const *engines, BehaviorTracker &tracker,
                std::size_t lanes, SimdTier *simd_path)
{
    // One instantiation per (scheme, policy) pair, mirroring
    // ReplayDriver::runFast: the policy's placement verbs and quantum
    // branches compile to straight-line code inside the flattened
    // loop.
    const auto dispatch = [&](auto scheme_tag) {
        using SchemeT = typename decltype(scheme_tag)::type;
        policy.visit([&](auto &pol) {
            lockstepLoop<SchemeT>(trace, flat, core, pol, streams,
                                  threads, engines, tracker, lanes,
                                  simd_path);
        });
    };
    switch (engines[0]->scheme()) {
      case SchemeKind::NS:
        return dispatch(std::type_identity<detail::NsScheme>{});
      case SchemeKind::SNP:
        return dispatch(std::type_identity<detail::SnpScheme>{});
      case SchemeKind::SP:
        return dispatch(std::type_identity<detail::SpScheme>{});
      case SchemeKind::Infinite:
        return dispatch(std::type_identity<detail::InfiniteScheme>{});
    }
    crw_unreachable("bad scheme kind");
}

} // namespace detail_replay

BatchedReplayDriver::BatchedReplayDriver(
    const EventTrace &trace, const std::vector<EngineConfig> &configs,
    SchedPolicy policy, const FlatTrace *flat)
    : trace_(trace),
      flat_(flat),
      tracker_(64),
      core_(policy),
      policy_(policy)
{
    if (configs.empty())
        crw_fatal << "BatchedReplayDriver: empty config batch for "
                     "behavior \""
                  << trace.key << "\"";
    engines_.reserve(configs.size());
    for (const EngineConfig &config : configs) {
        if (config.scheme != configs.front().scheme)
            crw_fatal << "BatchedReplayDriver: mixed schemes in one "
                         "batch ("
                      << schemeName(configs.front().scheme) << " vs "
                      << schemeName(config.scheme)
                      << ") — one lockstep instantiation drives one "
                         "concrete scheme class";
        if (config.checkInvariants)
            crw_fatal << "BatchedReplayDriver: checkInvariants is an "
                         "oracle-path debugging aid; batched replay "
                         "refuses it (behavior \""
                      << trace.key << "\", "
                      << schemeName(config.scheme) << "/"
                      << policyName(policy) << ")";
        engines_.push_back(std::make_unique<WindowEngine>(config));
    }
    if (configs.size() > 1 &&
        !lockstepBatchable(configs.front().scheme, policy))
        crw_fatal << "BatchedReplayDriver: " << policyName(policy)
                  << " reads window residency, which the sharing "
                     "schemes make lane-dependent; replay these points "
                     "one lane at a time ("
                  << batchContext(trace, *engines_[0], policy,
                                  configs.size())
                  << ")";

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
        for (auto &engine : engines_)
            engine->addThread(tid);
        threads_.push_back(RThread{TraceCursor(trace.threads[i].code),
                                   0, RState::Ready});
        policy_.noteSpawn(tid, trace.threads[i].priority);
        policy_.onSpawn(core_, tid);
    }
    crw_assert(!flat_ || flat_->threads.size() == threads_.size());
}

bool
BatchedReplayDriver::run()
{
    if (ran_)
        crw_fatal << "BatchedReplayDriver::run() called twice ("
                  << batchContext(trace_, *engines_[0], core_.policy(),
                                  lanes())
                  << ")";
    ran_ = true;

    if (!flat_) {
        ownedFlat_ =
            std::make_unique<FlatTrace>(FlatTrace::build(trace_));
        flat_ = ownedFlat_.get();
    }
    for (std::size_t i = 0; i < threads_.size(); ++i)
        threads_[i].pc = flat_->threads[i].begin;

    // The raw lane array the loop iterates (unique_ptr unwrapped off
    // the hot path).
    std::vector<WindowEngine *> engines;
    engines.reserve(lanes());
    for (std::size_t l = 0; l < lanes(); ++l)
        engines.push_back(engines_[l].get());

    detail_replay::runLockstepLoop(trace_, *flat_, core_, policy_,
                                   streams_, threads_, engines.data(),
                                   tracker_, lanes(), &simdPath_);

    for (std::size_t i = 0; i < threads_.size(); ++i) {
        if (threads_[i].state != RState::Finished)
            crw_fatal << "replay deadlock: thread " << i << " ("
                      << trace_.threads[i].name
                      << ") never finished — trace/config mismatch, "
                      << batchContext(trace_, *engines_[0],
                                      core_.policy(), lanes());
    }
    // One finish at lane 0's clock: the sole clock-dependent tracker
    // state is the granularity distribution, which no RunMetrics
    // field reads (see replay_batch.h).
    tracker_.finish(engines_[0]->now());
    return true;
}

RunMetrics
BatchedReplayDriver::metrics(std::size_t lane) const
{
    if (!ran_)
        crw_fatal << "BatchedReplayDriver::metrics() before run() — "
                     "the engines and trackers are unpopulated ("
                  << batchContext(trace_, *engines_[0], core_.policy(),
                                  lanes())
                  << ")";
    return collectRunMetrics(*engines_[lane], tracker_,
                             core_.slackness(), core_.policy(),
                             static_cast<int>(threads_.size()),
                             trace_.misspelled);
}

} // namespace crw
