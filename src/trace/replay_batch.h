/**
 * @file
 * Batched lockstep replay: one forward pass over a FlatTrace drives
 * up to K engine states (DESIGN.md §14).
 *
 * Replay control flow — dispatch order, stream occupancy/blocking,
 * thread script positions — depends on the *event sequence* only,
 * never on engine state, with one exception: the working-set policy
 * family (WS, WSA) consults engine residency at each wake. Every
 * other policy input is lane-invariant by the policy determinism
 * contract (rt/sched_core.h): FIFO ignores everything, Priority reads
 * static per-thread priorities from the trace, and RoundRobin's
 * quantum accumulates shared trace charge operands. For those
 * policies the schedules of every (windows, PRW, alloc) variant of
 * one (behavior, scheme, policy, cost-model) group are therefore
 * *provably identical*, so one shared SchedCore + policy object +
 * stream/thread state can drive K engines in lockstep: a cold
 * fig11+12+13 sweep walks each trace once per scheme instead of once
 * per point.
 *
 * The working-set family batches by a static rule, lockstepBatchable:
 * residency is lane-invariant under NS and INF and lane-dependent
 * under the sharing schemes. A woken thread is never the running one,
 * and NS flushes every window of a thread it switches away from
 * (paper §4.5), while INF never makes a thread resident at all — so
 * under both the answer at every wake is `false` on every lane. Under
 * SNP and SP it depends on the window count, so those points replay
 * one lane at a time. Every lane pass of a wider batch checks the NS
 * claim as it replays each switch.
 *
 * Each lane still produces RunMetrics bit-identical to a per-point
 * replay: every tracker field RunMetrics reads (activity, total
 * activity, concurrency) is a pure function of the shared event
 * sequence, so ONE BehaviorTracker serves the whole batch; per-lane
 * switch-cost Distributions sample in per-lane event order; and the
 * shared core's slackness/dispatch statistics are schedule-derived —
 * identical to what K per-point cores would each record (the replay
 * net, tests/bench/test_replay_net.cc, pins all of this
 * differentially).
 *
 * A batch runs the one flat replay loop (replay_state.h) over a
 * BatchedEngineView: the loop records the engine-op stream and touches
 * no engine; every lane replays that record when the tape fills and at
 * finish() — per lane for the sharing schemes and on the scalar tier,
 * or for NS/INF in one lane-SoA pass with SIMD run kernels on the SoA
 * tiers (win/simd.h, DESIGN.md §16). The tier is a host-side choice
 * only: every tier produces bit-identical lane results. A one-config
 * batch records no tape and runs the single-engine FastEngineView, as
 * a per-point replay does.
 */

#ifndef CRW_TRACE_REPLAY_BATCH_H_
#define CRW_TRACE_REPLAY_BATCH_H_

#include <vector>

#include "trace/replay_state.h"
#include "win/simd.h"

namespace crw {

/**
 * The static batch rule: whether points of (@p scheme, @p policy) may
 * share a lockstep batch wider than one lane. They may unless the
 * policy reads residency at wakes (WS, WSA) and the scheme shares
 * windows (SNP, SP) — the one pairing whose schedule depends on the
 * window count (see the file comment).
 */
constexpr bool
lockstepBatchable(SchemeKind scheme, SchedPolicy policy)
{
    return !policyUsesResidency(policy) ||
           !(scheme == SchemeKind::SNP || scheme == SchemeKind::SP);
}

/**
 * Replays one trace once, advancing one engine per config in
 * lockstep. All configs must share the scheme kind (one template
 * instantiation drives the batch), must not request checkInvariants,
 * and at more than one lane must satisfy lockstepBatchable; window
 * count, PRW reclamation, allocation policy and cost model may differ
 * per lane — none of them feed back into scheduling.
 */
class BatchedReplayDriver
{
  public:
    /**
     * @param trace The captured run (not owned; must outlive this).
     * @param configs One engine configuration per lane (>= 1).
     * @param policy Ready-queue policy to re-schedule with.
     * @param flat Optional predecoded image of @p trace (not owned);
     *        when absent, run() predecodes privately.
     */
    BatchedReplayDriver(const EventTrace &trace,
                        const std::vector<EngineConfig> &configs,
                        SchedPolicy policy,
                        const FlatTrace *flat = nullptr);

    BatchedReplayDriver(const BatchedReplayDriver &) = delete;
    BatchedReplayDriver &operator=(const BatchedReplayDriver &) =
        delete;

    /**
     * Replay the whole trace across all lanes. Fatal on a second call
     * and on a stuck/mismatched trace.
     *
     * @return always true: a batch the constructor accepted cannot
     *         diverge. (The bool is kept for callers that hook this
     *         symbol.)
     */
    bool run();

    std::size_t lanes() const { return state_.lanes(); }

    /** Metrics of lane @p lane. Fatal before run(). */
    RunMetrics metrics(std::size_t lane) const
    {
        return state_.metrics(lane);
    }

    WindowEngine &engine(std::size_t lane)
    {
        return state_.engine(lane);
    }
    const WindowEngine &engine(std::size_t lane) const
    {
        return state_.engine(lane);
    }
    const SchedCore &core() const { return state_.core; }

    /**
     * The lane pass run() actually dispatched: Scalar when the
     * per-lane pass replayed the tape (scalar tier, or a sharing
     * scheme on any tier) or there was none (one lane), else the
     * lane-SoA tier. Meaningless before run().
     */
    SimdTier simdPath() const { return simdPath_; }

  private:
    ReplayState state_;
    SimdTier simdPath_ = SimdTier::Scalar;
};

} // namespace crw

#endif // CRW_TRACE_REPLAY_BATCH_H_
