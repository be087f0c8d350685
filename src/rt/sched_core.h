/**
 * @file
 * SchedCore: the pure scheduling mechanism shared by the live
 * coroutine Scheduler (src/rt/scheduler.h) and the trace ReplayDriver
 * (src/trace/replay_driver.h), plus the pluggable policy layer that
 * drives it.
 *
 * The paper's ready-queue policies (§4.5 FIFO, §4.6 working set) are
 * decisions about *queue placement only*; they do not need coroutines,
 * thread objects or streams. Extracting them here lets a captured
 * event trace be re-scheduled against any (scheme, window-count,
 * policy) combination: the working-set refinement consults *engine
 * residency at the moment of the wake*, which the caller passes in, so
 * replay reproduces exactly the decisions a live run would make.
 *
 * Mechanism vs policy split: SchedCore owns the ready structure (a
 * small fixed set of priority levels, each a ReadyRing) and the
 * dispatch-order bookkeeping, and exposes only placement verbs
 * (enqueueBack / enqueueFront at a level). Every *decision* — front
 * jump or back, which level, when a quantum expires — lives in one of
 * the policy classes below. The flat replay loop is templated on the
 * concrete policy type (mirroring the SchemeT pattern of its engine
 * views, trace/replay_loop.h) so placement compiles down to
 * the same straight-line code the old two-way branch produced; the
 * live Scheduler and the legacy oracle dispatch through SchedPolicyBox
 * (a std::variant) where the indirection is off any hot path.
 */

#ifndef CRW_RT_SCHED_CORE_H_
#define CRW_RT_SCHED_CORE_H_

#include <bit>
#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "common/types.h"

namespace crw {

/**
 * Fixed-policy double-ended ring buffer backing the ready queue. A
 * std::deque spends the dispatch loop's time in block-map bookkeeping;
 * the queue holds at most one entry per application thread, so a
 * power-of-two ring that doubles on the rare overflow makes every
 * push/pop a masked index bump. Operation order is exactly deque
 * order — the scheduling policies depend on it.
 */
class ReadyRing
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    ThreadId
    front() const
    {
        crw_assert(size_ > 0);
        return buf_[head_];
    }

    void
    push_back(ThreadId tid)
    {
        if (size_ > mask_)
            grow();
        buf_[(head_ + size_) & mask_] = tid;
        ++size_;
    }

    void
    push_front(ThreadId tid)
    {
        if (size_ > mask_)
            grow();
        head_ = (head_ - 1) & mask_;
        buf_[head_] = tid;
        ++size_;
    }

    ThreadId
    pop_front()
    {
        crw_assert(size_ > 0);
        const ThreadId tid = buf_[head_];
        head_ = (head_ + 1) & mask_;
        --size_;
        return tid;
    }

  private:
    void
    grow()
    {
        std::vector<ThreadId> next(buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = buf_[(head_ + i) & mask_];
        buf_ = std::move(next);
        mask_ = buf_.size() - 1;
        head_ = 0;
    }

    std::vector<ThreadId> buf_ = std::vector<ThreadId>(16);
    std::size_t mask_ = 15; // buf_.size() - 1, cached off the hot loads
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/** Ready-queue policy family (paper §4.5/§4.6 plus extensions). */
enum class SchedPolicy {
    Fifo,           ///< plain first-in first-out
    WorkingSet,     ///< awoken-and-resident threads jump the queue
    RoundRobin,     ///< FIFO + a charged-cycle preemption quantum
    Priority,       ///< static per-thread priority levels
    WorkingSetAged, ///< working set, but front jumps age out
};

/** Canonical short name: "FIFO", "WS", "RR", "PRI", "WSA". The names
 *  key the persistent result cache — never reuse one across enum
 *  values. */
const char *policyName(SchedPolicy policy);

/** Inverse of policyName; returns false on an unknown name. */
bool parsePolicyName(std::string_view name, SchedPolicy &out);

/** Every policy, in enum order (sweep menus, differential tests). */
const std::vector<SchedPolicy> &allSchedPolicies();

/** Whether wake placement consults window residency (WS, WSA). The
 *  static lockstep batch rule (trace/replay_batch.h) keeps these
 *  policies at one lane under the sharing schemes. */
constexpr bool
policyUsesResidency(SchedPolicy policy)
{
    return policy == SchedPolicy::WorkingSet ||
           policy == SchedPolicy::WorkingSetAged;
}

/**
 * The ready structure plus the dispatch-order bookkeeping the paper's
 * evaluation reports. Thread lifecycle state (Ready/Blocked/...) stays
 * with the driver (live Scheduler or ReplayDriver); SchedCore only
 * sees ids of ready threads and the placement verbs a policy object
 * invokes. It never branches on the policy itself.
 */
class SchedCore
{
  public:
    /** Distinct priority levels (Priority policy); level 0 is the
     *  default queue every other policy uses exclusively. */
    static constexpr int kNumLevels = 8;

    explicit SchedCore(SchedPolicy policy)
        : policy_(policy)
    {}

    /** The policy label this core runs under (metrics/diagnostics;
     *  the placement logic lives in the policy object). */
    SchedPolicy policy() const { return policy_; }

    /** Enqueue at the back of @p level's queue. */
    void
    enqueueBack(ThreadId tid, int level = 0)
    {
        crw_assert(level >= 0 && level < kNumLevels);
        levels_[level].push_back(tid);
        nonEmpty_ |= 1u << level;
        ++count_;
        notePeak();
    }

    /** Enqueue at the front of @p level's queue (working-set jump). */
    void
    enqueueFront(ThreadId tid, int level = 0)
    {
        crw_assert(level >= 0 && level < kNumLevels);
        levels_[level].push_front(tid);
        nonEmpty_ |= 1u << level;
        ++count_;
        notePeak();
    }

    bool idle() const { return count_ == 0; }

    /**
     * Pop the next thread to run: front of the highest non-empty
     * level. Samples "parallel slackness" (paper §5: threads available
     * for execution right now, excluding the one being dispatched)
     * and counts the dispatch.
     */
    ThreadId
    dispatchNext()
    {
        crw_assert(count_ > 0);
        const int level = std::bit_width(nonEmpty_) - 1;
        ReadyRing &ring = levels_[level];
        const ThreadId tid = ring.pop_front();
        if (ring.empty())
            nonEmpty_ &= ~(1u << level);
        --count_;
        slackness_.sample(static_cast<double>(count_));
        ++dispatches_;
        return tid;
    }

    /** Ready-queue length sampled at every dispatch (paper §5). */
    const Distribution &slackness() const { return slackness_; }

    /** Dispatch count (= context switches + same-thread skips). */
    std::uint64_t dispatches() const { return dispatches_; }

    /** High-water mark of the ready queue over the whole run. */
    std::size_t peakReady() const { return peakReady_; }

    /** Total ready threads right now, across all levels. */
    std::size_t readyCount() const { return count_; }

    // Policy-outcome tallies. The policy object calls note*() as it
    // places threads; obs publishes them per point (publishSchedCore)
    // so a sweep can show *why* two policies diverge, not just that
    // they do.

    void noteWakeFront() { ++wakesFront_; }
    void noteWakeBack() { ++wakesBack_; }
    void noteQuantumYield() { ++quantumYields_; }

    /** Wakes placed at the queue front (working-set jumps). */
    std::uint64_t wakesFront() const { return wakesFront_; }
    /** Wakes placed at the queue back. */
    std::uint64_t wakesBack() const { return wakesBack_; }
    /** Preemptions forced by an expired round-robin quantum. */
    std::uint64_t quantumYields() const { return quantumYields_; }

  private:
    void
    notePeak()
    {
        // Kept as a (rarely taken) branch: the peak settles within the
        // first few dispatches, after which this predicts perfectly.
        if (count_ > peakReady_)
            peakReady_ = count_;
    }

    SchedPolicy policy_;
    ReadyRing levels_[kNumLevels];
    std::uint32_t nonEmpty_ = 0; ///< bit L set <=> levels_[L] non-empty
    std::size_t count_ = 0;      ///< total entries across levels
    Distribution slackness_;
    std::uint64_t dispatches_ = 0;
    std::size_t peakReady_ = 0;
    std::uint64_t wakesFront_ = 0;
    std::uint64_t wakesBack_ = 0;
    std::uint64_t quantumYields_ = 0;
};

// ---------------------------------------------------------------------
// The policy layer. Each policy is a small value type with constexpr
// traits the templated replay loops branch on at compile time:
//
//   kKind          the SchedPolicy value it implements
//   kUsesResidency wake() consults the residency bit (WS family)
//   kHasQuantum    charges accumulate toward a preemption quantum (RR)
//
// Shared verbs (every policy):
//   noteSpawn(tid, priority)  static per-thread attributes, called
//                             once per thread before any placement
//   onSpawn(core, tid)        initial ready-queue placement
//   wake(core, tid, resident) placement of an awoken thread
//
// Quantum verbs (kHasQuantum only; the box stubs them for the rest):
//   resetQuantum()            at every dispatch
//   chargeExpires(cycles)     accumulate; true once the quantum is hit
//   onQuantumExpiry(core,tid) re-enqueue the preempted thread
//
// Determinism contract: a policy may keep internal state (ages,
// quantum balance) but may read *only* lane-invariant inputs — trace
// operands, the residency bit the caller derived, and its own state.
// That keeps every policy bit-identical across the legacy, fast and
// batched replay paths, and keeps RR lockstep-batchable (charge
// operands come from the shared trace, not per-lane engine state).
// ---------------------------------------------------------------------

/** Plain FIFO: every placement at the back of level 0 (paper §4.5). */
class FifoPolicy
{
  public:
    static constexpr SchedPolicy kKind = SchedPolicy::Fifo;
    static constexpr bool kUsesResidency = false;
    static constexpr bool kHasQuantum = false;

    void noteSpawn(ThreadId, std::uint8_t) {}
    void onSpawn(SchedCore &core, ThreadId tid) { core.enqueueBack(tid); }

    void
    wake(SchedCore &core, ThreadId tid, bool /*resident*/)
    {
        core.noteWakeBack();
        core.enqueueBack(tid);
    }
};

/** §4.6 working set: an awoken thread whose windows are still
 *  resident jumps to the *front* of the queue, so it runs before its
 *  windows can be evicted. */
class WorkingSetPolicy
{
  public:
    static constexpr SchedPolicy kKind = SchedPolicy::WorkingSet;
    static constexpr bool kUsesResidency = true;
    static constexpr bool kHasQuantum = false;

    void noteSpawn(ThreadId, std::uint8_t) {}
    void onSpawn(SchedCore &core, ThreadId tid) { core.enqueueBack(tid); }

    void
    wake(SchedCore &core, ThreadId tid, bool resident)
    {
        if (resident) {
            core.noteWakeFront();
            core.enqueueFront(tid);
        } else {
            core.noteWakeBack();
            core.enqueueBack(tid);
        }
    }
};

/**
 * FIFO placement plus a preemption quantum counted in *charged*
 * cycles. After a dispatched thread has accumulated kQuantum cycles
 * of Charge events it is preempted back to the tail of the queue.
 *
 * The quantum is evaluated at replay time only: the trace recorder
 * coalesces adjacent charges, so a live run would observe quantum
 * boundaries at different points than its own replay. The live
 * Scheduler therefore treats RR as placement-only FIFO (documented in
 * scheduler.h), and RR is excluded from live-vs-replay equivalence —
 * the three replay paths remain bit-identical with each other, which
 * is the property the differential tests pin.
 */
class RoundRobinPolicy
{
  public:
    static constexpr SchedPolicy kKind = SchedPolicy::RoundRobin;
    static constexpr bool kUsesResidency = false;
    static constexpr bool kHasQuantum = true;

    /** Fixed so the policy name alone determines the schedule (the
     *  result-cache key contains no quantum knob). ~680 activations
     *  of the default 6-cycle call cost: long enough that pipeline
     *  stages still batch work, short enough to force switch storms
     *  in compute-heavy segments. */
    static constexpr Cycles kQuantum = 4096;

    void noteSpawn(ThreadId, std::uint8_t) {}
    void onSpawn(SchedCore &core, ThreadId tid) { core.enqueueBack(tid); }

    void
    wake(SchedCore &core, ThreadId tid, bool /*resident*/)
    {
        core.noteWakeBack();
        core.enqueueBack(tid);
    }

    void resetQuantum() { used_ = 0; }

    /** Account one Charge event; true when the quantum expired. */
    bool
    chargeExpires(Cycles cycles)
    {
        used_ += cycles;
        return used_ >= kQuantum;
    }

    void
    onQuantumExpiry(SchedCore &core, ThreadId tid)
    {
        core.noteQuantumYield();
        core.enqueueBack(tid);
    }

  private:
    Cycles used_ = 0;
};

/**
 * Static per-thread priority levels. The trace records one priority
 * byte per thread (TraceThreadInfo::priority, clamped to
 * kNumLevels-1); spawns and wakes both enqueue at that level, and
 * dispatch always serves the highest non-empty level. All-zero
 * priorities reduce PRI to FIFO exactly — the differential anchor the
 * tests use.
 */
class PriorityPolicy
{
  public:
    static constexpr SchedPolicy kKind = SchedPolicy::Priority;
    static constexpr bool kUsesResidency = false;
    static constexpr bool kHasQuantum = false;

    void
    noteSpawn(ThreadId tid, std::uint8_t priority)
    {
        const auto idx = static_cast<std::size_t>(tid);
        if (idx >= level_.size())
            level_.resize(idx + 1, 0);
        level_[idx] = priority < SchedCore::kNumLevels
                          ? priority
                          : SchedCore::kNumLevels - 1;
    }

    void
    onSpawn(SchedCore &core, ThreadId tid)
    {
        core.enqueueBack(tid, level(tid));
    }

    void
    wake(SchedCore &core, ThreadId tid, bool /*resident*/)
    {
        core.noteWakeBack();
        core.enqueueBack(tid, level(tid));
    }

  private:
    int
    level(ThreadId tid) const
    {
        const auto idx = static_cast<std::size_t>(tid);
        return idx < level_.size() ? level_[idx] : 0;
    }

    std::vector<std::uint8_t> level_;
};

/**
 * Working set with a residency-aged front queue: a thread may jump
 * the queue at most kMaxFrontJumps consecutive times; the next wake
 * goes to the back and resets its age. Bounds the §4.6 starvation
 * mode where two resident threads ping-pong at the queue front while
 * everything behind them waits.
 */
class WorkingSetAgedPolicy
{
  public:
    static constexpr SchedPolicy kKind = SchedPolicy::WorkingSetAged;
    static constexpr bool kUsesResidency = true;
    static constexpr bool kHasQuantum = false;

    static constexpr std::uint8_t kMaxFrontJumps = 3;

    void
    noteSpawn(ThreadId tid, std::uint8_t)
    {
        const auto idx = static_cast<std::size_t>(tid);
        if (idx >= jumps_.size())
            jumps_.resize(idx + 1, 0);
    }

    void onSpawn(SchedCore &core, ThreadId tid) { core.enqueueBack(tid); }

    void
    wake(SchedCore &core, ThreadId tid, bool resident)
    {
        const auto idx = static_cast<std::size_t>(tid);
        if (idx >= jumps_.size())
            jumps_.resize(idx + 1, 0);
        if (resident && jumps_[idx] < kMaxFrontJumps) {
            ++jumps_[idx];
            core.noteWakeFront();
            core.enqueueFront(tid);
        } else {
            jumps_[idx] = 0;
            core.noteWakeBack();
            core.enqueueBack(tid);
        }
    }

  private:
    std::vector<std::uint8_t> jumps_;
};

/**
 * Runtime-selected policy: a variant over the concrete policy types.
 * The live Scheduler and the legacy replay oracle call straight
 * through it (placement is off their hot paths); the fast and batched
 * replay drivers call visit() once per run to enter a loop templated
 * on the concrete type.
 */
class SchedPolicyBox
{
  public:
    explicit SchedPolicyBox(SchedPolicy kind);

    SchedPolicy kind() const { return kind_; }

    void
    noteSpawn(ThreadId tid, std::uint8_t priority)
    {
        std::visit([&](auto &p) { p.noteSpawn(tid, priority); }, impl_);
    }

    void
    onSpawn(SchedCore &core, ThreadId tid)
    {
        std::visit([&](auto &p) { p.onSpawn(core, tid); }, impl_);
    }

    void
    wake(SchedCore &core, ThreadId tid, bool resident)
    {
        std::visit([&](auto &p) { p.wake(core, tid, resident); }, impl_);
    }

    void
    resetQuantum()
    {
        std::visit(
            [](auto &p) {
                if constexpr (std::decay_t<decltype(p)>::kHasQuantum)
                    p.resetQuantum();
            },
            impl_);
    }

    /** Account a Charge; false always for quantum-less policies. */
    bool
    chargeExpires(Cycles cycles)
    {
        return std::visit(
            [&](auto &p) {
                if constexpr (std::decay_t<decltype(p)>::kHasQuantum)
                    return p.chargeExpires(cycles);
                else
                    return false;
            },
            impl_);
    }

    void
    onQuantumExpiry(SchedCore &core, ThreadId tid)
    {
        std::visit(
            [&](auto &p) {
                if constexpr (std::decay_t<decltype(p)>::kHasQuantum)
                    p.onQuantumExpiry(core, tid);
            },
            impl_);
    }

    /** Dispatch into code templated on the concrete policy type. */
    template <typename F>
    decltype(auto)
    visit(F &&f)
    {
        return std::visit(std::forward<F>(f), impl_);
    }

  private:
    std::variant<FifoPolicy, WorkingSetPolicy, RoundRobinPolicy,
                 PriorityPolicy, WorkingSetAgedPolicy>
        impl_;
    SchedPolicy kind_;
};

} // namespace crw

#endif // CRW_RT_SCHED_CORE_H_
