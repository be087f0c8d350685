/**
 * @file
 * SchedCore mechanism and policy-layer unit tests: ReadyRing growth
 * and wraparound beyond its 16-slot initial capacity, dispatch-order
 * bookkeeping (peak ready, slackness, dispatch count), priority-level
 * service order, and the per-policy placement/quantum accounting the
 * obs layer publishes.
 */

#include <deque>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rt/sched_core.h"

namespace crw {
namespace {

// --- ReadyRing ---

TEST(ReadyRing, GrowsPastInitialCapacityWithNonZeroHead)
{
    ReadyRing ring;
    // Rotate the head away from 0 so the grow() copy has to unwrap a
    // wrapped window: 6 pushes, 6 pops -> head = 6, size = 0.
    for (ThreadId t = 0; t < 6; ++t)
        ring.push_back(t);
    for (ThreadId t = 0; t < 6; ++t)
        ASSERT_EQ(ring.pop_front(), t);

    // 40 entries force two doublings (16 -> 32 -> 64), the first with
    // head 6 and contents wrapped around the old buffer edge.
    for (ThreadId t = 100; t < 140; ++t)
        ring.push_back(t);
    ASSERT_EQ(ring.size(), 40u);
    for (ThreadId t = 100; t < 140; ++t)
        EXPECT_EQ(ring.pop_front(), t);
    EXPECT_TRUE(ring.empty());
}

TEST(ReadyRing, PushFrontWrapsBelowIndexZero)
{
    ReadyRing ring;
    // On a fresh ring head == 0, so the very first push_front wraps
    // the head index to mask (15). Fill front-first: the pop order
    // must be the exact reverse of the push order.
    for (ThreadId t = 0; t < 12; ++t)
        ring.push_front(t);
    for (ThreadId t = 11; t >= 0; --t)
        ASSERT_EQ(ring.pop_front(), t);
    EXPECT_TRUE(ring.empty());
}

TEST(ReadyRing, PushFrontAcrossGrowthKeepsDequeOrder)
{
    ReadyRing ring;
    // Mixed front/back pushes past the initial capacity: front pushes
    // wrap below 0 while back pushes wrap past the end, and growth
    // lands mid-pattern.
    std::deque<ThreadId> model;
    for (ThreadId t = 0; t < 24; ++t) {
        if (t % 3 == 0) {
            ring.push_front(t);
            model.push_front(t);
        } else {
            ring.push_back(t);
            model.push_back(t);
        }
    }
    ASSERT_EQ(ring.size(), model.size());
    while (!model.empty()) {
        EXPECT_EQ(ring.front(), model.front());
        EXPECT_EQ(ring.pop_front(), model.front());
        model.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(ReadyRing, RandomizedDifferentialAgainstDeque)
{
    // Deterministic op soup (fixed seed) against std::deque: ReadyRing
    // promises exact deque order under any interleaving of the three
    // verbs, across any number of wraps and growths.
    Rng rng(0xdecade);
    ReadyRing ring;
    std::deque<ThreadId> model;
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t pick = rng.nextBelow(3);
        if (pick == 2 && !model.empty()) {
            ASSERT_EQ(ring.pop_front(), model.front());
            model.pop_front();
        } else if (pick == 1) {
            ring.push_front(op);
            model.push_front(op);
        } else {
            ring.push_back(op);
            model.push_back(op);
        }
        ASSERT_EQ(ring.size(), model.size());
        if (!model.empty()) {
            ASSERT_EQ(ring.front(), model.front());
        }
    }
}

// --- SchedCore bookkeeping ---

TEST(SchedCore, PeakReadyAndSlacknessTrackDispatches)
{
    SchedCore core(SchedPolicy::Fifo);
    EXPECT_TRUE(core.idle());
    for (ThreadId t = 0; t < 5; ++t)
        core.enqueueBack(t);
    EXPECT_EQ(core.peakReady(), 5u);
    EXPECT_EQ(core.readyCount(), 5u);

    // Slackness samples the queue length *after* removing the
    // dispatched thread: 4, 3, 2, 1, 0.
    for (ThreadId t = 0; t < 5; ++t)
        EXPECT_EQ(core.dispatchNext(), t);
    EXPECT_TRUE(core.idle());
    EXPECT_EQ(core.dispatches(), 5u);
    EXPECT_EQ(core.slackness().count(), 5u);
    EXPECT_DOUBLE_EQ(core.slackness().mean(), 2.0);
    EXPECT_DOUBLE_EQ(core.slackness().max(), 4.0);
    // Draining did not reset the high-water mark.
    EXPECT_EQ(core.peakReady(), 5u);
}

TEST(SchedCore, HighestNonEmptyLevelIsServedFirst)
{
    SchedCore core(SchedPolicy::Priority);
    core.enqueueBack(10, 0);
    core.enqueueBack(11, 3);
    core.enqueueBack(12, 7);
    core.enqueueBack(13, 3);
    EXPECT_EQ(core.dispatchNext(), 12);
    EXPECT_EQ(core.dispatchNext(), 11);
    EXPECT_EQ(core.dispatchNext(), 13);
    EXPECT_EQ(core.dispatchNext(), 10);
    EXPECT_TRUE(core.idle());
}

// --- policy placement and accounting ---

TEST(SchedPolicyLayer, FifoFamilyAlwaysWakesToTheBack)
{
    for (const SchedPolicy kind :
         {SchedPolicy::Fifo, SchedPolicy::RoundRobin,
          SchedPolicy::Priority}) {
        SchedCore core(kind);
        SchedPolicyBox policy(kind);
        policy.noteSpawn(0, 0);
        policy.onSpawn(core, 0);
        // Residency is irrelevant to this family: resident wakes
        // still go to the back.
        policy.wake(core, 1, true);
        policy.wake(core, 2, false);
        EXPECT_EQ(core.wakesFront(), 0u) << policyName(kind);
        EXPECT_EQ(core.wakesBack(), 2u) << policyName(kind);
        EXPECT_EQ(core.dispatchNext(), 0) << policyName(kind);
        EXPECT_EQ(core.dispatchNext(), 1) << policyName(kind);
        EXPECT_EQ(core.dispatchNext(), 2) << policyName(kind);
    }
}

TEST(SchedPolicyLayer, WorkingSetResidencySplitsFrontAndBack)
{
    SchedCore core(SchedPolicy::WorkingSet);
    SchedPolicyBox policy(SchedPolicy::WorkingSet);
    policy.wake(core, 1, false); // back
    policy.wake(core, 2, true);  // jumps the queue
    policy.wake(core, 3, false); // back
    EXPECT_EQ(core.wakesFront(), 1u);
    EXPECT_EQ(core.wakesBack(), 2u);
    EXPECT_EQ(core.dispatchNext(), 2);
    EXPECT_EQ(core.dispatchNext(), 1);
    EXPECT_EQ(core.dispatchNext(), 3);
}

TEST(SchedPolicyLayer, WorkingSetAgedLimitsConsecutiveFrontJumps)
{
    SchedCore core(SchedPolicy::WorkingSetAged);
    SchedPolicyBox policy(SchedPolicy::WorkingSetAged);
    policy.noteSpawn(7, 0);
    // kMaxFrontJumps resident wakes jump; the next goes to the back
    // and resets the age, so the one after jumps again.
    for (std::uint8_t i = 0; i < WorkingSetAgedPolicy::kMaxFrontJumps;
         ++i) {
        policy.wake(core, 7, true);
        core.dispatchNext();
    }
    EXPECT_EQ(core.wakesFront(),
              static_cast<std::uint64_t>(
                  WorkingSetAgedPolicy::kMaxFrontJumps));
    policy.wake(core, 7, true); // aged out -> back
    core.dispatchNext();
    EXPECT_EQ(core.wakesBack(), 1u);
    policy.wake(core, 7, true); // age reset -> jumps again
    core.dispatchNext();
    EXPECT_EQ(core.wakesFront(),
              static_cast<std::uint64_t>(
                  WorkingSetAgedPolicy::kMaxFrontJumps) +
                  1);
}

TEST(SchedPolicyLayer, RoundRobinQuantumExpiresOnChargedCycles)
{
    SchedCore core(SchedPolicy::RoundRobin);
    SchedPolicyBox policy(SchedPolicy::RoundRobin);
    policy.resetQuantum();
    Cycles used = 0;
    while (used + 100 < RoundRobinPolicy::kQuantum) {
        EXPECT_FALSE(policy.chargeExpires(100));
        used += 100;
    }
    EXPECT_TRUE(policy.chargeExpires(200));
    policy.onQuantumExpiry(core, 4);
    EXPECT_EQ(core.quantumYields(), 1u);
    EXPECT_EQ(core.dispatchNext(), 4);

    // resetQuantum starts a fresh balance at the next dispatch.
    policy.resetQuantum();
    EXPECT_FALSE(policy.chargeExpires(100));
    EXPECT_TRUE(
        policy.chargeExpires(RoundRobinPolicy::kQuantum));
}

TEST(SchedPolicyLayer, PriorityClampsAndPlacesByStaticLevel)
{
    SchedCore core(SchedPolicy::Priority);
    SchedPolicyBox policy(SchedPolicy::Priority);
    policy.noteSpawn(0, 2);
    policy.noteSpawn(1, 0);
    policy.noteSpawn(2, 255); // clamped to kNumLevels - 1
    policy.onSpawn(core, 0);
    policy.onSpawn(core, 1);
    policy.onSpawn(core, 2);
    EXPECT_EQ(core.dispatchNext(), 2);
    EXPECT_EQ(core.dispatchNext(), 0);
    EXPECT_EQ(core.dispatchNext(), 1);
    // Wakes land back at the thread's static level.
    policy.wake(core, 1, false);
    policy.wake(core, 0, false);
    EXPECT_EQ(core.dispatchNext(), 0);
    EXPECT_EQ(core.dispatchNext(), 1);
}

TEST(SchedPolicyLayer, NamesRoundTripAndStayCanonical)
{
    // The names key the persistent result cache: a rename or reuse
    // would silently alias cache entries across policies.
    EXPECT_STREQ(policyName(SchedPolicy::Fifo), "FIFO");
    EXPECT_STREQ(policyName(SchedPolicy::WorkingSet), "WS");
    EXPECT_STREQ(policyName(SchedPolicy::RoundRobin), "RR");
    EXPECT_STREQ(policyName(SchedPolicy::Priority), "PRI");
    EXPECT_STREQ(policyName(SchedPolicy::WorkingSetAged), "WSA");
    EXPECT_EQ(allSchedPolicies().size(), 5u);
    for (const SchedPolicy policy : allSchedPolicies()) {
        SchedPolicy parsed;
        ASSERT_TRUE(parsePolicyName(policyName(policy), parsed));
        EXPECT_EQ(static_cast<int>(parsed),
                  static_cast<int>(policy));
    }
    SchedPolicy out;
    EXPECT_FALSE(parsePolicyName("fifo", out));
    EXPECT_FALSE(parsePolicyName("", out));
}

} // namespace
} // namespace crw
