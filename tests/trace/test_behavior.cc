/**
 * @file
 * Tests of the §5 behavior metrics (window activity, concurrency),
 * including the paper's claim that they are independent
 * of the window-management scheme under FIFO scheduling.
 */

#include <gtest/gtest.h>

#include "trace/behavior.h"
#include "win/engine.h"

namespace crw {
namespace {

EngineConfig
config(SchemeKind scheme, int windows = 8)
{
    EngineConfig cfg;
    cfg.numWindows = windows;
    cfg.scheme = scheme;
    cfg.checkInvariants = true;
    return cfg;
}

TEST(BehaviorTracker, ActivityOfFlatQuantumIsOne)
{
    WindowEngine e(config(SchemeKind::SP));
    BehaviorTracker tracker(64);
    e.setObserver(&tracker);
    e.addThread(0);
    e.contextSwitch(0);
    e.charge(100); // no calls at all
    tracker.finish();
    ASSERT_EQ(tracker.quanta(), 1u);
    EXPECT_DOUBLE_EQ(tracker.activityPerQuantum().mean(), 1.0);
}

TEST(BehaviorTracker, ActivityCountsDepthRange)
{
    WindowEngine e(config(SchemeKind::SP));
    BehaviorTracker tracker(64);
    e.setObserver(&tracker);
    e.addThread(0);
    e.contextSwitch(0);
    // Depth walk: 1 -> 4 -> 2 -> 3. Range = [1,4] -> activity 4.
    e.save();
    e.save();
    e.save();
    e.restore();
    e.restore();
    e.save();
    tracker.finish();
    EXPECT_DOUBLE_EQ(tracker.activityPerQuantum().mean(), 4.0);
}

TEST(BehaviorTracker, RepeatedWindowCountsOnce)
{
    WindowEngine e(config(SchemeKind::SP));
    BehaviorTracker tracker(64);
    e.setObserver(&tracker);
    e.addThread(0);
    e.contextSwitch(0);
    // Oscillate between depth 1 and 2 many times: activity stays 2.
    for (int i = 0; i < 10; ++i) {
        e.save();
        e.restore();
    }
    tracker.finish();
    EXPECT_DOUBLE_EQ(tracker.activityPerQuantum().mean(), 2.0);
}

TEST(BehaviorTracker, PerThreadActivityResetsAtSwitch)
{
    WindowEngine e(config(SchemeKind::SP, 16));
    BehaviorTracker tracker(64);
    e.setObserver(&tracker);
    e.addThread(0);
    e.addThread(1);
    e.contextSwitch(0);
    e.save();
    e.save(); // quantum activity 3
    e.contextSwitch(1); // fresh: activity 1
    tracker.finish();
    ASSERT_EQ(tracker.quanta(), 2u);
    EXPECT_DOUBLE_EQ(tracker.activityPerQuantum().max(), 3.0);
    EXPECT_DOUBLE_EQ(tracker.activityPerQuantum().min(), 1.0);
}

TEST(BehaviorTracker, TotalActivitySumsThreadFootprints)
{
    WindowEngine e(config(SchemeKind::SP, 16));
    BehaviorTracker tracker(1000); // one long period
    e.setObserver(&tracker);
    e.addThread(0);
    e.addThread(1);
    e.contextSwitch(0);
    e.save();
    e.save(); // t0 spans depths 1..3 -> 3
    e.contextSwitch(1);
    e.save(); // t1 spans 1..2 -> 2
    e.contextSwitch(0); // t0 again: still within 1..3
    e.restore();
    tracker.finish();
    ASSERT_EQ(tracker.totalWindowActivity().count(), 1u);
    EXPECT_DOUBLE_EQ(tracker.totalWindowActivity().mean(), 5.0);
    EXPECT_DOUBLE_EQ(tracker.concurrency().mean(), 2.0);
}

TEST(BehaviorTracker, PeriodsRollOver)
{
    WindowEngine e(config(SchemeKind::SP, 16));
    BehaviorTracker tracker(2); // tiny periods: every 2 switches
    e.setObserver(&tracker);
    e.addThread(0);
    e.addThread(1);
    e.contextSwitch(0);
    e.contextSwitch(1);
    e.contextSwitch(0);
    e.contextSwitch(1);
    tracker.finish();
    // 4 switches -> 2 full periods (plus nothing pending).
    EXPECT_EQ(tracker.totalWindowActivity().count(), 2u);
}

TEST(BehaviorTracker, MetricsIndependentOfSchemeUnderFifo)
{
    // Paper §5.2: the behavior numbers are "completely independent of
    // the window management schemes and the number of physical
    // windows, provided the scheduling is FIFO".
    auto run = [](SchemeKind scheme, int windows) {
        WindowEngine e(config(scheme, windows));
        BehaviorTracker tracker(8);
        e.setObserver(&tracker);
        e.addThread(0);
        e.addThread(1);
        e.contextSwitch(0);
        for (int round = 0; round < 20; ++round) {
            for (int i = 0; i < (round % 5) + 1; ++i)
                e.save();
            for (int i = 0; i < (round % 5) + 1; ++i)
                e.restore();
            e.contextSwitch(round % 2 == 0 ? 1 : 0);
        }
        tracker.finish();
        return std::make_tuple(tracker.activityPerQuantum().mean(),
                               tracker.totalWindowActivity().mean(),
                               tracker.concurrency().mean(),
                               tracker.quanta());
    };
    const auto sp = run(SchemeKind::SP, 8);
    EXPECT_EQ(sp, run(SchemeKind::NS, 8));
    EXPECT_EQ(sp, run(SchemeKind::SNP, 8));
    EXPECT_EQ(sp, run(SchemeKind::SP, 32));
    EXPECT_EQ(sp, run(SchemeKind::Infinite, 4));
}

} // namespace
} // namespace crw
