/**
 * @file
 * Tests of the non-preemptive scheduler: FIFO order, block/wake,
 * working-set queue-jumping, deadlock detection.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "rt/runtime.h"

namespace crw {
namespace {

RuntimeConfig
makeConfig(SchemeKind scheme = SchemeKind::SP, int windows = 8,
           SchedPolicy policy = SchedPolicy::Fifo)
{
    RuntimeConfig cfg;
    cfg.engine.numWindows = windows;
    cfg.engine.scheme = scheme;
    cfg.engine.checkInvariants = true;
    cfg.policy = policy;
    return cfg;
}

TEST(Scheduler, RunsThreadsInSpawnOrder)
{
    Runtime rt(makeConfig());
    std::vector<int> order;
    rt.spawn("a", [&] { order.push_back(0); });
    rt.spawn("b", [&] { order.push_back(1); });
    rt.spawn("c", [&] { order.push_back(2); });
    rt.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Scheduler, EngineSeesEverySwitch)
{
    Runtime rt(makeConfig());
    for (int i = 0; i < 4; ++i)
        rt.spawn(std::string("t").append(std::to_string(i)), [] {});
    rt.run();
    EXPECT_EQ(rt.engine().stats().counterValue("switches"), 4u);
    EXPECT_EQ(rt.engine().stats().counterValue("thread_exits"), 4u);
}

TEST(Scheduler, BlockAndWakeRoundTrip)
{
    Runtime rt(makeConfig());
    std::vector<ThreadId> waiters;
    std::vector<std::string> log;
    const ThreadId sleeper = rt.spawn("sleeper", [&] {
        log.push_back("sleep");
        rt.scheduler().blockCurrent(waiters);
        log.push_back("woke");
    });
    rt.spawn("waker", [&] {
        log.push_back("waking");
        ASSERT_EQ(waiters.size(), 1u);
        EXPECT_EQ(waiters[0], sleeper);
        for (ThreadId t : waiters)
            rt.scheduler().wake(t);
        waiters.clear();
    });
    rt.run();
    EXPECT_EQ(log,
              (std::vector<std::string>{"sleep", "waking", "woke"}));
}

TEST(Scheduler, DeadlockIsFatalWithDiagnostics)
{
    Runtime rt(makeConfig());
    std::vector<ThreadId> waiters;
    rt.spawn("stuck", [&] { rt.scheduler().blockCurrent(waiters); });
    try {
        rt.run();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("stuck"),
                  std::string::npos);
    }
}

TEST(Scheduler, WakeOnNonBlockedThreadIsIgnored)
{
    Runtime rt(makeConfig());
    const ThreadId a = rt.spawn("a", [&] {
        // Waking a Ready thread must not duplicate it in the queue.
        rt.scheduler().wake(1);
        rt.scheduler().wake(1);
    });
    (void)a;
    int runs = 0;
    rt.spawn("b", [&] { ++runs; });
    rt.run();
    EXPECT_EQ(runs, 1);
}

TEST(Scheduler, SlacknessSampledPerDispatch)
{
    Runtime rt(makeConfig());
    rt.spawn("a", [] {});
    rt.spawn("b", [] {});
    rt.spawn("c", [] {});
    rt.run();
    const auto &d = rt.scheduler().slackness();
    EXPECT_EQ(d.count(), 3u);
    // First dispatch: 2 others ready; last: 0.
    EXPECT_DOUBLE_EQ(d.max(), 2.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
}

TEST(Scheduler, WorkingSetWakesResidentToFront)
{
    // Two sleepers; with SP windows both stay resident while blocked,
    // so under the working-set policy the *second* woken thread (both
    // resident) still jumps ahead of a non-resident third.
    Runtime rt(makeConfig(SchemeKind::SP, 16, SchedPolicy::WorkingSet));
    std::vector<ThreadId> w1, w2;
    std::vector<std::string> log;
    rt.spawn("r1", [&] {
        rt.scheduler().blockCurrent(w1);
        log.push_back("r1");
    });
    rt.spawn("r2", [&] {
        rt.scheduler().blockCurrent(w2);
        log.push_back("r2");
    });
    rt.spawn("waker", [&] {
        // Wake r1 first, then r2; both resident -> each goes to the
        // front, so r2 runs before r1.
        rt.scheduler().wake(0);
        rt.scheduler().wake(1);
        log.push_back("waker");
    });
    rt.run();
    EXPECT_EQ(log,
              (std::vector<std::string>{"waker", "r2", "r1"}));
}

TEST(Scheduler, FifoWakesToBack)
{
    Runtime rt(makeConfig(SchemeKind::SP, 16, SchedPolicy::Fifo));
    std::vector<ThreadId> w1, w2;
    std::vector<std::string> log;
    rt.spawn("r1", [&] {
        rt.scheduler().blockCurrent(w1);
        log.push_back("r1");
    });
    rt.spawn("r2", [&] {
        rt.scheduler().blockCurrent(w2);
        log.push_back("r2");
    });
    rt.spawn("waker", [&] {
        rt.scheduler().wake(0);
        rt.scheduler().wake(1);
        log.push_back("waker");
    });
    rt.run();
    EXPECT_EQ(log,
              (std::vector<std::string>{"waker", "r1", "r2"}));
}

TEST(Scheduler, PolicyNames)
{
    EXPECT_STREQ(policyName(SchedPolicy::Fifo), "FIFO");
    EXPECT_STREQ(policyName(SchedPolicy::WorkingSet), "WS");
}

TEST(Scheduler, ManyThreadsWithCallsComplete)
{
    for (SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP}) {
        Runtime rt(makeConfig(scheme, 6));
        long total = 0;
        for (int i = 0; i < 10; ++i) {
            rt.spawn("worker", [&rt, &total] {
                for (int k = 0; k < 20; ++k) {
                    Frame f(rt);
                    Frame g(rt);
                    total += 1;
                }
            });
        }
        rt.run();
        EXPECT_EQ(total, 200);
        EXPECT_EQ(rt.engine().stats().counterValue("saves"),
                  rt.engine().stats().counterValue("restores"));
    }
}

} // namespace
} // namespace crw
