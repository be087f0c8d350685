/**
 * @file
 * ReplayDriver lifecycle misuse is fatal, not silent: metrics() before
 * run() would report an all-zero record, and run() twice would
 * accumulate into finished counters. Each must throw with the replay
 * coordinate in the message. The oracle-only debugging aids
 * (checkInvariants, an installed observer) route a point to the
 * oracle loop.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "trace/event_trace.h"
#include "trace/replay_driver.h"

namespace crw {
namespace {

/** Minimal completable script: one thread, a window pulse, exit. */
EventTrace
tinyTrace()
{
    TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
    rec.onThreadSpawn(0, "T1:solo", 0);
    rec.recordSave(0);
    rec.recordCharge(0, 10);
    rec.recordRestore(0);
    rec.recordExit(0);
    return rec.take(0, 0);
}

TEST(ReplayMisuse, MetricsBeforeRunIsFatal)
{
    const EventTrace trace = tinyTrace();
    ReplayDriver driver(trace, EngineConfig{}, SchedPolicy::Fifo);
    EXPECT_THROW(driver.metrics(), FatalError);
    driver.run(); // still usable after the failed read
    EXPECT_EQ(driver.metrics().saves, 1u);
}

TEST(ReplayMisuse, DoubleRunIsFatal)
{
    const EventTrace trace = tinyTrace();
    ReplayDriver driver(trace, EngineConfig{}, SchedPolicy::Fifo);
    driver.run();
    EXPECT_THROW(driver.run(), FatalError);
    // The completed run's results stay readable.
    EXPECT_EQ(driver.metrics().saves, 1u);
}

TEST(ReplayMisuse, AutoWithInvariantsFallsBackToOracle)
{
    const EventTrace trace = tinyTrace();
    EngineConfig ec;
    ec.checkInvariants = true;
    ReplayDriver driver(trace, ec, SchedPolicy::Fifo);
    driver.run();
    EXPECT_FALSE(driver.usedFastPath());
}

/** Counts callbacks; any observer makes a point oracle-only. */
class CountingObserver final : public EngineObserver
{
  public:
    void onSave(ThreadId, int) override { ++events; }
    int events = 0;
};

TEST(ReplayMisuse, InstalledObserverRunsOracle)
{
    const EventTrace trace = tinyTrace();
    ReplayDriver driver(trace, EngineConfig{}, SchedPolicy::Fifo);
    CountingObserver obs;
    driver.engine().setObserver(&obs);
    driver.run();
    EXPECT_FALSE(driver.usedFastPath());
    EXPECT_EQ(obs.events, 1);
}

TEST(ReplayMisuse, ForcedPathsReportWhichLoopRan)
{
    const EventTrace trace = tinyTrace();
    {
        ReplayDriver driver(trace, EngineConfig{}, SchedPolicy::Fifo);
        driver.run();
        EXPECT_TRUE(driver.usedFastPath());
    }
    {
        ReplayDriver driver(trace, EngineConfig{}, SchedPolicy::Fifo);
        driver.setPath(ReplayPath::Legacy);
        driver.run();
        EXPECT_FALSE(driver.usedFastPath());
    }
}

} // namespace
} // namespace crw
