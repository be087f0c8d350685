/**
 * @file
 * The load-bearing guarantee of the capture-once / replay-many
 * architecture (DESIGN.md §8): replaying a captured EventTrace against
 * a (scheme, windows, policy) point produces RunMetrics that are
 * field-for-field identical to running the live coroutine simulation
 * at that point. Also pins the capture-configuration invariance the
 * design relies on: the trace does not depend on the engine
 * configuration of the capture run.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "spell/capture.h"
#include "tests/win/replay_test_util.h"
#include "trace/replay_driver.h"

namespace crw {
namespace {

struct Point
{
    SchemeKind scheme;
    int windows;
    SchedPolicy policy;
};

std::string
pointName(const ::testing::TestParamInfo<Point> &info)
{
    std::ostringstream os;
    os << schemeName(info.param.scheme) << "_w" << info.param.windows
       << "_" << policyName(info.param.policy);
    return os.str();
}

class ReplayEquivalence : public ::testing::TestWithParam<Point>
{};

TEST_P(ReplayEquivalence, LiveAndReplayedMetricsIdentical)
{
    const Point p = GetParam();

    const RunMetrics live =
        runSpellLive(p.scheme, p.windows, p.policy, smallSpellWorkload(),
                     smallSpellConfig());

    ReplayDriver driver(smallSpellTrace(),
                        configOf({p.scheme, p.windows, p.policy}),
                        p.policy);
    driver.run();
    // Every field, doubles bit for bit: both paths fold the same
    // samples in the same order.
    const RunMetrics replayed = driver.metrics();
    EXPECT_TRUE(metricsBitIdentical(live, replayed))
        << "live " << live.totalCycles << " cycles, " << live.switches
        << " switches; replayed " << replayed.totalCycles << " cycles, "
        << replayed.switches << " switches";
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, ReplayEquivalence,
    ::testing::Values(
        Point{SchemeKind::NS, 4, SchedPolicy::Fifo},
        Point{SchemeKind::NS, 8, SchedPolicy::Fifo},
        Point{SchemeKind::NS, 20, SchedPolicy::Fifo},
        Point{SchemeKind::SNP, 4, SchedPolicy::Fifo},
        Point{SchemeKind::SNP, 8, SchedPolicy::Fifo},
        Point{SchemeKind::SNP, 20, SchedPolicy::Fifo},
        Point{SchemeKind::SP, 4, SchedPolicy::Fifo},
        Point{SchemeKind::SP, 8, SchedPolicy::Fifo},
        Point{SchemeKind::SP, 20, SchedPolicy::Fifo},
        Point{SchemeKind::NS, 4, SchedPolicy::WorkingSet},
        Point{SchemeKind::NS, 8, SchedPolicy::WorkingSet},
        Point{SchemeKind::NS, 20, SchedPolicy::WorkingSet},
        Point{SchemeKind::SNP, 4, SchedPolicy::WorkingSet},
        Point{SchemeKind::SNP, 8, SchedPolicy::WorkingSet},
        Point{SchemeKind::SNP, 20, SchedPolicy::WorkingSet},
        Point{SchemeKind::SP, 4, SchedPolicy::WorkingSet},
        Point{SchemeKind::SP, 8, SchedPolicy::WorkingSet},
        Point{SchemeKind::SP, 20, SchedPolicy::WorkingSet}),
    pointName);

/**
 * The trace must not depend on the engine configuration of the
 * capture run: capture under very different configurations and
 * require byte-identical traces (the Kahn-network argument). The INF
 * leg is the configuration captureSpellTrace itself runs, so its
 * output must match too.
 */
TEST(CaptureInvariance, TraceIndependentOfCaptureConfiguration)
{
    const SpellConfig cfg = smallSpellConfig();
    const SpellWorkload &wl = smallSpellWorkload();

    TraceRecorder recA(spellTraceKey(cfg), cfg.seed, cfg.corpusBytes);
    runSpellLive(SchemeKind::NS, 4, SchedPolicy::Fifo, wl, cfg, &recA);
    const EventTrace a = recA.take(0, 0);

    TraceRecorder recB(spellTraceKey(cfg), cfg.seed, cfg.corpusBytes);
    runSpellLive(SchemeKind::SP, 20, SchedPolicy::WorkingSet, wl, cfg,
                 &recB);
    const EventTrace b = recB.take(0, 0);

    TraceRecorder recInf(spellTraceKey(cfg), cfg.seed, cfg.corpusBytes);
    runSpellLive(SchemeKind::Infinite, 8, SchedPolicy::Fifo, wl, cfg,
                 &recInf);
    const EventTrace inf = recInf.take(0, 0);

    EXPECT_TRUE(a == b);
    EXPECT_TRUE(a == inf);
    EXPECT_GT(a.eventCount(), 0u);

    // captureSpellTrace stamps the run's outputs as well; its scripts
    // and stream table are the configuration-independent part.
    const EventTrace captured = captureSpellTrace(wl, cfg);
    EXPECT_EQ(captured.key, a.key);
    EXPECT_TRUE(captured.streams == a.streams);
    EXPECT_TRUE(captured.threads == a.threads);
    EXPECT_GT(captured.wordsFromDelatex, 0u);
}

} // namespace
} // namespace crw
