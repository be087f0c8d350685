/**
 * @file
 * Engine comparison for the differential tests that drive a replay
 * view or a walk against the oracle engine members.
 */

#ifndef CRW_TESTS_WIN_ENGINE_TEST_UTIL_H_
#define CRW_TESTS_WIN_ENGINE_TEST_UTIL_H_

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "win/engine.h"

namespace crw {

/**
 * Every observable of @p got equals @p want's: clock, current thread,
 * switch-case histogram, every stats counter and distribution, and
 * each of @p tids' counters and windows.
 */
inline void
expectEnginesIdentical(const WindowEngine &got, const WindowEngine &want,
                       const std::vector<ThreadId> &tids,
                       const std::string &ctx)
{
    EXPECT_EQ(got.now(), want.now()) << ctx;
    EXPECT_EQ(got.current(), want.current()) << ctx;
    EXPECT_EQ(got.switchCases(), want.switchCases()) << ctx;
    const StatGroup &gs = got.stats();
    const StatGroup &ws = want.stats();
    EXPECT_EQ(gs.counters().size(), ws.counters().size()) << ctx;
    for (const auto &[name, counter] : ws.counters())
        EXPECT_EQ(gs.counterValue(name), counter.value())
            << ctx << " " << name;
    for (const auto &[name, dist] : ws.distributions()) {
        ASSERT_TRUE(gs.distributions().count(name)) << ctx << " " << name;
        const Distribution &g = gs.distributions().at(name);
        EXPECT_EQ(g.count(), dist.count()) << ctx << " " << name;
        EXPECT_EQ(g.sum(), dist.sum()) << ctx << " " << name;
        EXPECT_EQ(g.variance(), dist.variance()) << ctx << " " << name;
    }
    for (const ThreadId tid : tids) {
        const ThreadCounters &gc = got.threadCounters(tid);
        const ThreadCounters &wc = want.threadCounters(tid);
        EXPECT_EQ(gc.saves, wc.saves) << ctx << " tid " << tid;
        EXPECT_EQ(gc.restores, wc.restores) << ctx << " tid " << tid;
        EXPECT_EQ(gc.switchesIn, wc.switchesIn) << ctx << " tid " << tid;
        const ThreadWindows &gt = got.file().thread(tid);
        const ThreadWindows &wt = want.file().thread(tid);
        EXPECT_EQ(gt.top, wt.top) << ctx << " tid " << tid;
        EXPECT_EQ(gt.resident, wt.resident) << ctx << " tid " << tid;
        EXPECT_EQ(gt.prw, wt.prw) << ctx << " tid " << tid;
        EXPECT_EQ(gt.depth, wt.depth) << ctx << " tid " << tid;
    }
}

} // namespace crw

#endif // CRW_TESTS_WIN_ENGINE_TEST_UTIL_H_
