/**
 * @file
 * Bench harness hardening: strict $CRW_JOBS / --jobs parsing (the old
 * atoi-based path silently turned "8x" into 8 and "" into 0 workers),
 * and ParallelSweep's exception contract — a throwing sweep task must
 * surface on the caller as an ordinary exception (not std::terminate,
 * as the detached-thread design did), leaving the sweep reusable —
 * and its --trace-out host spans, named by an optional task label.
 */

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "obs/trace_json.h"

namespace crw {
namespace bench {
namespace {

TEST(ParseJobs, UnsetReturnsFallbackSilently)
{
    EXPECT_EQ(parseJobs(nullptr, 3), 3);
}

TEST(ParseJobs, AcceptsPlainDecimals)
{
    EXPECT_EQ(parseJobs("1", 7), 1);
    EXPECT_EQ(parseJobs("4", 7), 4);
    EXPECT_EQ(parseJobs("16", 7), 16);
    EXPECT_EQ(parseJobs("512", 7), 512); // kMaxJobs itself is legal
}

TEST(ParseJobs, RejectsNonPositive)
{
    EXPECT_EQ(parseJobs("0", 5), 5);
    EXPECT_EQ(parseJobs("-3", 5), 5);
}

TEST(ParseJobs, RejectsTrailingGarbageAndEmpty)
{
    // atoi would have accepted all of these.
    EXPECT_EQ(parseJobs("8x", 5), 5);
    EXPECT_EQ(parseJobs("4 ", 5), 5);
    EXPECT_EQ(parseJobs("", 5), 5);
    EXPECT_EQ(parseJobs("jobs", 5), 5);
    EXPECT_EQ(parseJobs("0x10", 5), 5);
    EXPECT_EQ(parseJobs("3.5", 5), 5);
}

TEST(ParseJobs, ClampsOversizedCounts)
{
    EXPECT_EQ(parseJobs("513", 1), kMaxJobs);
    EXPECT_EQ(parseJobs("99999", 1), kMaxJobs);
    // Past the strtol range entirely: ERANGE, same clamp-free
    // fallback path as any other unusable spelling is fine, but the
    // implementation clamps values it could parse — this one it
    // cannot, so it falls back.
    EXPECT_EQ(parseJobs("99999999999999999999", 2), 2);
}

TEST(ParseJobs, JobsFlagObeysTheSameBound)
{
    // --jobs is bounded like $CRW_JOBS: a huge count clamps, and one
    // past the int range must clamp too, not wrap to a small count.
    for (const char *flag : {"--jobs=100000", "--jobs=4294967297"}) {
        const char *argv[] = {"test_harness", flag};
        ASSERT_TRUE(benchInit(2, argv)) << flag;
        EXPECT_EQ(sweepJobs(), kMaxJobs) << flag;
    }
    const char *reset[] = {"test_harness"};
    ASSERT_TRUE(benchInit(1, reset));
}

TEST(ParallelSweep, RunsEveryIndexOnceAtAnyJobCount)
{
    for (const int jobs : {1, 3, 8}) {
        const ParallelSweep sweep(jobs);
        std::vector<std::atomic<int>> hits(41);
        sweep.run(hits.size(), [&](std::size_t i) {
            hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << " at jobs=" << jobs;
    }
}

TEST(ParallelSweep, TaskExceptionRethrownAndSweepReusable)
{
    for (const int jobs : {1, 4}) {
        const ParallelSweep sweep(jobs);
        EXPECT_THROW(sweep.run(16,
                               [](std::size_t i) {
                                   if (i == 3)
                                       throw std::runtime_error(
                                           "point failed");
                               }),
                     std::runtime_error)
            << "jobs=" << jobs;

        // The first failure must not poison later sweeps.
        std::atomic<int> ran{0};
        sweep.run(8, [&](std::size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 8) << "jobs=" << jobs;
    }
}

TEST(ParallelSweep, LabelsNameHostSpans)
{
    // Host spans are recorded only under --trace-out.
    const std::string out = outputPath(
        "tmp-sweep-trace-" + std::to_string(::getpid()) + ".json");
    const std::string flag = "--trace-out=" + out;
    const char *argv[] = {"test_harness", flag.c_str()};
    ASSERT_TRUE(benchInit(2, argv));

    const ParallelSweep sweep(2);
    sweep.run(
        3, [](std::size_t) {},
        [](std::size_t i) { return "cell/" + std::to_string(i); });
    sweep.run(2, [](std::size_t) {});
    std::ostringstream json;
    traceWriter().write(json);
    for (const char *name :
         {"\"cell/0\"", "\"cell/1\"", "\"cell/2\"", "\"point 0\"",
          "\"point 1\""})
        EXPECT_NE(json.str().find(name), std::string::npos) << name;
    EXPECT_EQ(json.str().find("\"point 2\""), std::string::npos);

    const char *reset[] = {"test_harness"};
    ASSERT_TRUE(benchInit(1, reset));
    std::remove(out.c_str());
}

} // namespace
} // namespace bench
} // namespace crw
