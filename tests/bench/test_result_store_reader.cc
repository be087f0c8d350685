/**
 * @file
 * The result store is the only result container, also for a process
 * that loses the writer election (bench/result_cache.h): with another
 * RecordStore holding the store's writer flock, this process attaches
 * as a reader, serves the writer's records, refuses to persist its
 * own — point results and walk cells alike — and leaves no other file
 * under bench_out/results/.
 *
 * Its own binary: the process-wide result store is opened once, on
 * first use, so the test must be the first (and only) thing in its
 * process to touch it. It runs in a private working directory so the
 * bench_out/results/ listing sees no other test's files.
 */

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/plan.h"
#include "bench/result_cache.h"
#include "store/record_store.h"
#include "trace/run_metrics.h"

namespace crw {
namespace bench {
namespace {

namespace fs = std::filesystem;

RunMetrics
syntheticMetrics()
{
    RunMetrics m;
    m.scheme = SchemeKind::NS;
    m.policy = SchedPolicy::Fifo;
    m.windows = 6;
    m.totalCycles = 424242;
    m.switches = 17;
    m.meanSwitchCost = 33.25;
    ThreadCounters t;
    t.saves = 3;
    t.restores = 4;
    t.switchesIn = 5;
    m.perThread.push_back(t);
    return m;
}

TEST(ResultStoreReader, ServesTheWritersRecordsAndWritesNothing)
{
    const fs::path home = fs::current_path();
    const fs::path dir =
        home / ("result-store-reader-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir / "bench_out" / "results");
    fs::current_path(dir);
    ::setenv("CRW_RESULT_STORE", "bench_out/results/store.crwstore", 1);

    const PlanPoint p = makePlanPoint(ConcurrencyLevel::High,
                                      GranularityLevel::Fine,
                                      SchemeKind::NS, 6,
                                      SchedPolicy::Fifo);
    const std::string served = resultCacheKey(pointConfigKey(p), 1);
    const std::string fresh = resultCacheKey(pointConfigKey(p), 2);
    const RunMetrics m = syntheticMetrics();

    // Another store takes the flock first and publishes one record.
    store::RecordStore writer;
    ASSERT_TRUE(writer.open(resultStorePath(), kRunMetricsFormatVersion,
                            64, 1 << 16));
    ASSERT_EQ(writer.mode(), store::RecordStore::Mode::Writer);
    ASSERT_TRUE(writer.put(served, encodeMetricsRecord(m, served)));

    ASSERT_EQ(resultStore().mode(), store::RecordStore::Mode::Reader);

    RunMetrics out;
    ASSERT_TRUE(loadCachedResult(served, out));
    EXPECT_TRUE(metricsBitIdentical(m, out));

    EXPECT_FALSE(storeCachedResult(fresh, m));
    EXPECT_FALSE(loadCachedResult(fresh, out));
    EXPECT_FALSE(storeCachedCycles("walk|reader-test", 99));
    EXPECT_FALSE(removeCachedResult(served));
    EXPECT_TRUE(loadCachedResult(served, out));

    std::vector<std::string> files;
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator("bench_out/results"))
        files.push_back(entry.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{"store.crwstore"});

    writer.close();
    fs::current_path(home);
    fs::remove_all(dir);
}

} // namespace
} // namespace bench
} // namespace crw
