/**
 * @file
 * The experiment-plan layer and the on-disk point-result cache:
 *
 *  - pointConfigKey / resultCacheKey name every result-affecting
 *    component (behavior, scheme, windows, PRW reclamation, allocation
 *    policy, cost model, policy, trace checksum, format version) and
 *    nothing else (checkInvariants);
 *  - ExperimentPlan dedupes and digests order-independently;
 *  - a cache hit is bit-identical to a fresh replay across a
 *    scheme x windows matrix;
 *  - a corrupted store record — a flipped byte, or a whole record
 *    that is garbage, truncated or another point's — degrades to a
 *    counted miss, never to an error or a bad result, and a re-store
 *    heals it.
 *
 * The record codec's own damage modes (foreign key, truncation,
 * trailing bytes) are tests/trace/test_run_metrics_io.cc, a record
 * in a store file is tests/store/test_run_metrics_file.cc; a process
 * that loses the writer election is
 * tests/bench/test_result_store_reader.cc.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/executor.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "bench/result_cache.h"
#include "obs/metrics.h"
#include "store/record_store.h"
#include "trace/run_metrics.h"

namespace crw {
namespace bench {
namespace {

/**
 * Point the process-wide result store at a test-private file before
 * anything opens it (it is a function-local static, created on first
 * use): the suite must not inherit — or pollute — a real
 * bench_out/results/store.crwstore.
 */
const bool g_privateStore = [] {
    std::filesystem::create_directories("bench_out/results");
    static char env[128];
    std::snprintf(env, sizeof env,
                  "CRW_RESULT_STORE=bench_out/results/test-%d.crwstore",
                  static_cast<int>(::getpid()));
    ::putenv(env);
    return true;
}();

PlanPoint
basePoint()
{
    return makePlanPoint(ConcurrencyLevel::High,
                         GranularityLevel::Fine, SchemeKind::SP, 8,
                         SchedPolicy::Fifo);
}

/** Synthetic record for pure serialization-level cache tests. */
RunMetrics
syntheticMetrics()
{
    RunMetrics m;
    m.scheme = SchemeKind::SP;
    m.policy = SchedPolicy::Fifo;
    m.windows = 8;
    m.totalCycles = 987654321;
    m.switches = 11;
    m.meanSwitchCost = 118.5;
    ThreadCounters t;
    t.saves = 7;
    t.restores = 8;
    t.switchesIn = 9;
    m.perThread.push_back(t);
    return m;
}

// --- key structure ---

TEST(PointConfigKey, NamesEveryResultAffectingComponent)
{
    const std::string base = pointConfigKey(basePoint());

    PlanPoint p = basePoint();
    p.behavior.conc = ConcurrencyLevel::Low;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.behavior.gran = GranularityLevel::Coarse;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.scheme = SchemeKind::SNP;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.numWindows = 9;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.prwReclaim = PrwReclaim::Lazy;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.allocPolicy = AllocPolicy::FreeSearch;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.cost.sp.base += 1;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.cost.transferSave += 1;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.policy = SchedPolicy::WorkingSet;
    EXPECT_NE(pointConfigKey(p), base);
}

TEST(PointConfigKey, IgnoresCheckInvariants)
{
    // checkInvariants can only abort a run, never change its numbers:
    // flipping it must hit the same cache slot.
    PlanPoint p = basePoint();
    p.engine.checkInvariants = !p.engine.checkInvariants;
    EXPECT_EQ(pointConfigKey(p), pointConfigKey(basePoint()));
}

TEST(ResultCacheKey, AppendsChecksumAndFormatVersion)
{
    const std::string point_key = pointConfigKey(basePoint());
    const std::string key =
        resultCacheKey(point_key, 0x0123456789abcdefull);
    EXPECT_EQ(key.find(point_key), 0u);
    EXPECT_NE(key.find("trace=0123456789abcdef"), std::string::npos)
        << key;
    EXPECT_NE(key.find("|v" +
                       std::to_string(kRunMetricsFormatVersion)),
              std::string::npos)
        << key;
    // The trace checksum invalidates on its own.
    EXPECT_NE(resultCacheKey(point_key, 1), key);
}

// --- plan dedupe and digest ---

TEST(ExperimentPlan, DedupesByKeyAndDigestsOrderIndependently)
{
    ExperimentPlan a;
    a.add(basePoint());
    a.add(basePoint()); // duplicate: no-op
    a.addSweep(ConcurrencyLevel::High, GranularityLevel::Fine,
               SchedPolicy::Fifo, {SchemeKind::SP, SchemeKind::NS},
               {4, 8});
    // basePoint() == (SP, 8) is already in the sweep.
    EXPECT_EQ(a.size(), 4u);

    ExperimentPlan b;
    b.addSweep(ConcurrencyLevel::High, GranularityLevel::Fine,
               SchedPolicy::Fifo, {SchemeKind::NS, SchemeKind::SP},
               {8, 4});
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.digest().size(), 16u);

    b.add(makePlanPoint(ConcurrencyLevel::Low, GranularityLevel::Fine,
                        SchemeKind::SP, 8, SchedPolicy::Fifo));
    EXPECT_NE(a.digest(), b.digest());
}

// --- store/load on synthetic records ---

class ResultCacheFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        key_ = resultCacheKey(pointConfigKey(basePoint()),
                              0xfeedfacecafebeefull);
        removeCachedResult(key_);
    }

    void TearDown() override { removeCachedResult(key_); }

    std::string key_;
};

TEST_F(ResultCacheFile, MissingEntryIsAMiss)
{
    RunMetrics out;
    EXPECT_FALSE(loadCachedResult(key_, out));
}

TEST_F(ResultCacheFile, StoreThenLoadIsBitIdentical)
{
    const RunMetrics m = syntheticMetrics();
    ASSERT_TRUE(storeCachedResult(key_, m));
    RunMetrics out;
    ASSERT_TRUE(loadCachedResult(key_, out));
    EXPECT_TRUE(metricsBitIdentical(m, out));
}

TEST_F(ResultCacheFile, CorruptStoreRecordIsAMissAndCounted)
{
    // Regression: a damaged record inside the arena-backed store must
    // bump cache.corrupt and degrade to a miss, never crash or serve
    // bad bytes (the record checksum covers key and payload).
    ASSERT_TRUE(storeCachedResult(key_, syntheticMetrics()));
    std::vector<std::uint8_t> blob;
    std::uint64_t offset = 0;
    ASSERT_EQ(resultStore().find(key_, blob, &offset),
              store::RecordStore::FindResult::Hit);
    ASSERT_FALSE(blob.empty());

    // Flip one payload byte through the file; the store's mapping is
    // MAP_SHARED, so the in-process view sees it immediately.
    {
        std::fstream f(resultStorePath(),
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(static_cast<std::streamoff>(offset) + 8 +
                static_cast<std::streamoff>(key_.size()));
        char c = 0;
        f.get(c);
        f.seekp(static_cast<std::streamoff>(offset) + 8 +
                static_cast<std::streamoff>(key_.size()));
        f.put(static_cast<char>(c ^ 0x5A));
    }

    const std::uint64_t corrupt0 =
        metrics().counterValue("cache.corrupt");
    RunMetrics out;
    EXPECT_FALSE(loadCachedResult(key_, out));
    EXPECT_GT(metrics().counterValue("cache.corrupt"), corrupt0);
    // The executor's re-store heals the slot.
    ASSERT_TRUE(storeCachedResult(key_, syntheticMetrics()));
    EXPECT_TRUE(loadCachedResult(key_, out));
}

// The three tests below are named for the per-file entries they
// once covered; the same damage now reaches loadCachedResult as a
// store record that passes the store's checksum (it was put whole)
// but fails the record decode.

TEST_F(ResultCacheFile, CorruptLegacyEntryIsAMissAndRecoverable)
{
    // A garbage record under the point's key: counted, missed, and
    // overwritten by the executor's re-store.
    const std::vector<std::uint8_t> honest =
        encodeMetricsRecord(syntheticMetrics(), key_);
    ASSERT_TRUE(resultStore().put(
        key_, std::vector<std::uint8_t>(honest.size(), 0xA5)));

    const std::uint64_t corrupt0 =
        metrics().counterValue("cache.corrupt");
    RunMetrics out;
    EXPECT_FALSE(loadCachedResult(key_, out)); // silent miss
    EXPECT_GT(metrics().counterValue("cache.corrupt"), corrupt0);
    ASSERT_TRUE(storeCachedResult(key_, syntheticMetrics()));
    ASSERT_TRUE(loadCachedResult(key_, out));
    EXPECT_TRUE(metricsBitIdentical(syntheticMetrics(), out));
}

TEST_F(ResultCacheFile, TruncatedLegacyEntryIsAMiss)
{
    std::vector<std::uint8_t> bytes =
        encodeMetricsRecord(syntheticMetrics(), key_);
    bytes.resize(bytes.size() / 2);
    ASSERT_TRUE(resultStore().put(key_, bytes));

    const std::uint64_t corrupt0 =
        metrics().counterValue("cache.corrupt");
    RunMetrics out;
    EXPECT_FALSE(loadCachedResult(key_, out));
    EXPECT_GT(metrics().counterValue("cache.corrupt"), corrupt0);
}

TEST_F(ResultCacheFile, FileNameCollisionDegradesToMiss)
{
    // Another point's record filed under this point's key (what an
    // index collision would serve without the in-record key check)
    // degrades to a miss for both keys, never to an aliased result.
    const std::string other_key = resultCacheKey(
        pointConfigKey(basePoint()), 0x1111111111111111ull);
    ASSERT_TRUE(resultStore().put(
        key_, encodeMetricsRecord(syntheticMetrics(), other_key)));

    RunMetrics out;
    EXPECT_FALSE(loadCachedResult(key_, out));
    EXPECT_FALSE(loadCachedResult(other_key, out));
}

TEST(ResultCacheToggle, FlagRoundTrips)
{
    EXPECT_TRUE(resultCacheEnabled());
    setResultCacheEnabled(false);
    EXPECT_FALSE(resultCacheEnabled());
    setResultCacheEnabled(true);
    EXPECT_TRUE(resultCacheEnabled());
}

// --- cache hits versus fresh replays, on the real workload ---

TEST(ResultCacheReplay, HitIsBitIdenticalToFreshReplay)
{
    const EventTrace &trace =
        cachedTrace(ConcurrencyLevel::High, GranularityLevel::Fine);
    const std::uint64_t checksum = cachedTraceChecksum(
        ConcurrencyLevel::High, GranularityLevel::Fine);

    for (const SchemeKind scheme : evaluatedSchemes()) {
        for (const int windows : {4, 8}) {
            const PlanPoint p = makePlanPoint(
                ConcurrencyLevel::High, GranularityLevel::Fine,
                scheme, windows, SchedPolicy::Fifo);
            const std::string key =
                resultCacheKey(pointConfigKey(p), checksum);

            const RunMetrics fresh =
                replayPoint(trace, p.engine, p.policy);
            ASSERT_TRUE(storeCachedResult(key, fresh));

            RunMetrics hit;
            ASSERT_TRUE(loadCachedResult(key, hit))
                << pointConfigKey(p);
            EXPECT_TRUE(metricsBitIdentical(fresh, hit))
                << pointConfigKey(p);

            // Replay determinism backs the whole scheme: a second
            // live replay is bit-identical too.
            const RunMetrics again =
                replayPoint(trace, p.engine, p.policy);
            EXPECT_TRUE(metricsBitIdentical(fresh, again))
                << pointConfigKey(p);

            removeCachedResult(key);
        }
    }
}

TEST(ResultCacheReplay, ExecutorServesPlannedPoints)
{
    ExperimentPlan plan;
    plan.addSweep(ConcurrencyLevel::High, GranularityLevel::Fine,
                  SchedPolicy::Fifo, evaluatedSchemes(), {4, 8});
    executePlan(plan);
    for (const PlanPoint &p : plan.points()) {
        const RunMetrics &m = pointResult(p);
        EXPECT_EQ(m.scheme, p.engine.scheme);
        EXPECT_EQ(m.windows, p.engine.numWindows);
        EXPECT_GT(m.totalCycles, 0u);
        // Same coordinate, same slot: the reference is stable.
        EXPECT_EQ(&pointResult(p), &m);
    }
}

} // namespace
} // namespace bench
} // namespace crw
