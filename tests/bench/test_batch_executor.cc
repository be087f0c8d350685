/**
 * @file
 * The sweep executor's lockstep batching (bench/executor.cc,
 * DESIGN.md §14): cache misses sharing a pointBatchKey replay as one
 * batch (replay.batches / replay.batched_points / replay.batch_width
 * count it), CRW_REPLAY_BATCH caps the width (ragged tail chunks) and
 * "0" pins batching off, a cache-disabled sweep still batches (the
 * --no-cache path), a --trace-out run falls back to per-point
 * replays (the timeline observer is per-point only), and the static
 * batch rule keeps SNP/SP under the working-set policies at one lane.
 * Every result — batched or width-1, at any --jobs — must stay
 * bit-identical to the oracle loop's replay of the same point.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/executor.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "obs/metrics.h"
#include "trace/replay_batch.h"
#include "trace/replay_driver.h"
#include "trace/run_metrics.h"
#include "trace/synth.h"
#include "win/simd.h"

namespace crw {
namespace bench {
namespace {

/**
 * Same private-store trick as test_result_cache.cc: the result store
 * is a function-local static opened on first use, so point it at a
 * test-private file before anything touches the real one.
 */
const bool g_privateStore = [] {
    std::filesystem::create_directories("bench_out/results");
    static char env[128];
    std::snprintf(
        env, sizeof env,
        "CRW_RESULT_STORE=bench_out/results/test-batch-%d.crwstore",
        static_cast<int>(::getpid()));
    ::putenv(env);
    return true;
}();

/** Scoped CRW_REPLAY_BATCH override (unset on destruction). */
class ScopedBatchEnv
{
  public:
    explicit ScopedBatchEnv(const char *value)
    {
        ::setenv("CRW_REPLAY_BATCH", value, 1);
    }
    ~ScopedBatchEnv() { ::unsetenv("CRW_REPLAY_BATCH"); }
};

/**
 * Scoped result+flat cache disable: every planned point is a cache
 * miss, so the sweep replays all of them live — the deterministic
 * setting for counter-delta assertions (and exactly what --no-cache
 * configures).
 */
class ScopedNoCache
{
  public:
    ScopedNoCache()
    {
        setResultCacheEnabled(false);
        setFlatCacheEnabled(false);
    }
    ~ScopedNoCache()
    {
        setFlatCacheEnabled(true);
        setResultCacheEnabled(true);
    }
};

std::uint64_t
counter(const char *name)
{
    return metrics().counterValue(name);
}

/**
 * The oracle loop's replay of @p p (ReplayPath::Legacy): the
 * reference every executor result must match bit for bit.
 */
RunMetrics
oracleReplay(const PlanPoint &p)
{
    ReplayDriver driver(cachedTrace(p.behavior), p.engine, p.policy);
    driver.setPath(ReplayPath::Legacy);
    driver.run();
    return driver.metrics();
}

/** Expect every point of @p plan served bit-identical to the oracle. */
void
expectOracleResults(const ExperimentPlan &plan)
{
    for (const PlanPoint &p : plan.points())
        EXPECT_TRUE(metricsBitIdentical(pointResult(p), oracleReplay(p)))
            << pointConfigKey(p);
}

/**
 * One single-scheme plan over distinct window counts. Window counts
 * are chosen per test and never reused across tests: the executor's
 * in-process result store memoizes by point key, and only points it
 * has never seen reach the replay (and its counters) at all.
 */
ExperimentPlan
windowsPlan(SchemeKind scheme, const std::vector<int> &windows,
            SchedPolicy policy = SchedPolicy::Fifo)
{
    ExperimentPlan plan;
    for (const int w : windows)
        plan.add(makePlanPoint(ConcurrencyLevel::High,
                               GranularityLevel::Fine, scheme, w,
                               policy));
    return plan;
}

TEST(BatchExecutor, ParseReplayBatchCapIsStrict)
{
    // Mirrors parseJobs: unset/empty quietly default, garbage and
    // negatives warn-and-default (never silently disable batching),
    // huge values clamp.
    EXPECT_EQ(parseReplayBatchCap(nullptr), 16u);
    EXPECT_EQ(parseReplayBatchCap(""), 16u);

    EXPECT_EQ(parseReplayBatchCap("0"), 0u);
    EXPECT_EQ(parseReplayBatchCap("1"), 1u);
    EXPECT_EQ(parseReplayBatchCap("4"), 4u);
    EXPECT_EQ(parseReplayBatchCap("1024"), 1024u);

    testing::internal::CaptureStderr();
    EXPECT_EQ(parseReplayBatchCap("abc"), 16u);
    EXPECT_EQ(parseReplayBatchCap("8x"), 16u);
    EXPECT_EQ(parseReplayBatchCap("-3"), 16u);
    EXPECT_EQ(parseReplayBatchCap("999999999999999999999"), 16u);
    EXPECT_EQ(parseReplayBatchCap("4096"), kMaxReplayBatch);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("invalid replay batch cap \"abc\""),
              std::string::npos);
    EXPECT_NE(err.find("invalid replay batch cap \"-3\""),
              std::string::npos);
    EXPECT_NE(err.find("clamped to"), std::string::npos);
}

TEST(BatchExecutor, DefaultBatchCapWidensUnderAvx2)
{
    // The unset-env default follows the follower dispatch tier: the
    // wider the vector kernels, the more lanes a batch amortizes its
    // fixed costs over. Narrower tiers keep the PR 7 width.
    setSimdTierOverride(SimdTier::Scalar);
    EXPECT_EQ(defaultReplayBatchCap(), 16u);
    setSimdTierOverride(SimdTier::Sse2);
    EXPECT_EQ(defaultReplayBatchCap(), 16u);
    setSimdTierOverride(SimdTier::Avx2);
    // Overrides clamp to the host's widest tier, so this is 32 only
    // where AVX2 (or the non-x86 portable-SoA alias) is available.
    EXPECT_EQ(defaultReplayBatchCap(),
              cpuMaxSimdTier() == SimdTier::Avx2 ? 32u : 16u);
    clearSimdTierOverride();

    // An explicit cap is tier-independent (nullptr keeps the pinned
    // fallback so test expectations above stay exact).
    EXPECT_EQ(parseReplayBatchCap("8"), 8u);
}

TEST(BatchExecutor, ColdSweepReplaysOneLockstepBatch)
{
    const ScopedNoCache nocache;
    const std::vector<int> windows{5, 7, 9, 11, 13, 15};
    const ExperimentPlan plan =
        windowsPlan(SchemeKind::SP, windows);

    const std::uint64_t batches = counter("replay.batches");
    const std::uint64_t lanes = counter("replay.batched_points");
    const std::uint64_t points = counter("replay.points");
    executePlan(plan);
    EXPECT_EQ(counter("replay.batches"), batches + 1);
    EXPECT_EQ(counter("replay.batched_points"),
              lanes + windows.size());
    EXPECT_EQ(counter("replay.points"), points + windows.size());
    EXPECT_GE(counter("replay.batch_width"), windows.size());

    // Batched results are served bit-identical to the oracle's
    // replay of the same coordinate.
    expectOracleResults(plan);
}

TEST(BatchExecutor, WidthCapChunksRaggedBatches)
{
    const ScopedNoCache nocache;
    const ScopedBatchEnv cap("4");
    // Six misses with one batch key at cap 4: units of 4 and 2.
    const ExperimentPlan plan =
        windowsPlan(SchemeKind::NS, {5, 7, 9, 11, 13, 15});

    const std::uint64_t batches = counter("replay.batches");
    const std::uint64_t lanes = counter("replay.batched_points");
    executePlan(plan);
    EXPECT_EQ(counter("replay.batches"), batches + 2);
    EXPECT_EQ(counter("replay.batched_points"), lanes + 6);
}

TEST(BatchExecutor, BatchZeroPinsPerPointReplay)
{
    const ScopedNoCache nocache;
    const ScopedBatchEnv off("0");
    const ExperimentPlan plan =
        windowsPlan(SchemeKind::SNP, {5, 7, 9});

    const std::uint64_t batches = counter("replay.batches");
    const std::uint64_t lanes = counter("replay.batched_points");
    const std::uint64_t points = counter("replay.points");
    executePlan(plan);
    EXPECT_EQ(counter("replay.batches"), batches);
    EXPECT_EQ(counter("replay.batched_points"), lanes);
    EXPECT_EQ(counter("replay.points"), points + 3);
}

TEST(BatchExecutor, TraceOutRequestForcesPerPointReplay)
{
    const ScopedNoCache nocache;
    // --trace-out makes traceRequested() true; the Chrome-timeline
    // observer is installed per point, so the sweep must not batch.
    const std::string out =
        outputPath("tmp-batch-trace-" +
                   std::to_string(::getpid()) + ".json");
    const std::string flag = "--trace-out=" + out;
    const char *argv[] = {"test_batch_executor", flag.c_str()};
    ASSERT_TRUE(benchInit(2, argv));
    ASSERT_TRUE(traceRequested());

    const ExperimentPlan plan =
        windowsPlan(SchemeKind::SP, {17, 19, 21});
    const std::uint64_t batches = counter("replay.batches");
    const std::uint64_t points = counter("replay.points");
    executePlan(plan);
    EXPECT_EQ(counter("replay.batches"), batches);
    EXPECT_EQ(counter("replay.points"), points + 3);

    // Reset the harness flags so later tests see no --trace-out.
    const char *reset[] = {"test_batch_executor"};
    ASSERT_TRUE(benchInit(1, reset));
    ASSERT_FALSE(traceRequested());
    std::remove(out.c_str());
}

TEST(BatchExecutor, CacheDisabledSweepStillBatches)
{
    // The ScopedNoCache in every test above is exactly the --no-cache
    // configuration; this test makes the property explicit and also
    // covers a working-set plan end to end: NS under WS batches (a
    // woken thread is resident on no NS lane), and every point must
    // come out bit-identical to the oracle's replay.
    const ScopedNoCache nocache;
    const ExperimentPlan plan = windowsPlan(
        SchemeKind::NS, {4, 6, 32}, SchedPolicy::WorkingSet);

    const std::uint64_t batches = counter("replay.batches");
    const std::uint64_t points = counter("replay.points");
    executePlan(plan);
    EXPECT_EQ(counter("replay.batches"), batches + 1);
    EXPECT_EQ(counter("replay.points"), points + 3);
    expectOracleResults(plan);
}

TEST(BatchExecutor, StaticRuleKeepsSharingWorkingSetPointsUnbatched)
{
    // A no-cache plan over NS/SNP/SP x FIFO/WS/WSA at two window
    // counts. The batchable groups — NS under every policy, SNP and
    // SP under FIFO — each replay as one two-lane batch; the SNP/SP
    // x WS/WSA points replay one at a time, and nothing ever falls
    // back.
    const ScopedNoCache nocache;
    const std::vector<int> windows{14, 23};
    ExperimentPlan plan;
    std::size_t batchable = 0;
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP}) {
        for (const SchedPolicy policy :
             {SchedPolicy::Fifo, SchedPolicy::WorkingSet,
              SchedPolicy::WorkingSetAged}) {
            const bool wide = scheme == SchemeKind::NS ||
                              policy == SchedPolicy::Fifo;
            EXPECT_EQ(lockstepBatchable(scheme, policy), wide)
                << schemeName(scheme) << "/" << policyName(policy);
            if (wide)
                ++batchable;
            for (const int w : windows)
                plan.add(makePlanPoint(ConcurrencyLevel::High,
                                       GranularityLevel::Fine, scheme,
                                       w, policy));
        }
    }
    ASSERT_EQ(batchable, 5u);

    const std::uint64_t batches = counter("replay.batches");
    const std::uint64_t lanes = counter("replay.batched_points");
    const std::uint64_t points = counter("replay.points");
    executePlan(plan);
    EXPECT_EQ(counter("replay.batch_fallback"), 0u);
    EXPECT_EQ(counter("replay.batches"), batches + batchable);
    EXPECT_EQ(counter("replay.batched_points"),
              lanes + batchable * windows.size());
    EXPECT_EQ(counter("replay.points"), points + plan.points().size());

    expectOracleResults(plan);
}

/**
 * The flat loop is invisible at sweep scale. A no-cache plan over a
 * prioritized, lock-contended synthetic behavior (every policy
 * reorders or parks threads there) mixes wide batches with every
 * width-1 unit kind — SNP/SP under WS/WSA, an invariant-checking
 * point, and a singleton group (INF at one window count) — across
 * all five policies. At --jobs 1 and 4 every result must be
 * bit-identical to the oracle's replay of its point.
 */
TEST(BatchExecutor, EveryUnitKindMatchesOracleAtAnyJobs)
{
    const ScopedNoCache nocache;
    SynthSpec spec;
    spec.topology = SynthSpec::Topology::FanInOut;
    spec.threads = 4;
    spec.items = 120;
    spec.streamCapacity = 2;
    spec.lockRounds = 10;
    spec.prioritized = true;
    spec.seed = 21;
    const BehaviorId behavior = BehaviorId::fromSynth(spec);

    for (const int jobs : {1, 4}) {
        const std::string flag = "--jobs=" + std::to_string(jobs);
        const char *argv[] = {"test_batch_executor", flag.c_str()};
        ASSERT_TRUE(benchInit(2, argv));
        ASSERT_EQ(sweepJobs(), jobs);

        // Window counts unique to this job count: the in-process
        // result store would serve a repeated point without a replay.
        const int w0 = jobs == 1 ? 4 : 7;
        ExperimentPlan plan;
        std::size_t wide = 0;
        for (const SchedPolicy policy : allSchedPolicies()) {
            for (const SchemeKind scheme :
                 {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP})
                for (const int w : {w0, w0 + 1})
                    plan.add(
                        makePlanPoint(behavior, scheme, w, policy));
            for (const SchemeKind scheme :
                 {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP})
                if (lockstepBatchable(scheme, policy))
                    ++wide;
            plan.add(makePlanPoint(behavior, SchemeKind::Infinite, w0,
                                   policy));
        }
        PlanPoint checked = makePlanPoint(behavior, SchemeKind::SP,
                                          w0 + 2, SchedPolicy::Fifo);
        checked.engine.checkInvariants = true;
        plan.add(checked);

        const std::uint64_t batches = counter("replay.batches");
        const std::uint64_t points = counter("replay.points");
        executePlan(plan);
        EXPECT_EQ(counter("replay.batches"), batches + wide);
        EXPECT_EQ(counter("replay.points"),
                  points + plan.points().size());
        expectOracleResults(plan);
    }
    const char *reset[] = {"test_batch_executor"};
    ASSERT_TRUE(benchInit(1, reset));
}

} // namespace
} // namespace bench
} // namespace crw
