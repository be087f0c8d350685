/**
 * @file
 * The sweep executor's lockstep batching (bench/executor.cc,
 * DESIGN.md §14): cache misses sharing a pointBatchKey replay as one
 * batch (replay.batches / replay.batched_points / replay.batch_width
 * count it), a --trace-out run falls back to per-point replays (the
 * timeline observer is per-point only), and the static batch rule
 * keeps SNP/SP under the working-set policies at one lane. Every
 * result stays bit-identical to the oracle loop's replay of its
 * point; the replay net (test_replay_net.cc) sweeps that across
 * tiers, caps (ragged chunks, 0 pinning batching off), --jobs and obs
 * with both caches off, the --no-cache path.
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
#include "obs/publish.h"
#include "tests/win/replay_test_util.h"
#include "trace/replay_batch.h"
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

/**
 * Scoped result+flat cache disable, starting from an empty in-process
 * store: every planned point is a miss, so the sweep replays all of
 * them live — the deterministic setting for counter-delta assertions
 * (and exactly what --no-cache configures).
 */
class ScopedNoCache
{
  public:
    ScopedNoCache()
    {
        setResultCacheEnabled(false);
        setFlatCacheEnabled(false);
        clearPointResults();
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

/** The oracle loop's replay of @p p and the record it publishes. */
const OracleRun &
oracle(const PlanPoint &p)
{
    return legacyOracle(cachedTrace(p.behavior), p.engine, p.policy);
}

/** Expect every point of @p plan served bit-identical to the oracle. */
void
expectOracleResults(const ExperimentPlan &plan)
{
    for (const PlanPoint &p : plan.points())
        EXPECT_TRUE(metricsBitIdentical(pointResult(p), oracle(p).metrics))
            << pointConfigKey(p);
}

/** How far one executePlan moved the replay counters. */
struct Replayed
{
    std::uint64_t batches, lanes, points;
};

Replayed
execute(const ExperimentPlan &plan)
{
    const auto now = [] {
        return Replayed{counter("replay.batches"),
                        counter("replay.batched_points"),
                        counter("replay.points")};
    };
    const Replayed before = now();
    executePlan(plan);
    const Replayed after = now();
    return {after.batches - before.batches, after.lanes - before.lanes,
            after.points - before.points};
}

/** One single-scheme plan of the prioritized synthetic behavior. */
ExperimentPlan
windowsPlan(SchemeKind scheme, const std::vector<int> &windows,
            SchedPolicy policy = SchedPolicy::Fifo)
{
    const BehaviorId behavior =
        BehaviorId::fromSynth(prioritizedSynthSpec());
    ExperimentPlan plan;
    for (const int w : windows)
        plan.add(makePlanPoint(behavior, scheme, w, policy));
    return plan;
}

TEST(BatchExecutor, DefaultBatchCapWidensUnderAvx2)
{
    // The default cap follows the follower dispatch tier: the wider
    // the vector kernels, the more lanes a batch amortizes its fixed
    // costs over. Narrower tiers keep the per-lane pass's width.
    setSimdTierOverride(SimdTier::Scalar);
    EXPECT_EQ(defaultReplayBatchCap(), 16u);
    setSimdTierOverride(SimdTier::Portable);
    EXPECT_EQ(defaultReplayBatchCap(), 16u);
    setSimdTierOverride(SimdTier::Avx2);
    // Overrides clamp to the host's widest tier, so this is 32 only
    // where AVX2 is available.
    EXPECT_EQ(defaultReplayBatchCap(),
              cpuMaxSimdTier() == SimdTier::Avx2 ? 32u : 16u);
    clearSimdTierOverride();
}

TEST(BatchExecutor, ColdSweepReplaysOneLockstepBatch)
{
    const ScopedNoCache nocache;
    const std::vector<int> windows{5, 7, 9, 11, 13, 15};
    const ExperimentPlan plan =
        windowsPlan(SchemeKind::SP, windows);

    const Replayed r = execute(plan);
    EXPECT_EQ(r.batches, 1u);
    EXPECT_EQ(r.lanes, windows.size());
    EXPECT_EQ(r.points, windows.size());
    EXPECT_GE(counter("replay.batch_width"), windows.size());

    // Batched results are served bit-identical to the oracle's
    // replay of the same coordinate.
    expectOracleResults(plan);
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
    const Replayed r = execute(plan);
    EXPECT_EQ(r.batches, 0u);
    EXPECT_EQ(r.points, 3u);

    // Reset the harness flags so later tests see no --trace-out.
    const char *reset[] = {"test_batch_executor"};
    ASSERT_TRUE(benchInit(1, reset));
    ASSERT_FALSE(traceRequested());
    std::remove(out.c_str());
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
            batchable += wide;
            const ExperimentPlan group = windowsPlan(scheme, windows, policy);
            for (const PlanPoint &p : group.points())
                plan.add(p);
        }
    }
    ASSERT_EQ(batchable, 5u);

    const Replayed r = execute(plan);
    EXPECT_EQ(counter("replay.batch_fallback"), 0u);
    EXPECT_EQ(r.batches, batchable);
    EXPECT_EQ(r.lanes, batchable * windows.size());
    EXPECT_EQ(r.points, plan.points().size());

    expectOracleResults(plan);
}

/** Obs label of @p p, as the executor publishes it. */
std::string
recordLabel(const PlanPoint &p)
{
    return cachedTrace(p.behavior).key + "/" +
           schemeName(p.engine.scheme) + "/w" +
           std::to_string(p.engine.numWindows) + "/" +
           policyName(p.policy);
}

/**
 * Points that differ only in PRW reclamation or allocation policy are
 * distinct obs records: a non-default variant's label carries a
 * /prw=<..> or /alloc=<..> suffix, the default variant's label is the
 * plain <behavior>/<scheme>/w<N>/<policy>, and each record equals the
 * one a per-point replay of that point alone publishes.
 */
TEST(BatchExecutor, VariantPointsAtOneWindowKeepSeparateRecords)
{
    const ScopedNoCache nocache;
    const BehaviorId behavior =
        BehaviorId::fromSynth(prioritizedSynthSpec());
    const std::string metrics_out =
        outputPath("tmp-variant-metrics-" + std::to_string(::getpid()) +
                   ".json");
    const std::string metrics_flag = "--metrics-out=" + metrics_out;
    const char *argv[] = {"test_batch_executor", "--jobs=1",
                          metrics_flag.c_str()};
    ASSERT_TRUE(benchInit(3, argv));
    ASSERT_TRUE(obsEnabled());

    ExperimentPlan plan;
    const auto variant = [&](PrwReclaim prw, AllocPolicy alloc) {
        PlanPoint p = makePlanPoint(behavior, SchemeKind::SP, 6,
                                    SchedPolicy::Fifo);
        p.engine.prwReclaim = prw;
        p.engine.allocPolicy = alloc;
        return p;
    };
    plan.add(variant(PrwReclaim::Eager, AllocPolicy::Simple));
    plan.add(variant(PrwReclaim::Lazy, AllocPolicy::Simple));
    plan.add(variant(PrwReclaim::EagerFolded, AllocPolicy::FreeSearch));
    const std::string base = recordLabel(plan.points()[0]);
    const std::string labels[] = {base, base + "/prw=lazy",
                                  base + "/prw=eager-folded"
                                         "/alloc=free-search"};
    executePlan(plan);

    for (std::size_t i = 0; i < plan.points().size(); ++i)
        EXPECT_TRUE(sameRecord(metrics().point(labels[i]),
                               oracle(plan.points()[i]).record))
            << labels[i];
    // The two SP variants really differ, so a merged record would
    // have shown.
    EXPECT_NE(metrics().point(labels[0]).counters,
              metrics().point(labels[1]).counters);

    const char *reset[] = {"test_batch_executor"};
    ASSERT_TRUE(benchInit(1, reset));
    std::remove(metrics_out.c_str());
}

} // namespace
} // namespace bench
} // namespace crw
