/**
 * @file
 * The sweep executor's lockstep batching (bench/executor.cc,
 * DESIGN.md §14): cache misses sharing a pointBatchKey replay as one
 * batch (replay.batches / replay.batched_points / replay.batch_width
 * count it), the batch width cap chunks groups (ragged tail chunks)
 * and a cap of 0 pins batching off, a cache-disabled sweep still
 * batches (the --no-cache path), a --trace-out run falls back to
 * per-point replays (the timeline observer is per-point only), and
 * the static batch rule keeps SNP/SP under the working-set policies
 * at one lane. Every result — batched or width-1, at any follower
 * tier, batch cap or --jobs — must stay bit-identical to the oracle
 * loop's replay of the same point, and so must its obs record.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/executor.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "obs/metrics.h"
#include "obs/publish.h"
#include "tests/win/simd_test_util.h"
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

/** Scoped batch width cap pin (setReplayBatchCapOverride). */
class ScopedBatchCap
{
  public:
    explicit ScopedBatchCap(std::size_t cap)
    {
        setReplayBatchCapOverride(cap);
    }
    ~ScopedBatchCap() { clearReplayBatchCapOverride(); }
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
    const ScopedBatchCap cap(4);
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
    const ScopedBatchCap off(0);
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
 * The oracle loop's replay of @p p together with the obs record a
 * per-point replay publishes for it (replayPoint's publication).
 */
std::pair<RunMetrics, obs::PointRecord>
oracleWithRecord(const PlanPoint &p)
{
    ReplayDriver driver(cachedTrace(p.behavior), p.engine, p.policy);
    driver.setPath(ReplayPath::Legacy);
    driver.run();
    obs::PointRecord rec = obs::pointFromEngine(driver.engine());
    obs::publishSchedCore(driver.core(), rec);
    return {driver.metrics(), rec};
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

void
expectSameRecord(const obs::PointRecord &got,
                 const obs::PointRecord &want, const std::string &what)
{
    EXPECT_EQ(got.cycles.compute, want.cycles.compute) << what;
    EXPECT_EQ(got.cycles.callret, want.cycles.callret) << what;
    EXPECT_EQ(got.cycles.trap, want.cycles.trap) << what;
    EXPECT_EQ(got.cycles.switches, want.cycles.switches) << what;
    EXPECT_EQ(got.cycles.total, want.cycles.total) << what;
    EXPECT_EQ(got.counters, want.counters) << what;
    EXPECT_EQ(got.values, want.values) << what;
}

/**
 * The replay shape is invisible at sweep scale. For spell high/fine
 * and a prioritized, lock-contended synthetic behavior (every policy
 * reorders or parks threads there), a no-cache plan mixes wide
 * batches with every width-1 unit kind: SNP/SP under a working-set
 * policy, an invariant-checking point, and a singleton group (INF at
 * one window count). The synthetic plan spans all five policies with
 * five windows per (scheme, policy) group, so a cap of 4 leaves a
 * width-1 tail; the far longer spell trace runs three windows per
 * group under FIFO and WS, one policy from each side of the static
 * batch rule. The plan runs with
 * obs on at every host follower tier x batch cap (per-point, 4, the
 * default) x --jobs {1, 4}. Every result must be bit-identical to the
 * oracle's replay of its point, and every obs point record merge
 * equal to the one a per-point replay publishes. Every leg runs the
 * same plans: the oracle replays each point once, and the executor's
 * in-process results are cleared before each leg so it replays them
 * all again.
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
    const std::string metrics_out =
        outputPath("tmp-batch-metrics-" + std::to_string(::getpid()) +
                   ".json");
    const std::string metrics_flag = "--metrics-out=" + metrics_out;

    // The spell window counts sit above every window count the tests
    // above use.
    struct Subject
    {
        BehaviorId behavior;
        int w0;
        int groupWindows;
        std::vector<SchedPolicy> policies;
    };
    const Subject subjects[] = {
        {BehaviorId::spell(ConcurrencyLevel::High,
                           GranularityLevel::Fine),
         33, 3, {SchedPolicy::Fifo, SchedPolicy::WorkingSet}},
        {BehaviorId::fromSynth(spec), 4, 5, allSchedPolicies()},
    };
    struct Case
    {
        ExperimentPlan plan;
        std::size_t batchable = 0; ///< groups that batch when cap > 1
        std::vector<std::pair<RunMetrics, obs::PointRecord>> oracle;
    };
    std::vector<Case> cases;
    for (const Subject &subject : subjects) {
        Case &c = cases.emplace_back();
        const int group = subject.groupWindows;
        for (const SchedPolicy policy : subject.policies) {
            for (const SchemeKind scheme :
                 {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP}) {
                for (int i = 0; i < group; ++i)
                    c.plan.add(makePlanPoint(subject.behavior, scheme,
                                             subject.w0 + i, policy));
                if (lockstepBatchable(scheme, policy))
                    ++c.batchable;
            }
            c.plan.add(makePlanPoint(subject.behavior,
                                     SchemeKind::Infinite, subject.w0,
                                     policy));
        }
        PlanPoint checked =
            makePlanPoint(subject.behavior, SchemeKind::SP,
                          subject.w0 + group, SchedPolicy::Fifo);
        checked.engine.checkInvariants = true;
        c.plan.add(checked);
        // The oracle replays are independent: run them on the pool.
        const std::vector<PlanPoint> &pts = c.plan.points();
        c.oracle.resize(pts.size());
        ParallelSweep(4).run(pts.size(), [&](std::size_t i) {
            c.oracle[i] = oracleWithRecord(pts[i]);
        });
    }

    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        for (const std::size_t cap :
             {std::size_t{0}, std::size_t{4}, defaultReplayBatchCap()}) {
            const ScopedBatchCap capped(cap);
            for (const int jobs : {1, 4}) {
                const std::string what =
                    std::string("tier ") + simdTierName(tier) + " cap " +
                    std::to_string(cap) + " jobs " +
                    std::to_string(jobs);
                const std::string flag =
                    "--jobs=" + std::to_string(jobs);
                const char *argv[] = {"test_batch_executor",
                                      flag.c_str(),
                                      metrics_flag.c_str()};
                ASSERT_TRUE(benchInit(3, argv));
                ASSERT_EQ(sweepJobs(), jobs);
                ASSERT_TRUE(obsEnabled());

                for (const Case &c : cases) {
                    clearPointResults();
                    const std::vector<PlanPoint> &pts = c.plan.points();
                    // Point records merge by summing, so each leg's
                    // merge is checked on top of the record so far.
                    std::vector<obs::PointRecord> before;
                    for (const PlanPoint &p : pts)
                        before.push_back(
                            metrics().point(recordLabel(p)));
                    const std::uint64_t batches =
                        counter("replay.batches");
                    const std::uint64_t points = counter("replay.points");
                    executePlan(c.plan);
                    EXPECT_EQ(counter("replay.batches"),
                              batches + (cap > 1 ? c.batchable : 0))
                        << what;
                    EXPECT_EQ(counter("replay.points"),
                              points + pts.size())
                        << what;
                    for (std::size_t i = 0; i < pts.size(); ++i) {
                        const std::string label = recordLabel(pts[i]);
                        EXPECT_TRUE(metricsBitIdentical(
                            pointResult(pts[i]), c.oracle[i].first))
                            << label << " " << what;
                        obs::MetricsRegistry want;
                        want.mergePoint(label, before[i]);
                        want.mergePoint(label, c.oracle[i].second);
                        expectSameRecord(metrics().point(label),
                                         want.point(label),
                                         label + " " + what);
                    }
                }
            }
        }
    }
    clearPointResults();
    const char *reset[] = {"test_batch_executor"};
    ASSERT_TRUE(benchInit(1, reset));
    std::remove(metrics_out.c_str());
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
    SynthSpec spec;
    spec.topology = SynthSpec::Topology::FanInOut;
    spec.threads = 4;
    spec.items = 90;
    spec.streamCapacity = 2;
    spec.seed = 23;
    const BehaviorId behavior = BehaviorId::fromSynth(spec);
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
        expectSameRecord(metrics().point(labels[i]),
                         oracleWithRecord(plan.points()[i]).second,
                         labels[i]);
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
