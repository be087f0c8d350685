/**
 * @file
 * The lockstep-batch contract (trace/replay_batch.h, DESIGN.md §14):
 * one forward pass over a FlatTrace advancing K engine states must
 * leave every lane with RunMetrics bit-identical to the oracle's
 * per-point replay of the same (scheme, windows, policy, PRW, alloc)
 * point — including ragged (non-power-of-two, mixed-variant) batches
 * and one-config batches — and on every follower dispatch tier
 * (win/simd.h): the scalar per-lane oracle and the NS/INF lane-SoA
 * pass with portable/AVX2 kernels must agree bit-for-bit at every lane
 * width (DESIGN.md §16). Working-set policies batch wide only under
 * NS and INF, by the static rule (lockstepBatchable); the driver
 * refuses a wider SNP/SP batch under them. The view's four-byte op
 * tape must carry thread ids across the whole int16 range and drain
 * through the followers whenever it fills, without changing a lane.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "spell/capture.h"
#include "tests/win/simd_test_util.h"
#include "trace/replay_batch.h"
#include "trace/replay_driver.h"
#include "trace/run_metrics.h"
#include "trace/synth.h"
#include "win/engine_batch.h"
#include "win/simd.h"

namespace crw {
namespace {

/** Small corpus keeps the full variant matrix under a second. */
SpellConfig
smallConfig()
{
    SpellConfig cfg;
    cfg.corpusBytes = 3000;
    cfg.dictBytes = 4000;
    cfg.vocabularyWords = 500;
    cfg.m = 1;
    cfg.n = 1;
    return cfg;
}

const EventTrace &
smallTrace()
{
    static const EventTrace trace = captureSpellTrace(
        SpellWorkload::make(smallConfig()), smallConfig());
    return trace;
}

const FlatTrace &
smallFlat()
{
    static const FlatTrace flat = FlatTrace::build(smallTrace());
    return flat;
}

struct Variant
{
    SchemeKind scheme;
    int windows;
    SchedPolicy policy;
    PrwReclaim prw;
    AllocPolicy alloc;
};

/**
 * A generated behavior with rotating per-thread priorities and a
 * lock-contention segment: Priority genuinely reorders dispatches
 * here (the spell trace's all-zero priorities reduce PRI to FIFO),
 * and the blocked lock contenders exercise wake placement under every
 * policy.
 */
SynthSpec
prioritizedSpec()
{
    SynthSpec spec;
    spec.topology = SynthSpec::Topology::FanInOut;
    spec.threads = 4;
    spec.items = 200;
    spec.streamCapacity = 2;
    spec.meanDepth = 5;
    spec.depthJitter = 3;
    spec.meanCharge = 60;
    spec.lockRounds = 20;
    spec.prioritized = true;
    spec.seed = 7;
    return spec;
}

const EventTrace &
synthTrace()
{
    static const EventTrace trace =
        generateSynthTrace(prioritizedSpec());
    return trace;
}

const FlatTrace &
synthFlat()
{
    static const FlatTrace flat = FlatTrace::build(synthTrace());
    return flat;
}

std::vector<Variant>
allVariants()
{
    std::vector<Variant> out;
    for (const SchedPolicy policy : allSchedPolicies()) {
        for (const int windows : {4, 8}) {
            out.push_back({SchemeKind::NS, windows, policy,
                           PrwReclaim::Eager, AllocPolicy::Simple});
            out.push_back({SchemeKind::Infinite, windows, policy,
                           PrwReclaim::Eager, AllocPolicy::Simple});
            for (const AllocPolicy alloc :
                 {AllocPolicy::Simple, AllocPolicy::FreeSearch}) {
                out.push_back({SchemeKind::SNP, windows, policy,
                               PrwReclaim::Eager, alloc});
                for (const PrwReclaim prw :
                     {PrwReclaim::Lazy, PrwReclaim::Eager,
                      PrwReclaim::EagerFolded})
                    out.push_back({SchemeKind::SP, windows, policy,
                                   prw, alloc});
            }
        }
    }
    return out;
}

std::string
variantName(const Variant &v)
{
    std::ostringstream os;
    os << schemeName(v.scheme) << "/w" << v.windows << "/"
       << policyName(v.policy) << "/prw" << static_cast<int>(v.prw)
       << "/alloc" << static_cast<int>(v.alloc);
    return os.str();
}

EngineConfig
configOf(const Variant &v)
{
    EngineConfig ec;
    ec.scheme = v.scheme;
    ec.numWindows = v.windows;
    ec.prwReclaim = v.prw;
    ec.allocPolicy = v.alloc;
    return ec;
}

RunMetrics
replayTrace(const EventTrace &trace, const FlatTrace &flat,
            const Variant &v, ReplayPath path)
{
    ReplayDriver driver(trace, configOf(v), v.policy, &flat);
    driver.setPath(path);
    driver.run();
    return driver.metrics();
}

RunMetrics
replayOnce(const Variant &v, ReplayPath path)
{
    return replayTrace(smallTrace(), smallFlat(), v, path);
}

/** One (trace, variant) point through a one-config batch driver. */
RunMetrics
replayWidth1Batch(const EventTrace &trace, const FlatTrace &flat,
                  const Variant &v)
{
    BatchedReplayDriver batch(trace, {configOf(v)}, v.policy, &flat);
    EXPECT_TRUE(batch.run());
    EXPECT_EQ(batch.simdPath(), SimdTier::Scalar) << variantName(v);
    return batch.metrics(0);
}

/**
 * Oracle, per-point flat loop and one-config batch driver on one
 * point: the three must agree bit-for-bit.
 */
void
expectAllPathsAgree(const EventTrace &trace, const FlatTrace &flat,
                    const Variant &v)
{
    const RunMetrics legacy =
        replayTrace(trace, flat, v, ReplayPath::Legacy);
    ReplayDriver driver(trace, configOf(v), v.policy, &flat);
    driver.run();
    EXPECT_TRUE(driver.usedFastPath()) << variantName(v);
    const RunMetrics batched = replayWidth1Batch(trace, flat, v);
    EXPECT_TRUE(metricsBitIdentical(legacy, driver.metrics()))
        << variantName(v);
    EXPECT_TRUE(metricsBitIdentical(legacy, batched)) << variantName(v);
}

/**
 * A one-config batch runs the single-engine flat loop, the
 * differential anchor between the two drivers: it must agree with the
 * oracle and the per-point driver at every variant, including the
 * SNP/SP working-set points the static rule keeps at one lane.
 */
TEST(BatchReplay, Width1BatchedLoopMatchesOracleAndFastEverywhere)
{
    for (const Variant &v : allVariants())
        expectAllPathsAgree(smallTrace(), smallFlat(), v);
}

/**
 * Legacy-oracle RunMetrics of one (trace, variant) point, memoized:
 * the lane-width sweep below asks for the same few dozen points
 * thousands of times.
 */
const RunMetrics &
legacyOracle(const EventTrace &trace, const FlatTrace &flat,
             const Variant &v)
{
    static std::map<std::tuple<const EventTrace *, int, int, int, int,
                               int>,
                    RunMetrics>
        memo;
    const auto key = std::make_tuple(
        &trace, static_cast<int>(v.scheme), v.windows,
        static_cast<int>(v.policy), static_cast<int>(v.prw),
        static_cast<int>(v.alloc));
    auto it = memo.find(key);
    if (it == memo.end())
        it = memo.emplace(key, replayTrace(trace, flat, v,
                                           ReplayPath::Legacy))
                 .first;
    return it->second;
}

/**
 * Per-lane differential: batch lanes against the oracle's per-point
 * runs. Returns the follower pass the batch dispatched.
 */
SimdTier
expectLanesMatchPerPoint(const std::vector<Variant> &lanes)
{
    EXPECT_FALSE(lanes.empty());
    std::vector<EngineConfig> configs;
    configs.reserve(lanes.size());
    for (const Variant &v : lanes) {
        EXPECT_EQ(static_cast<int>(v.policy),
                  static_cast<int>(lanes[0].policy));
        configs.push_back(configOf(v));
    }
    BatchedReplayDriver batch(smallTrace(), configs, lanes[0].policy,
                              &smallFlat());
    EXPECT_TRUE(batch.run());
    EXPECT_EQ(batch.lanes(), lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l)
        EXPECT_TRUE(metricsBitIdentical(
            legacyOracle(smallTrace(), smallFlat(), lanes[l]),
            batch.metrics(l)))
            << "lane " << l << ": " << variantName(lanes[l]);
    return batch.simdPath();
}

TEST(BatchReplay, FifoLockstepLanesBitIdenticalPerScheme)
{
    // Ragged on purpose: five lanes, windows unsorted.
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP,
          SchemeKind::Infinite}) {
        std::vector<Variant> lanes;
        for (const int windows : {8, 4, 20, 5, 32})
            lanes.push_back({scheme, windows, SchedPolicy::Fifo,
                             PrwReclaim::Eager, AllocPolicy::Simple});
        expectLanesMatchPerPoint(lanes);
    }
}

/**
 * One FIFO SP batch mixing every per-lane knob the batch key leaves
 * free: window count, PRW reclamation and allocation policy.
 */
std::vector<Variant>
mixedSpLanes(std::initializer_list<int> windowCounts)
{
    std::vector<Variant> lanes;
    for (const int windows : windowCounts) {
        for (const PrwReclaim prw :
             {PrwReclaim::Lazy, PrwReclaim::Eager,
              PrwReclaim::EagerFolded})
            lanes.push_back({SchemeKind::SP, windows,
                             SchedPolicy::Fifo, prw,
                             AllocPolicy::Simple});
        lanes.push_back({SchemeKind::SP, windows, SchedPolicy::Fifo,
                         PrwReclaim::Eager, AllocPolicy::FreeSearch});
    }
    return lanes;
}

/** One FIFO SNP batch over both allocation policies. */
std::vector<Variant>
mixedSnpLanes()
{
    std::vector<Variant> lanes;
    for (const AllocPolicy alloc :
         {AllocPolicy::Simple, AllocPolicy::FreeSearch})
        for (const int windows : {4, 10, 24})
            lanes.push_back({SchemeKind::SNP, windows,
                             SchedPolicy::Fifo, PrwReclaim::Eager,
                             alloc});
    return lanes;
}

TEST(BatchReplay, FifoLanesMayDifferInPrwAndAllocPolicy)
{
    expectLanesMatchPerPoint(mixedSpLanes({4, 8, 12}));
    expectLanesMatchPerPoint(mixedSnpLanes());
}

TEST(BatchReplay, SingleLaneBatchDriverMatchesFast)
{
    const Variant v{SchemeKind::SP, 8, SchedPolicy::Fifo,
                    PrwReclaim::Eager, AllocPolicy::Simple};
    BatchedReplayDriver batch(smallTrace(), {configOf(v)}, v.policy,
                              &smallFlat());
    ASSERT_TRUE(batch.run());
    EXPECT_TRUE(metricsBitIdentical(replayOnce(v, ReplayPath::Auto),
                                    batch.metrics(0)));
}

/**
 * The follower passes across every lane width the chunking can
 * produce — each width 1–65 (every partial and full AVX2 chunk count
 * up to eight AVX2 vectors plus one lane) and 128, 257 — on
 * every host tier. NS and INF run under FIFO and under both
 * working-set policies, which the static rule lets them batch wide,
 * over the lock-contended synthetic behavior (every width) and the
 * spell trace (a spread of widths); SNP and SP run under FIFO over
 * the spell trace. Window counts are ragged (4..32, unsorted). Every
 * lane must be bit-identical to the legacy oracle's per-point replay:
 * the dispatch tier is a host-side choice, never a semantic one.
 */
TEST(BatchReplay, EveryTierBitIdenticalAcrossLaneWidths)
{
    std::vector<std::size_t> allWidths;
    for (std::size_t w = 1; w <= 65; ++w)
        allWidths.push_back(w);
    allWidths.push_back(128);
    allWidths.push_back(257);
    const std::vector<std::size_t> someWidths{2, 3, 7, 8, 16, 33, 40};

    struct Case
    {
        const EventTrace *trace;
        const FlatTrace *flat;
        SchemeKind scheme;
        SchedPolicy policy;
        const std::vector<std::size_t> *widths;
    };
    std::vector<Case> cases;
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::Infinite}) {
        for (const SchedPolicy policy :
             {SchedPolicy::Fifo, SchedPolicy::WorkingSet,
              SchedPolicy::WorkingSetAged}) {
            cases.push_back({&synthTrace(), &synthFlat(), scheme,
                             policy, &allWidths});
            cases.push_back({&smallTrace(), &smallFlat(), scheme,
                             policy, &someWidths});
        }
    }
    for (const SchemeKind scheme : {SchemeKind::SNP, SchemeKind::SP})
        cases.push_back({&smallTrace(), &smallFlat(), scheme,
                         SchedPolicy::Fifo, &someWidths});

    for (const Case &c : cases) {
        ASSERT_TRUE(lockstepBatchable(c.scheme, c.policy));
        for (const std::size_t width : *c.widths) {
            std::vector<Variant> lanes;
            std::vector<EngineConfig> configs;
            for (std::size_t i = 0; i < width; ++i) {
                lanes.push_back({c.scheme,
                                 4 + static_cast<int>(i * 7 % 29),
                                 c.policy, PrwReclaim::Eager,
                                 AllocPolicy::Simple});
                configs.push_back(configOf(lanes.back()));
            }
            for (const SimdTier tier : hostTiers()) {
                const ScopedTier pin(tier);
                BatchedReplayDriver batch(*c.trace, configs, c.policy,
                                          c.flat);
                ASSERT_TRUE(batch.run());
                for (std::size_t l = 0; l < width; ++l)
                    ASSERT_TRUE(metricsBitIdentical(
                        legacyOracle(*c.trace, *c.flat, lanes[l]),
                        batch.metrics(l)))
                        << c.trace->key << " " << variantName(lanes[l])
                        << " width " << width << " tier "
                        << simdTierName(tier) << " lane " << l;
            }
        }
    }
}

/**
 * The static rule at the driver: a sharing scheme under a policy that
 * reads residency may not batch wider than one lane — its wakes would
 * depend on each lane's window count — so the constructor refuses the
 * batch, naming it. The same point alone is a legal width-1 batch.
 */
TEST(BatchReplay, DriverRefusesWideSharingBatchUnderResidencyPolicies)
{
    for (const SchemeKind scheme : {SchemeKind::SNP, SchemeKind::SP}) {
        for (const SchedPolicy policy :
             {SchedPolicy::WorkingSet, SchedPolicy::WorkingSetAged}) {
            EXPECT_FALSE(lockstepBatchable(scheme, policy));
            const Variant v4{scheme, 4, policy, PrwReclaim::Eager,
                             AllocPolicy::Simple};
            Variant v8 = v4;
            v8.windows = 8;
            try {
                BatchedReplayDriver batch(smallTrace(),
                                          {configOf(v4), configOf(v8)},
                                          policy, &smallFlat());
                ADD_FAILURE() << "accepted a two-lane "
                              << schemeName(scheme) << "/"
                              << policyName(policy) << " batch";
            } catch (const FatalError &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("batch of 2"), std::string::npos)
                    << what;
                EXPECT_NE(what.find(policyName(policy)),
                          std::string::npos)
                    << what;
            }

            BatchedReplayDriver solo(smallTrace(), {configOf(v4)},
                                     policy, &smallFlat());
            EXPECT_TRUE(solo.run());
            EXPECT_TRUE(metricsBitIdentical(
                replayOnce(v4, ReplayPath::Legacy), solo.metrics(0)))
                << variantName(v4);
        }
    }
}

/**
 * The per-lane knobs the batch key leaves free (PRW reclamation,
 * allocation policy, ragged window counts) on the sharing schemes,
 * under every host tier: SNP/SP have no SoA pass, so every tier
 * replays their followers per lane, bit-identical to per-point runs.
 */
TEST(BatchReplay, ForcedSoaHandlesMixedVariantLanes)
{
    const std::vector<Variant> sp = mixedSpLanes({4, 9, 17});
    const std::vector<Variant> snp = mixedSnpLanes();
    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        EXPECT_EQ(expectLanesMatchPerPoint(sp), SimdTier::Scalar)
            << simdTierName(tier);
        EXPECT_EQ(expectLanesMatchPerPoint(snp), SimdTier::Scalar)
            << simdTierName(tier);
    }
}

/**
 * Working-set batches of identical lanes under the schemes the static
 * rule lets batch wide (NS, INF) complete lockstep, every lane
 * bit-identical to its per-point run, on every host tier.
 */
TEST(BatchReplay, WorkingSetIdenticalLanesNeverDiverge)
{
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::Infinite}) {
        for (const SchedPolicy policy :
             {SchedPolicy::WorkingSet, SchedPolicy::WorkingSetAged}) {
            const Variant v{scheme, 8, policy, PrwReclaim::Eager,
                            AllocPolicy::Simple};
            const RunMetrics &solo =
                legacyOracle(smallTrace(), smallFlat(), v);
            for (const SimdTier tier : hostTiers()) {
                const ScopedTier pin(tier);
                const std::vector<EngineConfig> configs(3,
                                                        configOf(v));
                BatchedReplayDriver batch(smallTrace(), configs,
                                          policy, &smallFlat());
                ASSERT_TRUE(batch.run()) << variantName(v);
                for (std::size_t l = 0; l < batch.lanes(); ++l)
                    EXPECT_TRUE(
                        metricsBitIdentical(solo, batch.metrics(l)))
                        << variantName(v) << " tier "
                        << simdTierName(tier) << " lane " << l;
            }
        }
    }
}

/**
 * The published follower pass must be the one actually dispatched
 * (replay.simd_path feeds off BatchedReplayDriver::simdPath): NS takes
 * the SoA pass at the effective tier (the scalar tier is the per-lane
 * pass), and the sharing schemes report Scalar on every tier — they
 * have no SoA pass.
 */
TEST(BatchReplay, DriverReportsDispatchedSimdPath)
{
    const auto runBatch = [](SchemeKind scheme) {
        const Variant v{scheme, 8, SchedPolicy::Fifo,
                        PrwReclaim::Eager, AllocPolicy::Simple};
        const std::vector<EngineConfig> configs(3, configOf(v));
        BatchedReplayDriver batch(smallTrace(), configs, v.policy,
                                  &smallFlat());
        EXPECT_TRUE(batch.run()) << schemeName(scheme);
        return batch.simdPath();
    };
    EXPECT_EQ(runBatch(SchemeKind::NS), effectiveSimdTier());
    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        EXPECT_EQ(runBatch(SchemeKind::NS), tier);
        EXPECT_EQ(runBatch(SchemeKind::SNP), SimdTier::Scalar)
            << simdTierName(tier);
        EXPECT_EQ(runBatch(SchemeKind::SP), SimdTier::Scalar)
            << simdTierName(tier);
    }
}

/**
 * The full policy family on a prioritized, lock-contended synthetic
 * behavior: every policy must produce bit-identical RunMetrics across
 * the oracle, the per-point flat loop and a one-config batch — the
 * replay paths may never disagree, whichever policy reorders the
 * dispatches.
 */
TEST(BatchReplay, AllPoliciesAgreeAcrossPathsOnPrioritizedSynth)
{
    for (const SchedPolicy policy : allSchedPolicies())
        for (const SchemeKind scheme :
             {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP})
            for (const int windows : {4, 8})
                expectAllPathsAgree(
                    synthTrace(), synthFlat(),
                    {scheme, windows, policy, PrwReclaim::Eager,
                     AllocPolicy::Simple});
}

/**
 * Every (scheme, policy) pair the static rule lets batch wide, on the
 * prioritized, lock-contended synthetic behavior: the residency-blind
 * policies under every scheme, and the working-set policies under NS
 * and INF (a woken thread is resident on no lane). Each ragged
 * multi-window batch completes lockstep with every lane bit-identical
 * to the oracle's per-point replay.
 */
TEST(BatchReplay, LaneInvariantPoliciesBatchLocksteppedOnSynth)
{
    std::vector<std::pair<SchemeKind, SchedPolicy>> pairs;
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP,
          SchemeKind::Infinite})
        for (const SchedPolicy policy : allSchedPolicies())
            if (lockstepBatchable(scheme, policy))
                pairs.emplace_back(scheme, policy);
    ASSERT_EQ(pairs.size(), 16u);
    for (const auto &[scheme, policy] : pairs) {
        std::vector<Variant> lanes;
        for (const int windows : {8, 4, 20, 5, 32})
            lanes.push_back({scheme, windows, policy,
                             PrwReclaim::Eager, AllocPolicy::Simple});
        std::vector<EngineConfig> configs;
        for (const Variant &v : lanes)
            configs.push_back(configOf(v));
        BatchedReplayDriver batch(synthTrace(), configs, policy,
                                  &synthFlat());
        ASSERT_TRUE(batch.run()) << policyName(policy);
        for (std::size_t l = 0; l < lanes.size(); ++l)
            EXPECT_TRUE(metricsBitIdentical(
                legacyOracle(synthTrace(), synthFlat(), lanes[l]),
                batch.metrics(l)))
                << variantName(lanes[l]) << " lane " << l;
    }
}

/**
 * Priority's reduction contract: on an all-zero-priority trace (every
 * spell capture) PRI is FIFO exactly — same level, same ring, same
 * order — so legacy result-cache semantics carry over unchanged. On a
 * trace with real priorities it must actually reorder the schedule.
 */
TEST(BatchReplay, PriorityReducesToFifoWithoutPrioritiesOnly)
{
    const Variant fifo{SchemeKind::SP, 8, SchedPolicy::Fifo,
                       PrwReclaim::Eager, AllocPolicy::Simple};
    Variant pri = fifo;
    pri.policy = SchedPolicy::Priority;

    // RunMetrics names its own policy, so normalize that identity
    // field: what must (or must not) coincide is the schedule-derived
    // remainder.
    RunMetrics priSpell = replayOnce(pri, ReplayPath::Auto);
    priSpell.policy = SchedPolicy::Fifo;
    EXPECT_TRUE(metricsBitIdentical(replayOnce(fifo, ReplayPath::Auto),
                                    priSpell));

    RunMetrics priSynth = replayTrace(synthTrace(), synthFlat(), pri,
                                      ReplayPath::Auto);
    priSynth.policy = SchedPolicy::Fifo;
    EXPECT_FALSE(metricsBitIdentical(
        replayTrace(synthTrace(), synthFlat(), fifo,
                    ReplayPath::Auto),
        priSynth));
}

/** One engine op of a generated lockstep script. */
struct ScriptOp
{
    enum class Kind { Save, Restore, Switch, Exit };
    Kind kind;
    ThreadId to = 0; ///< switch target
};

/**
 * A random engine-op script over @p tids: nested calls and returns,
 * switches among the live threads, and exits — some after unwinding
 * to the root frame's return, some from any depth.
 */
std::vector<ScriptOp>
randomScript(const std::vector<ThreadId> &tids, std::size_t length,
             std::uint64_t seed)
{
    using Kind = ScriptOp::Kind;
    Rng rng(seed);
    std::vector<int> depth(tids.size(), 0);
    std::vector<bool> live(tids.size(), true);
    std::size_t alive = tids.size();
    std::vector<ScriptOp> out;
    std::size_t cur = tids.size(); // none
    while (out.size() < length) {
        if (cur == tids.size() || (alive > 1 && rng.nextBool(0.05))) {
            std::size_t next = rng.nextBelow(tids.size());
            while (!live[next] || next == cur)
                next = (next + 1) % tids.size();
            out.push_back({Kind::Switch, tids[next]});
            cur = next;
            if (depth[cur] == 0)
                depth[cur] = 1; // root frame of a fresh thread
        } else if (alive > 1 && rng.nextBool(0.002)) {
            if (rng.nextBool(0.5)) {
                for (; depth[cur] > 0; --depth[cur])
                    out.push_back({Kind::Restore});
            }
            out.push_back({Kind::Exit});
            live[cur] = false;
            --alive;
            cur = tids.size();
        } else if (depth[cur] <= 1 ||
                   (depth[cur] < 14 && rng.nextBool(0.5))) {
            out.push_back({Kind::Save});
            ++depth[cur];
        } else {
            out.push_back({Kind::Restore});
            --depth[cur];
        }
    }
    return out;
}

/** Every observable of @p got equals @p want's. */
void
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

/**
 * Drive @p script through a lockstep view whose tape is sized from
 * @p max_ops, one lane per window count, and op for op through a
 * plain WindowEngine per lane (the virtual-dispatch oracle): at every
 * host tier, every lane, lane 0 included, must still equal a fresh
 * engine just before the tape first fills, and must end identical to
 * its oracle.
 */
void
expectViewMatchesEngines(SchemeKind scheme,
                         const std::vector<ThreadId> &tids,
                         const std::vector<ScriptOp> &script,
                         std::size_t max_ops)
{
    using Kind = ScriptOp::Kind;
    const std::vector<int> windows{4, 7, 16};
    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        std::vector<std::unique_ptr<WindowEngine>> lanes;
        std::vector<std::unique_ptr<WindowEngine>> oracles;
        std::vector<std::unique_ptr<WindowEngine>> fresh;
        for (const int w : windows) {
            EngineConfig ec;
            ec.scheme = scheme;
            ec.numWindows = w;
            lanes.push_back(std::make_unique<WindowEngine>(ec));
            oracles.push_back(std::make_unique<WindowEngine>(ec));
            fresh.push_back(std::make_unique<WindowEngine>(ec));
            for (const ThreadId tid : tids) {
                lanes.back()->addThread(tid);
                oracles.back()->addThread(tid);
                fresh.back()->addThread(tid);
            }
        }
        const std::string ctx = std::string(schemeName(scheme)) + "/" +
                                simdTierName(tier) + " max_ops " +
                                std::to_string(max_ops);
        detail::visitSchemeClass(scheme, [&](auto scheme_tag) {
            using View =
                BatchedEngineView<typename decltype(scheme_tag)::type>;
            View view(lanes, max_ops);
            // The record that fills the tape is the first to drain.
            const std::size_t undrained =
                std::min(max_ops, View::kTapeOps) - 1;
            ASSERT_LT(undrained, script.size()) << ctx;
            for (std::size_t i = 0; i < script.size(); ++i) {
                if (i == undrained)
                    for (std::size_t l = 0; l < lanes.size(); ++l)
                        expectEnginesIdentical(
                            *lanes[l], *fresh[l], tids,
                            ctx + " lane " + std::to_string(l) +
                                " before the first drain");
                const ScriptOp &op = script[i];
                for (const auto &oracle : oracles) {
                    switch (op.kind) {
                      case Kind::Save: oracle->save(); break;
                      case Kind::Restore: oracle->restore(); break;
                      case Kind::Switch: oracle->contextSwitch(op.to); break;
                      case Kind::Exit: oracle->threadExit(); break;
                    }
                }
                switch (op.kind) {
                  case Kind::Save: view.save(); break;
                  case Kind::Restore: view.restore(); break;
                  case Kind::Switch: view.contextSwitch(op.to); break;
                  case Kind::Exit: view.threadExit(); break;
                }
                view.charge(3);
                for (const auto &oracle : oracles)
                    oracle->charge(3);
            }
            view.finish();
        });
        for (std::size_t l = 0; l < lanes.size(); ++l)
            expectEnginesIdentical(*lanes[l], *oracles[l], tids,
                                   ctx + " lane " + std::to_string(l));
    }
}

const SchemeKind kAllSchemes[] = {SchemeKind::NS, SchemeKind::SNP,
                                  SchemeKind::SP, SchemeKind::Infinite};

TEST(OpTape, ThreadIdsAtTheEdgesOfTheInt16Range)
{
    // Switch targets 0 and INT16_MAX bracket the tape's thread-id
    // field; the ids between them are never registered.
    const std::vector<ThreadId> tids{0, 1, INT16_MAX - 1, INT16_MAX};
    const std::vector<ScriptOp> script = randomScript(tids, 4000, 11);
    for (const SchemeKind scheme : kAllSchemes)
        expectViewMatchesEngines(scheme, tids, script, script.size());
}

TEST(OpTape, FullTapeDrainsThroughTheFollowers)
{
    // Longer than the largest tape, replayed with a five-record tape
    // (thousands of drains, runs split across them) and with a tape
    // sized from the exact op count (capped at kTapeOps).
    const std::vector<ThreadId> tids{0, 1, 2, 3};
    const std::size_t length =
        2 * BatchedEngineView<detail::NsScheme>::kTapeOps + 37;
    const std::vector<ScriptOp> script = randomScript(tids, length, 5);
    for (const SchemeKind scheme : kAllSchemes)
        for (const std::size_t max_ops : {std::size_t{5}, length})
            expectViewMatchesEngines(scheme, tids, script, max_ops);
}

} // namespace
} // namespace crw
