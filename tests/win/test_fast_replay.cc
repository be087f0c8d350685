/**
 * @file
 * The oracle contract of the flat replay loop (trace/replay_state.h,
 * DESIGN.md §12): replaying one captured trace through the default
 * path — the flat loop over the devirtualized single-engine view —
 * must produce RunMetrics bit-identical to the virtual-Scheme oracle
 * loop at every (scheme, windows, policy, PRW-reclaim, alloc-policy)
 * point, on the spell trace and on a prioritized, lock-contended
 * synthetic behavior that exercises every policy's wake placement.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spell/capture.h"
#include "trace/replay_driver.h"
#include "trace/run_metrics.h"
#include "trace/synth.h"

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

/**
 * A generated behavior with rotating per-thread priorities and a
 * lock-contention segment: Priority genuinely reorders dispatches
 * here (the spell trace's all-zero priorities reduce PRI to FIFO),
 * and the blocked lock contenders exercise wake placement under every
 * policy.
 */
const EventTrace &
synthTrace()
{
    static const EventTrace trace = [] {
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
        return generateSynthTrace(spec);
    }();
    return trace;
}

struct Variant
{
    SchemeKind scheme;
    int windows;
    SchedPolicy policy;
    PrwReclaim prw;
    AllocPolicy alloc;
};

std::vector<Variant>
allVariants()
{
    std::vector<Variant> out;
    for (const SchedPolicy policy : allSchedPolicies()) {
        for (const int windows : {4, 8}) {
            // NS and Infinite ignore the PRW/alloc knobs.
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

RunMetrics
replayOnce(const EventTrace &trace, const Variant &v, ReplayPath path)
{
    EngineConfig ec;
    ec.scheme = v.scheme;
    ec.numWindows = v.windows;
    ec.prwReclaim = v.prw;
    ec.allocPolicy = v.alloc;
    ReplayDriver driver(trace, ec, v.policy);
    driver.setPath(path);
    driver.run();
    EXPECT_EQ(driver.usedFastPath(), path == ReplayPath::Auto);
    return driver.metrics();
}

TEST(FastReplayEquivalence, BitIdenticalMetricsAcrossAllVariants)
{
    for (const EventTrace *trace : {&smallTrace(), &synthTrace()}) {
        for (const Variant &v : allVariants()) {
            const RunMetrics legacy =
                replayOnce(*trace, v, ReplayPath::Legacy);
            const RunMetrics flat =
                replayOnce(*trace, v, ReplayPath::Auto);
            EXPECT_TRUE(metricsBitIdentical(legacy, flat))
                << trace->key << " " << variantName(v);
        }
    }
}

} // namespace
} // namespace crw
