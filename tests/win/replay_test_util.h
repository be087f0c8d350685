/**
 * @file
 * Shared fixtures for the replay differential tests: the small spell
 * capture, the prioritized lock-contended synthetic behavior, the
 * (scheme, windows, policy, PRW, alloc) variant matrix, and the
 * memoized oracle-loop (ReplayPath::Legacy) replay every other replay
 * shape is held bit-identical to.
 */

#ifndef CRW_TESTS_WIN_REPLAY_TEST_UTIL_H_
#define CRW_TESTS_WIN_REPLAY_TEST_UTIL_H_

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/publish.h"
#include "spell/capture.h"
#include "trace/flat_trace.h"
#include "trace/replay_driver.h"
#include "trace/run_metrics.h"
#include "trace/synth.h"

namespace crw {

/** Small corpus: a full variant matrix replays in well under a second. */
inline SpellConfig
smallSpellConfig()
{
    SpellConfig cfg;
    cfg.corpusBytes = 3000;
    cfg.dictBytes = 4000;
    cfg.vocabularyWords = 500;
    cfg.m = 1;
    cfg.n = 1;
    return cfg;
}

inline const SpellWorkload &
smallSpellWorkload()
{
    static const SpellWorkload wl = SpellWorkload::make(smallSpellConfig());
    return wl;
}

inline const EventTrace &
smallSpellTrace()
{
    static const EventTrace trace =
        captureSpellTrace(smallSpellWorkload(), smallSpellConfig());
    return trace;
}

inline const FlatTrace &
smallSpellFlat()
{
    static const FlatTrace flat = FlatTrace::build(smallSpellTrace());
    return flat;
}

/**
 * A generated behavior with rotating per-thread priorities and a
 * lock-contention segment: Priority genuinely reorders dispatches
 * here (the spell trace's all-zero priorities reduce PRI to FIFO),
 * and the blocked lock contenders exercise wake placement under every
 * policy.
 */
inline SynthSpec
prioritizedSynthSpec()
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

/** One replay point's engine-side coordinates plus its policy. */
struct Variant
{
    SchemeKind scheme;
    int windows;
    SchedPolicy policy;
    PrwReclaim prw = PrwReclaim::Eager;
    AllocPolicy alloc = AllocPolicy::Simple;
};

inline EngineConfig
configOf(const Variant &v)
{
    EngineConfig ec;
    ec.scheme = v.scheme;
    ec.numWindows = v.windows;
    ec.prwReclaim = v.prw;
    ec.allocPolicy = v.alloc;
    return ec;
}

/**
 * Every policy × w4/w8 × {NS, INF, SNP × both alloc policies, SP ×
 * every PRW reclamation × both alloc policies}: NS and INF ignore the
 * PRW/alloc knobs, so they appear once per (windows, policy).
 */
inline std::vector<Variant>
allVariants()
{
    std::vector<Variant> out;
    for (const SchedPolicy policy : allSchedPolicies()) {
        for (const int windows : {4, 8}) {
            out.push_back({SchemeKind::NS, windows, policy});
            out.push_back({SchemeKind::Infinite, windows, policy});
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

/** Every field of two obs point records is equal. */
inline bool
sameRecord(const obs::PointRecord &a, const obs::PointRecord &b)
{
    const auto fields = [](const obs::CycleAccount &c) {
        return std::tie(c.compute, c.callret, c.trap, c.switches, c.total);
    };
    return fields(a.cycles) == fields(b.cycles) &&
           a.counters == b.counters && a.values == b.values;
}

/** The oracle loop's result at one point, and the obs record a
 *  per-point replay of it publishes. */
struct OracleRun
{
    RunMetrics metrics;
    obs::PointRecord record;
};

/**
 * The oracle loop's replay of (@p trace, @p config, @p policy),
 * memoized per process: differential tests ask for the same few
 * hundred points thousands of times. The memo keys on @p trace's
 * address, so the trace must live as long as the process.
 * checkInvariants is not part of the key (it can only abort a run);
 * the oracle replays without it. Not thread-safe.
 */
inline const OracleRun &
legacyOracle(const EventTrace &trace, const EngineConfig &config,
             SchedPolicy policy)
{
    static std::map<std::tuple<const EventTrace *, std::string, int>,
                    OracleRun>
        memo;
    const auto [it, fresh] = memo.try_emplace(std::make_tuple(
        &trace, engineConfigKey(config), static_cast<int>(policy)));
    if (fresh) {
        EngineConfig plain = config;
        plain.checkInvariants = false;
        ReplayDriver driver(trace, plain, policy);
        driver.setPath(ReplayPath::Legacy);
        driver.run();
        it->second.metrics = driver.metrics();
        it->second.record = obs::pointFromEngine(driver.engine());
        obs::publishSchedCore(driver.core(), it->second.record);
    }
    return it->second;
}

} // namespace crw

#endif // CRW_TESTS_WIN_REPLAY_TEST_UTIL_H_
