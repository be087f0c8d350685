/**
 * @file
 * The replay net: one seeded, fixed-budget differential test over the
 * replay configuration space (DESIGN.md §12, §14, §16). Every replay
 * shape — the flat loop (ReplayDriver, Auto), the lockstep batch
 * (BatchedReplayDriver: per-lane or lane-SoA followers) and the sweep
 * executor (executePlan: grouping, width cap, --jobs, obs) — must hand
 * back, for every point, RunMetrics and an obs point record
 * bit-identical to the oracle loop's replay of that point alone.
 *
 * A case is a behavior (the small spell capture or a SynthSpec),
 * points (scheme, policy, windows 4–32, PRW, alloc; repeats allowed),
 * a follower tier and an entry shape; the executor entry adds a batch
 * cap, --jobs, obs on/off and an optional invariant-checking point.
 * The cases are a fixed cover of every axis value the old hand-picked
 * grids pinned (each cover entry keeps the name of the grid it
 * replaced), then 240 drawn from a constant seed. A failing case
 * prints `[replay-net] <why> | <case>`; `runNet({parseCase("<case>")})`
 * replays exactly that case.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/executor.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "tests/win/replay_test_util.h"
#include "tests/win/simd_test_util.h"
#include "trace/replay_batch.h"
#include "win/engine_batch.h"

namespace crw {
namespace bench {
namespace {

enum class Entry : std::uint8_t { Driver, Batch, Executor };

constexpr Entry kEntries[] = {Entry::Driver, Entry::Batch,
                              Entry::Executor};
constexpr SchemeKind kSchemes[] = {SchemeKind::NS, SchemeKind::SNP,
                                   SchemeKind::SP, SchemeKind::Infinite};
constexpr PrwReclaim kPrws[] = {PrwReclaim::Lazy, PrwReclaim::Eager,
                                PrwReclaim::EagerFolded};
constexpr AllocPolicy kAllocs[] = {AllocPolicy::Simple,
                                   AllocPolicy::FreeSearch};
constexpr SimdTier kTiers[] = {SimdTier::Scalar, SimdTier::Portable,
                               SimdTier::Avx2};
constexpr SynthSpec::Topology kTopologies[] = {
    SynthSpec::Topology::Pipeline, SynthSpec::Topology::FanInOut,
    SynthSpec::Topology::Ring};

/** Executor cap meaning "no override": defaultReplayBatchCap(). */
constexpr std::size_t kDefaultCap = SIZE_MAX;

struct NetCase
{
    std::optional<SynthSpec> synth; ///< empty: the small spell capture
    Entry entry = Entry::Driver;
    SimdTier tier = SimdTier::Scalar;
    /** Driver and Batch entries: one (scheme, policy) for all. */
    std::vector<Variant> points;
    // Executor entry only.
    std::size_t cap = kDefaultCap;
    int jobs = 1;
    bool obs = false;
    int checked = -1; ///< index of the invariant-checking point
};

// ---- The one-line reproducer format, and its parser. -------------

const char *
entryName(Entry entry)
{
    const char *const names[] = {"driver", "batch", "executor"};
    return names[static_cast<int>(entry)];
}

template <typename Range, typename Name>
auto
byName(const std::string &text, const Range &all, Name name)
{
    for (const auto v : all)
        if (text == name(v))
            return v;
    throw std::invalid_argument("unknown name '" + text + "'");
}

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    for (std::string part; std::getline(is, part, sep);)
        out.push_back(part);
    return out;
}

std::string
caseText(const NetCase &c)
{
    std::ostringstream os;
    os << "behavior=";
    if (const auto &s = c.synth)
        os << synthTopologyName(s->topology) << "/t" << s->threads
           << "/i" << s->items << "/c" << s->streamCapacity << "/d"
           << s->meanDepth << "/j" << s->depthJitter << "/ch"
           << s->meanCharge << "/l" << s->lockRounds << "/p"
           << s->prioritized << "/s" << s->seed;
    else
        os << "spell-small";
    os << " entry=" << entryName(c.entry)
       << " tier=" << simdTierName(c.tier);
    if (c.entry == Entry::Executor)
        os << " cap="
           << (c.cap == kDefaultCap ? "default" : std::to_string(c.cap))
           << " jobs=" << c.jobs << " obs=" << c.obs;
    os << " points=";
    for (std::size_t i = 0; i < c.points.size(); ++i) {
        const Variant &v = c.points[i];
        os << (i ? "," : "") << schemeName(v.scheme) << "/"
           << policyName(v.policy) << "/" << v.windows << "/"
           << prwReclaimName(v.prw) << "/" << allocPolicyName(v.alloc)
           << (static_cast<int>(i) == c.checked ? "!" : "");
    }
    return os.str();
}

SynthSpec
parseSynth(const std::string &text)
{
    const std::vector<std::string> f = split(text, '/');
    SynthSpec s;
    s.topology = byName(f.at(0), kTopologies, synthTopologyName);
    for (std::size_t i = 1; i < f.size(); ++i) {
        const std::size_t at = f[i].find_first_of("0123456789");
        const std::string k = f[i].substr(0, at);
        const long long n = std::stoll(f[i].substr(at));
        int *const field = k == "t"   ? &s.threads
                           : k == "i" ? &s.items
                           : k == "c" ? &s.streamCapacity
                           : k == "d" ? &s.meanDepth
                           : k == "j" ? &s.depthJitter
                           : k == "l" ? &s.lockRounds
                                      : nullptr;
        if (field)
            *field = static_cast<int>(n);
        else if (k == "ch")
            s.meanCharge = static_cast<Cycles>(n);
        else if (k == "p")
            s.prioritized = n != 0;
        else if (k == "s")
            s.seed = static_cast<std::uint64_t>(n);
        else
            throw std::invalid_argument("unknown synth field " + f[i]);
    }
    return s;
}

/** The case a caseText line names. */
NetCase
parseCase(const std::string &line)
{
    NetCase c;
    for (const std::string &field : split(line, ' ')) {
        const std::size_t eq = field.find('=');
        const std::string k = field.substr(0, eq);
        const std::string v = field.substr(eq + 1);
        if (k == "behavior" && v != "spell-small")
            c.synth = parseSynth(v);
        else if (k == "entry")
            c.entry = byName(v, kEntries, entryName);
        else if (k == "tier")
            c.tier = byName(v, kTiers, simdTierName);
        else if (k == "cap")
            c.cap = v == "default" ? kDefaultCap : std::stoul(v);
        else if (k == "jobs")
            c.jobs = std::stoi(v);
        else if (k == "obs")
            c.obs = v == "1";
        else if (k == "points") {
            for (std::string p : split(v, ',')) {
                if (p.back() == '!') {
                    c.checked = static_cast<int>(c.points.size());
                    p.pop_back();
                }
                const std::vector<std::string> f = split(p, '/');
                c.points.push_back(
                    {byName(f.at(0), kSchemes, schemeName),
                     std::stoi(f.at(2)),
                     byName(f.at(1), allSchedPolicies(), policyName),
                     byName(f.at(3), kPrws, prwReclaimName),
                     byName(f.at(4), kAllocs, allocPolicyName)});
            }
        } else if (k != "behavior")
            throw std::invalid_argument("unknown case field " + k);
    }
    return c;
}

// ---- Running one case against the oracle. ------------------------

/** Obs label of @p p, as the executor publishes it. */
std::string
recordLabel(const EventTrace &trace, const PlanPoint &p)
{
    const EngineConfig defaults;
    std::string label = trace.key + "/" + schemeName(p.engine.scheme) +
                        "/w" + std::to_string(p.engine.numWindows) +
                        "/" + policyName(p.policy);
    if (p.engine.prwReclaim != defaults.prwReclaim)
        label += std::string("/prw=") + prwReclaimName(p.engine.prwReclaim);
    if (p.engine.allocPolicy != defaults.allocPolicy)
        label += std::string("/alloc=") +
                 allocPolicyName(p.engine.allocPolicy);
    return label;
}

/** "" when point @p i — its metrics, and the record its engine and
 *  core publish — matches the oracle's replay of @p config. */
std::string
checkLane(std::size_t i, const EventTrace &trace,
          const EngineConfig &config, SchedPolicy policy,
          const RunMetrics &got, const WindowEngine &engine,
          const SchedCore &core)
{
    const OracleRun &want = legacyOracle(trace, config, policy);
    obs::PointRecord record = obs::pointFromEngine(engine);
    obs::publishSchedCore(core, record);
    if (!metricsBitIdentical(got, want.metrics))
        return "point " + std::to_string(i) + " metrics differ";
    if (!sameRecord(record, want.record))
        return "point " + std::to_string(i) + " obs record differs";
    return "";
}

std::uint64_t
counter(const char *name)
{
    return metrics().counterValue(name);
}

/** How far one executePlan moves the replay counters. */
struct Replayed
{
    std::uint64_t batches = 0; ///< replay.batches
    std::uint64_t lanes = 0;   ///< replay.batched_points
    std::uint64_t points = 0;  ///< replay.points

    bool operator==(const Replayed &) const = default;
    std::string
    text() const
    {
        return "replay.batches +" + std::to_string(batches) +
               ", replay.batched_points +" + std::to_string(lanes) +
               ", replay.points +" + std::to_string(points);
    }
};

Replayed
replayCounters()
{
    return {counter("replay.batches"), counter("replay.batched_points"),
            counter("replay.points")};
}

/** What an executePlan of @p points adds at @p cap: each batchable
 *  group splits into cap-wide units, and a unit of one lane replays
 *  as a point. */
Replayed
expectedReplays(const std::vector<PlanPoint> &points, std::size_t cap)
{
    Replayed want;
    want.points = points.size();
    if (cap < 2)
        return want;
    std::map<std::string, std::size_t> groups;
    for (const PlanPoint &p : points)
        if (!p.engine.checkInvariants &&
            lockstepBatchable(p.engine.scheme, p.policy))
            ++groups[pointBatchKey(p)];
    for (const auto &[key, n] : groups) {
        const std::size_t tail = n % cap >= 2 ? n % cap : 0;
        want.batches += n / cap + (tail ? 1 : 0);
        want.lanes += n / cap * cap + tail;
    }
    return want;
}

std::string
runExecutor(const NetCase &c, const EventTrace &trace)
{
    const BehaviorId behavior = BehaviorId::fromSynth(*c.synth);
    ExperimentPlan plan;
    for (std::size_t i = 0; i < c.points.size(); ++i) {
        const Variant &v = c.points[i];
        PlanPoint p{behavior, configOf(v), v.policy};
        p.engine.checkInvariants = static_cast<int>(i) == c.checked;
        plan.add(p);
    }
    const std::string jobs = "--jobs=" + std::to_string(c.jobs);
    const std::string out =
        "--metrics-out=" +
        outputPath("tmp-net-metrics-" + std::to_string(::getpid()) +
                   ".json");
    const char *argv[] = {"test_replay_net", jobs.c_str(), out.c_str()};
    if (!benchInit(c.obs ? 3 : 2, argv))
        return "benchInit refused " + jobs;
    if (c.cap == kDefaultCap)
        clearReplayBatchCapOverride();
    else
        setReplayBatchCapOverride(c.cap);
    const std::vector<PlanPoint> &pts = plan.points();
    const Replayed want = expectedReplays(
        pts, c.cap == kDefaultCap ? defaultReplayBatchCap() : c.cap);

    // Point records merge by summing, so each case's merge is checked
    // on top of the record so far.
    std::vector<obs::PointRecord> before;
    for (const PlanPoint &p : pts)
        before.push_back(metrics().point(recordLabel(trace, p)));
    const Replayed before_run = replayCounters();
    clearPointResults();
    executePlan(plan);
    clearReplayBatchCapOverride();

    const Replayed after_run = replayCounters();
    const Replayed got{after_run.batches - before_run.batches,
                       after_run.lanes - before_run.lanes,
                       after_run.points - before_run.points};
    if (!(got == want))
        return got.text() + " (want " + want.text() + ")";
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const OracleRun &want =
            legacyOracle(trace, pts[i].engine, pts[i].policy);
        if (!metricsBitIdentical(pointResult(pts[i]), want.metrics))
            return "plan point " + std::to_string(i) + " metrics differ";
        // With obs off, nothing is published.
        const std::string label = recordLabel(trace, pts[i]);
        obs::MetricsRegistry merged;
        merged.mergePoint(label, before[i]);
        if (c.obs)
            merged.mergePoint(label, want.record);
        if (!sameRecord(metrics().point(label), merged.point(label)))
            return "plan point " + std::to_string(i) +
                   " merged obs record differs";
    }
    return "";
}

/** "" when every point of @p c matches the oracle, else why not. */
std::string
runCase(const NetCase &c)
{
    const ScopedTier pin(c.tier);
    const EventTrace &trace =
        c.synth ? cachedTrace(BehaviorId::fromSynth(*c.synth))
                : smallSpellTrace();
    if (c.entry == Entry::Executor)
        return runExecutor(c, trace);

    const FlatTrace &flat =
        c.synth ? cachedFlatTrace(BehaviorId::fromSynth(*c.synth))
                : smallSpellFlat();
    const SchemeKind scheme = c.points.at(0).scheme;
    const SchedPolicy policy = c.points[0].policy;
    std::vector<EngineConfig> configs;
    for (const Variant &v : c.points) {
        if (v.scheme != scheme || v.policy != policy)
            return "points mix (scheme, policy) pairs";
        configs.push_back(configOf(v));
    }
    std::string why;
    if (c.entry == Entry::Driver) {
        for (std::size_t i = 0; i < configs.size() && why.empty(); ++i) {
            ReplayDriver driver(trace, configs[i], policy, &flat);
            driver.run();
            why = driver.usedFastPath()
                      ? checkLane(i, trace, configs[i], policy,
                                  driver.metrics(), driver.engine(),
                                  driver.core())
                      : "point " + std::to_string(i) +
                            " left the flat loop";
        }
        return why;
    }

    BatchedReplayDriver batch(trace, configs, policy, &flat);
    if (!batch.run())
        return "run() returned false";
    const bool soa = configs.size() > 1 && (scheme == SchemeKind::NS ||
                                            scheme == SchemeKind::Infinite);
    if (batch.simdPath() != (soa ? c.tier : SimdTier::Scalar))
        return std::string("dispatched the ") +
               simdTierName(batch.simdPath()) + " pass";
    for (std::size_t l = 0; l < configs.size() && why.empty(); ++l)
        why = checkLane(l, trace, configs[l], policy, batch.metrics(l),
                        batch.engine(l), batch.core());
    return why;
}

/** "" when @p c passes, else why not; a case whose text does not
 *  round-trip through parseCase fails without running. */
std::string
failure(const NetCase &c)
{
    const std::string text = caseText(c);
    try {
        return caseText(parseCase(text)) == text
                   ? runCase(c)
                   : "case text does not round-trip";
    } catch (const std::exception &e) {
        return std::string("threw: ") + e.what();
    }
}

/** @p c without point @p i (the invariant-checking mark follows its
 *  point, and goes with it). */
NetCase
withoutPoint(NetCase c, std::size_t i)
{
    c.points.erase(c.points.begin() + static_cast<std::ptrdiff_t>(i));
    const int at = static_cast<int>(i);
    c.checked = c.checked == at ? -1 : c.checked - (c.checked > at);
    return c;
}

/**
 * The smallest case reached from @p c by steps that keep @p fails
 * true: keep either half of the points, drop one point (up to 16),
 * halve the synth's items. Each step is taken greedily, in that
 * order, until none applies or @p budget cases were tried.
 */
NetCase
shrink(NetCase c, const std::function<bool(const NetCase &)> &fails,
       int budget = 64)
{
    for (bool progress = true; progress;) {
        progress = false;
        const std::size_t n = c.points.size();
        std::vector<NetCase> steps;
        if (n > 1) {
            NetCase first = c;
            NetCase second = c;
            for (std::size_t i = n; i-- > n / 2;)
                first = withoutPoint(std::move(first), i);
            for (std::size_t i = n / 2; i-- > 0;)
                second = withoutPoint(std::move(second), i);
            steps.push_back(std::move(first));
            steps.push_back(std::move(second));
        }
        for (std::size_t i = 0; n > 1 && n <= 16 && i < n; ++i)
            steps.push_back(withoutPoint(c, i));
        if (c.synth && c.synth->items > 1) {
            steps.push_back(c);
            steps.back().synth->items /= 2;
        }
        for (NetCase &step : steps) {
            if (budget-- <= 0)
                return c;
            if (fails(step)) {
                c = std::move(step);
                progress = true;
                break;
            }
        }
    }
    return c;
}

/**
 * Run @p cases with both on-disk stores off (every executor point is
 * a miss, and no flat file is written). Each failing case adds one
 * failure line with its one-line reproducer and a shrunk one that
 * still fails; both round-trip through parseCase.
 */
void
runNet(const std::vector<NetCase> &cases)
{
    setResultCacheEnabled(false);
    setFlatCacheEnabled(false);
    std::size_t failed = 0;
    for (const NetCase &c : cases) {
        const std::string why = failure(c);
        if (why.empty() || ++failed > 8)
            continue;
        const NetCase small = shrink(c, [](const NetCase &s) {
            const std::string w = failure(s);
            return !w.empty() && w != "case text does not round-trip";
        });
        ADD_FAILURE() << "[replay-net] " << why << " | " << caseText(c)
                      << "\n[replay-net] shrunk: " << failure(small)
                      << " | " << caseText(small);
    }
    EXPECT_EQ(failed, 0u) << "of " << cases.size() << " cases";
    const char *reset[] = {"test_replay_net"};
    benchInit(1, reset);
    clearReplayBatchCapOverride();
    setFlatCacheEnabled(true);
    setResultCacheEnabled(true);
}

// ---- The fixed cover. --------------------------------------------
//
// Its entries keep the names of the hand-picked grids they replaced,
// so a failure reads as the shape it is about.

/** @p width lanes of (@p scheme, @p policy), windows 4..32 unsorted. */
std::vector<Variant>
raggedLanes(SchemeKind scheme, SchedPolicy policy, std::size_t width)
{
    std::vector<Variant> lanes;
    for (std::size_t i = 0; i < width; ++i)
        lanes.push_back(
            {scheme, 4 + static_cast<int>((i * 13 + 4) % 29), policy});
    return lanes;
}

/** SNP/SP FIFO lanes at windows 4, 9, 17 over every PRW/alloc value. */
std::vector<Variant>
mixedLanes(SchemeKind scheme)
{
    std::vector<Variant> lanes;
    for (const int w : {4, 9, 17})
        for (const PrwReclaim prw : kPrws)
            for (const AllocPolicy alloc : kAllocs)
                if (scheme == SchemeKind::SP || prw == PrwReclaim::Eager)
                    lanes.push_back({scheme, w, SchedPolicy::Fifo, prw,
                                     alloc});
    return lanes;
}

/** Every allVariants() point, one per case, on each of @p behaviors. */
std::vector<NetCase>
everyVariant(std::initializer_list<std::optional<SynthSpec>> behaviors,
             Entry entry)
{
    std::vector<NetCase> cases;
    for (const std::optional<SynthSpec> &synth : behaviors)
        for (const Variant &v : allVariants())
            cases.push_back({synth, entry, SimdTier::Scalar, {v}});
    return cases;
}

/** A batch of each of @p laneSets on @p synth at every host tier. */
std::vector<NetCase>
onEveryTier(const std::optional<SynthSpec> &synth,
            const std::vector<std::vector<Variant>> &laneSets)
{
    std::vector<NetCase> cases;
    for (const SimdTier tier : hostTiers())
        for (const std::vector<Variant> &lanes : laneSets)
            cases.push_back({synth, Entry::Batch, tier, lanes});
    return cases;
}

/** The flat loop (ReplayDriver, Auto) at every variant, both behaviors. */
TEST(FastReplayEquivalence, BitIdenticalMetricsAcrossAllVariants)
{
    runNet(everyVariant({std::nullopt, prioritizedSynthSpec()},
                        Entry::Driver));
}

/**
 * A one-config batch runs the single-engine flat loop at every variant
 * on the spell capture, the SNP/SP working-set points the static rule
 * keeps at one lane included.
 */
TEST(BatchReplay, Width1BatchedLoopMatchesOracleAndFastEverywhere)
{
    runNet(everyVariant({std::nullopt}, Entry::Batch));
}

/** The same on the prioritized synth, where every policy reorders. */
TEST(BatchReplay, AllPoliciesAgreeAcrossPathsOnPrioritizedSynth)
{
    runNet(everyVariant({prioritizedSynthSpec()}, Entry::Batch));
}

/** A one-lane batch of every (scheme, policy) takes the scalar pass
 *  whichever tier is pinned. */
TEST(BatchReplay, SingleLaneBatchDriverMatchesFast)
{
    std::vector<std::vector<Variant>> sets;
    for (const SchemeKind scheme : kSchemes)
        for (const SchedPolicy policy : allSchedPolicies()) {
            const std::size_t i = sets.size();
            sets.push_back({{scheme, 4 + static_cast<int>(i * 13 % 29),
                             policy, kPrws[i % 3], kAllocs[i % 2]}});
        }
    runNet(onEveryTier(std::nullopt, sets));
}

/**
 * Every lane width the follower chunking can produce — 1–65 (every
 * partial and full AVX2 chunk count up to eight vectors plus one
 * lane), 128 and 257 — through the NS lane-SoA pass on every host
 * tier; INF, the sharing schemes under FIFO and the working-set
 * policies (which NS and INF batch wide) at a spread of widths, on
 * the synthetic and the spell behavior.
 */
TEST(ReplayNet, CoverLaneWidthsOnEveryTier)
{
    std::vector<std::vector<Variant>> synth, spell;
    for (std::size_t w = 1; w <= 65; ++w)
        synth.push_back(raggedLanes(SchemeKind::NS, SchedPolicy::Fifo, w));
    for (const std::size_t w : {128, 257})
        synth.push_back(raggedLanes(SchemeKind::NS, SchedPolicy::Fifo, w));
    for (const SchemeKind scheme : kSchemes)
        for (const SchedPolicy policy :
             {SchedPolicy::Fifo, SchedPolicy::WorkingSet,
              SchedPolicy::WorkingSetAged})
            for (const std::size_t w : {2, 3, 7, 8, 9, 16, 17, 33, 40}) {
                if (!lockstepBatchable(scheme, policy))
                    continue;
                if (scheme != SchemeKind::NS || policy != SchedPolicy::Fifo)
                    synth.push_back(raggedLanes(scheme, policy, w));
                if (w % 8 == 1)
                    spell.push_back(raggedLanes(scheme, policy, w));
            }
    std::vector<NetCase> cases = onEveryTier(prioritizedSynthSpec(), synth);
    for (NetCase &c : onEveryTier(std::nullopt, spell))
        cases.push_back(std::move(c));
    runNet(cases);
}

/**
 * A ragged five-lane FIFO batch of every scheme over the spell capture,
 * which has more engine ops than the op tape holds: every batch drains
 * its tape mid-run.
 */
TEST(BatchReplay, FifoLockstepLanesBitIdenticalPerScheme)
{
    const RunMetrics &spell =
        legacyOracle(smallSpellTrace(), EngineConfig{}, SchedPolicy::Fifo)
            .metrics;
    ASSERT_GT(spell.saves + spell.restores + spell.switches,
              BatchedEngineView<detail::NsScheme>::kTapeOps);
    std::vector<std::vector<Variant>> sets;
    for (const SchemeKind scheme : kSchemes)
        sets.push_back(raggedLanes(scheme, SchedPolicy::Fifo, 5));
    runNet(onEveryTier(std::nullopt, sets));
}

/** Every (scheme, policy) pair the static rule batches, on the synth. */
TEST(BatchReplay, LaneInvariantPoliciesBatchLocksteppedOnSynth)
{
    std::vector<std::vector<Variant>> sets;
    for (const SchemeKind scheme : kSchemes)
        for (const SchedPolicy policy : allSchedPolicies())
            if (lockstepBatchable(scheme, policy))
                sets.push_back(raggedLanes(scheme, policy, 5));
    ASSERT_EQ(sets.size(), 16u);
    runNet(onEveryTier(prioritizedSynthSpec(), sets));
}

/** SNP/SP FIFO batches mixing every PRW/alloc value, on the synth. */
TEST(BatchReplay, FifoLanesMayDifferInPrwAndAllocPolicy)
{
    runNet(onEveryTier(prioritizedSynthSpec(),
                       {mixedLanes(SchemeKind::SNP),
                        mixedLanes(SchemeKind::SP)}));
}

/** The same on the spell capture: with a SIMD tier pinned, SNP/SP
 *  (no lane-SoA pass) must still dispatch the per-lane pass. */
TEST(BatchReplay, ForcedSoaHandlesMixedVariantLanes)
{
    runNet(onEveryTier(std::nullopt, {mixedLanes(SchemeKind::SNP),
                                      mixedLanes(SchemeKind::SP)}));
}

/** Identical-lane WS/WSA batches under NS and INF. */
TEST(BatchReplay, WorkingSetIdenticalLanesNeverDiverge)
{
    std::vector<std::vector<Variant>> sets;
    for (const SchemeKind scheme : {SchemeKind::NS, SchemeKind::Infinite})
        for (const SchedPolicy policy :
             {SchedPolicy::WorkingSet, SchedPolicy::WorkingSetAged})
            sets.emplace_back(3, Variant{scheme, 8, policy});
    runNet(onEveryTier(std::nullopt, sets));
}

/**
 * The executor at every (tier, cap ∈ {0, 4, default}, --jobs ∈ {1, 4})
 * leg with obs on. The plan spans all five policies: NS groups of six
 * windows (a ragged two-lane tail at cap 4), SNP/SP groups of five (a
 * width-1 tail; under WS/WSA they replay one lane at a time), a
 * singleton INF group per policy and one invariant-checking point.
 */
TEST(ReplayNet, CoverExecutorLegs)
{
    const SynthSpec spec =
        parseSynth("fanio/t4/i120/c2/d4/j2/ch40/l10/p1/s21");
    std::vector<Variant> plan;
    for (const SchedPolicy policy : allSchedPolicies()) {
        for (const SchemeKind scheme :
             {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP})
            for (int w = 4; w < (scheme == SchemeKind::NS ? 10 : 9); ++w)
                plan.push_back({scheme, w, policy});
        plan.push_back({SchemeKind::Infinite, 4, policy});
    }
    plan.push_back({SchemeKind::SP, 9, SchedPolicy::Fifo});

    std::vector<NetCase> cases;
    for (const SimdTier tier : hostTiers())
        for (const std::size_t cap : {std::size_t{0}, std::size_t{4},
                                      kDefaultCap})
            for (const int jobs : {1, 4})
                cases.push_back({spec, Entry::Executor, tier, plan, cap,
                                 jobs, true,
                                 static_cast<int>(plan.size()) - 1});
    runNet(cases);
}

// ---- The seeded cases. -------------------------------------------

template <typename Range>
auto
pick(Rng &rng, const Range &all)
{
    return all[rng.nextBelow(std::size(all))];
}

int
between(Rng &rng, int lo, int hi)
{
    return static_cast<int>(rng.nextInRange(lo, hi));
}

/**
 * One drawn case. Lane counts lean small (most batches in a sweep are
 * a few lanes wide) but reach 257; behaviors lean on synthetic specs
 * over every topology, with and without lock contention.
 */
NetCase
drawCase(Rng &rng)
{
    NetCase c;
    c.entry = pick(rng, kEntries);
    if (c.entry == Entry::Executor || rng.nextBelow(4) != 0) {
        SynthSpec s;
        s.topology = pick(rng, kTopologies);
        s.threads = between(
            rng, s.topology == SynthSpec::Topology::FanInOut ? 1 : 2, 7);
        s.items = between(rng, 1, 160);
        s.streamCapacity = between(rng, 1, 4);
        s.meanDepth = between(rng, 1, 9);
        s.depthJitter = between(rng, 0, 4);
        s.meanCharge = static_cast<Cycles>(between(rng, 1, 100));
        s.lockRounds = rng.nextBool() ? 0 : between(rng, 1, 30);
        s.prioritized = rng.nextBool();
        s.seed = static_cast<std::uint64_t>(between(rng, 1, 1 << 20));
        c.synth = s;
    }
    c.tier = pick(rng, hostTiers());
    const SchemeKind scheme = pick(rng, kSchemes);
    const SchedPolicy policy = pick(rng, allSchedPolicies());
    const std::uint64_t size = rng.nextBelow(10);
    const int lanes = size < 6   ? between(rng, 1, 6)
                      : size < 9 ? between(rng, 7, 40)
                                 : between(rng, 41, 257);
    for (int l = 0; l < lanes; ++l)
        c.points.push_back({scheme, between(rng, 4, 32), policy,
                            pick(rng, kPrws), pick(rng, kAllocs)});
    if (c.entry == Entry::Batch && lanes > 1 &&
        !lockstepBatchable(scheme, policy))
        c.entry = Entry::Driver;
    if (c.entry == Entry::Executor) {
        c.cap = rng.nextBelow(5) == 0
                    ? kDefaultCap
                    : static_cast<std::size_t>(between(rng, 0, 64));
        c.jobs = between(rng, 1, 4);
        c.obs = rng.nextBool();
        c.checked = rng.nextBool() ? between(rng, 0, lanes - 1) : -1;
    }
    return c;
}

/** Shard @p shard of four over 240 cases drawn from one seed. */
void
runSeededShard(std::size_t shard)
{
    Rng rng(0x6e657431);
    std::vector<NetCase> cases;
    for (std::size_t i = 0; i < 240; ++i) {
        NetCase c = drawCase(rng);
        if (i % 4 == shard)
            cases.push_back(std::move(c));
    }
    runNet(cases);
}

TEST(ReplayNet, SeededCasesShard0) { runSeededShard(0); }
TEST(ReplayNet, SeededCasesShard1) { runSeededShard(1); }
TEST(ReplayNet, SeededCasesShard2) { runSeededShard(2); }
TEST(ReplayNet, SeededCasesShard3) { runSeededShard(3); }

/** The shrinker keeps a failing case failing while it drops points
 *  and items, and its result round-trips through parseCase. */
TEST(ReplayNet, ShrinkerKeepsTheCaseFailing)
{
    NetCase c = parseCase("behavior=ring/t3/i150/c2/d4/j1/ch30/l0/p0/s5 "
                          "entry=executor tier=scalar cap=4 jobs=2 obs=0 "
                          "points=NS/FIFO/4/eager/simple");
    for (int w = 5; w <= 30; ++w)
        c.points.push_back({SchemeKind::NS, w, SchedPolicy::Fifo});
    c.checked = 20; // windows 24
    // Fails while a point at windows 21 remains and items >= 10.
    int tried = 0;
    const auto fails = [&tried](const NetCase &s) {
        ++tried;
        bool has21 = false;
        for (const Variant &v : s.points)
            has21 = has21 || v.windows == 21;
        return has21 && s.synth->items >= 10;
    };
    const NetCase small = shrink(c, fails, 1000);
    ASSERT_EQ(small.points.size(), 1u);
    EXPECT_EQ(small.points[0].windows, 21);
    EXPECT_EQ(small.checked, -1);
    EXPECT_GE(small.synth->items, 10);
    EXPECT_LT(small.synth->items, 20);
    EXPECT_EQ(caseText(parseCase(caseText(small))), caseText(small));
    // Out of budget after the first round: the second half stays.
    tried = 0;
    EXPECT_EQ(shrink(c, fails, 2).points.size(), 14u);
    EXPECT_EQ(tried, 2);

    // The invariant-checking mark follows its point.
    const NetCase dropped = withoutPoint(c, 3);
    EXPECT_EQ(dropped.checked, 19);
    EXPECT_EQ(dropped.points[19].windows, 24);
}

/** A reproducer line replays its one case. */
TEST(ReplayNet, ReproducerLineReplaysItsCase)
{
    runNet({parseCase("behavior=fanio/t3/i40/c1/d4/j2/ch40/l5/p1/s9 "
                      "entry=executor tier=scalar cap=4 jobs=2 obs=1 "
                      "points=SP/PRI/5/lazy/simple,SP/PRI/7/eager/"
                      "free-search!,SP/PRI/6/eager/simple")});
}

} // namespace
} // namespace bench
} // namespace crw
