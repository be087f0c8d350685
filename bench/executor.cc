#include "bench/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <utility>

#include "bench/harness.h"
#include "bench/result_cache.h"
#include "common/chart.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/publish.h"
#include "obs/ring.h"
#include "obs/trace_json.h"
#include "spell/capture.h"
#include "trace/flat_trace_io.h"
#include "trace/replay_batch.h"
#include "trace/replay_driver.h"
#include "win/simd.h"

namespace crw {
namespace bench {

namespace {

bool g_cacheEnabled = true;
bool g_flatCacheEnabled = true;

// Result store: pointConfigKey -> RunMetrics. std::map references
// stay valid across inserts, so pointResult() can hand out stable
// references while the executor keeps filling the store.
std::mutex g_storeMu;
std::map<std::string, RunMetrics> g_store;

const RunMetrics *
storeFind(const std::string &key)
{
    std::lock_guard<std::mutex> lock(g_storeMu);
    const auto it = g_store.find(key);
    return it == g_store.end() ? nullptr : &it->second;
}

const RunMetrics &
storeInsert(const std::string &key, RunMetrics metrics)
{
    std::lock_guard<std::mutex> lock(g_storeMu);
    return g_store.emplace(key, std::move(metrics)).first->second;
}

/** Test-only batch width cap; -1 = none (setReplayBatchCapOverride). */
std::atomic<long> g_batchCapOverride{-1};

/** Lockstep batch width cap, read per executePoints call. */
std::size_t
replayBatchCap()
{
    const long ov = g_batchCapOverride.load(std::memory_order_relaxed);
    return ov >= 0 ? static_cast<std::size_t>(ov)
                   : defaultReplayBatchCap();
}

/** Raise the named counter to at least @p v (CAS max — the result is
 *  independent of the order concurrent batches finish in). */
void
counterAtLeast(const std::string &name, std::uint64_t v)
{
    std::atomic<std::uint64_t> &c = metrics().counter(name);
    std::uint64_t cur = c.load(std::memory_order_relaxed);
    while (cur < v &&
           !c.compare_exchange_weak(cur, v,
                                    std::memory_order_relaxed)) {
    }
}

/** Obs label and host span name of one point:
 *  <behavior>/<scheme>/w<N>/<policy>, then /prw=<..> and /alloc=<..>
 *  for a non-default PRW reclamation or allocation policy, so the
 *  ablation's variants at one window count stay separate records. */
std::string
pointLabel(const std::string &behavior_key, const EngineConfig &engine,
           SchedPolicy policy)
{
    const EngineConfig defaults;
    std::string label = behavior_key + "/" + schemeName(engine.scheme) +
                        "/w" + std::to_string(engine.numWindows) + "/" +
                        policyName(policy);
    if (engine.prwReclaim != defaults.prwReclaim)
        label += std::string("/prw=") + prwReclaimName(engine.prwReclaim);
    if (engine.allocPolicy != defaults.allocPolicy)
        label += std::string("/alloc=") + allocPolicyName(engine.allocPolicy);
    return label;
}

/** Merge one finished point's obs record: the engine's counters plus
 *  the schedule statistics of the core that drove it. */
void
publishPoint(const std::string &label, const WindowEngine &engine,
             const SchedCore &core)
{
    obs::PointRecord rec = obs::pointFromEngine(engine);
    obs::publishSchedCore(core, rec);
    metrics().mergePoint(label, rec);
}

/**
 * Replay one lockstep unit (>= 2 lanes) and write each lane's metrics
 * into @p results at the lane's miss index.
 */
void
runLockstepUnit(const std::vector<PlanPoint> &misses,
                const std::vector<std::size_t> &unit,
                std::vector<RunMetrics> &results)
{
    const PlanPoint &p0 = misses[unit[0]];
    const EventTrace &trace = cachedTrace(p0.behavior);
    const FlatTrace &flat = cachedFlatTrace(p0.behavior);
    std::vector<EngineConfig> configs;
    configs.reserve(unit.size());
    for (const std::size_t i : unit)
        configs.push_back(misses[i].engine);

    BatchedReplayDriver driver(trace, configs, p0.policy, &flat);
    driver.run();

    metrics().add("replay.batches", 1);
    metrics().add("replay.batched_points", unit.size());
    counterAtLeast("replay.batch_width", unit.size());
    ringPublish(obs::RingEventCode::ReplayBatch,
                static_cast<std::uint32_t>(unit.size()), 0);
    // Which follower pass the batch took (win/simd.h): the counter
    // records the widest tier any batch used this session, the ring
    // event every batch's tier and width. The driver reports the pass
    // it dispatched, not the ambient tier — the sharing schemes replay
    // lane by lane on every tier and must not claim a vector pass.
    const SimdTier tier = driver.simdPath();
    counterAtLeast("replay.simd_path",
                   static_cast<std::uint64_t>(tier));
    ringPublish(obs::RingEventCode::ReplaySimd,
                static_cast<std::uint32_t>(tier), unit.size());
    for (std::size_t lane = 0; lane < unit.size(); ++lane) {
        const PlanPoint &p = misses[unit[lane]];
        metrics().add("replay.points", 1);
        ringPublish(obs::RingEventCode::ReplayPoint,
                    static_cast<std::uint32_t>(p.engine.numWindows),
                    0);
        results[unit[lane]] = driver.metrics(lane);
        if (!obsEnabled())
            continue;
        // The exact publication replayPoint() performs per point. The
        // shared core's schedule statistics are what each of the K
        // per-point cores would have recorded (the schedules are
        // identical — that is what made the batch sound), so the
        // merged records stay bit-identical to an unbatched run.
        publishPoint(pointLabel(trace.key, p.engine, p.policy),
                     driver.engine(lane), driver.core());
    }
}

/**
 * Run every @p points entry not already in the store: capture the
 * traces (serially, before any fan-out), probe the result cache,
 * replay the misses on the worker pool, persist fresh results.
 */
void
executePoints(const std::vector<PlanPoint> &points)
{
    // Deduplicate against the store and within the batch, preserving
    // plan order so work claiming is deterministic.
    std::vector<PlanPoint> todo;
    std::vector<std::string> todoKeys;
    {
        std::set<std::string> batch;
        for (const PlanPoint &p : points) {
            const std::string key = pointConfigKey(p);
            if (!batch.insert(key).second)
                continue;
            if (storeFind(key))
                continue;
            todo.push_back(p);
            todoKeys.push_back(key);
        }
    }

    // Manifest coverage for every requested point, replayed or not
    // (a warm-cache run performs zero replays): the one stamping site.
    if (obsEnabled()) {
        for (const PlanPoint &p : points) {
            manifestNote("schemes", schemeName(p.engine.scheme));
            manifestNote("windows",
                         std::to_string(p.engine.numWindows));
            manifestNote("policies", policyName(p.policy));
        }
    }
    if (todo.empty())
        return;

    // Capture serially: the probe below keys on each trace's
    // checksum, and workers only ever hit the memo. The flat
    // images are deliberately NOT touched yet: a fully warm run must
    // resolve every point from the result store below without paying
    // a predecode or even an attach.
    for (const PlanPoint &p : todo)
        cachedTrace(p.behavior);

    const bool use_cache = g_cacheEnabled;
    std::vector<PlanPoint> misses;
    std::vector<std::string> missKeys;
    std::vector<std::string> missCacheKeys;
    for (std::size_t i = 0; i < todo.size(); ++i) {
        const PlanPoint &p = todo[i];
        const std::string cache_key = resultCacheKey(
            todoKeys[i], cachedTraceChecksum(p.behavior));
        RunMetrics m;
        if (use_cache && loadCachedResult(cache_key, m)) {
            storeInsert(todoKeys[i], std::move(m));
            metrics().add("cache.hit", 1);
            ringPublish(obs::RingEventCode::CacheHit, 0, 0);
            continue;
        }
        metrics().add("cache.miss", 1);
        ringPublish(obs::RingEventCode::CacheMiss, 0, 0);
        misses.push_back(p);
        missKeys.push_back(todoKeys[i]);
        missCacheKeys.push_back(cache_key);
    }
    if (misses.empty())
        return;

    // Only behaviors that actually replay need their flat images —
    // attach-or-predecode them on the shared worker pool, the same
    // pool the replay fan-out below uses.
    std::vector<BehaviorId> behaviors;
    {
        std::set<std::string> seen;
        for (const PlanPoint &p : misses)
            if (seen.insert(p.behavior.key()).second)
                behaviors.push_back(p.behavior);
    }
    const ParallelSweep pool(sweepJobs());
    pool.run(
        behaviors.size(),
        [&](std::size_t i) { cachedFlatTrace(behaviors[i]); },
        [&](std::size_t i) { return "flat " + behaviors[i].key(); });

    // Group the misses into lockstep batches: points sharing a
    // pointBatchKey (behavior, scheme, cost model, policy) follow
    // identical schedules and replay in one pass over the trace
    // (trace/replay_batch.h) — a cold fig11+fig12+fig13 run walks
    // each trace once per scheme instead of once per point. Width-1
    // units replay through replayPoint(): width-1 groups,
    // invariant-checking points, (scheme, policy) pairs the static
    // batch rule keeps at one lane (SNP/SP under WS/WSA: residency
    // there depends on the window count), every point of a
    // trace-recording run (the timeline observer is per-point only),
    // and every point when a test pins the cap to 0 or 1.
    const std::size_t cap = replayBatchCap();
    const bool batching = cap > 1 && !traceRequested();
    std::vector<std::vector<std::size_t>> units;
    if (batching) {
        std::map<std::string, std::vector<std::size_t>> groups;
        for (std::size_t i = 0; i < misses.size(); ++i) {
            if (misses[i].engine.checkInvariants ||
                !lockstepBatchable(misses[i].engine.scheme,
                                   misses[i].policy)) {
                units.push_back({i});
                continue;
            }
            groups[pointBatchKey(misses[i])].push_back(i);
        }
        for (auto &entry : groups) {
            const std::vector<std::size_t> &idx = entry.second;
            for (std::size_t at = 0; at < idx.size(); at += cap) {
                const std::size_t n = std::min(cap, idx.size() - at);
                units.emplace_back(idx.begin() +
                                       static_cast<std::ptrdiff_t>(at),
                                   idx.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           at + n));
            }
        }
    } else {
        for (std::size_t i = 0; i < misses.size(); ++i)
            units.push_back({i});
    }

    // Host span names: <behavior>/<scheme>/w<N>/<policy> per point,
    // <behavior>/<scheme>/<policy> x<lanes> per lockstep batch.
    const auto unitLabel = [&](std::size_t u) {
        const std::vector<std::size_t> &unit = units[u];
        const PlanPoint &p = misses[unit[0]];
        if (unit.size() == 1)
            return pointLabel(p.behavior.key(), p.engine, p.policy);
        return p.behavior.key() + "/" + schemeName(p.engine.scheme) +
               "/" + policyName(p.policy) + " x" +
               std::to_string(unit.size());
    };
    // Under obs, the replay wall time summed over the units of each
    // kind — host.replay.point_s for the width-1 units,
    // host.replay.batch_s for the lockstep batches — one sample per
    // kind that ran. Host timing, outside the determinism contract.
    using Clock = std::chrono::steady_clock;
    const bool timed = obsEnabled();
    const auto point_units = std::count_if(
        units.begin(), units.end(),
        [](const std::vector<std::size_t> &u) { return u.size() == 1; });
    std::atomic<std::int64_t> point_ns{0};
    std::atomic<std::int64_t> batch_ns{0};
    std::vector<RunMetrics> results(misses.size());
    pool.run(units.size(), [&](std::size_t u) {
        const std::vector<std::size_t> &unit = units[u];
        const Clock::time_point t0 = timed ? Clock::now()
                                           : Clock::time_point{};
        if (unit.size() == 1) {
            const PlanPoint &p = misses[unit[0]];
            results[unit[0]] =
                replayPoint(cachedTrace(p.behavior), p.engine,
                            p.policy, &cachedFlatTrace(p.behavior));
        } else {
            runLockstepUnit(misses, unit, results);
        }
        if (!timed)
            return;
        const std::int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count();
        (unit.size() == 1 ? point_ns : batch_ns) += ns;
    }, unitLabel);
    if (timed) {
        if (point_units > 0)
            metrics().sample("host.replay.point_s",
                             static_cast<double>(point_ns) * 1e-9);
        if (static_cast<std::size_t>(point_units) < units.size())
            metrics().sample("host.replay.batch_s",
                             static_cast<double>(batch_ns) * 1e-9);
    }
    for (std::size_t i = 0; i < misses.size(); ++i) {
        storeInsert(missKeys[i], std::move(results[i]));
        if (use_cache) {
            std::lock_guard<std::mutex> lock(g_storeMu);
            if (storeCachedResult(missCacheKeys[i],
                                  g_store.at(missKeys[i]))) {
                metrics().add("cache.store", 1);
                ringPublish(obs::RingEventCode::CacheStore, 0, 0);
            }
        }
    }
}

} // namespace

std::size_t
defaultReplayBatchCap()
{
    return effectiveSimdTier() == SimdTier::Avx2 ? 32 : 16;
}

void
setReplayBatchCapOverride(std::size_t cap)
{
    g_batchCapOverride.store(static_cast<long>(cap),
                             std::memory_order_relaxed);
}

void
clearReplayBatchCapOverride()
{
    g_batchCapOverride.store(-1, std::memory_order_relaxed);
}

void
clearPointResults()
{
    std::lock_guard<std::mutex> lock(g_storeMu);
    g_store.clear();
}

void
setResultCacheEnabled(bool enabled)
{
    g_cacheEnabled = enabled;
}

bool
resultCacheEnabled()
{
    return g_cacheEnabled;
}

void
setFlatCacheEnabled(bool enabled)
{
    g_flatCacheEnabled = enabled;
}

void
executePlan(const ExperimentPlan &plan)
{
    executePoints(plan.points());
}

const RunMetrics &
pointResult(const PlanPoint &point)
{
    const std::string key = pointConfigKey(point);
    if (const RunMetrics *hit = storeFind(key))
        return *hit;
    executePoints({point});
    std::lock_guard<std::mutex> lock(g_storeMu);
    return g_store.at(key);
}

namespace {

/** One behavior's trace with its payload checksum, memoized together. */
struct TraceSlot
{
    EventTrace trace;
    std::uint64_t checksum = 0;
};

/**
 * The spell workload (corpus and dictionaries) a capture of @p cfg
 * runs on. SpellWorkload::make reads only the vocabulary size, seed
 * and dictionary and corpus sizes, never the buffer sizes m and n, so
 * the six Table 1 behaviors share one workload; it is built once per
 * distinct tuple of those fields. Called under traceSlot's lock.
 */
const SpellWorkload &
spellWorkload(const SpellConfig &cfg)
{
    static std::map<std::tuple<int, std::uint64_t, std::size_t,
                               std::size_t>,
                    SpellWorkload>
        made;
    const auto key = std::make_tuple(cfg.vocabularyWords, cfg.seed,
                                     cfg.dictBytes, cfg.corpusBytes);
    auto it = made.find(key);
    if (it == made.end())
        it = made.emplace(key, SpellWorkload::make(cfg)).first;
    return it->second;
}

/**
 * The memo behind cachedTrace and cachedTraceChecksum. The lock is
 * held across a miss too, so a load or capture never races a lookup;
 * the executor still takes every miss before it fans out, and std::map
 * node references stay valid across inserts.
 */
const TraceSlot &
traceSlot(const BehaviorId &behavior)
{
    static std::mutex mu;
    static std::map<std::string, TraceSlot> cache;
    const std::string key = behavior.key();

    // Spell behaviors stamp their corpus size into the trace file
    // name and header; synthetic traces carry no corpus (c0).
    const bool is_spell = behavior.kind == BehaviorId::Kind::Spell;
    const SpellConfig cfg =
        is_spell ? behaviorConfig(behavior.conc, behavior.gran)
                 : SpellConfig{};
    const std::uint64_t seed = behavior.seed();
    const std::uint64_t corpus_bytes = is_spell ? cfg.corpusBytes : 0;
    if (obsEnabled()) {
        manifestNote("behaviors", key);
        manifestNote("seed", std::to_string(seed));
    }

    std::lock_guard<std::mutex> lock(mu);
    const auto hit = cache.find(key);
    if (hit != cache.end())
        return hit->second;
    const std::string path = outputPath(
        "traces/" + key + "-s" + std::to_string(seed) + "-c" +
        std::to_string(corpus_bytes) + ".trace");

    // A loaded trace brings the checksum its load just verified; only
    // a fresh capture or generation is hashed here.
    TraceSlot slot;
    std::string err;
    if (loadTraceFile(path, slot.trace, &err)) {
        if (slot.trace.key == key && slot.trace.seed == seed &&
            slot.trace.corpusBytes == corpus_bytes) {
            slot.checksum = slot.trace.fileChecksum;
            return cache.emplace(key, std::move(slot)).first->second;
        }
        std::cerr << "note: " << path
                  << " is for a different workload; re-capturing\n";
    }

    if (is_spell) {
        slot.trace = captureSpellTrace(spellWorkload(cfg), cfg);
    } else {
        slot.trace = generateSynthTrace(behavior.synth);
    }
    slot.checksum = traceChecksum(slot.trace);
    if (!saveTraceFile(slot.trace, path, &err))
        std::cerr << "warning: could not cache trace at " << path
                  << ": " << err << '\n';
    return cache.emplace(key, std::move(slot)).first->second;
}

/** Attach the behavior's stored flat image, else predecode it (and,
 *  with the flat store on, save the result). */
FlatTrace
loadOrBuildFlat(const BehaviorId &behavior)
{
    const TraceSlot &slot = traceSlot(behavior);
    const std::uint64_t checksum = slot.checksum;
    const bool use_store = g_flatCacheEnabled;
    const std::string path =
        use_store ? outputPath("flat/" + flatTraceFileName(checksum))
                  : std::string();

    // Warm path: attach the predecoded image straight off disk. Any
    // validation failure (absent file, stale version, damage, or
    // thread and stream counts that are not the trace's) silently
    // falls through to an in-memory rebuild.
    if (use_store) {
        FlatTrace attached;
        if (loadFlatTrace(path, checksum, attached) &&
            attached.threads.size() == slot.trace.threads.size() &&
            attached.streamCount == slot.trace.streams.size()) {
            metrics().add("flat.attach", 1);
            ringPublish(obs::RingEventCode::FlatAttach, 0, checksum);
            return attached;
        }
    }
    FlatTrace flat = FlatTrace::build(slot.trace);
    metrics().add("flat.predecode", 1);
    ringPublish(obs::RingEventCode::FlatPredecode, 0, checksum);
    if (!use_store)
        return flat;
    std::string err;
    if (saveFlatTrace(flat, checksum, path, &err)) {
        metrics().add("flat.store", 1);
        ringPublish(obs::RingEventCode::FlatStore, 0, checksum);
    } else {
        std::cerr << "warning: could not store flat trace at " << path
                  << ": " << err << '\n';
    }
    return flat;
}

} // namespace

const EventTrace &
cachedTrace(const BehaviorId &behavior)
{
    return traceSlot(behavior).trace;
}

const EventTrace &
cachedTrace(ConcurrencyLevel conc, GranularityLevel gran)
{
    return cachedTrace(BehaviorId::spell(conc, gran));
}

const FlatTrace &
cachedFlatTrace(const BehaviorId &behavior)
{
    // Probed from sweep workers. The lock guards only the map (node
    // references stay valid across inserts); each image is attached
    // or built under its own once-flag, so distinct behaviors
    // predecode concurrently and a second request for one behavior
    // waits for the first instead of building it again.
    struct FlatSlot
    {
        std::once_flag once;
        FlatTrace flat;
    };
    static std::mutex mu;
    static std::map<std::string, FlatSlot> cache;
    FlatSlot *slot = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu);
        slot = &cache[behavior.key()];
    }
    std::call_once(slot->once,
                   [&] { slot->flat = loadOrBuildFlat(behavior); });
    return slot->flat;
}

const FlatTrace &
cachedFlatTrace(ConcurrencyLevel conc, GranularityLevel gran)
{
    return cachedFlatTrace(BehaviorId::spell(conc, gran));
}

std::uint64_t
cachedTraceChecksum(const BehaviorId &behavior)
{
    return traceSlot(behavior).checksum;
}

std::uint64_t
cachedTraceChecksum(ConcurrencyLevel conc, GranularityLevel gran)
{
    return cachedTraceChecksum(BehaviorId::spell(conc, gran));
}

RunMetrics
replayPoint(const EventTrace &trace, const EngineConfig &engine,
            SchedPolicy policy, const FlatTrace *flat)
{
    metrics().add("replay.points", 1);
    ringPublish(obs::RingEventCode::ReplayPoint,
                static_cast<std::uint32_t>(engine.numWindows), 0);
    ReplayDriver driver(trace, engine, policy, flat);
    if (!obsEnabled()) {
        driver.run();
        return driver.metrics();
    }

    const std::string label = pointLabel(trace.key, engine, policy);

    // Timeline recording is bounded to the paper's headline window
    // count so a full sweep doesn't emit one track per point. An
    // installed observer sends the point through the oracle loop
    // (observers are oracle-only); every other point keeps the flat
    // loop.
    obs::EngineTimeline timeline(label, traceSpanLimit());
    const bool record = traceRequested() && engine.numWindows == 8;
    if (record)
        driver.engine().setObserver(&timeline);
    driver.run();
    if (record) {
        driver.engine().setObserver(nullptr);
        traceWriter().addTrack(timeline.take());
    }

    publishPoint(label, driver.engine(), driver.core());
    return driver.metrics();
}

const std::vector<int> &
defaultWindowSweep()
{
    static const std::vector<int> kSweep = {4,  5,  6,  7,  8,  10, 12,
                                            16, 20, 24, 28, 32};
    return kSweep;
}

const std::vector<SchemeKind> &
evaluatedSchemes()
{
    static const std::vector<SchemeKind> kSchemes = {
        SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP};
    return kSchemes;
}

SchemeSweep
sweepSchemes(const BehaviorId &behavior, SchedPolicy policy,
             const std::vector<int> &windows)
{
    const std::vector<SchemeKind> &schemes = evaluatedSchemes();

    std::vector<PlanPoint> pts;
    pts.reserve(schemes.size() * windows.size());
    for (const SchemeKind scheme : schemes)
        for (const int w : windows)
            pts.push_back(makePlanPoint(behavior, scheme, w, policy));
    executePoints(pts);

    SchemeSweep sweep;
    sweep.windows = windows;
    sweep.bySchemeByWindow.assign(
        schemes.size(), std::vector<RunMetrics>(windows.size()));
    for (std::size_t si = 0; si < schemes.size(); ++si)
        for (std::size_t wi = 0; wi < windows.size(); ++wi)
            sweep.bySchemeByWindow[si][wi] = pointResult(
                makePlanPoint(behavior, schemes[si], windows[wi],
                              policy));
    return sweep;
}

SchemeSweep
sweepSchemes(ConcurrencyLevel conc, GranularityLevel gran,
             SchedPolicy policy, const std::vector<int> &windows)
{
    return sweepSchemes(BehaviorId::spell(conc, gran), policy,
                        windows);
}

void
emitSweepPanel(const std::string &title, const std::string &yLabel,
               const SchemeSweep &sweep,
               double (*metric)(const RunMetrics &),
               const std::string &csvName)
{
    std::vector<std::string> headers{"windows"};
    for (const SchemeKind s : evaluatedSchemes())
        headers.emplace_back(schemeName(s));
    Table table(std::move(headers));

    AsciiChart chart(title, "number of windows", yLabel);
    chart.setYFromZero(true);

    for (std::size_t si = 0; si < evaluatedSchemes().size(); ++si) {
        ChartSeries series;
        series.name = schemeName(evaluatedSchemes()[si]);
        for (std::size_t wi = 0; wi < sweep.windows.size(); ++wi) {
            series.xs.push_back(sweep.windows[wi]);
            series.ys.push_back(metric(sweep.at(si, wi)));
        }
        chart.addSeries(std::move(series));
    }
    for (std::size_t wi = 0; wi < sweep.windows.size(); ++wi) {
        std::vector<std::string> row{
            std::to_string(sweep.windows[wi])};
        for (std::size_t si = 0; si < evaluatedSchemes().size(); ++si)
            row.push_back(formatDouble(metric(sweep.at(si, wi)), 4));
        table.addRow(std::move(row));
    }
    emitFigure(title, "number of windows", yLabel, table, chart,
               csvName);
}

} // namespace bench
} // namespace crw
