/**
 * @file
 * The microtrace exhibit's walk table (bench/microtrace.h): the table
 * is independent of the worker count, a lockstep walk gives every
 * lane exactly the cycles of the inline single-engine walk loop (kept
 * here as the oracle) at every follower tier, and three cells stay
 * pinned to the cycle counts the inline loop produced. Those tests
 * run with the result cache off so they exercise the live pool.
 *
 * The walk| records in the result store: a cold run stores every
 * cell and a second run replays nothing; a disabled cache neither
 * reads nor writes; a damaged record is counted and its group
 * re-walked; one missing cell re-walks its group and rewrites no
 * other record; every result-affecting field is in the key; and
 * `crw-bench cache --gc` keeps exactly the keys the current table
 * produces. */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "bench/harness.h"
#include "bench/microtrace.h"
#include "bench/result_cache.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "store/record_store.h"
#include "tests/win/engine_test_util.h"
#include "tests/win/simd_test_util.h"
#include "win/engine.h"

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
        "CRW_RESULT_STORE=bench_out/results/test-walk-%d.crwstore",
        static_cast<int>(::getpid()));
    ::putenv(env);
    return true;
}();

/** The result cache off for one scope: every cell replays live. */
class ScopedCacheOff
{
  public:
    ScopedCacheOff() { setResultCacheEnabled(false); }
    ~ScopedCacheOff() { setResultCacheEnabled(true); }
};

constexpr std::uint64_t kStepsPerWalk =
    static_cast<std::uint64_t>(kWalkQuanta) * kWalkStepsPerQuantum;

/** Drop every walk record the exhibit's table reads. */
void
eraseWalkRecords()
{
    for (const std::string &key : WalkTable::keys())
        resultStore().erase(key);
}

std::string
exhibitCellKey(SchemeKind scheme, int windows, int max_depth)
{
    WalkSpec spec;
    spec.maxDepth = max_depth;
    return walkCacheKey(spec, walkEngineConfig(scheme, windows));
}

/** The inline walk loop: draws each decision while driving the
 *  engine, one shared Rng across the round-robin threads. */
std::unique_ptr<WindowEngine>
oracleWalk(const WalkSpec &spec, SchemeKind scheme, int windows)
{
    auto owned =
        std::make_unique<WindowEngine>(walkEngineConfig(scheme, windows));
    WindowEngine &engine = *owned;
    Rng rng(spec.seed);

    std::vector<int> depth(static_cast<std::size_t>(spec.threads), 1);
    for (ThreadId t = 0; t < spec.threads; ++t)
        engine.addThread(t);

    ThreadId current = 0;
    engine.contextSwitch(current);
    for (int q = 0; q < spec.quanta; ++q) {
        int &d = depth[static_cast<std::size_t>(current)];
        for (int s = 0; s < spec.stepsPerQuantum; ++s) {
            const bool up =
                d <= 1 || (d < spec.maxDepth && rng.nextBool(0.5));
            if (up) {
                engine.save();
                ++d;
            } else {
                engine.restore();
                --d;
            }
            engine.charge(kWalkStepCharge);
        }
        const ThreadId next =
            static_cast<ThreadId>((current + 1) % spec.threads);
        engine.contextSwitch(next);
        current = next;
    }
    return owned;
}

TEST(Microtrace, TableIdenticalAcrossJobCounts)
{
    const ScopedCacheOff off;
    const WalkTable serial = WalkTable::run(1);
    const WalkTable pooled = WalkTable::run(4);
    const std::size_t cells = evaluatedSchemes().size() *
                              defaultWindowSweep().size() *
                              std::size(kWalkDepths);
    ASSERT_EQ(cells, 72u);
    ASSERT_EQ(serial.cells().size(), cells);
    ASSERT_EQ(pooled.cells().size(), cells);
    for (std::size_t i = 0; i < cells; ++i) {
        const WalkCell &a = serial.cells()[i];
        const WalkCell &b = pooled.cells()[i];
        EXPECT_EQ(a.scheme, b.scheme) << "cell " << i;
        EXPECT_EQ(a.windows, b.windows) << "cell " << i;
        EXPECT_EQ(a.maxDepth, b.maxDepth) << "cell " << i;
        EXPECT_EQ(a.cycles, b.cycles) << "cell " << i;
    }
    EXPECT_EQ(serial.steps(), cells * kStepsPerWalk);
    EXPECT_EQ(pooled.steps(), serial.steps());
}

TEST(Microtrace, LockstepWalkMatchesInlineWalkAtEveryTier)
{
    // Small shapes: odd thread counts and quantum lengths, and depth
    // bounds on both sides of the smallest window file. The walk
    // supplies its own script tallies, so every counter is compared,
    // not only the clock: a swapped save and restore count would
    // leave the clock as it was.
    const std::vector<int> &windows = defaultWindowSweep();
    ASSERT_EQ(windows.size(), 12u);
    for (const int max_depth : {2, 5, 9}) {
        WalkSpec spec;
        spec.maxDepth = max_depth;
        spec.threads = 3;
        spec.stepsPerQuantum = 37;
        spec.quanta = 150;
        spec.seed = 7;
        for (const SchemeKind scheme : evaluatedSchemes()) {
            std::vector<std::unique_ptr<WindowEngine>> oracle;
            for (const int w : windows)
                oracle.push_back(oracleWalk(spec, scheme, w));
            for (const SimdTier tier : hostTiers()) {
                const ScopedTier pin(tier);
                const auto lanes = walkLockstep(spec, scheme, windows);
                ASSERT_EQ(lanes.size(), windows.size());
                for (std::size_t l = 0; l < windows.size(); ++l)
                    expectEnginesIdentical(
                        *lanes[l], *oracle[l], {0, 1, 2},
                        std::string(simdTierName(tier)) + " " +
                            schemeName(scheme) + " w" +
                            std::to_string(windows[l]) + " d" +
                            std::to_string(max_depth));
            }
        }
    }
}

TEST(Microtrace, CellsPinnedToInlineWalkCycles)
{
    // Recorded with the inline walk loop before the table existed.
    const ScopedCacheOff off;
    const WalkTable table = WalkTable::run(4);
    EXPECT_EQ(table.cycles(SchemeKind::SP, 32, 4), 12887978u);
    EXPECT_EQ(table.cycles(SchemeKind::SP, 32, 8), 13670027u);
    EXPECT_EQ(table.cycles(SchemeKind::NS, 4, 8), 22920053u);
}

TEST(MicrotraceStore, ColdRunStoresEveryCellWarmRunReplaysNone)
{
    eraseWalkRecords();
    const std::uint64_t hit0 = metrics().counterValue("cache.hit");
    const std::uint64_t miss0 = metrics().counterValue("cache.miss");
    const std::uint64_t store0 = metrics().counterValue("cache.store");

    const WalkTable cold = WalkTable::run(4);
    ASSERT_EQ(cold.cells().size(), 72u);
    EXPECT_EQ(cold.cached(), 0u);
    EXPECT_EQ(cold.steps(), 72u * kStepsPerWalk);
    std::size_t stored = 0;
    for (const std::string &key : WalkTable::keys()) {
        Cycles c = 0;
        stored += loadCachedCycles(key, c) ? 1 : 0;
    }
    EXPECT_EQ(stored, 72u);

    const WalkTable warm = WalkTable::run(4);
    EXPECT_EQ(warm.steps(), 0u);
    EXPECT_EQ(warm.cached(), 72u);
    ASSERT_EQ(warm.cells().size(), cold.cells().size());
    for (std::size_t i = 0; i < cold.cells().size(); ++i) {
        EXPECT_EQ(warm.cells()[i].scheme, cold.cells()[i].scheme);
        EXPECT_EQ(warm.cells()[i].windows, cold.cells()[i].windows);
        EXPECT_EQ(warm.cells()[i].maxDepth, cold.cells()[i].maxDepth);
        EXPECT_EQ(warm.cells()[i].cycles, cold.cells()[i].cycles)
            << "cell " << i;
    }

    // The point-result counters belong to the plan alone.
    EXPECT_EQ(metrics().counterValue("cache.hit"), hit0);
    EXPECT_EQ(metrics().counterValue("cache.miss"), miss0);
    EXPECT_EQ(metrics().counterValue("cache.store"), store0);
}

TEST(MicrotraceStore, DisabledCacheNeitherReadsNorWrites)
{
    eraseWalkRecords();
    const std::string planted = exhibitCellKey(SchemeKind::SP, 32, 4);
    ASSERT_TRUE(storeCachedCycles(planted, 1));
    {
        const ScopedCacheOff off;
        const WalkTable table = WalkTable::run(4);
        EXPECT_EQ(table.cached(), 0u);
        EXPECT_EQ(table.steps(), 72u * kStepsPerWalk);
        EXPECT_EQ(table.cycles(SchemeKind::SP, 32, 4), 12887978u);
    }
    Cycles c = 0;
    ASSERT_TRUE(loadCachedCycles(planted, c));
    EXPECT_EQ(c, 1u);
    for (const std::string &key : WalkTable::keys()) {
        if (key == planted)
            continue;
        EXPECT_FALSE(loadCachedCycles(key, c)) << key;
    }
}

TEST(MicrotraceStore, DamagedRecordIsCountedAndReplayed)
{
    WalkTable::run(4); // every cell now in the store

    // Flip one payload byte of SP/w32/d4 through the file (the
    // store's mapping is MAP_SHARED), and give NS/w4/d8 a blob of
    // the wrong length.
    const std::string flipped = exhibitCellKey(SchemeKind::SP, 32, 4);
    std::vector<std::uint8_t> blob;
    std::uint64_t offset = 0;
    ASSERT_EQ(resultStore().find(flipped, blob, &offset),
              store::RecordStore::FindResult::Hit);
    {
        std::fstream f(resultStorePath(),
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        const auto at = static_cast<std::streamoff>(offset) + 8 +
                        static_cast<std::streamoff>(flipped.size());
        f.seekg(at);
        char ch = 0;
        f.get(ch);
        f.seekp(at);
        f.put(static_cast<char>(ch ^ 0x5A));
    }
    const std::string short_blob = exhibitCellKey(SchemeKind::NS, 4, 8);
    ASSERT_TRUE(resultStore().put(short_blob, {1, 2, 3, 4}));

    const std::uint64_t corrupt0 = metrics().counterValue("cache.corrupt");
    const WalkTable table = WalkTable::run(4);
    EXPECT_EQ(metrics().counterValue("cache.corrupt"), corrupt0 + 2);
    EXPECT_EQ(table.cached(), 70u);
    // The two damaged cells sit in two (depth, scheme) groups, and a
    // group with a miss walks all 12 of its lanes.
    EXPECT_EQ(table.steps(), 24u * kStepsPerWalk);
    EXPECT_EQ(table.cycles(SchemeKind::SP, 32, 4), 12887978u);
    EXPECT_EQ(table.cycles(SchemeKind::NS, 4, 8), 22920053u);

    // The re-run stored the cells back.
    const WalkTable healed = WalkTable::run(4);
    EXPECT_EQ(healed.cached(), 72u);
    EXPECT_EQ(healed.steps(), 0u);
}

TEST(MicrotraceStore, MissingCellRewalksItsGroupAndRewritesNothingElse)
{
    WalkTable::run(4); // every cell now in the store
    const std::vector<std::string> keys = WalkTable::keys();
    std::vector<std::uint64_t> offsets(keys.size());
    std::vector<std::uint8_t> blob;
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(resultStore().find(keys[i], blob, &offsets[i]),
                  store::RecordStore::FindResult::Hit)
            << keys[i];

    const std::string erased = exhibitCellKey(SchemeKind::SP, 32, 4);
    ASSERT_TRUE(resultStore().erase(erased));
    const WalkTable table = WalkTable::run(4);
    EXPECT_EQ(table.cached(), 71u);
    EXPECT_EQ(table.steps(), 12u * kStepsPerWalk);
    EXPECT_EQ(table.cycles(SchemeKind::SP, 32, 4), 12887978u);

    // Only the missed cell is stored back: a re-put record moves to a
    // fresh offset, so every other record, its own group's lanes
    // included, must sit where it was.
    for (std::size_t i = 0; i < keys.size(); ++i) {
        std::uint64_t offset = 0;
        ASSERT_EQ(resultStore().find(keys[i], blob, &offset),
                  store::RecordStore::FindResult::Hit)
            << keys[i];
        if (keys[i] != erased) {
            EXPECT_EQ(offset, offsets[i]) << keys[i];
        }
    }
}

TEST(MicrotraceStore, KeyNamesEveryResultAffectingField)
{
    const WalkSpec spec;
    const EngineConfig cfg = walkEngineConfig(SchemeKind::SP, 8);
    const std::string base = walkCacheKey(spec, cfg);
    EXPECT_EQ(base.rfind(kWalkKeyPrefix, 0), 0u);
    EXPECT_NE(base.find("|c" + std::to_string(kWalkStepCharge) + "|"),
              std::string::npos);
    EXPECT_NE(base.find("|v" + std::to_string(kWalkFormatVersion)),
              std::string::npos);

    std::set<std::string> seen{base};
    auto expectNew = [&](const std::string &key, const char *what) {
        EXPECT_TRUE(seen.insert(key).second) << what << ": " << key;
    };
    WalkSpec s = spec;
    s.maxDepth = 8;
    expectNew(walkCacheKey(s, cfg), "depth");
    s = spec;
    s.threads = 3;
    expectNew(walkCacheKey(s, cfg), "threads");
    s = spec;
    s.stepsPerQuantum = 37;
    expectNew(walkCacheKey(s, cfg), "steps per quantum");
    s = spec;
    s.quanta = 150;
    expectNew(walkCacheKey(s, cfg), "quanta");
    s = spec;
    s.seed = 7;
    expectNew(walkCacheKey(s, cfg), "seed");
    expectNew(walkCacheKey(spec, walkEngineConfig(SchemeKind::NS, 8)),
              "scheme");
    expectNew(walkCacheKey(spec, walkEngineConfig(SchemeKind::SP, 9)),
              "windows");
    EngineConfig cost = cfg;
    cost.cost.transferSave += 1;
    expectNew(walkCacheKey(spec, cost), "cost model");

    const std::vector<std::string> keys = WalkTable::keys();
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
              72u);
}

TEST(MicrotraceStore, GcKeepsOnlyCurrentWalkKeys)
{
    const std::set<std::uint64_t> live{0x1234};
    for (const std::string &key : WalkTable::keys())
        EXPECT_TRUE(gcKeepsRecord(key, live)) << key;

    WalkSpec old_spec;
    old_spec.seed = kWalkSeed + 1;
    EXPECT_FALSE(gcKeepsRecord(
        walkCacheKey(old_spec, walkEngineConfig(SchemeKind::SP, 8)),
        live));
    EngineConfig old_cost = walkEngineConfig(SchemeKind::SP, 8);
    old_cost.cost.transferSave += 1;
    EXPECT_FALSE(gcKeepsRecord(walkCacheKey(WalkSpec(), old_cost), live));
    std::string old_version = exhibitCellKey(SchemeKind::SP, 8, 4);
    old_version += "0"; // v<N> -> v<N>0, a version never produced
    EXPECT_FALSE(gcKeepsRecord(old_version, live));

    // Point records are still judged by their trace checksum.
    EXPECT_TRUE(gcKeepsRecord(resultCacheKey("SP|w8", 0x1234), live));
    EXPECT_FALSE(gcKeepsRecord(resultCacheKey("SP|w8", 0x9999), live));
}

} // namespace
} // namespace bench
} // namespace crw
