/**
 * @file
 * The microtrace exhibit's walk table (bench/microtrace.h): the table
 * is independent of the worker count, a recorded decision tape
 * replays to exactly the cycles of the inline walk loop it replaced
 * (kept here as the oracle), and three cells stay pinned to the
 * cycle counts the inline loop produced.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bench/executor.h"
#include "bench/microtrace.h"
#include "common/rng.h"
#include "win/engine.h"

namespace crw {
namespace bench {
namespace {

/** The inline walk loop: draws each decision while driving the
 *  engine, one shared Rng across the round-robin threads. */
Cycles
oracleWalk(const WalkSpec &spec, SchemeKind scheme, int windows)
{
    EngineConfig cfg;
    cfg.numWindows = windows;
    cfg.scheme = scheme;
    WindowEngine engine(cfg);
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
    return engine.now();
}

TEST(Microtrace, TableIdenticalAcrossJobCounts)
{
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
    const std::uint64_t steps_per_walk =
        static_cast<std::uint64_t>(kWalkQuanta) * kWalkStepsPerQuantum;
    EXPECT_EQ(serial.steps(), cells * steps_per_walk);
    EXPECT_EQ(pooled.steps(), serial.steps());
}

TEST(Microtrace, TapeReplayMatchesInlineWalk)
{
    // Small shapes: odd thread counts and quantum lengths, and depth
    // bounds on both sides of the smallest window file.
    for (const int max_depth : {2, 5, 9}) {
        WalkSpec spec;
        spec.maxDepth = max_depth;
        spec.threads = 3;
        spec.stepsPerQuantum = 37;
        spec.quanta = 150;
        spec.seed = 7;
        const WalkTape tape = recordWalk(spec);
        ASSERT_EQ(tape.up.size(), 150u * 37u);
        for (const SchemeKind scheme : evaluatedSchemes())
            for (const int w : {4, 7, 16})
                EXPECT_EQ(replayWalk(tape, scheme, w),
                          oracleWalk(spec, scheme, w))
                    << schemeName(scheme) << " w" << w << " d"
                    << max_depth;
    }
}

TEST(Microtrace, CellsPinnedToInlineWalkCycles)
{
    // Recorded with the inline walk loop before the table existed.
    const WalkTable table = WalkTable::run(4);
    EXPECT_EQ(table.cycles(SchemeKind::SP, 32, 4), 12887978u);
    EXPECT_EQ(table.cycles(SchemeKind::SP, 32, 8), 13670027u);
    EXPECT_EQ(table.cycles(SchemeKind::NS, 4, 8), 22920053u);
}

} // namespace
} // namespace bench
} // namespace crw
