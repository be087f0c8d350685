/**
 * @file
 * Script tallies (ScriptTallies, win/engine.h): the per-thread save
 * and restore counts and the charge sum that FlatTrace::build and a
 * loadFlatTrace attach count, and that the single-engine replay view
 * folds into the engine at the end of a run instead of per event.
 * They must equal a TraceCursor walk's on the small spell capture and
 * on a synthetic behavior, and an attach must count what build does.
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "spell/app.h"
#include "spell/capture.h"
#include "trace/event_trace.h"
#include "trace/flat_trace.h"
#include "trace/flat_trace_io.h"
#include "trace/synth.h"

namespace crw {
namespace {

EventTrace
smallSpellCapture()
{
    SpellConfig cfg;
    cfg.corpusBytes = 3000;
    cfg.dictBytes = 4000;
    cfg.vocabularyWords = 500;
    cfg.m = 1;
    cfg.n = 1;
    return captureSpellTrace(SpellWorkload::make(cfg), cfg);
}

/** A lock-contended fan-in/out behavior, so the scripts carry more
 *  than one shape of charge and call nesting. */
EventTrace
synthCapture()
{
    SynthSpec spec;
    spec.topology = SynthSpec::Topology::FanInOut;
    spec.threads = 5;
    spec.items = 150;
    spec.meanDepth = 6;
    spec.depthJitter = 4;
    spec.lockRounds = 10;
    spec.seed = 11;
    return generateSynthTrace(spec);
}

/** The tallies of @p trace, counted by a TraceCursor walk. */
ScriptTallies
cursorTallies(const EventTrace &trace)
{
    ScriptTallies t;
    for (const TraceThreadInfo &info : trace.threads) {
        std::uint64_t saves = 0;
        std::uint64_t restores = 0;
        TraceCursor cur(info.code);
        std::uint64_t operand = 0;
        while (!cur.atEnd()) {
            switch (cur.peek(operand)) {
              case TraceOp::Save: ++saves; break;
              case TraceOp::Restore: ++restores; break;
              case TraceOp::Charge: t.charges += operand; break;
              default: break;
            }
            cur.advance();
        }
        t.saves.push_back(saves);
        t.restores.push_back(restores);
    }
    return t;
}

void
expectTalliesEqual(const ScriptTallies &got, const ScriptTallies &want,
                   const std::string &ctx)
{
    EXPECT_EQ(got.saves, want.saves) << ctx;
    EXPECT_EQ(got.restores, want.restores) << ctx;
    EXPECT_EQ(got.charges, want.charges) << ctx;
}

TEST(ScriptTallies, BuildCountsWhatACursorWalkCounts)
{
    for (const EventTrace &trace : {smallSpellCapture(), synthCapture()}) {
        const ScriptTallies want = cursorTallies(trace);
        ASSERT_EQ(want.saves.size(), trace.threads.size());
        // Not vacuous: every capture saves, restores and charges.
        EXPECT_GT(want.charges, 0u) << trace.key;
        std::uint64_t saves = 0;
        for (const std::uint64_t s : want.saves)
            saves += s;
        EXPECT_GT(saves, 0u) << trace.key;
        expectTalliesEqual(FlatTrace::build(trace).tallies, want,
                           trace.key);
    }
}

TEST(ScriptTallies, AttachCountsWhatBuildCounts)
{
    for (const EventTrace &trace : {smallSpellCapture(), synthCapture()}) {
        const FlatTrace built = FlatTrace::build(trace);
        const std::uint64_t checksum = traceChecksum(trace);
        const std::string path =
            "tallies-test-" + std::to_string(static_cast<int>(::getpid())) +
            ".flat";
        std::string err;
        ASSERT_TRUE(saveFlatTrace(built, checksum, path, &err)) << err;
        FlatTrace loaded;
        ASSERT_TRUE(loadFlatTrace(path, checksum, loaded, &err)) << err;
        std::remove(path.c_str());
        ASSERT_TRUE(loaded.mapping.valid()) << trace.key;
        expectTalliesEqual(loaded.tallies, built.tallies, trace.key);
    }
}

} // namespace
} // namespace crw
