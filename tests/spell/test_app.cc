/**
 * @file
 * Integration tests of the full 7-thread spell-check pipeline.
 */

#include <gtest/gtest.h>

#include "spell/app.h"
#include "spell/capture.h"
#include "trace/behavior.h"

namespace crw {
namespace {

RuntimeConfig
rtConfig(SchemeKind scheme, int windows,
         SchedPolicy policy = SchedPolicy::Fifo)
{
    RuntimeConfig cfg;
    cfg.engine.numWindows = windows;
    cfg.engine.scheme = scheme;
    cfg.engine.checkInvariants = false; // full runs are large
    cfg.policy = policy;
    return cfg;
}

SpellConfig
smallConfig(std::size_t m, std::size_t n)
{
    SpellConfig cfg;
    cfg.m = m;
    cfg.n = n;
    cfg.corpusBytes = 4000; // keep unit runs fast
    cfg.dictBytes = 5000;
    cfg.vocabularyWords = 700;
    return cfg;
}

TEST(SpellApp, BehaviorConfigsMatchPaperBufferSizes)
{
    const auto hc_fine = behaviorConfig(ConcurrencyLevel::High,
                                        GranularityLevel::Fine);
    EXPECT_EQ(hc_fine.m, 1u);
    EXPECT_EQ(hc_fine.n, 1u);
    const auto hc_med = behaviorConfig(ConcurrencyLevel::High,
                                       GranularityLevel::Medium);
    EXPECT_EQ(hc_med.m, 4u);
    const auto hc_coarse = behaviorConfig(ConcurrencyLevel::High,
                                          GranularityLevel::Coarse);
    EXPECT_EQ(hc_coarse.m, 16u);
    const auto lc_fine = behaviorConfig(ConcurrencyLevel::Low,
                                        GranularityLevel::Fine);
    EXPECT_EQ(lc_fine.m, 1024u);
    EXPECT_EQ(lc_fine.n, 1u);
}

TEST(SpellApp, WorkloadIsDeterministicAndSized)
{
    const SpellConfig cfg = smallConfig(1, 1);
    const auto a = SpellWorkload::make(cfg);
    const auto b = SpellWorkload::make(cfg);
    EXPECT_EQ(a.corpus, b.corpus);
    EXPECT_EQ(a.mainDictText, b.mainDictText);
    EXPECT_EQ(a.stopDictText, b.stopDictText);
    EXPECT_LE(a.mainDictText.size(), cfg.dictBytes);
    EXPECT_GT(a.mainDictText.size(), cfg.dictBytes * 8 / 10);
    EXPECT_LE(a.stopDictText.size(), cfg.dictBytes);
    EXPECT_GT(a.stopDictText.size(), cfg.dictBytes * 8 / 10);
}

TEST(SpellApp, PipelineCompletesAndFlagsSomething)
{
    const SpellConfig cfg = smallConfig(4, 4);
    const auto wl = SpellWorkload::make(cfg);
    Runtime rt(rtConfig(SchemeKind::SP, 12));
    SpellApp app(rt, wl, cfg);
    rt.run();
    const auto &rep = app.report();
    EXPECT_GT(rep.wordsFromDelatex, 300u);
    EXPECT_GT(rep.misspelled.size(), 0u);
    // Only a small fraction of words should be flagged.
    EXPECT_LT(rep.misspelled.size(), rep.wordsFromDelatex / 4);
}

TEST(SpellApp, ResultIndependentOfSchemeAndWindows)
{
    // The window-management scheme must never change the computation,
    // only its cost.
    const SpellConfig cfg = smallConfig(2, 2);
    const auto wl = SpellWorkload::make(cfg);

    std::vector<std::string> reference;
    std::uint64_t ref_words = 0;
    bool first = true;
    for (SchemeKind scheme :
         {SchemeKind::SP, SchemeKind::SNP, SchemeKind::NS,
          SchemeKind::Infinite}) {
        for (int windows : {4, 8, 32}) {
            if (scheme != SchemeKind::NS && windows < 3)
                continue;
            Runtime rt(rtConfig(scheme, windows));
            SpellApp app(rt, wl, cfg);
            rt.run();
            if (first) {
                reference = app.report().misspelled;
                ref_words = app.report().wordsFromDelatex;
                first = false;
            } else {
                EXPECT_EQ(app.report().misspelled, reference)
                    << schemeName(scheme) << " w=" << windows;
                EXPECT_EQ(app.report().wordsFromDelatex, ref_words);
            }
        }
    }
    EXPECT_FALSE(reference.empty());
}

TEST(SpellApp, SaveCountIndependentOfBufferSizes)
{
    // Paper Table 1: "the dynamic count of save instructions is
    // independent of the buffer size and scheduling strategy".
    const auto count_saves = [](std::size_t m, std::size_t n,
                                SchedPolicy policy) {
        SpellConfig cfg = smallConfig(m, n);
        const auto wl = SpellWorkload::make(cfg);
        Runtime rt(rtConfig(SchemeKind::SP, 16, policy));
        SpellApp app(rt, wl, cfg);
        rt.run();
        return rt.engine().stats().counterValue("saves");
    };
    const auto fine = count_saves(1, 1, SchedPolicy::Fifo);
    EXPECT_EQ(fine, count_saves(16, 16, SchedPolicy::Fifo));
    EXPECT_EQ(fine, count_saves(1024, 4, SchedPolicy::Fifo));
    EXPECT_EQ(fine, count_saves(1, 1, SchedPolicy::WorkingSet));
}

TEST(SpellApp, ThreadScriptsIndependentOfBufferSizes)
{
    // The captured scripts record each thread's calls, charges and
    // stream operations, none of which depend on the stream
    // capacities: the m/n buffer sizes change only the stream table
    // (and with it the replayed schedule), never a thread's code.
    const auto capture = [](std::size_t m, std::size_t n) {
        const SpellConfig cfg = smallConfig(m, n);
        return captureSpellTrace(SpellWorkload::make(cfg), cfg);
    };
    const EventTrace fine = capture(1, 1);
    const EventTrace coarse = capture(1024, 16);
    ASSERT_EQ(fine.threads.size(), coarse.threads.size());
    for (std::size_t i = 0; i < fine.threads.size(); ++i) {
        EXPECT_EQ(fine.threads[i].name, coarse.threads[i].name);
        EXPECT_EQ(fine.threads[i].code, coarse.threads[i].code)
            << fine.threads[i].name;
    }
    ASSERT_EQ(fine.streams.size(), coarse.streams.size());
    bool capacities_differ = false;
    for (std::size_t i = 0; i < fine.streams.size(); ++i)
        capacities_differ |=
            fine.streams[i].capacity != coarse.streams[i].capacity;
    EXPECT_TRUE(capacities_differ);
}

TEST(SpellApp, FinerGranularityMeansMoreSwitches)
{
    const auto count_switches = [](std::size_t m, std::size_t n) {
        SpellConfig cfg = smallConfig(m, n);
        const auto wl = SpellWorkload::make(cfg);
        Runtime rt(rtConfig(SchemeKind::SP, 16));
        SpellApp app(rt, wl, cfg);
        rt.run();
        return rt.engine().stats().counterValue("switches");
    };
    const auto fine = count_switches(1, 1);
    const auto medium = count_switches(4, 4);
    const auto coarse = count_switches(16, 16);
    EXPECT_GT(fine, medium);
    EXPECT_GT(medium, coarse);
}

TEST(SpellApp, LowConcurrencyReducesMeasuredConcurrency)
{
    const auto measure = [](std::size_t m, std::size_t n) {
        SpellConfig cfg = smallConfig(m, n);
        const auto wl = SpellWorkload::make(cfg);
        Runtime rt(rtConfig(SchemeKind::SP, 16));
        BehaviorTracker tracker(32);
        rt.engine().setObserver(&tracker);
        SpellApp app(rt, wl, cfg);
        rt.run();
        tracker.finish();
        return tracker.concurrency().mean();
    };
    const double high = measure(2, 2);
    const double low = measure(1024, 2);
    EXPECT_GT(high, low);
}

TEST(SpellApp, StopListCatchesBadDerivatives)
{
    // Hand-built miniature: corpus contains a stop-listed derivative.
    SpellConfig cfg = smallConfig(4, 4);
    SpellWorkload wl;
    wl.corpus = "alpha beta betaly gamma\n";
    wl.mainDictText = "alpha\nbeta\ngamma\n";
    wl.stopDictText = "betaly\n";
    Runtime rt(rtConfig(SchemeKind::SP, 12));
    SpellApp app(rt, wl, cfg);
    rt.run();
    // betaly: stop-listed -> flagged by T2 even though T3 would have
    // accepted it as beta+ly.
    ASSERT_EQ(app.report().misspelled.size(), 1u);
    EXPECT_EQ(app.report().misspelled[0], "betaly");
}

TEST(SpellApp, UnknownWordsReachOutput)
{
    SpellConfig cfg = smallConfig(4, 4);
    SpellWorkload wl;
    wl.corpus = "alpha qqzt beta\n";
    wl.mainDictText = "alpha\nbeta\n";
    wl.stopDictText = "unused\n";
    Runtime rt(rtConfig(SchemeKind::SP, 12));
    SpellApp app(rt, wl, cfg);
    rt.run();
    ASSERT_EQ(app.report().misspelled.size(), 1u);
    EXPECT_EQ(app.report().misspelled[0], "qqzt");
}

TEST(SpellApp, ThreadLabels)
{
    EXPECT_STREQ(SpellApp::threadLabel(1), "T1 (delatex)");
    EXPECT_STREQ(SpellApp::threadLabel(7), "T7 (dict2)");
}

} // namespace
} // namespace crw
