/**
 * @file
 * The paper's evaluation application end to end: the seven-thread
 * multi-threaded spell checker (§5.1) over the synthetic LaTeX corpus,
 * with every knob on the command line — scheme, window count, buffer
 * sizes (M/N = granularity/concurrency), scheduling policy.
 *
 * Example runs:
 *   spellcheck                           # SP, 8 windows, HC-fine
 *   spellcheck --scheme=NS               # the conventional scheme
 *   spellcheck --m=1024 --n=4            # low concurrency, medium
 *   spellcheck --policy=WS --windows=8   # §4.6 working-set scheduling
 */

#include <iostream>

#include "common/flags.h"
#include "common/logging.h"
#include "common/table.h"
#include "spell/app.h"
#include "trace/behavior.h"

using namespace crw;

int
main(int argc, char **argv)
{
    FlagSet flags;
    flags.defineString("scheme", "SP", "NS, SNP, SP or INF");
    flags.defineInt("windows", 8, "register windows (3-32)");
    flags.defineInt("m", 1, "buffer bytes for S1, S4-S6");
    flags.defineInt("n", 1, "buffer bytes for S2, S3");
    flags.defineString("policy", "FIFO", "FIFO or WS (working set)");
    flags.defineInt("corpus-bytes", 40500, "LaTeX corpus size");
    flags.defineBool("show-words", false, "print flagged words");
    if (!flags.parse(argc, argv))
        return 0;

    SpellConfig cfg;
    cfg.m = static_cast<std::size_t>(flags.getInt("m"));
    cfg.n = static_cast<std::size_t>(flags.getInt("n"));
    cfg.corpusBytes =
        static_cast<std::size_t>(flags.getInt("corpus-bytes"));
    const SpellWorkload workload = SpellWorkload::make(cfg);

    RuntimeConfig rc;
    const std::string scheme = flags.getString("scheme");
    rc.engine.scheme = scheme == "NS"    ? SchemeKind::NS
                       : scheme == "SNP" ? SchemeKind::SNP
                       : scheme == "INF" ? SchemeKind::Infinite
                                         : SchemeKind::SP;
    rc.engine.numWindows = static_cast<int>(flags.getInt("windows"));
    rc.policy = flags.getString("policy") == "WS"
                    ? SchedPolicy::WorkingSet
                    : SchedPolicy::Fifo;
    Runtime rt(rc);

    BehaviorTracker tracker(64);
    rt.engine().setObserver(&tracker);

    SpellApp app(rt, workload, cfg);
    rt.run();
    tracker.finish();

    const auto &s = rt.engine().stats();
    std::cout << "spell checker: corpus " << workload.corpus.size()
              << " bytes, " << app.report().wordsFromDelatex
              << " words, " << app.report().misspelled.size()
              << " flagged\n\n";

    Table threads({"thread", "switches", "saves"});
    for (int n = 1; n <= SpellApp::kNumThreads; ++n) {
        const auto &c = rt.engine().threadCounters(app.tid(n));
        threads.addRowOf(std::string(SpellApp::threadLabel(n)),
                         c.switchesIn, c.saves);
    }
    threads.printText(std::cout);

    std::cout << "\nexecution time:    " << rt.now() << " cycles\n"
              << "context switches:  " << s.counterValue("switches")
              << " (mean "
              << formatDouble(
                     s.distributions().at("switch_cost").mean(), 1)
              << " cyc)\n"
              << "window traps:      "
              << s.counterValue("overflow_traps") << " overflow, "
              << s.counterValue("underflow_traps") << " underflow\n"
              << "behavior (paper §5):\n"
              << "  activity/quantum:     "
              << formatDouble(tracker.activityPerQuantum().mean(), 2)
              << " windows\n"
              << "  total window activity: "
              << formatDouble(tracker.totalWindowActivity().mean(), 1)
              << " windows\n"
              << "  concurrency:          "
              << formatDouble(tracker.concurrency().mean(), 2) << "\n"
              << "  parallel slackness:   "
              << formatDouble(rt.scheduler().slackness().mean(), 2)
              << "\n";

    if (flags.getBool("show-words")) {
        std::cout << "\nflagged words:\n";
        for (const auto &w : app.report().misspelled)
            std::cout << "  " << w << '\n';
    }
    return 0;
}
