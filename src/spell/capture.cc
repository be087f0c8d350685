#include "spell/capture.h"

namespace crw {

RunMetrics
runSpellLive(SchemeKind scheme, int windows, SchedPolicy policy,
             const SpellWorkload &workload, const SpellConfig &config,
             TraceRecorder *recorder)
{
    RuntimeConfig rc;
    rc.engine.numWindows = windows;
    rc.engine.scheme = scheme;
    rc.engine.checkInvariants = false;
    rc.policy = policy;
    Runtime rt(rc);
    if (recorder)
        rt.setTraceSink(recorder);

    BehaviorTracker tracker(64);
    rt.engine().setObserver(&tracker);

    SpellApp app(rt, workload, config);
    rt.run();
    tracker.finish(rt.now());

    return collectRunMetrics(rt.engine(), tracker,
                             rt.scheduler().slackness(), policy,
                             SpellApp::kNumThreads,
                             app.report().misspelled.size());
}

std::string
spellTraceKey(const SpellConfig &config)
{
    return "m" + std::to_string(config.m) + "-n" +
           std::to_string(config.n) + "-d" +
           std::to_string(config.dictBytes) + "-v" +
           std::to_string(config.vocabularyWords);
}

EventTrace
captureSpellTrace(const SpellWorkload &workload,
                  const SpellConfig &config)
{
    TraceRecorder recorder(spellTraceKey(config), config.seed,
                           config.corpusBytes);

    // The scripts do not depend on the engine configuration, so the
    // capture runs the one scheme that simulates no windows at all.
    RuntimeConfig rc;
    rc.engine.numWindows = 8;
    rc.engine.scheme = SchemeKind::Infinite;
    rc.engine.checkInvariants = false;
    rc.policy = SchedPolicy::Fifo;
    Runtime rt(rc);
    rt.setTraceSink(&recorder);
    SpellApp app(rt, workload, config);
    rt.run();

    return recorder.take(app.report().misspelled.size(),
                         app.report().wordsFromDelatex);
}

} // namespace crw
