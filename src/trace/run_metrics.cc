#include "trace/run_metrics.h"

#include <cstring>

#include "common/byteio.h"

namespace crw {
namespace {

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

RunMetrics
collectRunMetrics(const WindowEngine &engine,
                  const BehaviorTracker &tracker,
                  const Distribution &slackness, SchedPolicy policy,
                  int num_threads, std::size_t misspelled)
{
    const StatGroup &s = engine.stats();
    RunMetrics m;
    m.scheme = engine.scheme();
    m.policy = policy;
    m.windows = engine.numWindows();
    m.totalCycles = engine.now();
    m.switches = s.counterValue("switches");
    m.saves = s.counterValue("saves");
    m.restores = s.counterValue("restores");
    m.overflowTraps = s.counterValue("overflow_traps");
    m.underflowTraps = s.counterValue("underflow_traps");
    m.switchWindowsSaved = s.counterValue("switch_windows_saved");
    m.switchWindowsRestored =
        s.counterValue("switch_windows_restored");
    m.meanSwitchCost = s.distributions().at("switch_cost").mean();
    const double ops = static_cast<double>(m.saves + m.restores);
    m.trapProbability =
        ops > 0 ? static_cast<double>(m.overflowTraps +
                                      m.underflowTraps) /
                      ops
                : 0.0;
    m.activityPerQuantum = tracker.activityPerQuantum().mean();
    m.totalWindowActivity = tracker.totalWindowActivity().mean();
    m.concurrency = tracker.concurrency().mean();
    m.meanSlackness = slackness.mean();
    m.misspelled = misspelled;
    for (ThreadId tid = 0; tid < num_threads; ++tid)
        m.perThread.push_back(engine.threadCounters(tid));
    return m;
}

std::vector<std::uint8_t>
encodeMetricsRecord(const RunMetrics &m, const std::string &key)
{
    ByteWriter w;
    w.str(key);
    w.u32(static_cast<std::uint32_t>(m.scheme));
    w.u32(static_cast<std::uint32_t>(m.policy));
    w.u32(static_cast<std::uint32_t>(m.windows));
    w.u64(m.totalCycles);
    w.u64(m.switches);
    w.u64(m.saves);
    w.u64(m.restores);
    w.u64(m.overflowTraps);
    w.u64(m.underflowTraps);
    w.u64(m.switchWindowsSaved);
    w.u64(m.switchWindowsRestored);
    w.f64(m.meanSwitchCost);
    w.f64(m.trapProbability);
    w.f64(m.activityPerQuantum);
    w.f64(m.totalWindowActivity);
    w.f64(m.concurrency);
    w.f64(m.meanSlackness);
    w.u64(m.misspelled);
    w.u32(static_cast<std::uint32_t>(m.perThread.size()));
    for (const ThreadCounters &t : m.perThread) {
        w.u64(t.saves);
        w.u64(t.restores);
        w.u64(t.switchesIn);
    }
    return std::move(w.bytes);
}

bool
decodeMetricsRecord(const std::uint8_t *data, std::size_t n,
                    const std::string &expected_key, RunMetrics &out)
{
    ByteReader r{data, data + n};
    if (r.str() != expected_key || !r.ok)
        return false;

    RunMetrics m;
    m.scheme = static_cast<SchemeKind>(r.u32());
    m.policy = static_cast<SchedPolicy>(r.u32());
    m.windows = static_cast<int>(r.u32());
    m.totalCycles = static_cast<Cycles>(r.u64());
    m.switches = r.u64();
    m.saves = r.u64();
    m.restores = r.u64();
    m.overflowTraps = r.u64();
    m.underflowTraps = r.u64();
    m.switchWindowsSaved = r.u64();
    m.switchWindowsRestored = r.u64();
    m.meanSwitchCost = r.f64();
    m.trapProbability = r.f64();
    m.activityPerQuantum = r.f64();
    m.totalWindowActivity = r.f64();
    m.concurrency = r.f64();
    m.meanSlackness = r.f64();
    m.misspelled = static_cast<std::size_t>(r.u64());
    const std::uint32_t num_threads = r.u32();
    for (std::uint32_t i = 0; r.ok && i < num_threads; ++i) {
        ThreadCounters t;
        t.saves = r.u64();
        t.restores = r.u64();
        t.switchesIn = r.u64();
        m.perThread.push_back(t);
    }
    if (!r.ok || r.p != r.end)
        return false;
    out = std::move(m);
    return true;
}

bool
metricsBitIdentical(const RunMetrics &a, const RunMetrics &b)
{
    if (a.scheme != b.scheme || a.policy != b.policy ||
        a.windows != b.windows || a.totalCycles != b.totalCycles ||
        a.switches != b.switches || a.saves != b.saves ||
        a.restores != b.restores ||
        a.overflowTraps != b.overflowTraps ||
        a.underflowTraps != b.underflowTraps ||
        a.switchWindowsSaved != b.switchWindowsSaved ||
        a.switchWindowsRestored != b.switchWindowsRestored ||
        a.misspelled != b.misspelled)
        return false;
    if (!bitEqual(a.meanSwitchCost, b.meanSwitchCost) ||
        !bitEqual(a.trapProbability, b.trapProbability) ||
        !bitEqual(a.activityPerQuantum, b.activityPerQuantum) ||
        !bitEqual(a.totalWindowActivity, b.totalWindowActivity) ||
        !bitEqual(a.concurrency, b.concurrency) ||
        !bitEqual(a.meanSlackness, b.meanSlackness))
        return false;
    if (a.perThread.size() != b.perThread.size())
        return false;
    for (std::size_t i = 0; i < a.perThread.size(); ++i) {
        if (a.perThread[i].saves != b.perThread[i].saves ||
            a.perThread[i].restores != b.perThread[i].restores ||
            a.perThread[i].switchesIn != b.perThread[i].switchesIn)
            return false;
    }
    return true;
}

} // namespace crw
