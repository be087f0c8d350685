#include "obs/publish.h"

#include "rt/sched_core.h"

namespace crw {
namespace obs {

PointRecord
pointFromEngine(const WindowEngine &engine)
{
    PointRecord rec;
    const StatGroup &st = engine.stats(); // syncs the hot counters

    rec.cycles.compute = st.counterValue("cycles_compute");
    rec.cycles.callret = st.counterValue("cycles_callret");
    rec.cycles.trap = st.counterValue("cycles_trap");
    rec.cycles.switches = st.counterValue("cycles_switch");
    rec.cycles.total = engine.now();

    static const char *const kCounters[] = {
        "saves",
        "restores",
        "overflow_traps",
        "underflow_traps",
        "ovf_windows_spilled",
        "unf_windows_restored",
        "switches",
        "switch_windows_saved",
        "switch_windows_restored",
    };
    for (const char *name : kCounters)
        rec.counters[name] = st.counterValue(name);
    return rec;
}

void
publishSchedCore(const SchedCore &core, PointRecord &rec)
{
    rec.counters["sched.dispatches"] = core.dispatches();
    rec.counters["sched.peak_ready"] =
        static_cast<std::uint64_t>(core.peakReady());
    // Per-policy placement counters: every wake is either a front or
    // a back placement (only the working-set family ever places
    // front), and quantum_yields counts RoundRobin quantum expiries.
    rec.counters["sched.wakes_front"] = core.wakesFront();
    rec.counters["sched.wakes_back"] = core.wakesBack();
    rec.counters["sched.quantum_yields"] = core.quantumYields();
    // Deterministic: computed by one single-threaded run of this
    // point, never accumulated across points.
    rec.values["sched.slackness_mean"] = core.slackness().mean();
    rec.values["sched.slackness_max"] = core.slackness().max();
}

void
EngineTimeline::touchThread(ThreadId tid)
{
    if (tid <= maxNamed_)
        return;
    spans_.nameThread(static_cast<std::uint32_t>(tid),
                      "thread " + std::to_string(tid));
    maxNamed_ = tid;
}

void
EngineTimeline::onSwitch(ThreadId from, ThreadId to, int to_depth,
                         Cycles begin, Cycles end)
{
    (void)from;
    (void)to_depth;
    touchThread(to);
    last_ = end;
    // Charged to the incoming thread: the switch ends when it starts
    // running, so the span leads its first compute region.
    spans_.complete(static_cast<std::uint32_t>(to), "switch", "switch",
                    static_cast<std::int64_t>(begin),
                    static_cast<std::int64_t>(end - begin));
}

void
EngineTimeline::onExit(ThreadId tid)
{
    touchThread(tid);
    // The engine charges no cycles for an exit (windows die in
    // place): an instant marker at the latest time seen.
    spans_.instant(static_cast<std::uint32_t>(tid), "exit", "sched",
                   static_cast<std::int64_t>(last_));
}

void
EngineTimeline::onSaveTimed(ThreadId tid, int depth, Cycles begin,
                            Cycles end)
{
    (void)depth;
    touchThread(tid);
    last_ = end;
    spans_.complete(static_cast<std::uint32_t>(tid), "save", "callret",
                    static_cast<std::int64_t>(begin),
                    static_cast<std::int64_t>(end - begin));
}

void
EngineTimeline::onRestoreTimed(ThreadId tid, int depth, Cycles begin,
                               Cycles end)
{
    (void)depth;
    touchThread(tid);
    last_ = end;
    spans_.complete(static_cast<std::uint32_t>(tid), "restore",
                    "callret", static_cast<std::int64_t>(begin),
                    static_cast<std::int64_t>(end - begin));
}

void
EngineTimeline::onTrap(ThreadId tid, bool overflow, int windows_moved,
                       Cycles begin, Cycles end)
{
    (void)windows_moved;
    touchThread(tid);
    spans_.complete(static_cast<std::uint32_t>(tid),
                    overflow ? "ovf" : "unf", "trap",
                    static_cast<std::int64_t>(begin),
                    static_cast<std::int64_t>(end - begin));
}

} // namespace obs
} // namespace crw
