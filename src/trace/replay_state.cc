#include "trace/replay_state.h"

#include "common/logging.h"

namespace crw {

ReplayState::ReplayState(const EventTrace &trace,
                         const std::vector<EngineConfig> &configs,
                         SchedPolicy policy, const FlatTrace *flat)
    : trace(trace),
      core(policy),
      policy(policy),
      tracker(64),
      flat_(flat)
{
    if (configs.empty())
        crw_fatal << "replay: empty config batch for behavior \""
                  << trace.key << "\"";
    engines_.reserve(configs.size());
    for (const EngineConfig &config : configs)
        engines_.push_back(std::make_unique<WindowEngine>(config));
    // The tracker is driven directly from the dispatch loops (a
    // devirtualized call on the final class) rather than through
    // WindowEngine's observer hook; the callbacks and arguments are
    // identical to what the engine would deliver.
    streams.resize(trace.streams.size());
    for (std::size_t i = 0; i < trace.streams.size(); ++i) {
        streams[i].capacity = trace.streams[i].capacity;
        streams[i].openWriters =
            static_cast<int>(trace.streams[i].writers);
    }
    threads.reserve(trace.threads.size());
    for (std::size_t i = 0; i < trace.threads.size(); ++i) {
        const ThreadId tid = static_cast<ThreadId>(i);
        for (auto &engine : engines_)
            engine->addThread(tid);
        threads.push_back(RThread{TraceCursor(trace.threads[i].code),
                                  0, RState::Ready});
        this->policy.noteSpawn(tid, trace.threads[i].priority);
        this->policy.onSpawn(core, tid);
    }
    crw_assert(!flat_ || flat_->threads.size() == threads.size());
}

std::string
ReplayState::context() const
{
    const WindowEngine &lead = *engines_[0];
    const std::string head = "behavior \"" + trace.key + "\", " +
                             schemeName(lead.scheme()) + "/";
    if (lanes() == 1)
        return head + "w" + std::to_string(lead.numWindows()) + "/" +
               policyName(core.policy());
    return head + policyName(core.policy()) + ", batch of " +
           std::to_string(lanes());
}

void
ReplayState::beginRun()
{
    if (ran_)
        crw_fatal << "replay run() called twice — a driver is one run; "
                     "rerunning would accumulate into the finished "
                     "run's counters ("
                  << context() << ")";
    ran_ = true;
}

SimdTier
ReplayState::replayFlat()
{
    if (!flat_) {
        ownedFlat_ = std::make_unique<FlatTrace>(FlatTrace::build(trace));
        flat_ = ownedFlat_.get();
    }
    for (std::size_t i = 0; i < threads.size(); ++i)
        threads[i].pc = flat_->threads[i].begin;

    return lanes() == 1 ? replaySingle(*flat_) : replayLockstep(*flat_);
}

void
ReplayState::endRun()
{
    for (std::size_t i = 0; i < threads.size(); ++i) {
        if (threads[i].state != RState::Finished)
            crw_fatal << "replay deadlock: thread " << i << " ("
                      << trace.threads[i].name
                      << ") never finished — trace/config mismatch, "
                      << context();
    }
    tracker.finish();
}

RunMetrics
ReplayState::metrics(std::size_t lane) const
{
    if (!ran_)
        crw_fatal << "replay metrics() read before run() — the engines "
                     "and tracker are unpopulated and would yield an "
                     "all-zero record ("
                  << context() << ")";
    return collectRunMetrics(*engines_[lane], tracker,
                             core.slackness(), core.policy(),
                             static_cast<int>(threads.size()),
                             trace.misspelled);
}

void
ReplayState::fatalEventsAfterExit(ThreadId tid) const
{
    crw_fatal_unreachable(
        "replay: events after Exit in thread " + std::to_string(tid) +
        " (" + trace.threads[static_cast<std::size_t>(tid)].name +
        ") — " + context());
}

void
ReplayState::fatalEndedWithoutExit(ThreadId tid) const
{
    crw_fatal_unreachable(
        "replay: script of thread " + std::to_string(tid) + " (" +
        trace.threads[static_cast<std::size_t>(tid)].name +
        ") ended without Exit — " + context());
}

} // namespace crw
