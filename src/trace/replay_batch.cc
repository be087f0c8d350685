#include "trace/replay_batch.h"

#include "common/logging.h"
#include "trace/replay_loop.h"
#include "win/engine_batch.h"

namespace crw {

SimdTier
ReplayState::replayLockstep(const FlatTrace &flat)
{
    // The event count bounds the saves, restores and exits but not
    // the switches; a tape that fills drains through the lanes,
    // so any schedule fits.
    return detail_replay::replayFlatWith<BatchedEngineView>(
        *this, flat, engines_, flat.tallies, flat.eventCount());
}

BatchedReplayDriver::BatchedReplayDriver(
    const EventTrace &trace, const std::vector<EngineConfig> &configs,
    SchedPolicy policy, const FlatTrace *flat)
    : state_(trace, configs, policy, flat)
{
    for (const EngineConfig &config : configs) {
        if (config.scheme != configs.front().scheme)
            crw_fatal << "BatchedReplayDriver: mixed schemes in one "
                         "batch ("
                      << schemeName(configs.front().scheme) << " vs "
                      << schemeName(config.scheme)
                      << ") — one lockstep instantiation drives one "
                         "concrete scheme class";
        if (config.checkInvariants)
            crw_fatal << "BatchedReplayDriver: checkInvariants is an "
                         "oracle-path debugging aid; batched replay "
                         "refuses it ("
                      << state_.context() << ")";
    }
    if (lanes() > 1 && !lockstepBatchable(configs.front().scheme, policy))
        crw_fatal << "BatchedReplayDriver: " << policyName(policy)
                  << " reads window residency, which the sharing "
                     "schemes make lane-dependent; replay these points "
                     "one lane at a time ("
                  << state_.context() << ")";
}

bool
BatchedReplayDriver::run()
{
    state_.beginRun();
    simdPath_ = state_.replayFlat();
    state_.endRun();
    return true;
}

} // namespace crw
