#include "trace/behavior.h"

#include "common/logging.h"

namespace crw {

BehaviorTracker::BehaviorTracker(int period_switches)
    : periodSwitches_(period_switches)
{
    crw_assert(period_switches >= 1);
}

void
BehaviorTracker::closePeriod()
{
    if (touchedInPeriod_ == 0)
        return;
    // Untouched entries contribute span() == 0, so the sum (in
    // ascending-tid order) matches the old per-touched-thread one.
    double total = 0;
    for (const DepthRange &r : periodRanges_)
        total += r.span();
    totalActivity_.sample(total);
    concurrency_.sample(static_cast<double>(touchedInPeriod_));
    for (DepthRange &r : periodRanges_)
        r = DepthRange{};
    touchedInPeriod_ = 0;
    switchesInPeriod_ = 0;
}

void
BehaviorTracker::onExit(ThreadId tid)
{
    (void)tid;
    // The quantum ends here; it is closed by the next switch (or
    // finish()). Nothing special to do: the thread's depth range
    // within the period remains counted.
}

void
BehaviorTracker::finish()
{
    closeQuantum();
    running_ = kNoThread;
    closePeriod();
}

} // namespace crw
