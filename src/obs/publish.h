/**
 * @file
 * Publish glue: turns the simulators' own statistics into
 * MetricsRegistry records and Chrome trace tracks (DESIGN.md §10).
 *
 * crw::obs depends on the simulation layers, never the reverse — the
 * engine and scheduler keep publishing through their existing
 * StatGroup/accessor surfaces, and these free functions translate.
 * A harness that never calls them pays nothing.
 */

#ifndef CRW_OBS_PUBLISH_H_
#define CRW_OBS_PUBLISH_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace_json.h"
#include "win/engine.h" // EngineObserver base, ThreadId, Cycles

namespace crw {

class SchedCore;

namespace obs {

/**
 * Exact cycle account + event counters of one finished engine run.
 * The account satisfies balanced() by construction (it mirrors the
 * engine's own decomposition, whose sum is now()).
 */
PointRecord pointFromEngine(const WindowEngine &engine);

/** Add a SchedCore's dispatch statistics to a point record. */
void publishSchedCore(const SchedCore &core, PointRecord &rec);

/**
 * EngineObserver that records every save/restore/trap/switch as a
 * per-thread span (1 simulated cycle == 1 us) into a SpanCollector.
 * Install with WindowEngine::setObserver(); call take() afterwards
 * and hand the track to a TraceJsonWriter.
 */
class EngineTimeline final : public EngineObserver
{
  public:
    explicit EngineTimeline(std::string process,
                            std::uint64_t max_spans = 200000)
        : spans_(std::move(process), max_spans)
    {}

    void onSwitch(ThreadId from, ThreadId to, int to_depth,
                  Cycles begin, Cycles end) override;
    void onExit(ThreadId tid) override;
    void onSaveTimed(ThreadId tid, int depth, Cycles begin,
                     Cycles end) override;
    void onRestoreTimed(ThreadId tid, int depth, Cycles begin,
                        Cycles end) override;
    void onTrap(ThreadId tid, bool overflow, int windows_moved,
                Cycles begin, Cycles end) override;

    const TraceTrack &track() const { return spans_.track(); }
    TraceTrack take() { return spans_.take(); }

  private:
    /** Name the row on first use (rows appear in tid order anyway). */
    void touchThread(ThreadId tid);

    SpanCollector spans_;
    ThreadId maxNamed_ = -1;
    /** Latest span end seen; onExit (which carries no time) uses it. */
    Cycles last_ = 0;
};

} // namespace obs
} // namespace crw

#endif // CRW_OBS_PUBLISH_H_
