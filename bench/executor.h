/**
 * @file
 * Shared sweep executor (DESIGN.md §11): runs the union of an
 * ExperimentPlan's points exactly once and serves the results to the
 * exhibit reports.
 *
 * Execution of one plan:
 *
 *  1. capture (or load from bench_out/traces/) each behavior's
 *     EventTrace, sequentially;
 *  2. probe the on-disk point-result cache (bench/result_cache.h) for
 *     every point not yet in the in-process store — hits are counted
 *     (cache.hit) and need no replay;
 *  3. attach or predecode the flat image of each behavior with a miss
 *     (cachedFlatTrace), then replay the misses, both on one
 *     ParallelSweep worker pool (--jobs), and persist each fresh
 *     result back to the cache (cache.store).
 *
 * Reports then look results up by plan coordinate (pointResult,
 * sweepSchemes); a lookup the plan forgot falls back to on-demand
 * execution, so a report can never read an empty slot. All results
 * are bit-identical whether they came from a live replay, the cache,
 * or any --jobs count — the determinism gates compare the bytes.
 */

#ifndef CRW_BENCH_EXECUTOR_H_
#define CRW_BENCH_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/plan.h"
#include "trace/event_trace.h"
#include "trace/flat_trace.h"
#include "trace/run_metrics.h"

namespace crw {
namespace bench {

/**
 * Toggle the on-disk result cache (default on). The crw-bench driver
 * turns it off for --no-cache and whenever --trace-out is given:
 * Chrome timelines can only be recorded by live replays.
 */
void setResultCacheEnabled(bool enabled);
bool resultCacheEnabled();

/**
 * Toggle the on-disk flat-trace store (default on; --no-cache turns
 * it off). When on, cachedFlatTrace attaches bench_out/flat/ files
 * (trace/flat_trace_io.h) instead of re-walking TraceCursor, writing
 * them on first build; when off, every predecode happens in memory.
 */
void setFlatCacheEnabled(bool enabled);

/**
 * ISA-aware lockstep batch width (lanes per batch) the executor uses:
 * 32 lanes when the SoA lane pass runs 8-wide (AVX2 — 32 lanes
 * amortize the recorded stream further), 16 otherwise (the width the
 * per-lane pass was tuned at).
 */
std::size_t defaultReplayBatchCap();

/**
 * Test-only: pin the executor's batch width cap for this process, the
 * way setSimdTierOverride pins the follower tier. 0 and 1 disable
 * batching: every miss replays through replayPoint().
 */
void setReplayBatchCapOverride(std::size_t cap);

/** Drop the override; the cap is defaultReplayBatchCap() again. */
void clearReplayBatchCapOverride();

/**
 * Test-only: forget every in-process result, so the next executePlan
 * runs points it has already served again. Every reference
 * pointResult() handed out dangles afterwards.
 */
void clearPointResults();

/** Execute every point of @p plan exactly once (see file comment). */
void executePlan(const ExperimentPlan &plan);

/**
 * The result at one plan coordinate. Served from the in-process
 * store; a point never executed is captured/replayed on demand. The
 * reference stays valid for the life of the process.
 */
const RunMetrics &pointResult(const PlanPoint &point);

/**
 * The trace of one behavior. In-memory cache first, then the disk
 * cache bench_out/traces/<key>-s<seed>-c<bytes>.trace (stale or
 * corrupted files are re-captured), else one live capture run (Spell)
 * or a deterministic generation (Synth). Thread-safe; a miss holds
 * the memo's lock while it loads or captures, so the executor takes
 * every miss before it fans out.
 */
const EventTrace &cachedTrace(const BehaviorId &behavior);
const EventTrace &cachedTrace(ConcurrencyLevel conc,
                              GranularityLevel gran);

/**
 * Payload checksum of the behavior's trace (traceChecksum), memoized
 * with the trace: the trailer loadTraceFile verified for a trace read
 * from disk, one hash at capture or generation otherwise.
 */
std::uint64_t cachedTraceChecksum(const BehaviorId &behavior);
std::uint64_t cachedTraceChecksum(ConcurrencyLevel conc,
                                  GranularityLevel gran);

/**
 * The predecoded flat image of the behavior's trace (flat_trace.h),
 * attached from bench_out/flat/ or built (and stored) once per
 * behavior, and shared by every replay point of the sweep. Thread-safe: the executor predecodes on the worker pool,
 * distinct behaviors concurrently, each exactly once. The underlying
 * trace should already be captured (cachedTrace).
 */
const FlatTrace &cachedFlatTrace(const BehaviorId &behavior);
const FlatTrace &cachedFlatTrace(ConcurrencyLevel conc,
                                 GranularityLevel gran);

/**
 * Replay @p trace at one configuration point — always a live replay,
 * bypassing the result store and cache. Publishes the point's obs
 * record and bumps replay.points. @p flat, when given, is the
 * predecoded image of @p trace (otherwise a flat-loop replay
 * predecodes privately).
 */
RunMetrics replayPoint(const EventTrace &trace,
                       const EngineConfig &engine, SchedPolicy policy,
                       const FlatTrace *flat = nullptr);

/** The window counts swept by the figure benches (paper: 4..32). */
const std::vector<int> &defaultWindowSweep();

/** The three schemes in the paper's legend order. */
const std::vector<SchemeKind> &evaluatedSchemes();

/** All runs of one scheme x window-count sweep at a fixed behavior. */
struct SchemeSweep
{
    std::vector<int> windows;
    /** Indexed parallel to evaluatedSchemes() then to windows. */
    std::vector<std::vector<RunMetrics>> bySchemeByWindow;

    const RunMetrics &
    at(std::size_t scheme_idx, std::size_t window_idx) const
    {
        return bySchemeByWindow[scheme_idx][window_idx];
    }
};

/**
 * The NS/SNP/SP x windows matrix for one behavior, assembled from the
 * executor's results (points not yet executed are run, in parallel).
 */
SchemeSweep sweepSchemes(const BehaviorId &behavior,
                         SchedPolicy policy,
                         const std::vector<int> &windows);
SchemeSweep sweepSchemes(ConcurrencyLevel conc, GranularityLevel gran,
                         SchedPolicy policy,
                         const std::vector<int> &windows);

/**
 * Emit one figure panel: the given metric as a function of the window
 * count, one series per scheme, for one behavior.
 */
void emitSweepPanel(const std::string &title,
                    const std::string &yLabel, const SchemeSweep &sweep,
                    double (*metric)(const RunMetrics &),
                    const std::string &csvName);

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_EXECUTOR_H_
