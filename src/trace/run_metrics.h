/**
 * @file
 * RunMetrics: everything one spell-checker run produced — live
 * (coroutines, spell/capture.h runSpellLive) or replayed
 * (trace/replay_driver.h). Collected through one shared function so
 * the two paths are field-for-field comparable; the replay-equivalence
 * test (tests/win/test_replay_equivalence.cc) pins them equal.
 */

#ifndef CRW_TRACE_RUN_METRICS_H_
#define CRW_TRACE_RUN_METRICS_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "rt/sched_core.h"
#include "trace/behavior.h"
#include "win/engine.h"

namespace crw {

/** Everything one spell-checker run produced. */
struct RunMetrics
{
    SchemeKind scheme{};
    SchedPolicy policy{};
    int windows = 0;

    Cycles totalCycles = 0;
    std::uint64_t switches = 0;
    std::uint64_t saves = 0;
    std::uint64_t restores = 0;
    std::uint64_t overflowTraps = 0;
    std::uint64_t underflowTraps = 0;
    std::uint64_t switchWindowsSaved = 0;
    std::uint64_t switchWindowsRestored = 0;
    double meanSwitchCost = 0.0;

    /** (overflow + underflow traps) / (saves + restores) — Fig. 13. */
    double trapProbability = 0.0;

    // §5 behavior metrics.
    double activityPerQuantum = 0.0;
    double totalWindowActivity = 0.0;
    double concurrency = 0.0;
    double meanSlackness = 0.0;

    std::vector<ThreadCounters> perThread; ///< T1..T7
    std::size_t misspelled = 0;
};

/**
 * Read a finished run's metrics out of the engine, tracker and
 * scheduler-core statistics. @p num_threads per-thread counters are
 * collected for tids 0 .. num_threads-1 (= spawn order).
 */
RunMetrics collectRunMetrics(const WindowEngine &engine,
                             const BehaviorTracker &tracker,
                             const Distribution &slackness,
                             SchedPolicy policy, int num_threads,
                             std::size_t misspelled);

/**
 * Versioned binary encoding of one RunMetrics: the blob the result
 * store (bench/result_cache.h) keeps per plan point. Doubles are
 * stored as their exact IEEE-754 bit patterns, so a decoded record is
 * bit-identical to the encoded one — the property the result store
 * relies on to keep cached sweeps byte-identical to fresh ones.
 *
 * The record opens with a caller-supplied identity key (the
 * result-cache key: trace checksum + canonical engine config + policy
 * + cost model + this format version). decodeMetricsRecord() rejects
 * a record whose stored key differs from the expected one, so a
 * record can never be served under another point's key.
 *
 * Bump kRunMetricsFormatVersion whenever RunMetrics gains, loses or
 * reinterprets a field. It is the result store's app version: a store
 * written under another version fails to attach, the writer
 * reformats it, and every result is silently recomputed.
 *
 * Version history:
 *   1  original format
 *   2  the SchedPolicy axis grew from {Fifo, WorkingSet} to the full
 *      policy family (rt/sched_core.h) and traces gained per-thread
 *      priorities (kTraceFormatVersion 2). The encoding is unchanged,
 *      but every v1 entry predates the policy layer, so the bump
 *      retires them explicitly rather than leaning on the trace
 *      checksum change alone.
 */
inline constexpr std::uint32_t kRunMetricsFormatVersion = 2;

/** Serialize @p metrics with identity @p key into one record. */
std::vector<std::uint8_t> encodeMetricsRecord(const RunMetrics &metrics,
                                              const std::string &key);

/**
 * Decode a record produced by encodeMetricsRecord. False, leaving
 * @p out untouched, on malformed bytes (truncation, trailing bytes)
 * or on a stored identity key differing from @p expected_key.
 */
bool decodeMetricsRecord(const std::uint8_t *data, std::size_t n,
                         const std::string &expected_key,
                         RunMetrics &out);

/**
 * Field-for-field equality, doubles compared bit-exactly (the cache
 * round-trip contract; NaN-safe unlike operator== on double).
 */
bool metricsBitIdentical(const RunMetrics &a, const RunMetrics &b);

} // namespace crw

#endif // CRW_TRACE_RUN_METRICS_H_
