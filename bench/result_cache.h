/**
 * @file
 * Content-addressed on-disk cache of replay results (DESIGN.md §11,
 * §13).
 *
 * Results live in one arena-backed record store
 * (src/store/record_store.h) at bench_out/results/store.crwstore —
 * single-writer (flock-elected), attachable read-only by any number
 * of concurrent processes, one mmap for the whole sweep instead of
 * one file parse per point. It holds two key families, each key
 * naming the full identity of its record:
 *
 *  - point results (one RunMetrics record per plan point):
 *
 *      <pointConfigKey>|trace=<checksum hex>|v<kRunMetricsFormatVersion>
 *
 *    invalidated when the captured trace changes (checksum), when any
 *    result-affecting EngineConfig field, the policy or the cost
 *    model changes (pointConfigKey), or when the serialized format is
 *    bumped;
 *  - microtrace walk cells (bench/microtrace.h; an 8-byte Cycles
 *    blob per cell), which replay no trace and so carry no checksum:
 *
 *      walk|<engineConfigKey>|d<depth>|t<threads>|q<steps>x<quanta>
 *          |c<step charge>|s<seed>|v<kWalkFormatVersion>
 *
 * The key is stored inside each record and verified on load, so an
 * index collision degrades to a miss, never to an aliased result. A
 * record that fails validation bumps the cache.corrupt counter and is
 * silently recomputed.
 *
 * The store is the only result container, with one persistence rule
 * for both key families: the writer (the process that won the flock
 * election) reads and writes it; a reader reads it and recomputes its
 * misses, writing nothing; an invalid store (unmappable path, or a
 * reader finding no valid store yet) is bypassed, so every probe
 * misses and every result is recomputed.
 */

#ifndef CRW_BENCH_RESULT_CACHE_H_
#define CRW_BENCH_RESULT_CACHE_H_

#include <cstdint>
#include <string>

#include "common/types.h"
#include "store/record_store.h"

namespace crw {

struct RunMetrics;

namespace bench {

/** Full identity of one cached result (see file comment). */
std::string resultCacheKey(const std::string &point_key,
                           std::uint64_t trace_checksum);

/**
 * Path of the shared result store. Overridable via the
 * CRW_RESULT_STORE environment variable so test processes (which run
 * concurrently under ctest and deliberately damage entries) get a
 * private store instead of fighting over the benchmark one.
 */
std::string resultStorePath();

/**
 * The process-wide result store, opened lazily at resultStorePath().
 * Writer if this process won the flock election, Reader if another
 * holds it, Invalid if the path is unusable (see the file comment
 * for what each mode may do).
 */
store::RecordStore &resultStore();

/**
 * Load the point result stored under @p cache_key. False on a miss,
 * a mismatch or damage — callers re-replay; a miss is never an error.
 * Damage bumps cache.corrupt.
 */
bool loadCachedResult(const std::string &cache_key, RunMetrics &out);

/** Persist one point result; false unless this process is the
 *  store's writer and the store has room. */
bool storeCachedResult(const std::string &cache_key,
                       const RunMetrics &metrics);

/**
 * Load the Cycles record stored under @p key, a non-point family
 * (the walk| keys). A hit or miss bumps no cache.hit/cache.miss
 * counter, which count plan points. False on
 * a miss or on damage (a corrupt record or a blob that is not 8
 * bytes), which bumps cache.corrupt.
 */
bool loadCachedCycles(const std::string &key, Cycles &out);

/** Persist one Cycles record; false unless this process is the
 *  store's writer and the store has room. */
bool storeCachedCycles(const std::string &key, Cycles cycles);

/**
 * Drop @p cache_key from the store (writer only). True if it was
 * live. (Tests use this; the executor never deletes.)
 */
bool removeCachedResult(const std::string &cache_key);

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_RESULT_CACHE_H_
