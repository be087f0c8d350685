/**
 * @file
 * Content-addressed on-disk cache of replay results (DESIGN.md §11,
 * §13).
 *
 * The primary container is one arena-backed record store
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
 * The legacy one-file-per-point CRWMETRS scheme
 * (bench_out/results/<fnv1a64(key) hex>.metrics) remains as the
 * migration path for point results: a store miss falls through to
 * the legacy file, and a legacy hit is promoted into the store so the
 * next run attaches it. A process that loses the writer election (or
 * cannot map the store at all) still reads the store and writes
 * legacy files. Walk cells have no legacy path: such a process simply
 * recomputes the cells it cannot store.
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

/** Legacy path: bench_out/results/<fnv1a64(cache_key) hex>.metrics */
std::string resultCachePath(const std::string &cache_key);

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
 * holds it, Invalid if the path is unusable — in every mode the
 * load/store functions below degrade to the legacy files.
 */
store::RecordStore &resultStore();

/**
 * Load the entry for @p cache_key: store first, then the legacy file
 * (promoting a legacy hit into the store). False on any mismatch or
 * damage — callers re-replay; a miss is never an error. Damage bumps
 * cache.corrupt.
 */
bool loadCachedResult(const std::string &cache_key, RunMetrics &out);

/**
 * Persist one result: into the store when this process is the
 * writer (and the store has room), else as a legacy file. False only
 * when both fail.
 */
bool storeCachedResult(const std::string &cache_key,
                       const RunMetrics &metrics);

/**
 * Load the Cycles record stored under @p key, a non-point family
 * (the walk| keys). Store only, no legacy file; a hit or miss bumps
 * no cache.hit/cache.miss counter, which count plan points. False on
 * a miss or on damage (a corrupt record or a blob that is not 8
 * bytes), which bumps cache.corrupt.
 */
bool loadCachedCycles(const std::string &key, Cycles &out);

/** Persist one Cycles record; false unless this process is the
 *  store's writer and the store has room. */
bool storeCachedCycles(const std::string &key, Cycles cycles);

/**
 * Drop @p cache_key from the store and the legacy file, wherever it
 * lives. True if anything was removed. (Tests and the GC use this;
 * the executor never deletes.)
 */
bool removeCachedResult(const std::string &cache_key);

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_RESULT_CACHE_H_
