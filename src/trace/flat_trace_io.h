/**
 * @file
 * Durable on-disk form of FlatTrace (DESIGN.md §13): the predecoded
 * event words land in one arena file (segments "words", "wide",
 * "spans") under bench_out/flat/, keyed by the source trace checksum
 * plus kFlatTraceFormatVersion. A cold run pays the TraceCursor walk
 * once and writes the file; every warm start afterwards attaches the
 * mapping in O(1) and replays straight out of it — no predecode, no
 * copy (the "spans" segment alone is decoded into the thread vector,
 * a few bytes per thread).
 *
 * loadFlatTrace re-hashes the payload (ArenaView::verifyPayload) and
 * bounds-checks the span and wide-operand tables before handing
 * pointers to the check-free replay hot loop; any validation failure
 * is a clean false and the caller (bench/executor.cc cachedFlatTrace)
 * rebuilds in memory.
 */

#ifndef CRW_TRACE_FLAT_TRACE_IO_H_
#define CRW_TRACE_FLAT_TRACE_IO_H_

#include <cstdint>
#include <string>

#include "trace/flat_trace.h"

namespace crw {

/**
 * Bump when the flat-trace segment encoding changes (new segment,
 * different span packing, ...). Old files then fail the app-version
 * check at attach and are rebuilt, never misread. v2: arena segments
 * became cache-line aligned (store/arena.h kArenaAlign 16 -> 64) so
 * mapped replay arenas honour the same alignment contract as the
 * in-memory AlignedVec backing. v3: the "ops" and "operands" segments
 * became one packed "words" segment plus the "wide" escape table.
 */
inline constexpr std::uint32_t kFlatTraceFormatVersion = 3;

/**
 * Identity key stored in the arena superblock: names the source trace
 * and the encoding version, exactly the pair that makes the bytes
 * reusable.
 */
std::string flatTraceKey(std::uint64_t trace_checksum);

/**
 * Canonical file name (relative to the flat-trace directory) for a
 * trace's predecoded arenas. The checksum is parseable back out of
 * the name — `crw-bench cache --gc` uses that to drop files whose
 * trace is gone without attaching them.
 */
std::string flatTraceFileName(std::uint64_t trace_checksum);

/** Serialize @p flat to @p path (atomic temp+rename). */
bool saveFlatTrace(const FlatTrace &flat,
                   std::uint64_t trace_checksum,
                   const std::string &path,
                   std::string *error = nullptr);

/**
 * Attach @p path and validate it against @p trace_checksum. On
 * success @p out views the mapping (which it owns). False — with
 * @p out untouched — on any validation failure.
 */
bool loadFlatTrace(const std::string &path,
                   std::uint64_t trace_checksum, FlatTrace &out,
                   std::string *error = nullptr);

} // namespace crw

#endif // CRW_TRACE_FLAT_TRACE_IO_H_
