/**
 * @file
 * Durable on-disk form of FlatTrace (DESIGN.md §13): one fixed-layout
 * file per trace under bench_out/flat/, named by the source trace
 * checksum. A cold run pays the TraceCursor walk once and writes the
 * file; a later run attaches the mapping and replays straight out of
 * it — no predecode, no copy (only the span table is copied into the
 * thread vector, eight bytes a thread).
 *
 * The file, in host byte order (little-endian on every supported
 * host):
 *
 *   off  0  magic[8]         "CRWFLAT\0"
 *   off  8  u64 checksum     hashArena64 over [16, file end)
 *   off 16  u32 version      kFlatTraceFormatVersion
 *   off 20  u32 threads
 *   off 24  u64 traceChecksum  the source trace's checksum
 *   off 32  u32 events
 *   off 36  u32 wideCount
 *   off 40  u32 streams      the source trace's stream count
 *   off 44  zero to 64
 *   off 64  threads × { u32 begin; u32 end; }
 *   then, each at the next 64-byte boundary and zero-padded up to it:
 *           events × u32 word, then wideCount × { u64 event; u64 operand; }
 *
 * Every offset and the exact file size follow from the counts. The
 * replay loop runs check-free over these bytes, so loadFlatTrace is
 * the one place they are validated: magic, version, trace checksum,
 * size, payload hash, span tiling, op bits, stream operands and the
 * wide table. Any failure is a clean false, and the caller
 * (bench/executor.cc cachedFlatTrace) rebuilds in memory.
 */

#ifndef CRW_TRACE_FLAT_TRACE_IO_H_
#define CRW_TRACE_FLAT_TRACE_IO_H_

#include <cstdint>
#include <string>

#include "trace/flat_trace.h"

namespace crw {

/**
 * Bump when the file layout or the word encoding changes. Files of
 * another version fail the version check at attach and are rebuilt,
 * never misread; files of the earlier segmented-arena format (v1-v3,
 * magic "CRWARENA") fail the magic check. v4: the fixed layout above.
 */
inline constexpr std::uint32_t kFlatTraceFormatVersion = 4;

/**
 * Canonical file name (relative to the flat-trace directory) for a
 * trace's predecoded image. The checksum is parseable back out of
 * the name — `crw-bench cache --gc` uses that to drop files whose
 * trace is gone without attaching them.
 */
std::string flatTraceFileName(std::uint64_t trace_checksum);

/**
 * Write @p flat to @p path (see writeFileAtomic), straight from its
 * arrays: no staging copy of the image is made.
 */
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
