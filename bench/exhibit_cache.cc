/**
 * @file
 * `crw-bench cache`: inspect and maintain the on-disk stores under
 * bench_out/ (DESIGN.md §13). Not a paper exhibit — excluded from
 * "all" like the host-throughput benches.
 *
 * The report prints deterministic inventory lines (entry and byte
 * counts, point and walk records, format versions) for the
 * arena-backed result store, the flat-trace arena files and the event
 * ring. With --gc it drops every point record and flat-trace file
 * whose trace checksum no longer matches a captured trace in
 * bench_out/traces/, and every walk record whose key the current
 * WalkTable would not produce (an old spec, format version or cost
 * model) — the store is rebuilt (clear + re-put), which also compacts
 * the append-only data region of erased records.
 *
 * Safe to run while a bench is live: losing the store's writer flock
 * degrades this process to a read-only attacher (stats still print;
 * --gc reports the store as busy and leaves it alone).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/exhibits.h"
#include "bench/harness.h"
#include "bench/microtrace.h"
#include "bench/result_cache.h"
#include "common/flags.h"
#include "obs/ring.h"
#include "store/record_store.h"
#include "trace/event_trace.h"
#include "trace/flat_trace_io.h"
#include "win/simd.h"

namespace crw {
namespace bench {

namespace {

namespace fs = std::filesystem;

/** Parse exactly sixteen lowercase hex digits, false on anything else. */
bool
parseHex16(const std::string &text, std::uint64_t &out)
{
    if (text.size() != 16)
        return false;
    out = 0;
    for (const char c : text) {
        out <<= 4;
        if (c >= '0' && c <= '9')
            out |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            out |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
    }
    return true;
}

/** The |trace=<hex16>| component of a result-cache key, if present. */
bool
keyTraceChecksum(const std::string &cache_key, std::uint64_t &out)
{
    const std::size_t at = cache_key.find("|trace=");
    if (at == std::string::npos)
        return false;
    return parseHex16(cache_key.substr(at + 7, 16), out);
}

bool
isWalkKey(const std::string &key)
{
    return key.rfind(kWalkKeyPrefix, 0) == 0;
}

/** Checksums of every loadable capture in bench_out/traces/. */
std::set<std::uint64_t>
liveTraceChecksums(std::size_t &trace_files)
{
    std::set<std::uint64_t> live;
    trace_files = 0;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator("bench_out/traces", ec)) {
        if (entry.path().extension() != ".trace")
            continue;
        ++trace_files;
        EventTrace trace;
        if (loadTraceFile(entry.path().string(), trace))
            live.insert(trace.fileChecksum);
    }
    return live;
}

std::uintmax_t
fileBytes(const fs::path &path)
{
    std::error_code ec;
    const std::uintmax_t n = fs::file_size(path, ec);
    return ec ? 0 : n;
}

struct FlatInventory
{
    std::size_t files = 0;
    std::uintmax_t bytes = 0;
    /** path -> checksum parsed from the c<hex16>.flat name. */
    std::vector<std::pair<fs::path, std::uint64_t>> entries;
};

FlatInventory
flatInventory()
{
    FlatInventory inv;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator("bench_out/flat", ec)) {
        const fs::path &path = entry.path();
        if (path.extension() != ".flat")
            continue;
        ++inv.files;
        inv.bytes += fileBytes(path);
        const std::string stem = path.stem().string();
        std::uint64_t sum = 0;
        if (stem.size() == 17 && stem[0] == 'c' &&
            parseHex16(stem.substr(1), sum))
            inv.entries.emplace_back(path, sum);
    }
    return inv;
}

int
runGc(store::RecordStore &store,
      const std::set<std::uint64_t> &live)
{
    std::size_t store_kept = 0, store_dropped = 0;
    if (store.writable()) {
        std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
            survivors;
        store.forEachRecord([&](const std::string &key,
                                const std::uint8_t *blob,
                                std::size_t len) {
            if (!gcKeepsRecord(key, live)) {
                ++store_dropped;
                return;
            }
            survivors.emplace_back(
                key, std::vector<std::uint8_t>(blob, blob + len));
            ++store_kept;
        });
        store.clear();
        for (const auto &[key, blob] : survivors)
            store.put(key, blob);
        std::cout << "gc: result store  kept " << store_kept
                  << ", dropped " << store_dropped << '\n';
    } else {
        std::cout << "gc: result store  busy (another writer holds "
                     "the lock); skipped\n";
    }

    std::size_t flat_dropped = 0;
    for (const auto &[path, sum] : flatInventory().entries)
        if (!live.count(sum)) {
            std::error_code ec;
            if (fs::remove(path, ec))
                ++flat_dropped;
        }
    std::cout << "gc: flat traces   dropped " << flat_dropped << '\n';
    return 0;
}

} // namespace

bool
gcKeepsRecord(const std::string &key,
              const std::set<std::uint64_t> &live_checksums)
{
    if (isWalkKey(key)) {
        static const std::set<std::string> current = [] {
            const std::vector<std::string> keys = WalkTable::keys();
            return std::set<std::string>(keys.begin(), keys.end());
        }();
        return current.count(key) != 0;
    }
    std::uint64_t sum = 0;
    return !keyTraceChecksum(key, sum) || live_checksums.count(sum) != 0;
}

void
addCacheFlags(FlagSet &flags)
{
    flags.defineBool("gc", false,
                     "drop cached results and flat traces whose trace "
                     "checksum has no captured trace");
}

int
runCache(const FlagSet &flags)
{
    banner("cache: bench_out stores");

    store::RecordStore &store = resultStore();
    const store::RecordStore::Stats st = store.stats();
    const char *mode =
        store.mode() == store::RecordStore::Mode::Writer   ? "writer"
        : store.mode() == store::RecordStore::Mode::Reader ? "reader"
                                                           : "absent";
    std::size_t walk_records = 0, point_records = 0;
    store.forEachRecord(
        [&](const std::string &key, const std::uint8_t *, std::size_t) {
            ++(isWalkKey(key) ? walk_records : point_records);
        });
    std::cout << "result store   " << resultStorePath() << " (" << mode
              << ")\n"
              << "  entries      " << st.entries << " (" << point_records
              << " point, " << walk_records << " walk)\n"
              << "  data bytes   " << st.dataBytes << " / "
              << st.dataCapacity << '\n'
              << "  index slots  " << st.indexSlots << '\n'
              << "  put failures " << st.putFailures << '\n'
              << "  format       store v" << st.storeVersion
              << ", payload v" << st.appVersion << '\n';

    std::size_t trace_files = 0;
    const std::set<std::uint64_t> live = liveTraceChecksums(trace_files);
    const FlatInventory flats = flatInventory();
    std::cout << "flat traces    bench_out/flat: " << flats.files
              << " files, " << flats.bytes << " bytes (format v"
              << kFlatTraceFormatVersion << ")\n"
              << "captured       bench_out/traces: " << trace_files
              << " traces, " << live.size() << " distinct checksums\n";

    // The session ring: attach (or share) and report its high-water
    // mark, plus a summary of the resident lockstep-replay events
    // (DESIGN.md §14). Reading while a bench publishes is safe by
    // design.
    {
        obs::EventRing ring;
        if (ring.openFile(outputPath("obs/events.ring"),
                          obs::kEventRingCapacity)) {
            std::cout << "event ring     " << ring.published()
                      << " events published, capacity "
                      << ring.capacity() << " (format v"
                      << obs::kEventRingFormatVersion << ")\n";
            std::size_t batches = 0, lanes = 0;
            std::uint32_t max_width = 0;
            std::size_t simd_events = 0;
            std::uint32_t simd_top = 0; // highest SimdTier code seen
            for (const obs::RingEvent &ev : ring.snapshot()) {
                const auto code =
                    static_cast<obs::RingEventCode>(ev.code);
                if (code == obs::RingEventCode::ReplayBatch) {
                    ++batches;
                    lanes += ev.arg;
                    if (ev.arg > max_width)
                        max_width = ev.arg;
                } else if (code == obs::RingEventCode::ReplaySimd) {
                    ++simd_events;
                    if (ev.arg > simd_top)
                        simd_top = ev.arg;
                }
            }
            std::cout << "  replay batch " << batches
                      << " resident batches, " << lanes
                      << " lanes, max width " << max_width << '\n'
                      << "  replay simd  " << simd_events
                      << " resident batches, top tier "
                      << simdTierName(static_cast<SimdTier>(simd_top))
                      << '\n';
        } else {
            std::cout << "event ring     absent\n";
        }
    }

    if (flags.getBool("gc"))
        return runGc(store, live);
    return 0;
}

} // namespace bench
} // namespace crw
