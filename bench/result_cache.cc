#include "bench/result_cache.h"

#include <cstdlib>
#include <iostream>

#include "bench/harness.h"
#include "common/byteio.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "trace/run_metrics.h"

namespace crw {
namespace bench {

namespace {

/** Store geometry: plenty for every exhibit sweep with headroom. */
constexpr std::size_t kResultStoreSlots = 1 << 15;
constexpr std::size_t kResultStoreDataBytes = 64u << 20;

void
countCorrupt()
{
    metrics().add("cache.corrupt", 1);
    ringPublish(obs::RingEventCode::CacheCorrupt, 0, 0);
}

} // namespace

std::string
resultCacheKey(const std::string &point_key,
               std::uint64_t trace_checksum)
{
    static const char *kHex = "0123456789abcdef";
    std::string sum(16, '0');
    std::uint64_t h = trace_checksum;
    for (int i = 15; i >= 0; --i) {
        sum[static_cast<std::size_t>(i)] = kHex[h & 0xf];
        h >>= 4;
    }
    return point_key + "|trace=" + sum + "|v" +
           std::to_string(kRunMetricsFormatVersion);
}

std::string
resultStorePath()
{
    const char *env = std::getenv("CRW_RESULT_STORE");
    if (env && *env)
        return env;
    return outputPath("results/store.crwstore");
}

store::RecordStore &
resultStore()
{
    static store::RecordStore s = [] {
        store::RecordStore st;
        std::string err;
        if (!st.open(resultStorePath(), kRunMetricsFormatVersion,
                     kResultStoreSlots, kResultStoreDataBytes, &err))
            std::cerr << "note: result store unavailable ("
                      << err << "); recomputing every result\n";
        return st;
    }();
    return s;
}

bool
loadCachedResult(const std::string &cache_key, RunMetrics &out)
{
    std::vector<std::uint8_t> blob;
    switch (resultStore().find(cache_key, blob)) {
      case store::RecordStore::FindResult::Hit:
        if (decodeMetricsRecord(blob.data(), blob.size(), cache_key,
                                out))
            return true;
        // The record survived its own checksum but not the decode:
        // still file damage, still a countable corrupt miss.
        break;
      case store::RecordStore::FindResult::Corrupt:
        break;
      case store::RecordStore::FindResult::Miss:
        return false;
    }
    countCorrupt();
    return false;
}

bool
storeCachedResult(const std::string &cache_key,
                  const RunMetrics &metrics)
{
    return resultStore().put(cache_key,
                             encodeMetricsRecord(metrics, cache_key));
}

bool
loadCachedCycles(const std::string &key, Cycles &out)
{
    std::vector<std::uint8_t> blob;
    switch (resultStore().find(key, blob)) {
      case store::RecordStore::FindResult::Hit:
        if (blob.size() == sizeof(Cycles)) {
            ByteReader in{blob.data(), blob.data() + blob.size()};
            out = in.u64();
            return true;
        }
        break; // a blob of the wrong length is damage too
      case store::RecordStore::FindResult::Corrupt:
        break;
      case store::RecordStore::FindResult::Miss:
        return false;
    }
    countCorrupt();
    return false;
}

bool
storeCachedCycles(const std::string &key, Cycles cycles)
{
    ByteWriter out;
    out.u64(cycles);
    return resultStore().put(key, out.bytes);
}

bool
removeCachedResult(const std::string &cache_key)
{
    return resultStore().erase(cache_key);
}

} // namespace bench
} // namespace crw
