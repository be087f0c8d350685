/**
 * @file
 * The RunMetrics record codec (encodeMetricsRecord /
 * decodeMetricsRecord), the blob the result store keeps per plan
 * point: bit-exact round-trip of every field — including the Table-1
 * per-thread counters and exact IEEE-754 double patterns — plus
 * rejection of a record stored under another identity key, of a
 * truncated record and of trailing bytes, and a fuzz that damaged
 * records never crash the decoder. Frame damage (a flipped byte
 * anywhere in a stored record) is the store's record checksum's job:
 * tests/store/test_run_metrics_file.cc and
 * tests/bench/test_result_cache.cc.
 */

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/run_metrics.h"

namespace crw {
namespace {

/** A record exercising every field with distinct, odd values. */
RunMetrics
sampleMetrics()
{
    RunMetrics m;
    m.scheme = SchemeKind::SNP;
    m.policy = SchedPolicy::WorkingSet;
    m.windows = 11;
    m.totalCycles = 123456789012ull;
    m.switches = 60566;
    m.saves = 113015;
    m.restores = 113014;
    m.overflowTraps = 4321;
    m.underflowTraps = 1234;
    m.switchWindowsSaved = 777;
    m.switchWindowsRestored = 778;
    m.meanSwitchCost = 118.25;
    m.trapProbability = 0.1 + 0.2; // deliberately not exactly 0.3
    m.activityPerQuantum = 2.5;
    m.totalWindowActivity = 17.75;
    m.concurrency = 3.9999999999999996;
    m.meanSlackness = 0.125;
    m.misspelled = 42;
    for (int t = 0; t < 7; ++t) {
        ThreadCounters c;
        c.saves = 1000u * static_cast<std::uint64_t>(t) + 1;
        c.restores = 1000u * static_cast<std::uint64_t>(t) + 2;
        c.switchesIn = 1000u * static_cast<std::uint64_t>(t) + 3;
        m.perThread.push_back(c);
    }
    return m;
}

const char kKey[] = "HC-fine-m1-n1|SNP|w11|prw=eager|alloc=simple|"
                    "cm=test|ws|trace=0123456789abcdef|v1";

bool
decode(const std::vector<std::uint8_t> &bytes, const std::string &key,
       RunMetrics &out)
{
    return decodeMetricsRecord(bytes.data(), bytes.size(), key, out);
}

TEST(RunMetricsRecord, RoundTripIsBitIdentical)
{
    const RunMetrics m = sampleMetrics();
    RunMetrics loaded;
    ASSERT_TRUE(decode(encodeMetricsRecord(m, kKey), kKey, loaded));
    EXPECT_TRUE(metricsBitIdentical(m, loaded));

    // Spot-check the per-thread Table-1 counters survived in order.
    ASSERT_EQ(loaded.perThread.size(), 7u);
    EXPECT_EQ(loaded.perThread[0].saves, 1u);
    EXPECT_EQ(loaded.perThread[6].saves, 6001u);
    EXPECT_EQ(loaded.perThread[6].restores, 6002u);
    EXPECT_EQ(loaded.perThread[6].switchesIn, 6003u);
    // And that doubles really are the same bit pattern, not a
    // printf-precision approximation.
    EXPECT_EQ(loaded.trapProbability, 0.1 + 0.2);
    EXPECT_EQ(loaded.concurrency, 3.9999999999999996);
}

TEST(RunMetricsRecord, RoundTripPreservesNonFiniteDoubles)
{
    // A pathological record must still round-trip bit-exactly:
    // metricsBitIdentical is NaN-safe by design.
    RunMetrics m = sampleMetrics();
    m.meanSwitchCost = std::nan("");
    m.meanSlackness = std::numeric_limits<double>::infinity();
    RunMetrics loaded;
    ASSERT_TRUE(decode(encodeMetricsRecord(m, kKey), kKey, loaded));
    EXPECT_TRUE(metricsBitIdentical(m, loaded));
    EXPECT_TRUE(std::isnan(loaded.meanSwitchCost));
    EXPECT_TRUE(std::isinf(loaded.meanSlackness));
}

TEST(RunMetricsRecord, EmptyPerThreadRoundTrips)
{
    RunMetrics m = sampleMetrics();
    m.perThread.clear();
    RunMetrics loaded;
    ASSERT_TRUE(decode(encodeMetricsRecord(m, kKey), kKey, loaded));
    EXPECT_TRUE(metricsBitIdentical(m, loaded));
    EXPECT_TRUE(loaded.perThread.empty());
}

TEST(RunMetricsRecord, ForeignIdentityKeyRejected)
{
    // A record stored under one key must not decode under another:
    // a record can never be served as another point's result.
    const std::vector<std::uint8_t> bytes =
        encodeMetricsRecord(sampleMetrics(), kKey);
    RunMetrics out;
    out.windows = -1;
    EXPECT_FALSE(decode(bytes, std::string(kKey) + "-other", out));
    EXPECT_FALSE(decode(bytes, std::string(kKey).substr(1), out));
    EXPECT_FALSE(decode(bytes, "", out));
    EXPECT_EQ(out.windows, -1); // a rejected decode leaves out alone
    // The honest key still works.
    EXPECT_TRUE(decode(bytes, kKey, out));
}

TEST(RunMetricsRecord, TruncationRejected)
{
    // Every proper prefix is rejected — from the empty record, through
    // a clipped key, to a record missing only its last byte.
    const std::vector<std::uint8_t> bytes =
        encodeMetricsRecord(sampleMetrics(), kKey);
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        RunMetrics out;
        EXPECT_FALSE(decodeMetricsRecord(bytes.data(), n, kKey, out))
            << "prefix of " << n << " bytes";
    }
}

TEST(RunMetricsRecord, TrailingBytesRejected)
{
    std::vector<std::uint8_t> bytes =
        encodeMetricsRecord(sampleMetrics(), kKey);
    bytes.push_back(0);
    RunMetrics out;
    EXPECT_FALSE(decode(bytes, kKey, out));
    bytes.insert(bytes.end(), 7, 0); // a whole spare u64
    EXPECT_FALSE(decode(bytes, kKey, out));
}

TEST(RunMetricsRecord, FuzzedRecordsNeverCrashTheDecoder)
{
    // Deterministic corruption fuzz, mirroring the EventTrace one:
    // single-bit flips and truncations must decode or fail cleanly —
    // never crash, never read out of bounds. The codec has no
    // checksum of its own, so a flip in a counter may decode to
    // another record; a flip in the key or a length field must not
    // decode under the honest key as the original record.
    const std::vector<std::uint8_t> original =
        encodeMetricsRecord(sampleMetrics(), kKey);
    ASSERT_GT(original.size(), 24u);

    std::uint64_t rng = 0x1993ull;
    const auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    const std::size_t key_end = 4 + std::string(kKey).size();
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::uint8_t> bytes = original;
        std::size_t at = bytes.size();
        if (i % 2 == 0) {
            at = next() % bytes.size();
            bytes[at] = static_cast<std::uint8_t>(
                bytes[at] ^ (1u << (next() % 8)));
        } else {
            bytes.resize(next() % bytes.size());
        }
        RunMetrics out;
        const bool ok = decode(bytes, kKey, out);
        if (at < key_end || i % 2 == 1) {
            EXPECT_FALSE(ok) << "damage at byte " << at;
        } else if (ok) {
            EXPECT_EQ(out.perThread.size(),
                      sampleMetrics().perThread.size());
        }
    }
}

TEST(MetricsBitIdentical, CatchesEveryFieldIndividually)
{
    const RunMetrics base = sampleMetrics();
    EXPECT_TRUE(metricsBitIdentical(base, base));

    RunMetrics m = base;
    m.totalCycles += 1;
    EXPECT_FALSE(metricsBitIdentical(base, m));

    m = base;
    m.meanSwitchCost = std::nextafter(m.meanSwitchCost, 1e9);
    EXPECT_FALSE(metricsBitIdentical(base, m));

    m = base;
    m.perThread[3].switchesIn += 1;
    EXPECT_FALSE(metricsBitIdentical(base, m));

    m = base;
    m.perThread.pop_back();
    EXPECT_FALSE(metricsBitIdentical(base, m));
}

} // namespace
} // namespace crw
