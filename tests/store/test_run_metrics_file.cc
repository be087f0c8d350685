/**
 * @file
 * A RunMetrics record on disk: the codec (trace/run_metrics.h) inside
 * a file-backed RecordStore (store/record_store.h) opened under
 * kRunMetricsFormatVersion, as the result cache keeps every point
 * result. The file must give back only the honest record under its
 * own key: a record planted under another identity key, a truncated
 * file, a flipped byte anywhere in the stored record and a missing
 * file all end in a failed load, never in a served result.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "store/record_store.h"
#include "trace/run_metrics.h"

namespace crw {
namespace {

constexpr std::size_t kSlots = 64;
constexpr std::size_t kDataBytes = 1 << 12;

const char kKey[] = "HC-fine-m1-n1|SP|w8|prw=eager|alloc=simple|"
                    "cm=test|fifo|trace=00000000feedface|v2";

RunMetrics
sampleMetrics()
{
    RunMetrics m;
    m.scheme = SchemeKind::SP;
    m.policy = SchedPolicy::Fifo;
    m.windows = 8;
    m.totalCycles = 987654321;
    m.switches = 11;
    m.meanSwitchCost = 118.5;
    m.trapProbability = 0.1 + 0.2;
    for (int t = 0; t < 3; ++t) {
        ThreadCounters c;
        c.saves = 7u + static_cast<std::uint64_t>(t);
        c.restores = 8u + static_cast<std::uint64_t>(t);
        c.switchesIn = 9u + static_cast<std::uint64_t>(t);
        m.perThread.push_back(c);
    }
    return m;
}

/** Persist @p blob under @p store_key in the store file at @p path. */
bool
saveBlob(const std::string &path, const std::string &store_key,
         const std::vector<std::uint8_t> &blob)
{
    store::RecordStore st;
    return st.open(path, kRunMetricsFormatVersion, kSlots, kDataBytes) &&
           st.put(store_key, blob);
}

/** Persist @p m as the record of @p key; the record's file offset
 *  and length go to @p offset / @p length. */
bool
saveRecord(const std::string &path, const std::string &key,
           const RunMetrics &m, std::uint64_t *offset = nullptr,
           std::size_t *length = nullptr)
{
    if (!saveBlob(path, key, encodeMetricsRecord(m, key)))
        return false;
    store::RecordStore st;
    std::vector<std::uint8_t> blob;
    if (!st.open(path, kRunMetricsFormatVersion, kSlots, kDataBytes) ||
        st.find(key, blob, offset) != store::RecordStore::FindResult::Hit)
        return false;
    if (length) // key_len u32, key, blob_len u32, blob, checksum u64
        *length = 4 + key.size() + 4 + blob.size() + 8;
    return true;
}

/** Reopen the store file at @p path and decode @p key's record. */
bool
loadRecord(const std::string &path, const std::string &key,
           RunMetrics &out)
{
    store::RecordStore st;
    std::vector<std::uint8_t> blob;
    return st.open(path, kRunMetricsFormatVersion, kSlots, kDataBytes) &&
           st.find(key, blob) == store::RecordStore::FindResult::Hit &&
           decodeMetricsRecord(blob.data(), blob.size(), key, out);
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class RunMetricsFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = "run-metrics-file-test-" +
                std::to_string(static_cast<int>(::getpid())) +
                ".crwstore";
        std::remove(path_.c_str());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(RunMetricsFile, ForeignIdentityKeyRejected)
{
    // A record whose identity key is another point's, planted under
    // this point's store key, must not load: the in-record key turns
    // a misfiled record into a failed load, not an aliased result.
    const std::string other = std::string(kKey) + "-other";
    ASSERT_TRUE(
        saveBlob(path_, kKey, encodeMetricsRecord(sampleMetrics(), other)));

    RunMetrics out;
    out.windows = -1;
    EXPECT_FALSE(loadRecord(path_, kKey, out));
    EXPECT_FALSE(loadRecord(path_, other, out)); // not filed there
    EXPECT_EQ(out.windows, -1);

    // The honest record still loads, bit-identically.
    ASSERT_TRUE(saveRecord(path_, kKey, sampleMetrics()));
    ASSERT_TRUE(loadRecord(path_, kKey, out));
    EXPECT_TRUE(metricsBitIdentical(sampleMetrics(), out));
}

TEST_F(RunMetricsFile, TruncationRejected)
{
    // Cut the file anywhere before the record's last byte — inside
    // the header, the index, or the record itself — and the record
    // is never served (the reopening writer zero-extends the file, so
    // the cut bytes read back as a dead slot or a failing checksum).
    std::uint64_t offset = 0;
    std::size_t length = 0;
    ASSERT_TRUE(saveRecord(path_, kKey, sampleMetrics(), &offset, &length));
    const std::vector<char> whole = readAll(path_);
    ASSERT_GE(whole.size(), offset + length);

    // A cut that drops only zero bytes loses nothing (they come back
    // as zeros), so the record-side cuts stop at its last nonzero byte.
    std::size_t end = offset + length;
    while (end > offset && whole[end - 1] == 0)
        --end;
    std::vector<std::size_t> cuts = {0, 1, 16, offset / 2};
    for (std::size_t n = offset; n < end; ++n)
        cuts.push_back(n);
    for (const std::size_t n : cuts) {
        writeAll(path_, std::vector<char>(whole.begin(), whole.begin() +
                                          static_cast<long>(n)));
        RunMetrics out;
        EXPECT_FALSE(loadRecord(path_, kKey, out))
            << "file cut to " << n << " bytes";
    }

    // The untouched file loads.
    writeAll(path_, whole);
    RunMetrics out;
    EXPECT_TRUE(loadRecord(path_, kKey, out));
}

TEST_F(RunMetricsFile, PayloadCorruptionRejected)
{
    // A flipped byte anywhere in the stored record — key length, key,
    // blob length, metrics payload or the checksum itself — fails the
    // load.
    std::uint64_t offset = 0;
    std::size_t length = 0;
    ASSERT_TRUE(saveRecord(path_, kKey, sampleMetrics(), &offset, &length));
    const std::vector<char> whole = readAll(path_);

    for (std::size_t at = offset; at < offset + length; ++at) {
        std::vector<char> bytes = whole;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x5A);
        writeAll(path_, bytes);
        RunMetrics out;
        EXPECT_FALSE(loadRecord(path_, kKey, out))
            << "flip at byte " << at;
    }

    writeAll(path_, whole);
    RunMetrics out;
    EXPECT_TRUE(loadRecord(path_, kKey, out));
}

TEST_F(RunMetricsFile, MissingFileFails)
{
    // No file, no record: a store path that cannot be created fails
    // the load, and a deleted store file reopens empty.
    RunMetrics out;
    EXPECT_FALSE(loadRecord("no-such-dir-" + path_ + "/store.crwstore",
                            kKey, out));

    ASSERT_TRUE(saveRecord(path_, kKey, sampleMetrics()));
    ASSERT_EQ(std::remove(path_.c_str()), 0);
    EXPECT_FALSE(loadRecord(path_, kKey, out));
}

} // namespace
} // namespace crw
