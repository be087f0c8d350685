/**
 * @file
 * RecordStore (store/record_store.h): the single-writer/many-reader
 * keyed blob store under the bench result cache. Covered here:
 *
 *  - put/find/erase/clear round-trips and same-key replacement;
 *  - durability across close + reopen (the warm-start path), and no
 *    record served across an app (payload format) version change;
 *  - graceful refusal when the index or data region fills;
 *  - the publication protocol, cross-process: a forked reader that
 *    attaches mid-write must only ever observe complete, validating
 *    records — never torn bytes — while the parent keeps putting.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "store/record_store.h"

namespace crw {
namespace store {
namespace {

std::string
tempPath(const char *tag)
{
    return "record-store-test-" + std::string(tag) + "-" +
           std::to_string(static_cast<int>(::getpid())) + ".crwstore";
}

std::vector<std::uint8_t>
blobFor(unsigned i)
{
    // Distinctive length and contents per record.
    std::vector<std::uint8_t> blob(8 + i % 23);
    for (std::size_t j = 0; j < blob.size(); ++j)
        blob[j] = static_cast<std::uint8_t>(i * 37 + j);
    return blob;
}

TEST(RecordStore, PutFindEraseClearRoundTrip)
{
    RecordStore store;
    ASSERT_TRUE(store.openAnonymous(1, 64, 1 << 16));
    EXPECT_TRUE(store.writable());

    std::vector<std::uint8_t> out;
    EXPECT_EQ(store.find("k0", out), RecordStore::FindResult::Miss);

    for (unsigned i = 0; i < 40; ++i)
        ASSERT_TRUE(store.put("k" + std::to_string(i), blobFor(i)));
    EXPECT_EQ(store.stats().entries, 40u);

    for (unsigned i = 0; i < 40; ++i) {
        ASSERT_EQ(store.find("k" + std::to_string(i), out),
                  RecordStore::FindResult::Hit)
            << i;
        EXPECT_EQ(out, blobFor(i)) << i;
    }

    EXPECT_TRUE(store.erase("k7"));
    EXPECT_FALSE(store.erase("k7")) << "already tombstoned";
    EXPECT_EQ(store.find("k7", out), RecordStore::FindResult::Miss);
    // The tombstone must not break other keys' probe chains.
    EXPECT_EQ(store.find("k8", out), RecordStore::FindResult::Hit);
    EXPECT_EQ(store.stats().entries, 39u);

    // Re-putting an erased key reuses its tombstone slot.
    ASSERT_TRUE(store.put("k7", blobFor(7)));
    EXPECT_EQ(store.find("k7", out), RecordStore::FindResult::Hit);
    EXPECT_EQ(store.stats().entries, 40u);

    EXPECT_TRUE(store.clear());
    EXPECT_EQ(store.stats().entries, 0u);
    EXPECT_EQ(store.stats().dataBytes, 0u);
    EXPECT_EQ(store.find("k3", out), RecordStore::FindResult::Miss);
}

TEST(RecordStore, ReplacingAKeyServesTheNewBlob)
{
    RecordStore store;
    ASSERT_TRUE(store.openAnonymous(1, 8, 1 << 12));
    ASSERT_TRUE(store.put("key", {1, 2, 3}));
    ASSERT_TRUE(store.put("key", {9, 9, 9, 9}));
    EXPECT_EQ(store.stats().entries, 1u);
    std::vector<std::uint8_t> out;
    ASSERT_EQ(store.find("key", out), RecordStore::FindResult::Hit);
    EXPECT_EQ(out, (std::vector<std::uint8_t>{9, 9, 9, 9}));
}

TEST(RecordStore, SurvivesCloseAndReopen)
{
    const std::string path = tempPath("reopen");
    {
        RecordStore store;
        ASSERT_TRUE(store.open(path, 3, 64, 1 << 16));
        EXPECT_EQ(store.mode(), RecordStore::Mode::Writer);
        for (unsigned i = 0; i < 10; ++i)
            ASSERT_TRUE(store.put("k" + std::to_string(i), blobFor(i)));
    }
    {
        RecordStore store;
        ASSERT_TRUE(store.open(path, 3, 64, 1 << 16));
        EXPECT_EQ(store.stats().entries, 10u)
            << "reopen must not re-format a valid store";
        std::vector<std::uint8_t> out;
        for (unsigned i = 0; i < 10; ++i) {
            ASSERT_EQ(store.find("k" + std::to_string(i), out),
                      RecordStore::FindResult::Hit)
                << i;
            EXPECT_EQ(out, blobFor(i)) << i;
        }
    }
    // A different app version re-formats rather than serving payloads
    // of another format.
    {
        RecordStore store;
        ASSERT_TRUE(store.open(path, 4, 64, 1 << 16));
        EXPECT_EQ(store.stats().entries, 0u);
    }
    std::remove(path.c_str());
}

TEST(RecordStore, AppVersionMismatchIsNeverServed)
{
    // The app version is the payload format (for the result store,
    // kRunMetricsFormatVersion): a reader expecting another one must
    // not attach, and a writer re-formats instead of serving payloads
    // of the old format.
    const std::string path = tempPath("appversion");
    RecordStore writer;
    ASSERT_TRUE(writer.open(path, 3, 64, 1 << 16));
    ASSERT_TRUE(writer.put("k", {1, 2}));

    RecordStore reader;
    reader.open(path, 4, 64, 1 << 16);
    EXPECT_EQ(reader.mode(), RecordStore::Mode::Invalid);
    std::vector<std::uint8_t> out;
    EXPECT_EQ(reader.find("k", out), RecordStore::FindResult::Miss);
    reader.close();
    writer.close();

    RecordStore reformat;
    ASSERT_TRUE(reformat.open(path, 4, 64, 1 << 16));
    EXPECT_EQ(reformat.mode(), RecordStore::Mode::Writer);
    EXPECT_EQ(reformat.stats().entries, 0u);
    EXPECT_EQ(reformat.stats().appVersion, 4u);
    EXPECT_EQ(reformat.find("k", out), RecordStore::FindResult::Miss);
    reformat.close();
    std::remove(path.c_str());
}

TEST(RecordStore, FullDataRegionRefusesAndCounts)
{
    RecordStore store;
    ASSERT_TRUE(store.openAnonymous(1, 64, 64));
    ASSERT_TRUE(store.put("a", std::vector<std::uint8_t>(16, 1)));
    EXPECT_FALSE(store.put("b", std::vector<std::uint8_t>(64, 2)))
        << "record larger than the remaining data region";
    EXPECT_EQ(store.stats().putFailures, 1u);
    // The first record is untouched.
    std::vector<std::uint8_t> out;
    EXPECT_EQ(store.find("a", out), RecordStore::FindResult::Hit);
}

TEST(RecordStore, FullIndexRefuses)
{
    RecordStore store;
    ASSERT_TRUE(store.openAnonymous(1, 2, 1 << 12));
    ASSERT_TRUE(store.put("a", {1}));
    ASSERT_TRUE(store.put("b", {2}));
    EXPECT_FALSE(store.put("c", {3}));
    EXPECT_EQ(store.stats().putFailures, 1u);
}

TEST(RecordStore, ReaderModeRefusesMutation)
{
    const std::string path = tempPath("reader");
    RecordStore writer;
    ASSERT_TRUE(writer.open(path, 1, 64, 1 << 16));
    ASSERT_TRUE(writer.put("k", {5, 6}));

    // Second open while the writer holds the flock: Reader.
    RecordStore reader;
    ASSERT_TRUE(reader.open(path, 1, 64, 1 << 16));
    EXPECT_EQ(reader.mode(), RecordStore::Mode::Reader);
    EXPECT_FALSE(reader.put("x", {1}));
    EXPECT_FALSE(reader.erase("k"));
    EXPECT_FALSE(reader.clear());
    std::vector<std::uint8_t> out;
    EXPECT_EQ(reader.find("k", out), RecordStore::FindResult::Hit);
    EXPECT_EQ(out, (std::vector<std::uint8_t>{5, 6}));

    // The reader sees the writer's later puts through the shared file.
    ASSERT_TRUE(writer.put("k2", {7}));
    EXPECT_EQ(reader.find("k2", out), RecordStore::FindResult::Hit);

    writer.close();
    reader.close();
    std::remove(path.c_str());
}

TEST(RecordStore, ForEachRecordVisitsEveryLiveRecord)
{
    RecordStore store;
    ASSERT_TRUE(store.openAnonymous(1, 64, 1 << 16));
    for (unsigned i = 0; i < 5; ++i)
        ASSERT_TRUE(store.put("k" + std::to_string(i), blobFor(i)));
    ASSERT_TRUE(store.erase("k2"));

    std::vector<std::string> seen;
    store.forEachRecord([&seen](const std::string &key,
                                const std::uint8_t *blob,
                                std::size_t len) {
        seen.push_back(key);
        EXPECT_NE(blob, nullptr);
        EXPECT_GT(len, 0u);
    });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen,
              (std::vector<std::string>{"k0", "k1", "k3", "k4"}));
}

/**
 * Two-process snapshot consistency: the child attaches read-only and
 * hammers find() while the parent publishes records one by one. The
 * (1,N)-register protocol promises the child sees, for every key,
 * either a miss or the complete record — FindResult::Corrupt from a
 * racing reader would be a torn publication.
 */
TEST(RecordStore, ForkedReaderNeverObservesATornRecord)
{
    const std::string path = tempPath("fork");
    constexpr unsigned kRecords = 200;

    RecordStore writer;
    ASSERT_TRUE(writer.open(path, 1, 1024, 1 << 20));
    ASSERT_EQ(writer.mode(), RecordStore::Mode::Writer);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child. gtest machinery is off-limits here: report through
        // the exit status only, and _exit so no parent state unwinds.
        RecordStore reader;
        if (!reader.open(path, 1, 1024, 1 << 20) ||
            reader.mode() != RecordStore::Mode::Reader)
            ::_exit(2);
        unsigned max_seen = 0;
        std::vector<std::uint8_t> blob;
        while (max_seen < kRecords) {
            for (unsigned i = 0; i < kRecords; ++i) {
                switch (reader.find("k" + std::to_string(i), blob)) {
                  case RecordStore::FindResult::Hit:
                    if (blob != blobFor(i))
                        ::_exit(3); // complete but wrong bytes
                    if (i + 1 > max_seen)
                        max_seen = i + 1;
                    break;
                  case RecordStore::FindResult::Miss:
                    break;
                  case RecordStore::FindResult::Corrupt:
                    ::_exit(4); // torn publication
                }
            }
            // Stats must also snapshot consistently mid-write.
            if (reader.stats().entries > kRecords)
                ::_exit(5);
        }
        ::_exit(0);
    }

    for (unsigned i = 0; i < kRecords; ++i)
        ASSERT_TRUE(writer.put("k" + std::to_string(i), blobFor(i)));

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "reader exit code (2=attach, 3=bytes, 4=torn, 5=stats)";

    writer.close();
    std::remove(path.c_str());
}

} // namespace
} // namespace store
} // namespace crw
