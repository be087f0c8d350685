/**
 * @file
 * The mapped-file primitives (store/arena.h): the payload hash over
 * split ranges, and Mapping's writer election and read-only open.
 * The flat-trace file built on them is fuzzed in
 * tests/store/test_flat_trace_io.cc.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/byteio.h"
#include "store/arena.h"

namespace crw {
namespace store {
namespace {

std::string
tempPath(const char *tag)
{
    return "arena-test-" + std::string(tag) + "-" +
           std::to_string(static_cast<int>(::getpid())) + ".bin";
}

TEST(ArenaHash, RangesHashLikeTheirConcatenation)
{
    // The flat-trace writer hashes its image in place, piece by
    // piece; the reader hashes the mapped file in one call. Both
    // must agree however the pieces cut the 8-byte words.
    std::vector<std::uint8_t> bytes(203);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
    const std::uint64_t whole = hashArena64(bytes.data(), bytes.size());
    for (std::size_t a = 0; a <= 20; ++a) {
        for (std::size_t b = a; b <= 40; b += 3) {
            const std::vector<ByteRange> ranges = {
                {bytes.data(), a},
                {nullptr, 0},
                {bytes.data() + a, b - a},
                {bytes.data() + b, bytes.size() - b},
            };
            EXPECT_EQ(hashArena64(ranges), whole) << a << "," << b;
        }
    }
    EXPECT_NE(hashArena64(bytes.data(), bytes.size() - 1), whole);
}

TEST(Mapping, WriterElectionIsExclusivePerMapping)
{
    const std::string path = tempPath("lock");
    Mapping first;
    ASSERT_TRUE(Mapping::openElected(path, 4096, first));
    EXPECT_TRUE(first.locked());
    EXPECT_TRUE(first.writable());

    // flock locks are per open-file-description: a second descriptor
    // in the same process contends exactly like another process.
    Mapping second;
    ASSERT_TRUE(Mapping::openElected(path, 4096, second));
    EXPECT_FALSE(second.locked());
    EXPECT_FALSE(second.writable());

    first.close();
    Mapping third;
    ASSERT_TRUE(Mapping::openElected(path, 4096, third));
    EXPECT_TRUE(third.locked()) << "released with the fd";
    second.close();
    third.close();
    std::remove(path.c_str());
}

TEST(Mapping, ElectionLoserNeverResizesTheFile)
{
    const std::string path = tempPath("loser-size");
    Mapping writer;
    ASSERT_TRUE(Mapping::openElected(path, 4096, writer));
    ASSERT_TRUE(writer.locked());

    // A loser asking for a larger file maps the writer's bytes as
    // they are: the size belongs to whoever holds the lock.
    Mapping loser;
    ASSERT_TRUE(Mapping::openElected(path, 1 << 20, loser));
    EXPECT_FALSE(loser.locked());
    EXPECT_EQ(loser.size(), 4096u);
    EXPECT_EQ(std::filesystem::file_size(path), 4096u);
    loser.close();
    writer.close();
    std::remove(path.c_str());
}

TEST(Mapping, ReadOnlyOpenRequiresExistingBytes)
{
    Mapping m;
    EXPECT_FALSE(Mapping::openReadOnly(tempPath("nofile"), m));
    EXPECT_FALSE(m.valid());
}

} // namespace
} // namespace store
} // namespace crw
