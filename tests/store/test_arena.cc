/**
 * @file
 * The mapped-file primitive (store/arena.h): Mapping's writer
 * election and read-only open. The flat-trace file built on it is
 * fuzzed in tests/store/test_flat_trace_io.cc; the payload hash the
 * stores share is tested in tests/common/test_byteio.cc.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

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
