/**
 * @file
 * The arena/segment layer (store/arena.h): superblock round-trips,
 * O(1) attach validation, and the hard promise behind every consumer's
 * check-free hot loop — a damaged file is rejected by attach() or by
 * verifyPayload(), cleanly, never by crashing. The fuzz here flips
 * every byte and tries every truncation of a small arena image.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
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

/** A three-segment arena with distinctive, alignment-probing sizes. */
ArenaBuilder
sampleBuilder()
{
    ArenaBuilder builder(7, "unit|arena|v7");
    const std::vector<std::uint8_t> ops{1, 2, 3, 4, 5, 6, 7};
    const std::vector<std::uint64_t> operands{10, 20, 30};
    const std::vector<std::uint32_t> spans{0, 3, 3, 7};
    builder.addSegment("ops", ops.data(), ops.size());
    builder.addSegment("operands", operands.data(),
                       operands.size() * 8);
    builder.addSegment("spans", spans.data(), spans.size() * 4);
    return builder;
}

bool
attachImage(const std::vector<std::uint8_t> &image, ArenaView &out,
            std::string *error = nullptr)
{
    Mapping mapping;
    if (!Mapping::createAnonymous(image.size(), mapping))
        return false;
    std::memcpy(mapping.data(), image.data(), image.size());
    return ArenaView::attachMapping(std::move(mapping), 7,
                                    "unit|arena|v7", out, error);
}

TEST(Arena, SuperblockRoundTripsThroughAFile)
{
    const std::string path = tempPath("roundtrip");
    ASSERT_TRUE(sampleBuilder().write(path));

    ArenaView view;
    std::string err;
    ASSERT_TRUE(ArenaView::attach(path, 7, "unit|arena|v7", view, &err))
        << err;
    EXPECT_EQ(view.appVersion(), 7u);
    EXPECT_EQ(view.appKey(), "unit|arena|v7");
    ASSERT_EQ(view.segments().size(), 3u);

    std::uint64_t n = 0;
    const auto *ops =
        static_cast<const std::uint8_t *>(view.segment("ops", &n));
    ASSERT_NE(ops, nullptr);
    ASSERT_EQ(n, 7u);
    EXPECT_EQ(ops[0], 1);
    EXPECT_EQ(ops[6], 7);

    const auto *operands = static_cast<const std::uint64_t *>(
        view.segment("operands", &n));
    ASSERT_NE(operands, nullptr);
    ASSERT_EQ(n, 24u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(operands) % kArenaAlign,
              0u)
        << "segments must be 16-aligned for SoA reinterpretation";
    EXPECT_EQ(operands[2], 30u);

    EXPECT_EQ(view.segment("absent", &n), nullptr);
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(view.verifyPayload());

    std::remove(path.c_str());
}

TEST(Arena, RejectsWrongVersionAndKey)
{
    std::vector<std::uint8_t> image;
    sampleBuilder().assemble(image);

    Mapping m1;
    ASSERT_TRUE(Mapping::createAnonymous(image.size(), m1));
    std::memcpy(m1.data(), image.data(), image.size());
    ArenaView view;
    EXPECT_FALSE(ArenaView::attachMapping(std::move(m1), 8,
                                          "unit|arena|v7", view));

    Mapping m2;
    ASSERT_TRUE(Mapping::createAnonymous(image.size(), m2));
    std::memcpy(m2.data(), image.data(), image.size());
    EXPECT_FALSE(ArenaView::attachMapping(std::move(m2), 7,
                                          "other|key", view));
}

TEST(Arena, EveryTruncationFailsCleanly)
{
    std::vector<std::uint8_t> image;
    sampleBuilder().assemble(image);
    ASSERT_GT(image.size(), 48u);

    for (std::size_t n = 1; n < image.size(); ++n) {
        const std::vector<std::uint8_t> cut(image.begin(),
                                            image.begin() +
                                                static_cast<long>(n));
        ArenaView view;
        EXPECT_FALSE(attachImage(cut, view)) << "length " << n;
    }
}

TEST(Arena, EveryByteFlipIsDetected)
{
    std::vector<std::uint8_t> image;
    sampleBuilder().assemble(image);

    // The two checksums partition the file: any flipped byte must be
    // caught at attach (header) or at verifyPayload (payload). A flip
    // that attaches AND verifies would silently poison a replay.
    for (std::size_t i = 0; i < image.size(); ++i) {
        std::vector<std::uint8_t> bad = image;
        bad[i] ^= 0x40;
        ArenaView view;
        if (attachImage(bad, view)) {
            EXPECT_FALSE(view.verifyPayload()) << "byte " << i;
        }
    }
}

TEST(Arena, AttachRequiresAnExistingFile)
{
    ArenaView view;
    std::string err;
    EXPECT_FALSE(ArenaView::attach(tempPath("missing"), 7,
                                   "unit|arena|v7", view, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Mapping, WriterElectionIsExclusivePerMapping)
{
    const std::string path = tempPath("lock");
    Mapping first;
    ASSERT_TRUE(
        Mapping::openFile(path, 4096, /*writable=*/true, first));
    EXPECT_TRUE(first.tryLockExclusive());
    EXPECT_TRUE(first.tryLockExclusive()) << "idempotent for the owner";

    // flock locks are per open-file-description: a second descriptor
    // in the same process contends exactly like another process.
    Mapping second;
    ASSERT_TRUE(
        Mapping::openFile(path, 4096, /*writable=*/true, second));
    EXPECT_FALSE(second.tryLockExclusive());

    first.close();
    EXPECT_TRUE(second.tryLockExclusive()) << "released with the fd";
    second.close();
    std::remove(path.c_str());
}

TEST(Mapping, ReadOnlyOpenRequiresExistingBytes)
{
    Mapping m;
    EXPECT_FALSE(Mapping::openFile(tempPath("nofile"), 0,
                                   /*writable=*/false, m));
    EXPECT_FALSE(m.valid());
}

} // namespace
} // namespace store
} // namespace crw
