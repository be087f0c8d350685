/**
 * @file
 * The payload hash (common/byteio.h): the ranged and streaming forms
 * equal the one-shot hash however the bytes are split, and the values
 * are the ones flat-trace files and result-store records were written
 * with when the hash lived in store/arena, so moving it retired no
 * file.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/byteio.h"

namespace crw {
namespace {

std::vector<std::uint8_t>
sampleBytes(std::size_t n)
{
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
    return bytes;
}

TEST(PayloadHash, KnownValues)
{
    const std::vector<std::uint8_t> bytes = sampleBytes(203);
    EXPECT_EQ(payloadHash64(bytes.data(), bytes.size()),
              0xda142b1359889e3full);
    EXPECT_EQ(payloadHash64(bytes.data(), 8), 0x816ddf89d39709f0ull);
    EXPECT_EQ(payloadHash64(nullptr, 0), 0x9e3779b97f4a7c15ull);
    EXPECT_EQ(payloadHash64("crw payload", 11), 0x4f1658b7be13db60ull);
}

TEST(ArenaHash, RangesHashLikeTheirConcatenation)
{
    // The trace and flat-trace writers hash their images in place,
    // piece by piece; the readers hash what they read in one call or
    // as it streams. All must agree however the pieces cut the
    // 8-byte words.
    const std::vector<std::uint8_t> bytes = sampleBytes(203);
    const std::uint64_t whole = payloadHash64(bytes.data(), bytes.size());
    for (std::size_t a = 0; a <= 20; ++a) {
        for (std::size_t b = a; b <= 40; b += 3) {
            const std::vector<ByteRange> ranges = {
                {bytes.data(), a},
                {nullptr, 0},
                {bytes.data() + a, b - a},
                {bytes.data() + b, bytes.size() - b},
            };
            EXPECT_EQ(payloadHash64(ranges), whole) << a << "," << b;
        }
    }
    EXPECT_NE(payloadHash64(bytes.data(), bytes.size() - 1), whole);
}

TEST(PayloadHash, StreamingEqualsOneShotAtEverySplit)
{
    // Every size up to a few words, every one- and two-cut split of
    // it, and a zero-length update between the pieces.
    for (std::size_t n = 0; n <= 40; ++n) {
        const std::vector<std::uint8_t> bytes = sampleBytes(n);
        const std::uint64_t whole = payloadHash64(bytes.data(), n);
        for (std::size_t a = 0; a <= n; ++a) {
            for (std::size_t b = a; b <= n; ++b) {
                PayloadHasher h(n);
                h.update(bytes.data(), a);
                h.update(nullptr, 0);
                h.update(bytes.data() + a, b - a);
                h.update(bytes.data() + b, n - b);
                ASSERT_EQ(h.finish(), whole) << n << ": " << a << "," << b;
            }
        }
    }
}

TEST(PayloadHash, ByteAtATimeEqualsOneShot)
{
    const std::vector<std::uint8_t> bytes = sampleBytes(1000);
    PayloadHasher h(bytes.size());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        h.update(bytes.data() + i, 1);
        // finish() peeks without ending the stream.
        if (i == 500) {
            EXPECT_EQ(h.finish(), h.finish());
        }
    }
    EXPECT_EQ(h.finish(), payloadHash64(bytes.data(), bytes.size()));
}

TEST(PayloadHash, TheTotalLengthSeedsTheState)
{
    // The same bytes told a different total hash differently, and so
    // do one-byte differences in length or content.
    const std::vector<std::uint8_t> bytes = sampleBytes(64);
    PayloadHasher wrong_total(65);
    wrong_total.update(bytes.data(), bytes.size());
    const std::uint64_t whole = payloadHash64(bytes.data(), 64);
    EXPECT_NE(wrong_total.finish(), whole);
    EXPECT_NE(payloadHash64(bytes.data(), 63), whole);
    std::vector<std::uint8_t> flipped = bytes;
    flipped[17] ^= 0x04;
    EXPECT_NE(payloadHash64(flipped.data(), 64), whole);
}

} // namespace
} // namespace crw
