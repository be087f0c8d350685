/**
 * @file
 * EventRing (obs/ring.h): the always-on binary event ring. Publish
 * order must survive a snapshot, laps must drop the overwritten
 * prefix (never return torn slots), the file-backed ring must keep
 * its events across a close + reopen, and a process that loses the
 * writer election must degrade to a silent no-op publisher.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/ring.h"

namespace crw {
namespace obs {
namespace {

std::string
tempPath(const char *tag)
{
    return "ring-test-" + std::string(tag) + "-" +
           std::to_string(static_cast<int>(::getpid())) + ".ring";
}

RingEvent
eventNo(std::uint64_t i)
{
    RingEvent e;
    e.t_us = static_cast<std::int64_t>(i * 10);
    e.code = static_cast<std::uint32_t>(RingEventCode::ReplayPoint);
    e.arg = static_cast<std::uint32_t>(i);
    e.value = i * 1000;
    return e;
}

TEST(EventRing, PublishesAndSnapshotsInOrder)
{
    EventRing ring;
    ASSERT_TRUE(ring.openAnonymous(8));
    EXPECT_EQ(ring.published(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());

    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(ring.publish(eventNo(i)));
    EXPECT_EQ(ring.published(), 5u);

    const std::vector<RingEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(events[i].arg, i);
        EXPECT_EQ(events[i].value, i * 1000);
        EXPECT_EQ(events[i].t_us, static_cast<std::int64_t>(i * 10));
    }
}

TEST(EventRing, LapKeepsOnlyTheNewestCapacityEvents)
{
    EventRing ring;
    ASSERT_TRUE(ring.openAnonymous(8));
    for (std::uint64_t i = 0; i < 20; ++i)
        ASSERT_TRUE(ring.publish(eventNo(i)));
    EXPECT_EQ(ring.published(), 20u);

    const std::vector<RingEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(events[i].arg, 12 + i) << "oldest-first, post-lap";
}

TEST(EventRing, FileBackedRingSurvivesReopen)
{
    const std::string path = tempPath("reopen");
    {
        EventRing ring;
        ASSERT_TRUE(ring.openFile(path, 16));
        ASSERT_TRUE(ring.writable());
        for (std::uint64_t i = 0; i < 3; ++i)
            ASSERT_TRUE(ring.publish(eventNo(i)));
    }
    {
        EventRing ring;
        ASSERT_TRUE(ring.openFile(path, 16));
        EXPECT_EQ(ring.published(), 3u)
            << "a valid header must attach, not re-format";
        const std::vector<RingEvent> events = ring.snapshot();
        ASSERT_EQ(events.size(), 3u);
        EXPECT_EQ(events[2].value, 2000u);
    }
    std::remove(path.c_str());
}

TEST(EventRing, ElectionLoserAttachesReadOnly)
{
    const std::string path = tempPath("loser");
    EventRing winner;
    ASSERT_TRUE(winner.openFile(path, 16));
    ASSERT_TRUE(winner.publish(eventNo(0)));

    EventRing loser;
    ASSERT_TRUE(loser.openFile(path, 16));
    EXPECT_FALSE(loser.writable());
    EXPECT_FALSE(loser.publish(eventNo(1))) << "read-only: no-op";

    // ...but it observes the winner's events live.
    ASSERT_TRUE(winner.publish(eventNo(2)));
    EXPECT_EQ(loser.published(), 2u);
    EXPECT_EQ(loser.snapshot().size(), 2u);

    winner.close();
    loser.close();
    std::remove(path.c_str());
}

TEST(EventRing, ElectionLoserLeavesTheWriterFileSize)
{
    const std::string path = tempPath("loser-size");
    EventRing winner;
    ASSERT_TRUE(winner.openFile(path, 16));
    const auto size = std::filesystem::file_size(path);

    // A loser asking for a larger ring reads the winner's as it is.
    EventRing loser;
    ASSERT_TRUE(loser.openFile(path, 1024));
    EXPECT_FALSE(loser.writable());
    EXPECT_EQ(std::filesystem::file_size(path), size);

    winner.close();
    loser.close();
    std::remove(path.c_str());
}

TEST(EventRing, NamesAreStable)
{
    EXPECT_STREQ(ringEventName(RingEventCode::ReplayPoint),
                 "replay.point");
    EXPECT_STREQ(ringEventName(RingEventCode::CacheCorrupt),
                 "cache.corrupt");
    EXPECT_STREQ(ringEventName(RingEventCode::PoolJobEnd),
                 "pool.job_end");
}

} // namespace
} // namespace obs
} // namespace crw
