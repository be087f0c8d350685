/**
 * @file
 * The 64-byte alignment contract behind the SIMD follower pass and
 * the streaming replay walks (DESIGN.md §16): AlignedVec pins every
 * allocation to kCacheAlign, the flat-trace file places each of its
 * arrays on a kCacheAlign file offset (and mmap page alignment makes
 * the mapped pointers 64-byte aligned too), and a built FlatTrace
 * keeps its event words on aligned storage — in memory and through a
 * .flat round trip. The SoA kernels issue
 * aligned full-width vector loads against these pointers, so a
 * regression here is a SIGSEGV in the replay hot loop, not a slow
 * path.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/aligned.h"
#include "trace/event_trace.h"
#include "trace/flat_trace.h"
#include "trace/flat_trace_io.h"

namespace crw {
namespace {

bool
aligned64(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(Alignment, ConstantsAgreeOnOneCacheLine)
{
    // The SoA kernels assume one x86 cache line everywhere: the
    // in-memory arrays and the flat file's array offsets both use
    // kCacheAlign, so they cannot drift apart.
    EXPECT_EQ(kCacheAlign, 64u);
}

TEST(Alignment, AlignedVecStaysAlignedThroughGrowth)
{
    AlignedVec<std::int32_t> v;
    for (int i = 0; i < 10000; ++i) {
        v.push_back(i);
        if ((i & (i + 1)) == 0) { // around every capacity doubling
            ASSERT_TRUE(aligned64(v.data())) << "after " << i;
        }
    }
    EXPECT_TRUE(aligned64(v.data()));

    AlignedVec<std::uint64_t> w;
    w.resize(3);
    EXPECT_TRUE(aligned64(w.data()));
    w.resize(4096);
    EXPECT_TRUE(aligned64(w.data()));

    // Moves hand over the same allocation, still aligned.
    AlignedVec<std::uint64_t> moved(std::move(w));
    EXPECT_TRUE(aligned64(moved.data()));
}

EventTrace
tinyTrace()
{
    TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
    rec.onThreadSpawn(0, "T1:producer", 0);
    rec.onThreadSpawn(1, "T2:consumer", 0);
    const int s1 = rec.onStreamCreate("S1", 2, 1);
    rec.recordSave(0);
    rec.recordCharge(0, 7);
    rec.recordPut(0, s1);
    rec.recordRestore(0);
    rec.recordExit(0);
    rec.recordGet(1, s1);
    rec.recordExit(1);
    return rec.take(42, 567);
}

TEST(Alignment, ArenaSegmentsLandOnCacheLines)
{
    // Ragged thread and event counts: the words and the wide table
    // must each start on a fresh cache line of the mapped file
    // regardless of how many bytes come before them.
    for (const int threads : {1, 3, 8, 9}) {
        TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
        for (int t = 0; t < threads; ++t) {
            rec.onThreadSpawn(t, std::to_string(t), 0);
            for (int i = 0; i <= t; ++i)
                rec.recordCharge(t, i == 1 ? std::uint64_t{1} << 40 : 5);
            rec.recordExit(t);
        }
        const EventTrace trace = rec.take(0, 0);
        const std::uint64_t checksum = traceChecksum(trace);
        const FlatTrace built = FlatTrace::build(trace);
        const std::string path =
            "align-test-" + std::to_string(::getpid()) + ".flat";
        std::string err;
        ASSERT_TRUE(saveFlatTrace(built, checksum, path, &err)) << err;
        FlatTrace loaded;
        ASSERT_TRUE(loadFlatTrace(path, checksum, loaded, &err)) << err;
        std::remove(path.c_str());
        ASSERT_TRUE(loaded.mapping.valid());
        EXPECT_TRUE(aligned64(loaded.words)) << threads << " threads";
        EXPECT_EQ(loaded.wideCount,
                  static_cast<std::uint32_t>(threads > 1 ? threads - 1 : 0));
        if (loaded.wideCount != 0) {
            EXPECT_TRUE(aligned64(loaded.wide)) << threads << " threads";
        }
    }
}

TEST(Alignment, FlatTraceArenasAlignedInMemoryAndFromDisk)
{
    const EventTrace trace = tinyTrace();
    const FlatTrace built = FlatTrace::build(trace);
    EXPECT_TRUE(aligned64(built.words));

    const std::string path =
        "align-flat-" + std::to_string(::getpid()) + ".flat";
    std::string err;
    const std::uint64_t checksum = traceChecksum(trace);
    ASSERT_TRUE(saveFlatTrace(built, checksum, path, &err)) << err;
    FlatTrace loaded;
    ASSERT_TRUE(loadFlatTrace(path, checksum, loaded, &err)) << err;
    EXPECT_TRUE(aligned64(loaded.words));
    EXPECT_TRUE(aligned64(loaded.wide));
    std::remove(path.c_str());
}

} // namespace
} // namespace crw
