/**
 * @file
 * The 64-byte alignment contract behind the SIMD follower pass and
 * the streaming replay walks (DESIGN.md §16): AlignedVec pins every
 * allocation to kCacheAlign, the arena file format places every
 * segment on a kArenaAlign boundary (and mmap page alignment makes
 * the in-memory segment pointers 64-byte aligned too), and a built
 * FlatTrace keeps its op/operand arenas on aligned storage — in
 * memory and through a .flat round trip. The SoA kernels issue
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
#include "store/arena.h"
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
    // in-memory arenas (kCacheAlign) and the file format's segment
    // placement (kArenaAlign) must stay in lockstep.
    EXPECT_EQ(kCacheAlign, 64u);
    EXPECT_EQ(store::kArenaAlign, 64u);
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

TEST(Alignment, ArenaSegmentsLandOnCacheLines)
{
    // Deliberately ragged segment sizes: every next segment must be
    // padded up to a fresh 64-byte boundary regardless.
    store::ArenaBuilder builder(3, "unit|align|v3");
    const std::vector<std::uint8_t> a(7, 0xaa);
    const std::vector<std::uint8_t> b(129, 0xbb);
    const std::vector<std::uint8_t> c(64, 0xcc);
    builder.addSegment("a", a.data(), a.size());
    builder.addSegment("b", b.data(), b.size());
    builder.addSegment("c", c.data(), c.size());

    const std::string path =
        "align-test-" + std::to_string(::getpid()) + ".bin";
    std::string err;
    ASSERT_TRUE(builder.write(path, &err)) << err;

    store::ArenaView view;
    ASSERT_TRUE(store::ArenaView::attach(path, 3, "unit|align|v3",
                                         view, &err))
        << err;
    for (const store::ArenaSegmentInfo &seg : view.segments())
        EXPECT_EQ(seg.offset % store::kArenaAlign, 0u) << seg.name;
    for (const char *name : {"a", "b", "c"}) {
        std::uint64_t bytes = 0;
        const void *p = view.segment(name, &bytes);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_TRUE(aligned64(p)) << name;
    }
    std::remove(path.c_str());
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

TEST(Alignment, FlatTraceArenasAlignedInMemoryAndFromDisk)
{
    const EventTrace trace = tinyTrace();
    const FlatTrace built = FlatTrace::build(trace);
    EXPECT_TRUE(aligned64(built.ops));
    EXPECT_TRUE(aligned64(built.operands));

    const std::string path =
        "align-flat-" + std::to_string(::getpid()) + ".flat";
    std::string err;
    const std::uint64_t checksum = traceChecksum(trace);
    ASSERT_TRUE(saveFlatTrace(built, checksum, path, &err)) << err;
    FlatTrace loaded;
    ASSERT_TRUE(loadFlatTrace(path, checksum, loaded, &err)) << err;
    EXPECT_TRUE(aligned64(loaded.ops));
    EXPECT_TRUE(aligned64(loaded.operands));
    std::remove(path.c_str());
}

} // namespace
} // namespace crw
