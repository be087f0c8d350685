/**
 * @file
 * The durable FlatTrace store (trace/flat_trace_io.h): a round-trip
 * through a .flat arena file must hand the replay fast loop exactly
 * the bytes FlatTrace::build produces — event words, wide operands
 * and spans all bit-identical — and every validation failure (wrong
 * checksum, wrong version key, damage) must fall back cleanly to a
 * load failure, so cachedFlatTrace re-predecodes instead of replaying
 * garbage. Operands too wide for an event word must survive the
 * escape both in memory and through the file, and replay exactly as
 * the oracle decodes them.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "rt/sched_core.h"
#include "trace/event_trace.h"
#include "trace/flat_trace.h"
#include "trace/flat_trace_io.h"
#include "trace/replay_batch.h"
#include "trace/replay_driver.h"
#include "trace/run_metrics.h"

namespace crw {
namespace {

std::string
tempPath(const char *tag)
{
    return "flat-io-test-" + std::string(tag) + "-" +
           std::to_string(static_cast<int>(::getpid())) + ".flat";
}

/** Same shape as the predecode unit test: all ops, both encodings. */
EventTrace
sampleTrace()
{
    TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
    rec.onThreadSpawn(0, "T1:producer", 0);
    rec.onThreadSpawn(1, "T2:consumer", 0);
    const int s1 = rec.onStreamCreate("S1", 2, 1);

    rec.recordSave(0);
    rec.recordCharge(0, 7);
    rec.recordPut(0, s1);
    rec.recordSave(0);
    rec.recordRestore(0);
    rec.recordCharge(0, 1000000);
    rec.recordClose(0, s1);
    rec.recordExit(0);

    rec.recordGet(1, s1);
    rec.recordCharge(1, 15);
    rec.recordExit(1);

    return rec.take(42, 567);
}

TEST(FlatTraceIo, RoundTripIsBitIdenticalToBuild)
{
    const EventTrace trace = sampleTrace();
    const std::uint64_t checksum = traceChecksum(trace);
    const FlatTrace built = FlatTrace::build(trace);
    const std::string path = tempPath("roundtrip");

    std::string err;
    ASSERT_TRUE(saveFlatTrace(built, checksum, path, &err)) << err;

    FlatTrace loaded;
    ASSERT_TRUE(loadFlatTrace(path, checksum, loaded, &err)) << err;
    EXPECT_TRUE(loaded.arena.valid()) << "must serve the mmap, not a copy";

    ASSERT_EQ(loaded.eventCount(), built.eventCount());
    EXPECT_EQ(std::memcmp(loaded.words, built.words,
                          built.eventCount() * sizeof(std::uint32_t)),
              0);
    ASSERT_EQ(loaded.wideCount, built.wideCount);
    for (std::uint32_t k = 0; k < built.wideCount; ++k) {
        EXPECT_EQ(loaded.wide[k].event, built.wide[k].event);
        EXPECT_EQ(loaded.wide[k].operand, built.wide[k].operand);
    }
    ASSERT_EQ(loaded.threads.size(), built.threads.size());
    for (std::size_t t = 0; t < built.threads.size(); ++t) {
        EXPECT_EQ(loaded.threads[t].begin, built.threads[t].begin);
        EXPECT_EQ(loaded.threads[t].end, built.threads[t].end);
    }

    std::remove(path.c_str());
}

TEST(FlatTraceIo, WrongChecksumIsRejected)
{
    const EventTrace trace = sampleTrace();
    const std::uint64_t checksum = traceChecksum(trace);
    const std::string path = tempPath("wrongsum");
    ASSERT_TRUE(saveFlatTrace(FlatTrace::build(trace), checksum, path));

    // A stale capture (different checksum) must never attach: the key
    // embeds the checksum, so this is an identity mismatch.
    FlatTrace loaded;
    EXPECT_FALSE(loadFlatTrace(path, checksum ^ 1, loaded));
    std::remove(path.c_str());
}

TEST(FlatTraceIo, DamagedPayloadIsRejected)
{
    const EventTrace trace = sampleTrace();
    const std::uint64_t checksum = traceChecksum(trace);
    const std::string path = tempPath("damage");
    ASSERT_TRUE(saveFlatTrace(FlatTrace::build(trace), checksum, path));

    // Flip one byte near the end (inside the payload): attach's O(1)
    // header check passes, but loadFlatTrace's verifyPayload must not.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        f.seekg(size - 3);
        char c = 0;
        f.get(c);
        f.seekp(size - 3);
        f.put(static_cast<char>(c ^ 0x20));
    }
    FlatTrace loaded;
    EXPECT_FALSE(loadFlatTrace(path, checksum, loaded));
    std::remove(path.c_str());
}

TEST(FlatTraceIo, MissingFileIsAMiss)
{
    FlatTrace loaded;
    std::string err;
    EXPECT_FALSE(
        loadFlatTrace(tempPath("missing"), 123, loaded, &err));
    EXPECT_FALSE(err.empty());
}

TEST(FlatTraceIo, KeyAndFileNameEmbedTheChecksum)
{
    EXPECT_EQ(flatTraceFileName(0x0123456789abcdefull),
              "c0123456789abcdef.flat");
    const std::string key = flatTraceKey(0x0123456789abcdefull);
    EXPECT_NE(key.find("trace=0123456789abcdef"), std::string::npos)
        << key;
    EXPECT_NE(key.find("|v" + std::to_string(kFlatTraceFormatVersion)),
              std::string::npos)
        << key;
}

TEST(FlatTraceIo, EmptyTraceRoundTrips)
{
    TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
    const EventTrace trace = rec.take(0, 0);
    const std::uint64_t checksum = traceChecksum(trace);
    const std::string path = tempPath("empty");
    ASSERT_TRUE(saveFlatTrace(FlatTrace::build(trace), checksum, path));
    FlatTrace loaded;
    std::string err;
    ASSERT_TRUE(loadFlatTrace(path, checksum, loaded, &err)) << err;
    EXPECT_EQ(loaded.eventCount(), 0u);
    EXPECT_TRUE(loaded.threads.empty());
    std::remove(path.c_str());
}

/**
 * A producer/consumer pair whose charges straddle the inline operand
 * width: the widest inline value, the escape value itself, the first
 * value past it and a 40-bit charge, interleaved with small ones.
 */
EventTrace
wideTrace()
{
    const std::uint64_t charges[] = {
        FlatTrace::kWideOperand - 1, FlatTrace::kWideOperand, 3,
        std::uint64_t{FlatTrace::kWideOperand} + 1,
        std::uint64_t{1} << 40, 17};
    TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
    rec.onThreadSpawn(0, "T1:producer", 0);
    rec.onThreadSpawn(1, "T2:consumer", 0);
    const int s1 = rec.onStreamCreate("S1", 2, 1);
    for (int i = 0; i < 24; ++i) {
        rec.recordSave(0);
        rec.recordCharge(0, charges[i % 6]);
        rec.recordSave(0);
        rec.recordCharge(0, charges[(i + 1) % 6]);
        rec.recordRestore(0);
        rec.recordPut(0, s1);
        rec.recordRestore(0);
    }
    rec.recordClose(0, s1);
    rec.recordExit(0);
    for (int i = 0; i < 24; ++i) {
        rec.recordGet(1, s1);
        rec.recordSave(1);
        rec.recordCharge(1, charges[(i + 3) % 6]);
        rec.recordRestore(1);
    }
    rec.recordGet(1, s1); // stream closed and drained: falls through
    rec.recordExit(1);
    return rec.take(0, 0);
}

EngineConfig
wideConfig(SchemeKind scheme, int windows)
{
    EngineConfig ec;
    ec.scheme = scheme;
    ec.numWindows = windows;
    return ec;
}

RunMetrics
replayPoint(const EventTrace &trace, const FlatTrace &flat,
            const EngineConfig &ec, SchedPolicy policy, ReplayPath path)
{
    ReplayDriver driver(trace, ec, policy, &flat);
    driver.setPath(path);
    driver.run();
    EXPECT_EQ(driver.usedFastPath(), path == ReplayPath::Auto);
    return driver.metrics();
}

TEST(FlatTraceIo, WideOperandsEscapeAndRoundTrip)
{
    const EventTrace trace = wideTrace();
    const FlatTrace built = FlatTrace::build(trace);
    // Three of the six charge values escape, and the 72 charges cycle
    // through all six.
    ASSERT_EQ(built.wideCount, 3u * (2 * 24 + 24) / 6);
    for (std::uint32_t k = 0; k < built.wideCount; ++k) {
        EXPECT_GE(built.wide[k].operand, FlatTrace::kWideOperand);
        EXPECT_EQ(built.operand(static_cast<std::uint32_t>(
                      built.wide[k].event)),
                  built.wide[k].operand);
    }

    const std::uint64_t checksum = traceChecksum(trace);
    const std::string path = tempPath("wide");
    std::string err;
    ASSERT_TRUE(saveFlatTrace(built, checksum, path, &err)) << err;
    FlatTrace loaded;
    ASSERT_TRUE(loadFlatTrace(path, checksum, loaded, &err)) << err;
    std::remove(path.c_str());
    ASSERT_EQ(loaded.eventCount(), built.eventCount());
    ASSERT_EQ(loaded.wideCount, built.wideCount);
    for (std::uint32_t i = 0; i < built.events; ++i) {
        EXPECT_EQ(loaded.words[i], built.words[i]) << "event " << i;
        EXPECT_EQ(loaded.operand(i), built.operand(i)) << "event " << i;
    }

    // Per point: the flat loop over either image against the oracle,
    // which decodes the varint scripts and never sees the escape.
    const FlatTrace *const images[] = {&built, &loaded};
    for (const SchedPolicy policy : allSchedPolicies()) {
        for (const SchemeKind scheme :
             {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP,
              SchemeKind::Infinite}) {
            const EngineConfig ec = wideConfig(scheme, 4);
            const RunMetrics oracle = replayPoint(
                trace, built, ec, policy, ReplayPath::Legacy);
            EXPECT_GT(oracle.totalCycles, std::uint64_t{1} << 40);
            for (const FlatTrace *image : images)
                EXPECT_TRUE(metricsBitIdentical(
                    oracle, replayPoint(trace, *image, ec, policy,
                                        ReplayPath::Auto)))
                    << schemeName(scheme) << "/" << policyName(policy);
        }
    }

    // Batched: lockstep lanes over the loaded image, each against its
    // own oracle point.
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP,
          SchemeKind::Infinite}) {
        std::vector<EngineConfig> configs;
        for (const int windows : {4, 6, 9})
            configs.push_back(wideConfig(scheme, windows));
        BatchedReplayDriver batch(trace, configs, SchedPolicy::Fifo,
                                  &loaded);
        ASSERT_TRUE(batch.run());
        for (std::size_t l = 0; l < configs.size(); ++l)
            EXPECT_TRUE(metricsBitIdentical(
                replayPoint(trace, built, configs[l], SchedPolicy::Fifo,
                            ReplayPath::Legacy),
                batch.metrics(l)))
                << schemeName(scheme) << " lane " << l;
    }
}

TEST(FlatTraceIo, WideTableMustNameEveryEscape)
{
    // A payload whose hash is intact but whose escape table disagrees
    // with its words must not attach: the replay loop trusts both.
    const EventTrace trace = wideTrace();
    const FlatTrace built = FlatTrace::build(trace);
    ASSERT_GT(built.wideCount, 1u);
    const std::uint64_t checksum = traceChecksum(trace);
    const std::string path = tempPath("widebad");

    FlatTrace dropped;
    dropped.words = built.words;
    dropped.events = built.events;
    dropped.wide = built.wide;
    dropped.wideCount = built.wideCount - 1; // one escape unresolved
    for (const FlatTrace::Span &s : built.threads)
        dropped.threads.push_back(s);
    ASSERT_TRUE(saveFlatTrace(dropped, checksum, path));
    FlatTrace loaded;
    std::string err;
    EXPECT_FALSE(loadFlatTrace(path, checksum, loaded, &err));
    EXPECT_NE(err.find("wide table"), std::string::npos) << err;
    std::remove(path.c_str());
}

} // namespace
} // namespace crw
