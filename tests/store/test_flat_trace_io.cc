/**
 * @file
 * The durable FlatTrace store (trace/flat_trace_io.h): a round-trip
 * through a .flat file must hand the replay fast loop exactly the
 * bytes FlatTrace::build produces — event words, wide operands and
 * spans all bit-identical — and every validation failure (wrong
 * checksum, wrong version, every truncation, every byte flip) must
 * fall back cleanly to a load failure, so cachedFlatTrace
 * re-predecodes instead of replaying garbage. Operands too wide for
 * an event word must survive the escape both in memory and through
 * the file, and replay exactly as the oracle decodes them. Concurrent
 * saves of one path must all land.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "rt/sched_core.h"
#include "store/arena.h"
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

/** Same shape as the predecode unit test: all ops, both encodings.
 *  A @p big_charge of kWideOperand or more escapes one operand. */
EventTrace
sampleTrace(std::uint64_t big_charge = 1000000)
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
    rec.recordCharge(0, big_charge);
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
    EXPECT_TRUE(loaded.mapping.valid()) << "must serve the mmap, not a copy";
    EXPECT_EQ(loaded.streamCount, built.streamCount);

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

    // A stale capture (different checksum) must never attach: the
    // header names the trace it was built from.
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

    // Flip one byte near the end (inside the payload): the header
    // still matches, but the payload hash must not.
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

std::vector<char>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
T
fieldAt(const std::vector<char> &bytes, std::size_t off)
{
    T v;
    std::memcpy(&v, bytes.data() + off, sizeof v);
    return v;
}

template <typename T>
void
setField(std::vector<char> &bytes, std::size_t off, T v)
{
    std::memcpy(bytes.data() + off, &v, sizeof v);
}

/** Re-stamp the header checksum (off 8) over [16, end). */
void
rehash(std::vector<char> &bytes)
{
    setField(bytes, 8,
             store::hashArena64(bytes.data() + 16, bytes.size() - 16));
}

TEST(FlatTraceIo, KeyAndFileNameEmbedTheChecksum)
{
    EXPECT_EQ(flatTraceFileName(0x0123456789abcdefull),
              "c0123456789abcdef.flat");

    // The file's identity key is the trace checksum in its header,
    // beside the format version.
    const std::string path = tempPath("key");
    ASSERT_TRUE(saveFlatTrace(FlatTrace::build(sampleTrace()),
                              0x0123456789abcdefull, path));
    const std::vector<char> bytes = readBytes(path);
    std::remove(path.c_str());
    ASSERT_GE(bytes.size(), 64u);
    EXPECT_EQ(std::string(bytes.data(), 8), std::string("CRWFLAT\0", 8));
    EXPECT_EQ(fieldAt<std::uint32_t>(bytes, 16), kFlatTraceFormatVersion);
    EXPECT_EQ(fieldAt<std::uint64_t>(bytes, 24), 0x0123456789abcdefull);
}

/** A small saved flat file with one escaped operand, as bytes. */
std::vector<char>
smallImage(std::uint64_t checksum)
{
    const std::string path = tempPath("small");
    EXPECT_TRUE(saveFlatTrace(
        FlatTrace::build(sampleTrace(std::uint64_t{1} << 40)), checksum,
        path));
    std::vector<char> bytes = readBytes(path);
    std::remove(path.c_str());
    return bytes;
}

TEST(FlatTraceIo, RejectsWrongVersionAndKey)
{
    const std::string path = tempPath("version");
    std::vector<char> image = smallImage(77);
    writeBytes(path, image);
    FlatTrace loaded;
    std::string err;
    ASSERT_TRUE(loadFlatTrace(path, 77, loaded, &err)) << err;
    EXPECT_EQ(loaded.wideCount, 1u);
    EXPECT_FALSE(loadFlatTrace(path, 78, loaded, &err));
    EXPECT_NE(err.find("built from trace"), std::string::npos) << err;

    // Another version is refused by the version check itself, even
    // with a payload hash that matches.
    setField(image, 16, kFlatTraceFormatVersion - 1);
    rehash(image);
    writeBytes(path, image);
    EXPECT_FALSE(loadFlatTrace(path, 77, loaded, &err));
    EXPECT_NE(err.find("format version"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(FlatTraceIo, EveryTruncationFailsCleanly)
{
    const std::vector<char> image = smallImage(77);
    ASSERT_GT(image.size(), 64u);
    const std::string path = tempPath("cut");
    for (std::size_t n = 0; n < image.size(); ++n) {
        writeBytes(path, std::vector<char>(image.begin(),
                                           image.begin() +
                                               static_cast<long>(n)));
        FlatTrace loaded;
        EXPECT_FALSE(loadFlatTrace(path, 77, loaded)) << "length " << n;
    }
    std::remove(path.c_str());
}

TEST(FlatTraceIo, EveryByteFlipIsDetected)
{
    // A flip that loads would silently poison a replay: the magic,
    // version and trace checksum are compared, and the hash covers
    // every byte after its own field, padding included.
    const std::vector<char> image = smallImage(77);
    const std::string path = tempPath("flip");
    for (std::size_t i = 0; i < image.size(); ++i) {
        std::vector<char> bad = image;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        writeBytes(path, bad);
        FlatTrace loaded;
        EXPECT_FALSE(loadFlatTrace(path, 77, loaded)) << "byte " << i;
    }
    std::remove(path.c_str());
}

TEST(FlatTraceIo, ConcurrentSavesOfOnePathAllLand)
{
    // Each writer gets a temp file of its own, so no save fails and
    // no rename publishes another writer's half-written image. Each
    // image is 4 MB, so a save takes several write calls.
    FlatTrace flat;
    flat.wordStorage.resize(std::size_t{1} << 20);
    for (std::size_t i = 0; i < flat.wordStorage.size(); ++i)
        flat.wordStorage[i] = static_cast<std::uint32_t>(i % 97)
                                  << FlatTrace::kOpBits |
                              static_cast<std::uint32_t>(TraceOp::Charge);
    flat.words = flat.wordStorage.data();
    flat.events = static_cast<std::uint32_t>(flat.wordStorage.size());
    flat.threads.push_back({0, flat.events});

    const std::string path = tempPath("concurrent");
    constexpr int kWriters = 4;
    constexpr int kRounds = 16;
    int failed[kWriters] = {};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&, w] {
            for (int r = 0; r < kRounds; ++r) {
                std::string err;
                if (!saveFlatTrace(flat, 99, path, &err)) {
                    ++failed[w];
                    ADD_FAILURE() << "writer " << w << ": " << err;
                }
            }
        });
    for (std::thread &t : writers)
        t.join();
    for (int w = 0; w < kWriters; ++w)
        EXPECT_EQ(failed[w], 0) << "writer " << w;

    FlatTrace loaded;
    std::string err;
    ASSERT_TRUE(loadFlatTrace(path, 99, loaded, &err)) << err;
    ASSERT_EQ(loaded.events, flat.events);
    EXPECT_EQ(std::memcmp(loaded.words, flat.words,
                          flat.events * sizeof(std::uint32_t)),
              0);
    std::remove(path.c_str());

    // No temp file outlives its save.
    const std::string stem = std::filesystem::path(path).filename();
    for (const auto &entry : std::filesystem::directory_iterator("."))
        EXPECT_NE(entry.path().filename().string().rfind(stem + ".tmp", 0),
                  0u)
            << entry.path();
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
    dropped.streamCount = built.streamCount;
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
