/**
 * @file
 * The executor's per-behavior memos (bench/executor.h): a trace's
 * memoized checksum must equal traceChecksum of the trace itself,
 * whether the trace was loaded from disk (the verified trailer) or
 * generated in process, and concurrent requests for flat images must
 * predecode each behavior exactly once — distinct behaviors in
 * parallel — into an image identical to a serial FlatTrace::build. A
 * flat file of an older format must be refused, rebuilt and
 * rewritten in the current one, and so must a current
 * one whose hash is valid but whose words the replay loop cannot
 * run.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/executor.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "obs/metrics.h"
#include "common/byteio.h"
#include "store/arena.h"
#include "trace/flat_trace.h"
#include "trace/flat_trace_io.h"
#include "trace/synth.h"

namespace crw {
namespace bench {
namespace {

/**
 * A synth behavior no other test requests: the memos are
 * process-wide, so each test uses a topology/seed of its own (the
 * pid in the seed keeps concurrent test processes off each other's
 * trace files).
 */
BehaviorId
privateBehavior(SynthSpec::Topology topology, int threads, int salt)
{
    SynthSpec spec;
    spec.topology = topology;
    spec.threads = threads;
    spec.items = 40 + salt;
    spec.seed = static_cast<std::uint64_t>(::getpid()) * 1000 +
                static_cast<std::uint64_t>(salt);
    return BehaviorId::fromSynth(spec);
}

std::string
traceFilePath(const BehaviorId &behavior)
{
    return outputPath("traces/" + behavior.key() + "-s" +
                      std::to_string(behavior.seed()) + "-c0.trace");
}

TEST(TraceMemo, ChecksumMatchesLoadedAndFreshTraces)
{
    // Loaded: the file exists before the memo's first request.
    const BehaviorId loaded =
        privateBehavior(SynthSpec::Topology::Ring, 3, 1);
    const std::string path = traceFilePath(loaded);
    std::string err;
    ASSERT_TRUE(saveTraceFile(generateSynthTrace(loaded.synth), path,
                              &err))
        << err;
    const EventTrace &from_disk = cachedTrace(loaded);
    EXPECT_NE(from_disk.fileChecksum, 0u) << "not served from disk";
    EXPECT_EQ(cachedTraceChecksum(loaded), traceChecksum(from_disk));

    // Fresh: no file, so the memo generates (and saves) the trace.
    const BehaviorId fresh =
        privateBehavior(SynthSpec::Topology::Pipeline, 3, 2);
    const std::string fresh_path = traceFilePath(fresh);
    std::remove(fresh_path.c_str());
    const EventTrace &generated = cachedTrace(fresh);
    EXPECT_EQ(generated.fileChecksum, 0u) << "not generated";
    EXPECT_EQ(cachedTraceChecksum(fresh), traceChecksum(generated));

    std::remove(path.c_str());
    std::remove(fresh_path.c_str());
}

/** Scoped flat-store bypass (restored even when an ASSERT returns). */
struct ScopedNoFlatStore
{
    ScopedNoFlatStore() { setFlatCacheEnabled(false); }
    ~ScopedNoFlatStore() { setFlatCacheEnabled(true); }
    ScopedNoFlatStore(const ScopedNoFlatStore &) = delete;
    ScopedNoFlatStore &operator=(const ScopedNoFlatStore &) = delete;
};

TEST(FlatTraceMemo, OnePredecodePerBehaviorUnderConcurrentRequests)
{
    // In-memory predecode only: an attach from a stored image would
    // not count as a predecode.
    const ScopedNoFlatStore no_flat_store;
    constexpr std::size_t kBehaviors = 6;
    constexpr std::size_t kRequests = 4;
    std::vector<BehaviorId> behaviors;
    std::vector<std::string> paths;
    for (std::size_t b = 0; b < kBehaviors; ++b) {
        behaviors.push_back(privateBehavior(
            SynthSpec::Topology::FanInOut, 2 + static_cast<int>(b % 3),
            static_cast<int>(10 + b)));
        paths.push_back(traceFilePath(behaviors.back()));
        cachedTrace(behaviors.back());
    }

    const std::uint64_t before =
        metrics().counterValue("flat.predecode");
    std::vector<const FlatTrace *> got(kBehaviors * kRequests);
    ParallelSweep(4).run(got.size(), [&](std::size_t i) {
        got[i] = &cachedFlatTrace(behaviors[i % kBehaviors]);
    });
    EXPECT_EQ(metrics().counterValue("flat.predecode") - before,
              kBehaviors);

    for (std::size_t b = 0; b < kBehaviors; ++b) {
        const FlatTrace &image = *got[b];
        for (std::size_t r = 1; r < kRequests; ++r)
            EXPECT_EQ(got[r * kBehaviors + b], &image)
                << "behavior " << b << " request " << r;

        const FlatTrace serial =
            FlatTrace::build(cachedTrace(behaviors[b]));
        ASSERT_EQ(image.eventCount(), serial.eventCount())
            << "behavior " << b;
        EXPECT_EQ(std::memcmp(image.words, serial.words,
                              serial.events * sizeof(std::uint32_t)),
                  0)
            << "behavior " << b;
        ASSERT_EQ(image.wideCount, serial.wideCount) << "behavior " << b;
        for (std::uint32_t k = 0; k < serial.wideCount; ++k) {
            EXPECT_EQ(image.wide[k].event, serial.wide[k].event);
            EXPECT_EQ(image.wide[k].operand, serial.wide[k].operand);
        }
        ASSERT_EQ(image.threads.size(), serial.threads.size());
        for (std::size_t t = 0; t < serial.threads.size(); ++t) {
            EXPECT_EQ(image.threads[t].begin, serial.threads[t].begin);
            EXPECT_EQ(image.threads[t].end, serial.threads[t].end);
        }
    }
    for (const std::string &path : paths)
        std::remove(path.c_str());
}

/**
 * Write @p flat at @p path as a v2 flat file: the segmented-arena
 * format the flat store used before v4 ("CRWARENA" superblock, segment
 * table, identity key "...|v2"), with one TraceOp byte and one u64
 * operand per event in "ops" and "operands" segments.
 */
void
writeV2FlatFile(const FlatTrace &flat, std::uint64_t checksum,
                const std::string &path)
{
    std::vector<std::uint8_t> ops;
    std::vector<std::uint64_t> operands;
    for (std::uint32_t i = 0; i < flat.events; ++i) {
        ops.push_back(static_cast<std::uint8_t>(flat.op(i)));
        operands.push_back(flat.operand(i));
    }
    char sum[17];
    std::snprintf(sum, sizeof sum, "%016llx",
                  static_cast<unsigned long long>(checksum));
    const std::string key = "flat|trace=" + std::string(sum) + "|v2";
    struct Segment
    {
        const char *name;
        const void *data;
        std::size_t bytes;
    };
    const Segment segments[] = {
        {"ops", ops.data(), ops.size()},
        {"operands", operands.data(), operands.size() * 8},
        {"spans", flat.threads.data(), flat.threads.size() * 8},
    };
    const auto align = [](std::size_t n) { return (n + 63) / 64 * 64; };

    // Superblock, segment table and key, then the 64-byte aligned
    // segments; the payload hash, then the header hash, come last.
    std::vector<std::uint8_t> image(
        align(48 + std::size(segments) * 24 + key.size()));
    const std::size_t payload_at = image.size();
    const auto put = [&image](std::size_t off, auto v) {
        std::memcpy(image.data() + off, &v, sizeof v);
    };
    std::memcpy(image.data(), "CRWARENA", 8);
    put(8, std::uint32_t{2});  // arena format version
    put(12, std::uint32_t{2}); // flat-trace format version
    put(32, static_cast<std::uint32_t>(std::size(segments)));
    put(36, static_cast<std::uint32_t>(key.size()));
    std::size_t entry = 48;
    for (const Segment &seg : segments) {
        const std::size_t at = image.size();
        std::strncpy(reinterpret_cast<char *>(image.data() + entry),
                     seg.name, 8);
        put(entry + 8, std::uint64_t{at});
        put(entry + 16, std::uint64_t{seg.bytes});
        entry += 24;
        image.resize(align(at + seg.bytes));
        if (seg.bytes != 0)
            std::memcpy(image.data() + at, seg.data, seg.bytes);
    }
    std::memcpy(image.data() + entry, key.data(), key.size());
    put(16, std::uint64_t{image.size()});
    put(24, store::hashArena64(image.data() + payload_at,
                               image.size() - payload_at));
    put(40, fnv1a64(image.data(), payload_at));
    std::string err;
    ASSERT_TRUE(writeFileAtomic({{image.data(), image.size()}}, path, &err))
        << err;
}

/**
 * The file at the behavior's flat path is refused by loadFlatTrace
 * (its error names @p why) or, for an empty @p why, loads but does
 * not fit the behavior's trace; either way cachedFlatTrace predecodes
 * and stores the image once instead of attaching it: the rewritten
 * file attaches and holds the serial build's words and spans.
 */
void
expectRefusedRebuiltAndRewritten(const BehaviorId &behavior,
                                 const FlatTrace &serial,
                                 const std::string &why)
{
    const std::uint64_t checksum = cachedTraceChecksum(behavior);
    const std::string path =
        outputPath("flat/" + flatTraceFileName(checksum));
    FlatTrace stale;
    std::string err;
    if (why.empty()) {
        EXPECT_TRUE(loadFlatTrace(path, checksum, stale, &err)) << err;
    } else {
        EXPECT_FALSE(loadFlatTrace(path, checksum, stale, &err));
        EXPECT_NE(err.find(why), std::string::npos) << err;
    }

    const std::uint64_t attach = metrics().counterValue("flat.attach");
    const std::uint64_t predecode =
        metrics().counterValue("flat.predecode");
    const std::uint64_t stored = metrics().counterValue("flat.store");
    const FlatTrace &image = cachedFlatTrace(behavior);
    EXPECT_EQ(metrics().counterValue("flat.attach"), attach);
    EXPECT_EQ(metrics().counterValue("flat.predecode"), predecode + 1);
    EXPECT_EQ(metrics().counterValue("flat.store"), stored + 1);

    FlatTrace rewritten;
    ASSERT_TRUE(loadFlatTrace(path, checksum, rewritten, &err)) << err;
    for (const FlatTrace *flat : {&image, &serial}) {
        ASSERT_EQ(rewritten.eventCount(), flat->eventCount());
        EXPECT_EQ(std::memcmp(rewritten.words, flat->words,
                              flat->events * sizeof(std::uint32_t)),
                  0);
        ASSERT_EQ(rewritten.threads.size(), flat->threads.size());
        for (std::size_t t = 0; t < flat->threads.size(); ++t) {
            EXPECT_EQ(rewritten.threads[t].begin, flat->threads[t].begin);
            EXPECT_EQ(rewritten.threads[t].end, flat->threads[t].end);
        }
    }
    std::remove(path.c_str());
}

TEST(FlatTraceMemo, V2FlatFileIsRejectedRebuiltAndRewritten)
{
    const BehaviorId behavior =
        privateBehavior(SynthSpec::Topology::Ring, 4, 60);
    const FlatTrace serial = FlatTrace::build(cachedTrace(behavior));
    const std::uint64_t checksum = cachedTraceChecksum(behavior);
    writeV2FlatFile(serial, checksum,
                    outputPath("flat/" + flatTraceFileName(checksum)));
    expectRefusedRebuiltAndRewritten(behavior, serial, "bad magic");
    std::remove(traceFilePath(behavior).c_str());
}

/**
 * Save a copy of @p serial whose first event of kind @p op has its
 * word replaced by @p word(old word), claiming @p extra_streams more
 * streams than the trace has. The save stamps a valid payload hash,
 * so only the attach-time checks can refuse it.
 */
template <typename Doctor>
void
writeDoctoredFlatFile(const BehaviorId &behavior, const FlatTrace &serial,
                      TraceOp op, Doctor word, std::uint32_t extra_streams = 0)
{
    FlatTrace doctored;
    doctored.wordStorage.resize(serial.events);
    std::memcpy(doctored.wordStorage.data(), serial.words,
                serial.events * sizeof(std::uint32_t));
    std::uint32_t i = 0;
    while (i < serial.events && serial.op(i) != op)
        ++i;
    ASSERT_LT(i, serial.events) << "no event of op " << static_cast<int>(op);
    doctored.wordStorage[i] = word(serial.words[i]);
    doctored.words = doctored.wordStorage.data();
    doctored.events = serial.events;
    doctored.wide = serial.wide;
    doctored.wideCount = serial.wideCount;
    doctored.threads = serial.threads;
    doctored.streamCount = serial.streamCount + extra_streams;
    const std::uint64_t checksum = cachedTraceChecksum(behavior);
    std::string err;
    ASSERT_TRUE(saveFlatTrace(
        doctored, checksum,
        outputPath("flat/" + flatTraceFileName(checksum)), &err))
        << err;
}

TEST(FlatTraceMemo, OpBitsPastExitAreRejectedAndRebuilt)
{
    // Op bits 7 match no case of the replay loop's switch, which
    // would then spin on the event forever.
    const BehaviorId behavior =
        privateBehavior(SynthSpec::Topology::Pipeline, 3, 61);
    const FlatTrace serial = FlatTrace::build(cachedTrace(behavior));
    writeDoctoredFlatFile(behavior, serial, TraceOp::Charge,
                          [](std::uint32_t w) {
                              return w | FlatTrace::kOpMask;
                          });
    expectRefusedRebuiltAndRewritten(behavior, serial, "op bits 7");
    std::remove(traceFilePath(behavior).c_str());
}

TEST(FlatTraceMemo, StreamOperandPastTheStreamsIsRejectedAndRebuilt)
{
    // A Put naming a stream the trace does not have would index the
    // replay's stream table out of bounds.
    const BehaviorId behavior =
        privateBehavior(SynthSpec::Topology::Pipeline, 3, 62);
    const FlatTrace serial = FlatTrace::build(cachedTrace(behavior));
    ASSERT_GT(serial.streamCount, 0u);
    const std::uint32_t streams = serial.streamCount;
    writeDoctoredFlatFile(behavior, serial, TraceOp::Put,
                          [streams](std::uint32_t w) {
                              return streams << FlatTrace::kOpBits |
                                     (w & FlatTrace::kOpMask);
                          });
    expectRefusedRebuiltAndRewritten(behavior, serial, "names stream");
    std::remove(traceFilePath(behavior).c_str());
}

TEST(FlatTraceMemo, StreamCountOtherThanTheTracesIsRebuilt)
{
    // The same Put in a file that also claims one stream more: the
    // file is consistent in itself, so only the attach's comparison
    // with the trace's own stream count can refuse it.
    const BehaviorId behavior =
        privateBehavior(SynthSpec::Topology::Pipeline, 3, 63);
    const FlatTrace serial = FlatTrace::build(cachedTrace(behavior));
    const std::uint32_t streams = serial.streamCount;
    writeDoctoredFlatFile(
        behavior, serial, TraceOp::Put,
        [streams](std::uint32_t w) {
            return streams << FlatTrace::kOpBits | (w & FlatTrace::kOpMask);
        },
        1);
    expectRefusedRebuiltAndRewritten(behavior, serial, "");
    std::remove(traceFilePath(behavior).c_str());
}

} // namespace
} // namespace bench
} // namespace crw
