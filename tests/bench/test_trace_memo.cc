/**
 * @file
 * The executor's per-behavior memos (bench/executor.h): a trace's
 * memoized checksum must equal traceChecksum of the trace itself,
 * whether the trace was loaded from disk (the verified trailer) or
 * generated in process, and concurrent requests for flat images must
 * predecode each behavior exactly once — distinct behaviors in
 * parallel — into an image identical to a serial FlatTrace::build. A
 * flat file of an older encoding must be refused by its version,
 * rebuilt and rewritten in the current one.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/executor.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "obs/metrics.h"
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
 * Write @p flat at @p path in the v2 encoding: one TraceOp byte and
 * one u64 operand per event, in "ops" and "operands" segments, keyed
 * "...|v2".
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
    std::vector<std::uint32_t> spans;
    for (const FlatTrace::Span &span : flat.threads) {
        spans.push_back(span.begin);
        spans.push_back(span.end);
    }
    std::string key = flatTraceKey(checksum);
    key.replace(key.rfind("|v"), std::string::npos, "|v2");
    store::ArenaBuilder builder(2, key);
    builder.addSegment("ops", ops.data(), ops.size());
    builder.addSegment("operands", operands.data(),
                       operands.size() * sizeof(std::uint64_t));
    builder.addSegment("spans", spans.data(),
                       spans.size() * sizeof(std::uint32_t));
    std::string err;
    ASSERT_TRUE(builder.write(path, &err)) << err;
}

TEST(FlatTraceMemo, V2FlatFileIsRejectedRebuiltAndRewritten)
{
    const BehaviorId behavior =
        privateBehavior(SynthSpec::Topology::Ring, 4, 60);
    const std::string trace_path = traceFilePath(behavior);
    const FlatTrace serial = FlatTrace::build(cachedTrace(behavior));
    const std::uint64_t checksum = cachedTraceChecksum(behavior);
    const std::string path =
        outputPath("flat/" + flatTraceFileName(checksum));
    writeV2FlatFile(serial, checksum, path);

    FlatTrace stale;
    std::string err;
    EXPECT_FALSE(loadFlatTrace(path, checksum, stale, &err));
    EXPECT_NE(err.find("app version 2"), std::string::npos) << err;

    const std::uint64_t attach = metrics().counterValue("flat.attach");
    const std::uint64_t predecode =
        metrics().counterValue("flat.predecode");
    const std::uint64_t stored = metrics().counterValue("flat.store");
    const FlatTrace &image = cachedFlatTrace(behavior);
    EXPECT_EQ(metrics().counterValue("flat.attach"), attach);
    EXPECT_EQ(metrics().counterValue("flat.predecode"), predecode + 1);
    EXPECT_EQ(metrics().counterValue("flat.store"), stored + 1);

    // The rewritten file attaches in the current encoding and holds
    // the serial build's words and spans.
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
    std::remove(trace_path.c_str());
}

} // namespace
} // namespace bench
} // namespace crw
