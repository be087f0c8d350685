/**
 * @file
 * EventTrace binary serialization: round-trip equality, and rejection
 * of every corruption the cache loader must survive — wrong magic,
 * unknown or retired version, truncation, and payload/checksum
 * damage. A stale or damaged cache file must never be replayed. The
 * block-skipping script scanner is pinned to a plain decode of the
 * rules on every dispatch tier the host runs.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/byteio.h"
#include "tests/win/simd_test_util.h"
#include "trace/event_trace.h"
#include "trace/synth.h"

namespace crw {
namespace {

/** A small but representative trace touching every field. */
EventTrace
sampleTrace()
{
    TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
    rec.onThreadSpawn(0, "T1:delatex", 0);
    rec.onThreadSpawn(1, "T2:words", 0);
    const int s1 = rec.onStreamCreate("S1", 1, 1);
    const int s2 = rec.onStreamCreate("S2", 4, 2);

    rec.recordSave(0);
    rec.recordCharge(0, 17);
    rec.recordCharge(0, 3); // coalesces with the previous charge
    rec.recordPut(0, s1);
    rec.recordSave(0);
    rec.recordRestore(0);
    rec.recordCharge(0, 1000000); // forces the varint spill
    rec.recordClose(0, s1);
    rec.recordExit(0);

    rec.recordGet(1, s1);
    rec.recordPut(1, s2);
    rec.recordClose(1, s2);
    rec.recordExit(1);

    return rec.take(42, 567);
}

/** File offset of thread @p tid's u64 script length in the saved
 *  form of @p trace (format v3 layout, see PayloadImage). */
std::size_t
scriptLengthOffset(const EventTrace &trace, std::size_t tid)
{
    std::size_t at = 8 + 4;                   // magic, version
    at += 4 + trace.key.size() + 4 * 8 + 4;  // key, 4 u64s, #streams
    for (const TraceStreamInfo &s : trace.streams)
        at += 4 + s.name.size() + 4 + 4;
    at += 4; // #threads
    for (std::size_t i = 0; i < tid; ++i)
        at += 4 + trace.threads[i].name.size() + 4 + 8 +
              trace.threads[i].code.size();
    return at + 4 + trace.threads[tid].name.size() + 4;
}

/** Rewrite the trailer so it honestly checksums the (edited)
 *  payload with the format's payload hash: only the loader's
 *  structural checks can then object. */
void
resealTrailer(std::vector<char> &bytes)
{
    const std::uint64_t h =
        payloadHash64(bytes.data() + 12, bytes.size() - 20);
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<char>(h >> (8 * i));
}

class EventTraceFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // ctest runs every test as its own process, possibly in
        // parallel: one path per process and test keeps them apart.
        const std::string name =
            "crw_test_event_trace_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".trace";
        path_ = (std::filesystem::temp_directory_path() / name).string();
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::vector<char>
    readAll() const
    {
        std::ifstream in(path_, std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>());
    }

    void
    writeAll(const std::vector<char> &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    std::string path_;
};

TEST_F(EventTraceFile, RoundTripIsIdentity)
{
    const EventTrace trace = sampleTrace();
    std::string err;
    ASSERT_TRUE(saveTraceFile(trace, path_, &err)) << err;

    EventTrace loaded;
    ASSERT_TRUE(loadTraceFile(path_, loaded, &err)) << err;
    EXPECT_TRUE(trace == loaded);

    // The load hands back the trailer it verified: the checksum of
    // the trace it rebuilt, without a re-encode.
    EXPECT_EQ(trace.fileChecksum, 0u);
    EXPECT_EQ(loaded.fileChecksum, traceChecksum(trace));

    // Spot-check the identity fields survived.
    EXPECT_EQ(loaded.key, "m1-n1-d4000-v500");
    EXPECT_EQ(loaded.seed, 1993u);
    EXPECT_EQ(loaded.corpusBytes, 3000u);
    EXPECT_EQ(loaded.misspelled, 42u);
    EXPECT_EQ(loaded.wordsFromDelatex, 567u);
    ASSERT_EQ(loaded.streams.size(), 2u);
    EXPECT_EQ(loaded.streams[1].capacity, 4u);
    EXPECT_EQ(loaded.streams[1].writers, 2u);
    ASSERT_EQ(loaded.threads.size(), 2u);
    EXPECT_EQ(loaded.threads[0].name, "T1:delatex");
    EXPECT_EQ(loaded.eventCount(), trace.eventCount());
}

TEST_F(EventTraceFile, MissingFileFails)
{
    EventTrace out;
    std::string err;
    EXPECT_FALSE(
        loadTraceFile("/nonexistent/dir/none.trace", out, &err));
    EXPECT_FALSE(err.empty());
}

TEST_F(EventTraceFile, BadMagicRejected)
{
    std::string err;
    ASSERT_TRUE(saveTraceFile(sampleTrace(), path_, &err)) << err;
    std::vector<char> bytes = readAll();
    ASSERT_GE(bytes.size(), 8u);
    bytes[0] = 'X';
    writeAll(bytes);

    EventTrace out;
    EXPECT_FALSE(loadTraceFile(path_, out, &err));
    EXPECT_FALSE(err.empty());
}

TEST_F(EventTraceFile, UnknownVersionRejected)
{
    std::string err;
    ASSERT_TRUE(saveTraceFile(sampleTrace(), path_, &err)) << err;
    std::vector<char> bytes = readAll();
    // Version is the little-endian u32 right after the 8-byte magic.
    ASSERT_GE(bytes.size(), 12u);
    bytes[8] = static_cast<char>(0xEE);
    bytes[9] = static_cast<char>(0xFF);
    writeAll(bytes);

    EventTrace out;
    EXPECT_FALSE(loadTraceFile(path_, out, &err));
    EXPECT_FALSE(err.empty());
}

TEST_F(EventTraceFile, RetiredV2FileRejected)
{
    // A genuine v2 file: the same layout under the FNV-1a trailer
    // that version carried. It must be refused by its version, before
    // any hash is taken, so the cache re-captures it.
    std::string err;
    ASSERT_TRUE(saveTraceFile(sampleTrace(), path_, &err)) << err;
    std::vector<char> bytes = readAll();
    bytes[8] = 2;
    const std::uint64_t h = fnv1a64(
        reinterpret_cast<const std::uint8_t *>(bytes.data()) + 12,
        bytes.size() - 20);
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<char>(h >> (8 * i));
    writeAll(bytes);

    EventTrace out;
    EXPECT_FALSE(loadTraceFile(path_, out, &err));
    EXPECT_EQ(err, "unsupported trace version 2");
}

TEST_F(EventTraceFile, TruncationRejected)
{
    std::string err;
    ASSERT_TRUE(saveTraceFile(sampleTrace(), path_, &err)) << err;
    std::vector<char> bytes = readAll();
    ASSERT_GT(bytes.size(), 20u);
    bytes.resize(bytes.size() - 9); // clips checksum + payload tail
    writeAll(bytes);

    EventTrace out;
    EXPECT_FALSE(loadTraceFile(path_, out, &err));
    EXPECT_FALSE(err.empty());
}

TEST_F(EventTraceFile, PayloadCorruptionRejected)
{
    std::string err;
    ASSERT_TRUE(saveTraceFile(sampleTrace(), path_, &err)) << err;
    std::vector<char> bytes = readAll();
    // Flip one payload byte mid-file: the checksum must catch it.
    const std::size_t mid = bytes.size() / 2;
    bytes[mid] = static_cast<char>(bytes[mid] ^ 0x5A);
    writeAll(bytes);

    EventTrace out;
    EXPECT_FALSE(loadTraceFile(path_, out, &err));
    EXPECT_FALSE(err.empty());
}

// --- event-script validation (the gate in front of TraceCursor) ---

TEST(ValidateTraceCode, AcceptsEveryRecorderScript)
{
    const EventTrace trace = sampleTrace();
    for (const TraceThreadInfo &t : trace.threads) {
        std::string why;
        EXPECT_TRUE(
            validateTraceCode(t.code, trace.streams.size(), &why))
            << why;
    }
}

TEST(ValidateTraceCode, RejectsUnknownOp)
{
    // High nibble 7 is one past TraceOp::Exit.
    const std::vector<std::uint8_t> code = {0x70};
    std::string why;
    EXPECT_FALSE(validateTraceCode(code, 0, &why));
    EXPECT_NE(why.find("unknown event op"), std::string::npos) << why;
}

TEST(ValidateTraceCode, RejectsTruncatedVarint)
{
    // Charge (2) with the spill marker, then a continuation byte
    // that promises more bytes the blob does not have.
    const std::vector<std::uint8_t> code = {0x2F, 0x80};
    std::string why;
    EXPECT_FALSE(validateTraceCode(code, 0, &why));
    EXPECT_NE(why.find("truncated varint"), std::string::npos) << why;
}

TEST(ValidateTraceCode, RejectsSpillWithNoBytesAtAll)
{
    const std::vector<std::uint8_t> code = {0x2F};
    std::string why;
    EXPECT_FALSE(validateTraceCode(code, 0, &why));
}

TEST(ValidateTraceCode, RejectsOversizedVarint)
{
    // Eleven continuation bytes shift past 64 bits.
    std::vector<std::uint8_t> code = {0x2F};
    for (int i = 0; i < 11; ++i)
        code.push_back(0x80);
    code.push_back(0x01);
    std::string why;
    EXPECT_FALSE(validateTraceCode(code, 0, &why));
    EXPECT_NE(why.find("oversized varint"), std::string::npos) << why;
}

TEST(ValidateTraceCode, RejectsOutOfRangeStreamId)
{
    // Put (3) naming stream 5 when only 2 streams exist.
    const std::vector<std::uint8_t> code = {0x35};
    std::string why;
    EXPECT_FALSE(validateTraceCode(code, 2, &why));
    EXPECT_NE(why.find("stream id"), std::string::npos) << why;
    // The same byte is fine when the stream exists.
    EXPECT_TRUE(validateTraceCode(code, 6, &why)) << why;
}

/**
 * The script rules decoded one event at a time, written out apart
 * from the scanner: the verdict and message validateTraceCode must
 * give on every tier.
 */
std::string
referenceVerdict(const std::vector<std::uint8_t> &code,
                 std::size_t num_streams)
{
    std::size_t i = 0;
    while (i < code.size()) {
        const std::size_t event = i;
        const auto fail = [event](const std::string &why) {
            return why + " at offset " + std::to_string(event);
        };
        const unsigned op = code[i] >> 4;
        std::uint64_t operand = code[i] & 0x0F;
        ++i;
        if (op > 6)
            return fail("unknown event op " + std::to_string(op));
        if (operand == 15) {
            operand = 0;
            for (int shift = 0;; shift += 7) {
                if (i == code.size())
                    return fail("truncated varint");
                if (shift > 63)
                    return fail("oversized varint");
                const std::uint8_t b = code[i++];
                operand |= static_cast<std::uint64_t>(b & 0x7F) << shift;
                if (!(b & 0x80))
                    break;
            }
        }
        if (op >= 3 && op <= 5 && operand >= num_streams)
            return fail("stream id " + std::to_string(operand) +
                        " out of range");
    }
    return "ok";
}

/** validateTraceCode's verdict, in referenceVerdict's terms. */
std::string
scannerVerdict(const std::vector<std::uint8_t> &code,
               std::size_t num_streams)
{
    std::string why;
    return validateTraceCode(code, num_streams, &why) ? "ok" : why;
}

/** A script of @p size plain tags of every op that fit @p streams. */
std::vector<std::uint8_t>
plainScript(std::size_t size)
{
    static const std::uint8_t kPlain[] = {0x00, 0x11, 0x2E, 0x30, 0x41,
                                          0x51, 0x60, 0x23, 0x10, 0x01};
    std::vector<std::uint8_t> code(size);
    for (std::size_t i = 0; i < size; ++i)
        code[i] = kPlain[i % std::size(kPlain)];
    return code;
}

TEST(ScriptScanner, EverySubstitutionMatchesTheReferenceOnEveryTier)
{
    // Plain runs longer than a 32-byte block between spills of one to
    // three varint bytes, stream ops at the range edge, and a spill
    // that ends the script.
    std::vector<std::uint8_t> code = plainScript(37);
    for (const std::uint8_t b : {0x2F, 0x80, 0x01, 0x11, 0x31, 0x2F,
                                 0x7F})
        code.push_back(b);
    const std::vector<std::uint8_t> run = plainScript(40);
    code.insert(code.end(), run.begin(), run.end());
    for (const std::uint8_t b : {0x3F, 0x01, 0x41, 0x2F, 0xFF, 0xFF,
                                 0x03})
        code.push_back(b);
    constexpr std::size_t kStreams = 2;
    ASSERT_EQ(referenceVerdict(code, kStreams), "ok");

    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        std::vector<std::uint8_t> mutated = code;
        for (std::size_t at = 0; at < code.size(); ++at) {
            for (unsigned v = 0; v < 256; ++v) {
                mutated[at] = static_cast<std::uint8_t>(v);
                ASSERT_EQ(scannerVerdict(mutated, kStreams),
                          referenceVerdict(mutated, kStreams))
                    << simdTierName(tier) << " offset " << at
                    << " byte " << v;
            }
            mutated[at] = code[at];
        }
    }
}

TEST(ScriptScanner, FirstNonPlainTagAtEveryOffsetAroundABlock)
{
    // The first tag the block skip must stop at lands at every offset
    // from 0 to past two 32-byte blocks, in scripts that end right
    // after it or run on: a spill that is fine, one cut short, a bad
    // op and an out-of-range stream id.
    const std::vector<std::vector<std::uint8_t>> stops = {
        {0x2F, 0x81, 0x01}, {0x2F, 0x80}, {0x70}, {0x56}, {0x4F, 0x06}};
    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        for (std::size_t at = 0; at <= 72; ++at) {
            for (const std::vector<std::uint8_t> &stop : stops) {
                for (const std::size_t after : {0, 1, 9, 40}) {
                    std::vector<std::uint8_t> code = plainScript(at);
                    code.insert(code.end(), stop.begin(), stop.end());
                    const std::vector<std::uint8_t> tail =
                        plainScript(after);
                    code.insert(code.end(), tail.begin(), tail.end());
                    for (const std::size_t streams : {2, 6, 16}) {
                        ASSERT_EQ(scannerVerdict(code, streams),
                                  referenceVerdict(code, streams))
                            << simdTierName(tier) << " at " << at
                            << " after " << after << " streams "
                            << streams;
                    }
                }
            }
        }
    }
}

TEST(ScriptScanner, EveryTagAloneMatchesTheReference)
{
    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        for (unsigned v = 0; v < 256; ++v) {
            for (const std::size_t streams : {0, 1, 5, 6, 15, 16}) {
                // Alone, and in the middle of a long plain run.
                std::vector<std::uint8_t> code = plainScript(70);
                code[35] = static_cast<std::uint8_t>(v);
                const std::vector<std::uint8_t> alone = {
                    static_cast<std::uint8_t>(v)};
                EXPECT_EQ(scannerVerdict(alone, streams),
                          referenceVerdict(alone, streams))
                    << simdTierName(tier) << " byte " << v;
                EXPECT_EQ(scannerVerdict(code, streams),
                          referenceVerdict(code, streams))
                    << simdTierName(tier) << " byte " << v;
            }
        }
    }
}

TEST_F(EventTraceFile, ValidChecksumButCorruptScriptRejected)
{
    // A well-formed container around a malformed event script: the
    // checksum is honest, so only load-time script validation can
    // catch it. Pre-fix, loadTraceFile returned true and the panic
    // surfaced later, mid-replay, inside TraceCursor::peek.
    EventTrace trace = sampleTrace();
    trace.threads[1].code = {0x2F, 0x80}; // truncated varint
    std::string err;
    ASSERT_TRUE(saveTraceFile(trace, path_, &err)) << err;

    EventTrace out;
    EXPECT_FALSE(loadTraceFile(path_, out, &err));
    EXPECT_NE(err.find("invalid event script"), std::string::npos)
        << err;
    EXPECT_NE(err.find("thread 1"), std::string::npos) << err;
}

TEST_F(EventTraceFile, FuzzedFilesNeverCrashTheLoader)
{
    // Deterministic corruption fuzz: random single-bit flips and
    // random truncations of a valid file. Every mutation must either
    // load cleanly (a flip the format legitimately tolerates — there
    // are none today, but that is the checksum's business) or fail
    // gracefully with an error; never assert, throw, or crash.
    std::string err;
    ASSERT_TRUE(saveTraceFile(sampleTrace(), path_, &err)) << err;
    const std::vector<char> original = readAll();
    ASSERT_GT(original.size(), 24u);

    std::uint64_t rng = 0x1993ull;
    const auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    for (int i = 0; i < 200; ++i) {
        std::vector<char> bytes = original;
        if (i % 2 == 0) {
            const std::size_t at = next() % bytes.size();
            bytes[at] = static_cast<char>(
                bytes[at] ^ (1u << (next() % 8)));
        } else {
            bytes.resize(next() % bytes.size());
        }
        writeAll(bytes);
        EventTrace out;
        std::string why;
        if (loadTraceFile(path_, out, &why)) {
            // The rare survivable mutation must decode end to end,
            // and the trailer it verified must be the checksum of
            // the trace it rebuilt.
            EXPECT_NO_THROW(out.eventCount());
            EXPECT_EQ(out.fileChecksum, traceChecksum(out));
        } else {
            EXPECT_FALSE(why.empty());
        }
    }
}

TEST_F(EventTraceFile, SynthTraceRoundTripsWithItsChecksum)
{
    // Scripts of several kilobytes, more than one stdio buffer, so
    // each script read spans buffered and direct file reads.
    for (const SynthSpec &spec : synthBehaviorMenu()) {
        const EventTrace trace = generateSynthTrace(spec);
        std::string err;
        ASSERT_TRUE(saveTraceFile(trace, path_, &err)) << err;
        EventTrace loaded;
        ASSERT_TRUE(loadTraceFile(path_, loaded, &err)) << err;
        EXPECT_TRUE(trace == loaded) << trace.key;
        EXPECT_EQ(loaded.fileChecksum, traceChecksum(trace));
        EXPECT_EQ(loaded.fileChecksum, traceChecksum(loaded));
    }
}

TEST_F(EventTraceFile, ScriptsRoundTripAtEveryWordPhaseOnEveryTier)
{
    // The loader folds a script into the hash in 32-byte blocks that
    // start where the running hash's partial word ends. Thread names
    // of 0 to 7 bytes start the script at every phase of an 8-byte
    // word, and the lengths put its tail anywhere in a block.
    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        for (std::size_t name = 0; name < 8; ++name) {
            for (const std::size_t size :
                 {0, 1, 7, 8, 31, 32, 33, 39, 40, 63, 64, 65, 100, 300}) {
                EventTrace trace = sampleTrace();
                trace.threads[0].name = std::string(name, 'x');
                trace.threads[0].code = plainScript(size);
                if (size >= 4) { // a spilled charge mid-script
                    trace.threads[0].code[size / 2] = 0x2F;
                    trace.threads[0].code[size / 2 + 1] = 0x05;
                }
                std::string err;
                ASSERT_TRUE(saveTraceFile(trace, path_, &err)) << err;
                EventTrace loaded;
                ASSERT_TRUE(loadTraceFile(path_, loaded, &err))
                    << simdTierName(tier) << " name " << name << " size "
                    << size << ": " << err;
                EXPECT_TRUE(trace == loaded);
                EXPECT_EQ(loaded.fileChecksum, traceChecksum(trace));
            }
        }
    }
}

TEST_F(EventTraceFile, FlippedScriptByteUnderStaleTrailerIsChecksum)
{
    const EventTrace trace = sampleTrace();
    std::string err;
    ASSERT_TRUE(saveTraceFile(trace, path_, &err)) << err;
    std::vector<char> bytes = readAll();
    // Thread 1's first tag becomes op 7, which no script may carry:
    // the hash must be finished before the script's fault is chosen.
    const std::size_t at = scriptLengthOffset(trace, 1) + 8;
    bytes[at] = static_cast<char>(0x70);
    writeAll(bytes);

    EventTrace out;
    EXPECT_FALSE(loadTraceFile(path_, out, &err));
    EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;

    // The same damage under an honest trailer is the script's fault.
    resealTrailer(bytes);
    writeAll(bytes);
    EXPECT_FALSE(loadTraceFile(path_, out, &err));
    EXPECT_NE(err.find("invalid event script in thread 1"),
              std::string::npos)
        << err;
}

TEST_F(EventTraceFile, ScriptFailingEarlyIsStillHashedToItsEnd)
{
    // A bad tag in the first block of a script many blocks long,
    // under the honest trailer saveTraceFile writes: the loader must
    // hash past the fault to the end of the script, on every tier, or
    // the honest file would read as a checksum mismatch.
    EventTrace trace = sampleTrace();
    std::vector<std::uint8_t> code = plainScript(300);
    code[3] = 0x70;
    trace.threads[0].code = code;
    std::string err;
    ASSERT_TRUE(saveTraceFile(trace, path_, &err)) << err;
    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        EventTrace out;
        EXPECT_FALSE(loadTraceFile(path_, out, &err));
        EXPECT_EQ(err, "invalid event script in thread 0 (T1:delatex): "
                       "unknown event op 7 at offset 3")
            << simdTierName(tier);
    }
}

TEST_F(EventTraceFile, MalformedPayloadOutranksABadScript)
{
    EventTrace trace = sampleTrace();
    trace.threads[0].code = {0x70}; // unknown op
    std::string err;
    ASSERT_TRUE(saveTraceFile(trace, path_, &err)) << err;
    std::vector<char> bytes = readAll();
    // One stray byte after the last field, under an honest trailer.
    bytes.insert(bytes.end() - 8, '\0');
    resealTrailer(bytes);
    writeAll(bytes);

    EventTrace out;
    EXPECT_FALSE(loadTraceFile(path_, out, &err));
    EXPECT_EQ(err, "malformed payload");
}

TEST_F(EventTraceFile, InflatedScriptLengthFailsWithoutAllocating)
{
    // Bit 40 of thread 0's script length: a loader that trusted it
    // would try to allocate a terabyte before reading a byte of it.
    const EventTrace trace = sampleTrace();
    std::string err;
    ASSERT_TRUE(saveTraceFile(trace, path_, &err)) << err;
    std::vector<char> bytes = readAll();
    const std::size_t at = scriptLengthOffset(trace, 0);
    ASSERT_EQ(static_cast<std::size_t>(bytes[at]),
              trace.threads[0].code.size());
    bytes[at + 5] = static_cast<char>(bytes[at + 5] ^ 0x01);
    writeAll(bytes);

    EventTrace out;
    EXPECT_NO_THROW(EXPECT_FALSE(loadTraceFile(path_, out, &err)));
    EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;

    resealTrailer(bytes);
    writeAll(bytes);
    EXPECT_NO_THROW(EXPECT_FALSE(loadTraceFile(path_, out, &err)));
    EXPECT_EQ(err, "malformed payload");
}

TEST(TraceCursor, DecodesWhatTheRecorderEmits)
{
    const EventTrace trace = sampleTrace();
    ASSERT_EQ(trace.threads.size(), 2u);

    TraceCursor cur(trace.threads[0].code);
    std::uint64_t operand = 0;

    ASSERT_FALSE(cur.atEnd());
    EXPECT_EQ(cur.peek(operand), TraceOp::Save);
    cur.advance();
    EXPECT_EQ(cur.peek(operand), TraceOp::Charge);
    EXPECT_EQ(operand, 20u); // 17 + 3 coalesced
    cur.advance();
    EXPECT_EQ(cur.peek(operand), TraceOp::Put);
    EXPECT_EQ(operand, 0u);
    cur.advance();
    EXPECT_EQ(cur.peek(operand), TraceOp::Save);
    cur.advance();
    EXPECT_EQ(cur.peek(operand), TraceOp::Restore);
    cur.advance();
    EXPECT_EQ(cur.peek(operand), TraceOp::Charge);
    EXPECT_EQ(operand, 1000000u); // needed the varint spill
    cur.advance();
    EXPECT_EQ(cur.peek(operand), TraceOp::Close);
    cur.advance();
    EXPECT_EQ(cur.peek(operand), TraceOp::Exit);
    cur.advance();
    EXPECT_TRUE(cur.atEnd());
}

} // namespace
} // namespace crw
