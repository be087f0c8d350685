/**
 * @file
 * EventTrace binary serialization: round-trip equality, and rejection
 * of every corruption the cache loader must survive — wrong magic,
 * unknown version, truncation, and payload/checksum damage. A stale or
 * damaged cache file must never be replayed.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/byteio.h"
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
 *  form of @p trace (format v2 layout, see encodeTracePayload). */
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
 *  payload: only the loader's structural checks can then object. */
void
resealTrailer(std::vector<char> &bytes)
{
    const std::uint64_t h = fnv1a64(
        reinterpret_cast<const std::uint8_t *>(bytes.data()) + 12,
        bytes.size() - 20);
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
