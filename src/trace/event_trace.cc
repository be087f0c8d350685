#include "trace/event_trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/byteio.h"
#include "common/logging.h"

namespace crw {
namespace {

// Tag byte: kind in the high nibble, small operand in the low nibble.
// Operand 0..14 is stored inline; 15 means an LEB128 varint follows.
constexpr std::uint8_t kInlineMax = 14;
constexpr std::uint8_t kSpill = 15;

constexpr char kMagic[8] = {'C', 'R', 'W', 'T', 'R', 'A', 'C', 'E'};

void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

// The exact byte sequence saveTraceFile() checksums and writes between
// the version word and the trailing checksum; traceChecksum() hashes
// the same bytes so an in-memory trace and its file agree on identity.
void
encodeTracePayload(const EventTrace &trace, ByteWriter &payload)
{
    payload.str(trace.key);
    payload.u64(trace.seed);
    payload.u64(trace.corpusBytes);
    payload.u64(trace.misspelled);
    payload.u64(trace.wordsFromDelatex);
    payload.u32(static_cast<std::uint32_t>(trace.streams.size()));
    for (const TraceStreamInfo &s : trace.streams) {
        payload.str(s.name);
        payload.u32(s.capacity);
        payload.u32(s.writers);
    }
    payload.u32(static_cast<std::uint32_t>(trace.threads.size()));
    for (const TraceThreadInfo &t : trace.threads) {
        payload.str(t.name);
        payload.u32(t.priority); // format v2
        payload.blob(t.code);
    }
}

} // namespace

std::uint64_t
EventTrace::eventCount() const
{
    std::uint64_t n = 0;
    for (const TraceThreadInfo &t : threads) {
        TraceCursor cur(t.code);
        std::uint64_t operand;
        while (!cur.atEnd()) {
            cur.peek(operand);
            cur.advance();
            ++n;
        }
    }
    return n;
}

TraceOp
TraceCursor::peek(std::uint64_t &operand) const
{
    crw_assert(pc_ != end_);
    const std::uint8_t tag = *pc_;
    const TraceOp op = static_cast<TraceOp>(tag >> 4);
    const std::uint8_t low = tag & 0x0F;
    const std::uint8_t *p = pc_ + 1;
    if (low != kSpill) {
        operand = low;
    } else {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
            crw_assert(p != end_);
            const std::uint8_t b = *p++;
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                break;
            shift += 7;
        }
        operand = v;
    }
    next_ = p;
    return op;
}

void
TraceCursor::advance()
{
    crw_assert(next_ != nullptr);
    pc_ = next_;
    next_ = nullptr;
}

TraceRecorder::TraceRecorder(std::string key, std::uint64_t seed,
                             std::uint64_t corpus_bytes)
{
    trace_.key = std::move(key);
    trace_.seed = seed;
    trace_.corpusBytes = corpus_bytes;
}

std::vector<std::uint8_t> &
TraceRecorder::code(ThreadId tid)
{
    crw_assert(tid >= 0 &&
               tid < static_cast<ThreadId>(trace_.threads.size()));
    return trace_.threads[static_cast<std::size_t>(tid)].code;
}

void
TraceRecorder::onThreadSpawn(ThreadId tid, const std::string &name,
                             std::uint8_t priority)
{
    if (tid != static_cast<ThreadId>(trace_.threads.size()))
        crw_fatal << "trace capture: thread ids must be dense spawn "
                     "order, got "
                  << tid;
    trace_.threads.push_back(TraceThreadInfo{name, priority, {}});
    pendingCharge_.push_back(0);
}

int
TraceRecorder::onStreamCreate(const std::string &name,
                              std::size_t capacity, int num_writers)
{
    TraceStreamInfo info;
    info.name = name;
    info.capacity = static_cast<std::uint32_t>(capacity);
    info.writers = static_cast<std::uint32_t>(num_writers);
    trace_.streams.push_back(std::move(info));
    return static_cast<int>(trace_.streams.size()) - 1;
}

void
TraceRecorder::emit(ThreadId tid, TraceOp op, std::uint64_t operand)
{
    std::vector<std::uint8_t> &out = code(tid);
    const std::uint8_t high = static_cast<std::uint8_t>(op) << 4;
    if (operand <= kInlineMax) {
        out.push_back(high | static_cast<std::uint8_t>(operand));
    } else {
        out.push_back(high | kSpill);
        appendVarint(out, operand);
    }
}

void
TraceRecorder::flushCharge(ThreadId tid)
{
    std::uint64_t &pending =
        pendingCharge_[static_cast<std::size_t>(tid)];
    if (pending != 0) {
        emit(tid, TraceOp::Charge, pending);
        pending = 0;
    }
}

void
TraceRecorder::recordSave(ThreadId tid)
{
    flushCharge(tid);
    emit(tid, TraceOp::Save, 0);
}

void
TraceRecorder::recordRestore(ThreadId tid)
{
    flushCharge(tid);
    emit(tid, TraceOp::Restore, 0);
}

void
TraceRecorder::recordCharge(ThreadId tid, Cycles cycles)
{
    // Coalesce with an immediately preceding charge: the engine's
    // clock and cycle counters cannot tell two back-to-back charges
    // from their sum.
    pendingCharge_[static_cast<std::size_t>(tid)] +=
        static_cast<std::uint64_t>(cycles);
}

void
TraceRecorder::recordPut(ThreadId tid, int stream_id)
{
    flushCharge(tid);
    emit(tid, TraceOp::Put, static_cast<std::uint64_t>(stream_id));
}

void
TraceRecorder::recordGet(ThreadId tid, int stream_id)
{
    flushCharge(tid);
    emit(tid, TraceOp::Get, static_cast<std::uint64_t>(stream_id));
}

void
TraceRecorder::recordClose(ThreadId tid, int stream_id)
{
    flushCharge(tid);
    emit(tid, TraceOp::Close, static_cast<std::uint64_t>(stream_id));
}

void
TraceRecorder::recordExit(ThreadId tid)
{
    flushCharge(tid);
    emit(tid, TraceOp::Exit, 0);
}

EventTrace
TraceRecorder::take(std::uint64_t misspelled,
                    std::uint64_t words_from_delatex)
{
    for (ThreadId tid = 0;
         tid < static_cast<ThreadId>(trace_.threads.size()); ++tid)
        flushCharge(tid);
    trace_.misspelled = misspelled;
    trace_.wordsFromDelatex = words_from_delatex;
    return std::move(trace_);
}

std::uint64_t
traceChecksum(const EventTrace &trace)
{
    ByteWriter payload;
    encodeTracePayload(trace, payload);
    return fnv1a64(payload.bytes.data(), payload.bytes.size());
}

bool
saveTraceFile(const EventTrace &trace, const std::string &path,
              std::string *error)
{
    // One buffer: the payload is encoded in place after the header,
    // and the trailer hashes that range of it.
    ByteWriter file;
    for (const char c : kMagic)
        file.bytes.push_back(static_cast<std::uint8_t>(c));
    file.u32(kTraceFormatVersion);
    const std::size_t payload_at = file.bytes.size();
    encodeTracePayload(trace, file);
    file.u64(fnv1a64(file.bytes.data() + payload_at,
                     file.bytes.size() - payload_at));

    return writeFileAtomic({{file.bytes.data(), file.bytes.size()}}, path,
                           error);
}

namespace {

/**
 * The one rule set for event scripts (see validateTraceCode()).
 * Scans @p code and folds every byte of it into the FNV-1a state
 * @p hash, so the loader checks and hashes a script in a single pass.
 * On a violation it still folds the rest of the script before failing,
 * so @p hash always ends as the hash of the whole script.
 */
bool
scanTraceCode(const std::uint8_t *code, std::size_t size,
              std::size_t num_streams, std::uint64_t &hash,
              std::string *error)
{
    const auto names_stream = [](unsigned high) {
        return high >= static_cast<unsigned>(TraceOp::Put) &&
               high <= static_cast<unsigned>(TraceOp::Close);
    };
    // The hash chain bounds the loop, so a tag byte that passes every
    // rule on its own (no spill, a known op, an inline stream id in
    // range) costs one table lookup; only the rest take the checks
    // below, which also name the rule a bad tag breaks.
    bool plain[256];
    for (unsigned tag = 0; tag < 256; ++tag) {
        const unsigned high = tag >> 4;
        const unsigned low = tag & 0x0F;
        plain[tag] = high <= static_cast<unsigned>(TraceOp::Exit) &&
                     low != kSpill &&
                     !(names_stream(high) && low >= num_streams);
    }

    const std::uint8_t *p = code;
    const std::uint8_t *const end = code + size;
    const std::uint8_t *event = p;
    std::uint64_t h = hash;
    const auto next = [&p, &h]() {
        const std::uint8_t b = *p++;
        h = (h ^ b) * 0x100000001b3ull;
        return b;
    };
    const auto fail = [&](const std::string &why) {
        hash = fnv1a64(p, static_cast<std::size_t>(end - p), h);
        if (error)
            *error = why + " at offset " +
                     std::to_string(event - code);
        return false;
    };

    while (p != end) {
        event = p;
        const std::uint8_t tag = next();
        if (plain[tag])
            continue;
        const unsigned high = tag >> 4;
        if (high > static_cast<unsigned>(TraceOp::Exit))
            return fail("unknown event op " + std::to_string(high));
        std::uint64_t operand = tag & 0x0F;
        if (operand == kSpill) {
            std::uint64_t v = 0;
            int shift = 0;
            while (true) {
                if (p == end)
                    return fail("truncated varint");
                if (shift > 63)
                    return fail("oversized varint");
                const std::uint8_t b = next();
                v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
                if (!(b & 0x80))
                    break;
                shift += 7;
            }
            operand = v;
        }
        if (names_stream(high) && operand >= num_streams)
            return fail("stream id " + std::to_string(operand) +
                        " out of range");
    }
    hash = h;
    return true;
}

/**
 * Sequential reader over a trace file's payload, straight from the
 * file: every byte it consumes is folded into the running FNV-1a
 * payload hash, and no length is trusted beyond the payload bytes
 * still unread. Like ByteReader it never throws: a field that does not
 * fit flips ok to false and later reads return zero values.
 */
class PayloadReader
{
  public:
    PayloadReader(std::FILE *fp, std::uint64_t payload_size)
        : fp_(fp),
          left_(payload_size)
    {}

    bool ok = true;        ///< every field fit in the payload
    bool ioFailed = false; ///< the file ended before its stat size
    std::uint64_t hash = 0xcbf29ce484222325ull;

    std::uint32_t
    u32()
    {
        std::uint8_t b[4] = {};
        take(b, 4);
        return ByteReader{b, b + 4}.u32();
    }

    std::uint64_t
    u64()
    {
        std::uint8_t b[8] = {};
        take(b, 8);
        return ByteReader{b, b + 8}.u64();
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!fits(n))
            return {};
        std::string s(n, '\0');
        take(s.data(), n);
        return s;
    }

    /**
     * Read a length-prefixed event script into @p code and scan it
     * (scanTraceCode) while it is hot. False, with the reason in
     * @p why, only for a script that breaks a rule; a blob that does
     * not fit flips ok instead.
     */
    bool
    script(std::vector<std::uint8_t> &code, std::size_t num_streams,
           std::string *why)
    {
        const std::uint64_t n = u64();
        if (!fits(n))
            return true;
        code.resize(static_cast<std::size_t>(n));
        if (!read(code.data(), code.size()))
            return true;
        return scanTraceCode(code.data(), code.size(), num_streams,
                             hash, why);
    }

    /** Fold the unread rest of the payload into the hash; leftover
     *  bytes after the last field make the payload malformed. */
    void
    finish()
    {
        if (left_ != 0)
            ok = false;
        std::uint8_t buf[4096] = {};
        while (left_ != 0 && !ioFailed) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(left_, sizeof buf));
            if (read(buf, n))
                hash = fnv1a64(buf, n, hash);
        }
    }

  private:
    bool
    fits(std::uint64_t n)
    {
        if (ok && n <= left_)
            return true;
        ok = false;
        return false;
    }

    void
    take(void *dst, std::size_t n)
    {
        if (fits(n) && read(dst, n))
            hash = fnv1a64(static_cast<const std::uint8_t *>(dst), n,
                           hash);
    }

    bool
    read(void *dst, std::size_t n)
    {
        if (ioFailed || std::fread(dst, 1, n, fp_) != n) {
            ioFailed = true;
            ok = false;
            return false;
        }
        left_ -= n;
        return true;
    }

    std::FILE *fp_;
    std::uint64_t left_;
};

} // namespace

bool
validateTraceCode(const std::vector<std::uint8_t> &code,
                  std::size_t num_streams, std::string *error)
{
    std::uint64_t unused_hash = 0;
    return scanTraceCode(code.data(), code.size(), num_streams,
                         unused_hash, error);
}

bool
loadTraceFile(const std::string &path, EventTrace &out,
              std::string *error)
{
    auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    std::uint64_t size = 0;
    std::string io_err;
    const FilePtr file = openFileForRead(path, size, &io_err);
    if (!file)
        return fail(io_err);
    std::FILE *const fp = file.get();

    // 8 magic + 4 version + 8 trailing checksum.
    std::uint8_t header[12] = {};
    if (size < 20 || std::fread(header, 1, 12, fp) != 12)
        return fail("truncated header");
    if (std::memcmp(header, kMagic, 8) != 0)
        return fail("bad magic (not a crw trace)");
    const std::uint32_t version =
        ByteReader{header + 8, header + 12}.u32();
    if (version != kTraceFormatVersion)
        return fail("unsupported trace version " +
                    std::to_string(version));

    // One pass over the payload: parse each field in file order,
    // hashing its bytes as they arrive, and check each thread's script
    // as it lands in its final vector. A malformed field or a bad
    // script only decides the message once the hash of the whole
    // payload has been held against the trailer: a damaged file must
    // read as `checksum mismatch`, whatever its damage parses as.
    PayloadReader r(fp, size - 20);
    EventTrace t;
    t.key = r.str();
    t.seed = r.u64();
    t.corpusBytes = r.u64();
    t.misspelled = r.u64();
    t.wordsFromDelatex = r.u64();
    const std::uint32_t num_streams = r.u32();
    for (std::uint32_t i = 0; r.ok && i < num_streams; ++i) {
        TraceStreamInfo s;
        s.name = r.str();
        s.capacity = r.u32();
        s.writers = r.u32();
        t.streams.push_back(std::move(s));
    }
    std::string bad_script;
    const std::uint32_t num_threads = r.u32();
    for (std::uint32_t i = 0; r.ok && i < num_threads; ++i) {
        TraceThreadInfo th;
        th.name = r.str();
        th.priority = static_cast<std::uint8_t>(r.u32());
        std::string why;
        // The checksum catches accidental corruption, but a trace
        // could still carry scripts the check-free TraceCursor must
        // never see (e.g. written by a buggy or adversarial
        // producer).
        if (!r.script(th.code, t.streams.size(), &why) &&
            bad_script.empty())
            bad_script = "invalid event script in thread " +
                         std::to_string(i) + " (" + th.name +
                         "): " + why;
        t.threads.push_back(std::move(th));
    }
    r.finish();

    std::uint8_t trailer[8] = {};
    if (r.ioFailed || std::fread(trailer, 1, 8, fp) != 8)
        return fail("truncated trace (file changed while loading)");
    const std::uint64_t checksum =
        ByteReader{trailer, trailer + 8}.u64();
    if (r.hash != checksum)
        return fail("checksum mismatch (corrupted trace)");
    if (!r.ok)
        return fail("malformed payload");
    if (!bad_script.empty())
        return fail(bad_script);
    t.fileChecksum = checksum;
    out = std::move(t);
    return true;
}

} // namespace crw
